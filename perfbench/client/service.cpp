//===- perfbench/client/service.cpp - Server child and PVP connection -----===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "net/Socket.h"

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <poll.h>
#include <spawn.h>
#include <sstream>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

namespace pb {

using namespace ev;

void RunResult::fail(const std::string &Why) {
  Correct = false;
  if (Errors.size() < 20)
    Errors.push_back(Why);
}

ServerProcess::~ServerProcess() { stop(); }

bool ServerProcess::start(const std::string &Evtool, const std::string &Socket,
                          unsigned Sessions, unsigned Threads,
                          std::string &Err) {
  std::string Log = Socket + ".log";
  ::unlink(Socket.c_str());
  std::string SessionsArg = std::to_string(Sessions);
  std::vector<std::string> Env = {"EV_THREADS=" + std::to_string(Threads)};
  for (char **E = environ; *E; ++E)
    if (std::string_view(*E).rfind("EV_THREADS=", 0) != 0)
      Env.emplace_back(*E);
  std::vector<char *> Envp;
  for (std::string &E : Env)
    Envp.push_back(E.data());
  Envp.push_back(nullptr);
  const char *Argv[] = {Evtool.c_str(), "serve",     "--unix",
                        Socket.c_str(), "--sessions", SessionsArg.c_str(),
                        "--idle-ms",    "600000",     nullptr};
  // posix_spawn does not copy the client's address space, which holds the
  // generated inputs, so the launch costs the same whatever their size.
  // The server stays in the client's process group, which run.py stops.
  posix_spawn_file_actions_t Files;
  posix_spawn_file_actions_init(&Files);
  posix_spawn_file_actions_addopen(&Files, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&Files, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&Files, 2, Log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  int Rc = ::posix_spawn(&Pid, Evtool.c_str(), &Files, nullptr,
                         const_cast<char *const *>(Argv), Envp.data());
  posix_spawn_file_actions_destroy(&Files);
  if (Rc != 0) {
    Pid = -1;
    Err = std::string("cannot start evtool serve: ") + std::strerror(Rc);
    return false;
  }
  // The server announces readiness on stderr once it listens.
  auto Deadline = Clock::now() + std::chrono::seconds(60);
  while (Clock::now() < Deadline) {
    std::ifstream In(Log);
    std::stringstream Text;
    Text << In.rdbuf();
    if (Text.str().find("listening on") != std::string::npos)
      return true;
    int Status = 0;
    if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
      Pid = -1;
      Err = "evtool serve exited early: " + Text.str();
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  Err = "evtool serve did not start listening";
  return false;
}

double ServerProcess::peakRssMb() const {
  if (Pid <= 0)
    return 0;
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

int ServerProcess::stop() {
  if (Pid <= 0)
    return 0;
  ::kill(Pid, SIGTERM);
  int Status = 0;
  auto Deadline = Clock::now() + std::chrono::seconds(20);
  while (::waitpid(Pid, &Status, WNOHANG) != Pid) {
    if (Clock::now() > Deadline) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, &Status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  Pid = -1;
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : 128;
}

Conn::~Conn() { net::closeSocket(Fd); }

bool Conn::connect(const std::string &Socket) {
  Result<int> R = net::connectUnix(Socket);
  if (!R)
    return false;
  Fd = *R;
  return true;
}

int64_t Conn::send(const std::string &Method, json::Object Params) {
  int64_t Id = NextId++;
  std::string Bytes = rpc::frame(rpc::makeRequest(Id, Method, std::move(Params)));
  size_t Sent = 0;
  while (Sent < Bytes.size()) {
    ssize_t N = net::sendNoSignal(Fd, Bytes.data() + Sent, Bytes.size() - Sent);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return -1;
    }
    Sent += static_cast<size_t>(N);
  }
  return Id;
}

std::optional<json::Value> Conn::read(int TimeoutMs) {
  auto Deadline = Clock::now() + std::chrono::milliseconds(TimeoutMs);
  for (;;) {
    if (std::optional<json::Value> Msg = Reader.poll())
      return Msg;
    if (Reader.failed())
      return std::nullopt;
    auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    Deadline - Clock::now())
                    .count();
    if (Left <= 0)
      return std::nullopt;
    pollfd P{Fd, POLLIN, 0};
    if (::poll(&P, 1, static_cast<int>(Left)) <= 0)
      continue;
    char Buf[65536];
    ssize_t N = ::read(Fd, Buf, sizeof(Buf));
    if (N == 0)
      return std::nullopt;
    if (N < 0) {
      if (errno == EINTR || errno == EAGAIN)
        continue;
      return std::nullopt;
    }
    Reader.feed(std::string_view(Buf, static_cast<size_t>(N)));
  }
}

std::optional<json::Value> Conn::call(const std::string &Method,
                                      json::Object Params) {
  int64_t Id = send(Method, std::move(Params));
  if (Id < 0)
    return std::nullopt;
  for (;;) {
    std::optional<json::Value> Msg = read();
    if (!Msg || !Msg->isObject())
      return std::nullopt;
    const json::Value *IdV = Msg->asObject().find("id");
    int64_t Got = 0;
    if (IdV && IdV->getInteger(Got) && Got == Id)
      return Msg;
    Notes.push_back(std::move(*Msg));
  }
}

json::Object
params(std::initializer_list<std::pair<const char *, json::Value>> Fields) {
  json::Object O;
  for (const auto &[K, V] : Fields)
    O.set(K, V);
  return O;
}

const json::Object *resultOf(const std::optional<json::Value> &Reply) {
  if (!Reply || !Reply->isObject())
    return nullptr;
  const json::Value *R = Reply->asObject().find("result");
  return R && R->isObject() ? &R->asObject() : nullptr;
}

} // namespace pb
