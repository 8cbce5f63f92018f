//===- perfbench/client/bench.h - Service benchmark client ----------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the service benchmark client: seeded input generators,
/// the `evtool serve` child process, a blocking PVP socket connection, and
/// the statistics the workloads report.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CLIENT_BENCH_H
#define PERFBENCH_CLIENT_BENCH_H

#include "ide/JsonRpc.h"
#include "support/Json.h"

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// Linear-interpolated percentile (P in [0,100]); 0 for an empty input.
double percentile(std::vector<double> V, double P);

/// Deterministic generator; every input of a run derives from the seed.
struct Rng {
  std::mt19937_64 Engine;
  explicit Rng(uint64_t Seed) : Engine(Seed * 0x9E3779B97F4A7C15ULL + 1) {}
  uint64_t below(uint64_t N) { return N == 0 ? 0 : Engine() % N; }
  double unit() {
    return static_cast<double>(Engine() >> 11) * (1.0 / 9007199254740992.0);
  }
  double gauss() {
    std::normal_distribution<double> D;
    return D(Engine);
  }
};

//===-- Inputs ------------------------------------------------------------===//

/// One synthetic service profile: a calling-context tree whose nodes carry
/// integer exclusive values for two metrics ("samples" count and "cpu"
/// nanoseconds). Totals are summed here, independently of the program.
struct ServiceProfile {
  struct Func {
    std::string Name;
    std::string File;
    uint32_t Line = 0;
  };
  struct Node {
    int32_t Parent = -1; ///< -1 for the root.
    uint32_t Func = 0;
    int64_t Samples = 0; ///< Exclusive values (0 on interior nodes).
    int64_t CpuNs = 0;
  };
  std::string Name;
  std::string Module; ///< The binary; shared by replicas of one service.
  std::vector<Func> Funcs;
  std::vector<Node> Nodes; ///< Parents precede children.
  int64_t TotalSamples = 0;
  int64_t TotalCpuNs = 0;

  void retotal();
  std::vector<uint32_t> stackOf(size_t Node) const; ///< Root-first funcs.
};

/// A service tree of about \p Nodes contexts.
ServiceProfile makeService(uint64_t Seed, size_t Nodes, std::string Name);

/// The profile as a pprof protobuf (one location per function).
std::string toPprofBytes(const ServiceProfile &S);
/// The profile as .evprof, built through ProfileBuilder.
std::string toEvProfBytes(const ServiceProfile &S);

/// Cohorts for fleet-regress: replicas of one service with seeded noise.
/// The test cohort carries three planted changes.
struct Cohort {
  std::vector<ServiceProfile> Base;
  std::vector<ServiceProfile> Test;
  std::string ScaledFrame;    ///< A leaf whose value is x1.6 in Test.
  std::string NewFrame;       ///< A context only Test has.
  std::string VanishedFrame;  ///< A context only Base has.
};
Cohort makeCohort(uint64_t Seed, size_t Nodes, size_t Replicas);
/// A replica of \p S: every value times \p Scale with 3% Gaussian noise.
ServiceProfile noisyReplica(const ServiceProfile &S, Rng &R, std::string Name,
                            int64_t Scale);

/// Appendable .evprof sections for live-follow. Each section adds new
/// leaf contexts (and sometimes new frames) to the profile whose canonical
/// wire form has the given table counts.
struct SectionPlan {
  size_t Strings = 0;
  size_t Frames = 0;
  size_t Nodes = 0;
};
/// Counts the string, frame and node records of an .evprof byte stream.
SectionPlan countRecords(std::string_view EvProf);
struct Section {
  std::string Bytes;
  int64_t Samples = 0; ///< Sum of the "samples" values it adds.
};
std::vector<Section> makeSections(uint64_t Seed, SectionPlan Plan,
                                  size_t Count, size_t NodesPerSection);

//===-- Server process ----------------------------------------------------===//

/// `evtool serve --unix PATH` as a child process.
class ServerProcess {
public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess &) = delete;
  ServerProcess &operator=(const ServerProcess &) = delete;

  /// Starts the server and waits for its "listening" line.
  bool start(const std::string &Evtool, const std::string &Socket,
             unsigned Sessions, unsigned Threads, std::string &Err);
  /// VmHWM of the server, in MiB (0 when unreadable).
  double peakRssMb() const;
  /// Drains the server (SIGTERM) and reaps it. \returns its exit status.
  int stop();

private:
  pid_t Pid = -1;
};

/// A blocking PVP connection over a Unix-domain socket.
class Conn {
public:
  Conn() = default;
  ~Conn();
  Conn(const Conn &) = delete;
  Conn &operator=(const Conn &) = delete;

  bool connect(const std::string &Socket);
  /// Sends a request; returns the id it was given.
  int64_t send(const std::string &Method, ev::json::Object Params);
  /// Reads the next frame (reply or notification); nullopt on EOF/timeout.
  std::optional<ev::json::Value> read(int TimeoutMs = 60000);
  /// Sends and waits for that request's reply; notifications arriving in
  /// between are kept in Notes.
  std::optional<ev::json::Value> call(const std::string &Method,
                                      ev::json::Object Params);
  std::vector<ev::json::Value> Notes;

private:
  int Fd = -1;
  int64_t NextId = 1;
  ev::rpc::FrameReader Reader;
};

/// A request's params object from (key, value) pairs.
ev::json::Object params(
    std::initializer_list<std::pair<const char *, ev::json::Value>> Fields);

/// \returns the "result" object of a reply, or nullptr for an error reply.
const ev::json::Object *resultOf(const std::optional<ev::json::Value> &Reply);

//===-- Runs --------------------------------------------------------------===//

struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Evtool;  ///< Path of the evtool binary.
  std::string WorkDir; ///< Scratch directory for inputs and the socket.
  unsigned Threads = 4;
};

/// What one run reports. Metrics are (value, unit) by name; Notes are
/// extra human-readable lines printed ahead of the result.
struct RunResult {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, std::pair<double, std::string>> Metrics;
  std::vector<std::string> Notes;
  std::vector<std::string> Errors;

  void metric(const std::string &Name, double Value, const std::string &Unit) {
    Metrics[Name] = {Value, Unit};
  }
  void fail(const std::string &Why);
};

/// Runs one workload end to end. Trace runs also read the server's
/// pvp/metrics before stopping it, for the per-layer report.
struct WorkloadOutput {
  RunResult Result;
  /// Client-observed latencies by method (ms), for the residual probe.
  std::map<std::string, std::vector<double>> ClientMs;
  /// Raw sizes of the deltas the client applied (live-follow).
  std::vector<double> DeltaBytes;
  ev::json::Value ServerMetrics;
};
WorkloadOutput runIdeBrowse(const RunConfig &Cfg, double Seconds);
WorkloadOutput runFleetRegress(const RunConfig &Cfg, double Seconds);
WorkloadOutput runLiveFollow(const RunConfig &Cfg, double Seconds);

/// In-process per-layer probes over the workload's generated inputs.
void runProbes(const RunConfig &Cfg, double Seconds, RunResult &Out);
/// Per-layer figures from the server telemetry a trace run read.
void addTelemetryMetrics(const RunConfig &Cfg, const WorkloadOutput &W,
                         RunResult &Out);

/// Inputs shared by the e2e workloads and the probes.
struct BrowseInputs {
  std::vector<ServiceProfile> Profiles;
  std::vector<std::string> Paths;     ///< One file per (profile, format).
  std::vector<size_t> ProfileOfPath;  ///< Paths[i] holds Profiles[...].
};
BrowseInputs makeBrowseInputs(uint64_t Seed, const std::string &Dir);
/// Profiles (and files) ide-browse cycles through.
inline constexpr size_t BrowseProfiles = 8;
/// Sizes (contexts) of the live-follow base profile and fleet replicas.
inline constexpr size_t LiveBaseNodes = 12000;
inline constexpr size_t FleetNodes = 9500;
inline constexpr size_t FleetReplicas = 8;

bool writeFileBytes(const std::string &Path, const std::string &Bytes);

} // namespace pb

#endif // PERFBENCH_CLIENT_BENCH_H
