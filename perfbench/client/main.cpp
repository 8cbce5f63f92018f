//===- perfbench/client/main.cpp - Service benchmark entry point ----------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench_client --workload W --seed N --seconds S --trace 0|1
///                  --evtool PATH --workdir DIR
///
/// Runs one workload against `evtool serve` and prints, as its last line,
/// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
/// with --trace 0; with --trace 1 the workload runs for half the time and
/// the per-layer probes for the other half, and the per-layer metrics are
/// printed instead. Exits 1 when a check failed.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <unistd.h>

using namespace pb;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench_client: %s\nusage: perfbench_client --workload "
               "ide-browse|fleet-regress|live-follow --seed N --seconds S "
               "--trace 0|1 --evtool PATH --workdir DIR\n",
               Why);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig Cfg;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I], Val = Argv[I + 1];
    if (Key == "--workload")
      Cfg.Workload = Val;
    else if (Key == "--seed")
      Cfg.Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Key == "--seconds")
      Cfg.Seconds = std::strtod(Val.c_str(), nullptr);
    else if (Key == "--trace")
      Cfg.Trace = Val == "1";
    else if (Key == "--evtool")
      Cfg.Evtool = Val;
    else if (Key == "--workdir")
      Cfg.WorkDir = Val;
    else
      return usage(("unknown option " + Key).c_str());
  }
  if (Cfg.Evtool.empty() || Cfg.WorkDir.empty() || !(Cfg.Seconds > 0))
    return usage("missing --evtool, --workdir or --seconds");
  if (Cfg.Workload != "ide-browse" && Cfg.Workload != "fleet-regress" &&
      Cfg.Workload != "live-follow")
    return usage("unknown workload");
  // The server's pool: every core up to four, and at least two when the
  // host has them, so a parallel merge has room to show.
  Cfg.Threads = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  // Unix socket paths are short; everything the run makes lives here.
  if (::chdir(Cfg.WorkDir.c_str()) != 0)
    return usage("cannot enter --workdir");

  double E2eSeconds = Cfg.Trace ? Cfg.Seconds / 2 : Cfg.Seconds;
  WorkloadOutput W = Cfg.Workload == "ide-browse" ? runIdeBrowse(Cfg, E2eSeconds)
                     : Cfg.Workload == "fleet-regress"
                         ? runFleetRegress(Cfg, E2eSeconds)
                         : runLiveFollow(Cfg, E2eSeconds);
  RunResult &Res = W.Result;
  for (const std::string &N : Res.Notes)
    std::printf("%s\n", N.c_str());
  ev::json::Object Metrics;
  if (Cfg.Trace) {
    for (const auto &[Name, V] : Res.Metrics)
      std::printf("e2e (traced run) %s = %.6g %s\n", Name.c_str(), V.first,
                  V.second.c_str());
    RunResult Layers;
    runProbes(Cfg, Cfg.Seconds / 2, Layers);
    addTelemetryMetrics(Cfg, W, Layers);
    for (const std::string &E : Layers.Errors)
      Res.fail(E);
    Res.Metrics = std::move(Layers.Metrics);
  }
  for (const auto &[Name, V] : Res.Metrics) {
    std::printf("%s = %.6g %s\n", Name.c_str(), V.first, V.second.c_str());
    ev::json::Object M;
    M.set("value", V.first);
    M.set("unit", V.second);
    Metrics.set(Name, std::move(M));
  }
  for (const std::string &E : Res.Errors)
    std::fprintf(stderr, "perfbench_client: check failed: %s\n", E.c_str());
  ev::json::Object Line;
  Line.set("correct", Res.Correct && Res.Failed == 0);
  Line.set("attempted", Res.Attempted);
  Line.set("failed", Res.Failed);
  Line.set("metrics", std::move(Metrics));
  std::printf("%s\n", ev::json::Value(std::move(Line)).dump().c_str());
  std::fflush(stdout);
  return Res.Correct ? 0 : 1;
}
