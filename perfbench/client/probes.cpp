//===- perfbench/client/probes.cpp - Per-layer probes ---------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-layer half of a trace run: times calls into each layer's public
/// functions on the workload's own generated inputs, in this process, and
/// turns the server telemetry read after the workload (pvp/metrics) into
/// the session and net figures.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "analysis/Aggregate.h"
#include "analysis/Diagnostic.h"
#include "analysis/FleetAggregate.h"
#include "analysis/Regression.h"
#include "analysis/Transform.h"
#include "convert/Converters.h"
#include "ide/PvpServer.h"
#include "ide/ViewDelta.h"
#include "proto/EvProf.h"
#include "proto/EvProfStream.h"
#include "query/Compiler.h"
#include "query/Parser.h"
#include "query/Vm.h"
#include "render/FlameLayout.h"
#include "render/TreeTable.h"
#include "support/Limits.h"
#include "support/Strings.h"

#include <cmath>

namespace pb {

using namespace ev;

namespace {

/// Keeps probed results observable so the calls are not optimized away.
volatile size_t Sink = 0;

/// Runs \p Fn until \p BudgetMs is spent (at least 3, at most 400 times)
/// and returns the median call time in ms.
template <class F> double medianMs(double BudgetMs, F &&Fn) {
  std::vector<double> Times;
  Clock::time_point Start = Clock::now();
  do {
    Clock::time_point T0 = Clock::now();
    Fn();
    Times.push_back(msSince(T0));
  } while (Times.size() < 3 ||
           (msSince(Start) < BudgetMs && Times.size() < 400));
  return percentile(Times, 50);
}

/// The inputs the probes run on: the workload's representative profile
/// and a base/test cohort of its replicas.
struct ProbeKit {
  ServiceProfile Rep;
  std::vector<ServiceProfile> Base, Test;
};

ProbeKit kitFor(const RunConfig &Cfg) {
  ProbeKit K;
  Rng R(Cfg.Seed ^ 0x9B0BEULL);
  if (Cfg.Workload == "fleet-regress") {
    Cohort C = makeCohort(Cfg.Seed, FleetNodes, FleetReplicas);
    K.Rep = C.Base[0];
    K.Base = std::move(C.Base);
    K.Test = std::move(C.Test);
    return K;
  }
  if (Cfg.Workload == "live-follow")
    K.Rep = makeService(Cfg.Seed * 7 + 3, LiveBaseNodes, "live-service");
  else // ide-browse: its middle-sized profile.
    K.Rep = makeService(Cfg.Seed * 1000 + 1, 16000, "service-1");
  for (size_t I = 0; I < 4; ++I) {
    K.Base.push_back(noisyReplica(K.Rep, R, "base-" + std::to_string(I), 1));
    K.Test.push_back(noisyReplica(K.Rep, R, "test-" + std::to_string(I), 1));
  }
  return K;
}

/// Histogram percentile from pvp/metrics' [floor, count] log2 buckets,
/// interpolated linearly inside the bucket.
double histogramPercentile(const json::Value &Metrics, const std::string &Name,
                           double P) {
  if (!Metrics.isObject())
    return 0;
  const json::Value *H = Metrics.asObject().find("histograms");
  const json::Value *E = H && H->isObject() ? H->asObject().find(Name) : nullptr;
  const json::Value *B =
      E && E->isObject() ? E->asObject().find("buckets") : nullptr;
  if (!B || !B->isArray())
    return 0;
  double Total = 0;
  for (const json::Value &Bk : B->asArray())
    Total += Bk.asArray()[1].asNumber();
  double Rank = P / 100.0 * Total, Seen = 0;
  for (const json::Value &Bk : B->asArray()) {
    double Floor = Bk.asArray()[0].asNumber(), Count = Bk.asArray()[1].asNumber();
    if (Seen + Count >= Rank) {
      double Width = Floor == 0 ? 0 : Floor;
      return Floor + Width * (Rank - Seen) / std::max(Count, 1.0);
    }
    Seen += Count;
  }
  return 0;
}

double histogramMeanUs(const json::Value &Metrics, const std::string &Name) {
  if (!Metrics.isObject())
    return 0;
  const json::Value *H = Metrics.asObject().find("histograms");
  const json::Value *E = H && H->isObject() ? H->asObject().find(Name) : nullptr;
  if (!E || !E->isObject())
    return 0;
  const json::Value *C = E->asObject().find("count");
  const json::Value *S = E->asObject().find("sum");
  double Count = C ? C->numberOr(0) : 0;
  return Count > 0 && S ? S->numberOr(0) / Count : 0;
}

double counter(const json::Value &Metrics, const char *Name) {
  if (!Metrics.isObject())
    return 0;
  const json::Value *Cs = Metrics.asObject().find("counters");
  const json::Value *C = Cs && Cs->isObject() ? Cs->asObject().find(Name) : nullptr;
  return C ? C->numberOr(0) : 0;
}

} // namespace

void runProbes(const RunConfig &Cfg, double Seconds, RunResult &Out) {
  ProbeKit Kit = kitFor(Cfg);
  std::string Ev = toEvProfBytes(Kit.Rep);
  std::string Pb = toPprofBytes(Kit.Rep);
  Result<Profile> Decoded = readEvProf(Ev);
  if (!Decoded) {
    Out.fail("probe profile does not decode: " + Decoded.error());
    return;
  }
  const Profile &P = *Decoded;
  std::string Canonical = writeEvProf(P);
  std::vector<Section> Sections =
      makeSections(Cfg.Seed + 17, countRecords(Canonical), 400, 8);
  std::vector<Profile> CohortProfiles;
  for (const std::vector<ServiceProfile> *Side : {&Kit.Base, &Kit.Test})
    for (const ServiceProfile &S : *Side)
      CohortProfiles.push_back(*readEvProf(toEvProfBytes(S)));
  size_t BaseCount = Kit.Base.size();
  double Budget = Seconds * 1000.0 / 32.0;

  // proto and convert.
  double Ms = medianMs(Budget, [&] { Sink = Sink + readEvProf(Ev)->nodeCount(); });
  Out.metric("proto.decode_mb_per_s", static_cast<double>(Ev.size()) / 1e3 / Ms,
             "MB/s");
  Ms = medianMs(Budget,
                [&] { Sink = Sink + convert::fromPprof(Pb)->nodeCount(); });
  Out.metric("convert.pprof_mb_per_s", static_cast<double>(Pb.size()) / 1e3 / Ms,
             "MB/s");
  {
    EvProfStreamDecoder D(DecodeLimits::defaults());
    if (!D.feed(Canonical)) {
      Out.fail("stream decoder rejects the canonical profile");
    } else {
      size_t Next = 0;
      Ms = medianMs(Budget, [&] {
        D.feed(Sections[Next++ % Sections.size()].Bytes);
        Sink = Sink + D.snapshot()->nodeCount();
      });
      Out.metric("proto.stream_append_ms", Ms, "ms");
    }
  }

  // analysis.
  Out.metric("analysis.shape_ms.bottom-up",
             medianMs(Budget, [&] { Sink = Sink + bottomUpTree(P).nodeCount(); }),
             "ms");
  Out.metric("analysis.shape_ms.flat",
             medianMs(Budget, [&] { Sink = Sink + flatTree(P).nodeCount(); }),
             "ms");
  std::vector<const Profile *> All;
  for (const Profile &C : CohortProfiles)
    All.push_back(&C);
  AggregateOptions AggOpt;
  AggOpt.WithMin = AggOpt.WithMax = AggOpt.WithMean = true;
  Out.metric("analysis.aggregate_ms", medianMs(Budget, [&] {
               Sink = Sink + aggregate(All, AggOpt).merged().nodeCount();
             }),
             "ms");
  {
    size_t Next = 0;
    CohortAccumulator Acc;
    Out.metric("analysis.cohort_add_ms", medianMs(Budget, [&] {
                 Acc.add(CohortProfiles[Next++ % CohortProfiles.size()]);
               }),
               "ms");
  }
  CohortAccumulator BaseAcc, TestAcc;
  for (size_t I = 0; I < CohortProfiles.size(); ++I)
    (I < BaseCount ? BaseAcc : TestAcc).add(CohortProfiles[I]);
  Out.metric("analysis.regress_rules_ms", medianMs(Budget, [&] {
               DiagnosticSet Diags;
               RegressionAnalyzer().analyze(BaseAcc, TestAcc, Diags);
               Sink = Sink + Diags.size();
             }),
             "ms");

  // query.
  const std::string Program =
      "derive hot = share(\"samples\") > 0.01 ? 1 : 0;\n"
      "print \"hot contexts: \" + str(total(\"hot\"));\n";
  std::shared_ptr<const evql::CompiledProgram> Compiled;
  Out.metric("query.compile_ms", medianMs(Budget, [&] {
               Result<evql::Program> Prog = evql::parseProgram(Program);
               Compiled = Prog ? evql::compileProgram(*Prog,
                                                      AnalysisLimits::defaults())
                               : nullptr;
             }),
             "ms");
  if (!Compiled) {
    Out.fail("the probe query does not compile");
  } else {
    Out.metric("query.run_ms", medianMs(Budget, [&] {
                 Sink = Sink + evql::runCompiled(P, *Compiled)->Printed.size();
               }),
               "ms");
  }

  // render.
  Out.metric("render.flame_layout_ms", medianMs(Budget, [&] {
               Sink = Sink + FlameGraph(P, 0).rects().size();
             }),
             "ms");
  Out.metric("render.tree_table_ms", medianMs(Budget, [&] {
               TreeTable T(P);
               T.expandHotPath(0);
               Sink = Sink + T.rows().size() + T.renderText().size();
             }),
             "ms");

  // ide: in-process dispatch with the view cache off, so every request
  // computes.
  ServerLimits Limits;
  Limits.MaxCachedViews = 0;
  PvpServer Server(Limits);
  int64_t NextId = 1;
  auto Dispatch = [&](const char *Method, json::Object Params) {
    json::Value Reply =
        Server.handleMessage(rpc::makeRequest(NextId++, Method, std::move(Params)));
    const json::Value *R = Reply.asObject().find("result");
    if (!R)
      Out.fail(std::string("in-process ") + Method + " failed: " +
               Reply.dump().substr(0, 200));
    return R ? *R : json::Value(json::Object());
  };
  auto IdOf = [](const json::Value &R) {
    const json::Value *V = R.isObject() ? R.asObject().find("profile") : nullptr;
    return V ? V->asInt() : int64_t(-1);
  };
  std::string Path = Cfg.WorkDir + "/probe.evprof";
  writeFileBytes(Path, Ev);
  Out.metric("ide.dispatch_ms.open", medianMs(Budget, [&] {
               int64_t Id = IdOf(Dispatch("pvp/open", params({{"path", Path}})));
               Dispatch("pvp/close", params({{"profile", Id}}));
             }),
             "ms");
  int64_t Id = IdOf(Dispatch("pvp/open", params({{"path", Path}})));
  json::Value Flame;
  Out.metric("ide.dispatch_ms.flame", medianMs(Budget, [&] {
               Flame = Dispatch("pvp/flame",
                                params({{"profile", Id}, {"maxRects", 3000}}));
             }),
             "ms");
  Out.metric("ide.dispatch_ms.treeTable", medianMs(Budget, [&] {
               Dispatch("pvp/treeTable", params({{"profile", Id}}));
             }),
             "ms");
  int64_t Node = static_cast<int64_t>(P.nodeCount() / 2);
  Out.metric("ide.dispatch_ms.hover", medianMs(Budget, [&] {
               Dispatch("pvp/hover", params({{"profile", Id}, {"node", Node}}));
             }),
             "ms");
  Out.metric("ide.dispatch_ms.codeLink", medianMs(Budget, [&] {
               Dispatch("pvp/codeLink", params({{"profile", Id}, {"node", Node}}));
             }),
             "ms");
  Out.metric("ide.dispatch_ms.search", medianMs(Budget, [&] {
               Dispatch("pvp/search", params({{"profile", Id}, {"pattern", "merge"}}));
             }),
             "ms");
  Out.metric("ide.dispatch_ms.query", medianMs(Budget, [&] {
               int64_t Derived = IdOf(Dispatch(
                   "pvp/query", params({{"profile", Id}, {"program", Program}})));
               Dispatch("pvp/close", params({{"profile", Derived}}));
             }),
             "ms");
  json::Array BaseIds, TestIds, AllIds;
  for (size_t I = 0; I < CohortProfiles.size(); ++I) {
    int64_t C = IdOf(Dispatch(
        "pvp/open", params({{"name", "cohort.evprof"},
                         {"dataBase64", base64Encode(writeEvProf(CohortProfiles[I]))}})));
    (I < BaseCount ? BaseIds : TestIds).push_back(C);
    AllIds.push_back(C);
  }
  Out.metric("ide.dispatch_ms.aggregate", medianMs(Budget, [&] {
               int64_t A = IdOf(Dispatch("pvp/aggregate", params({{"profiles", AllIds}})));
               Dispatch("pvp/close", params({{"profile", A}}));
             }),
             "ms");
  Out.metric("ide.dispatch_ms.regressions", medianMs(Budget, [&] {
               Dispatch("pvp/regressions",
                        params({{"base", BaseIds}, {"test", TestIds}}));
             }),
             "ms");
  Out.metric("ide.reply_serialize_ms", medianMs(Budget, [&] {
               Sink = Sink + rpc::frame(rpc::makeResponse(1, Flame)).size();
             }),
             "ms");

  // Appends on the opened profile, and the delta codec between the flame
  // views before and after each one.
  std::vector<std::string> Payloads;
  for (const Section &S : Sections)
    Payloads.push_back(base64Encode(S.Bytes));
  size_t Next = 0;
  Out.metric("ide.dispatch_ms.append", medianMs(Budget, [&] {
               Dispatch("pvp/append",
                        params({{"profile", Id},
                             {"dataBase64", Payloads[Next++ % Payloads.size()]}}));
             }),
             "ms");
  std::vector<double> EncodeMs, ApplyMs, Bytes;
  json::Object ViewParams = params({{"profile", Id}, {"maxRects", 2000}});
  json::Value Prev = Dispatch("pvp/flame", ViewParams);
  Clock::time_point Start = Clock::now();
  for (uint64_t G = 0; EncodeMs.size() < 3 || (msSince(Start) < 2 * Budget &&
                                               EncodeMs.size() < 200);
       ++G) {
    Dispatch("pvp/append", params({{"profile", Id},
                                {"dataBase64", Payloads[Next++ % Payloads.size()]}}));
    json::Value Cur = Dispatch("pvp/flame", ViewParams);
    Clock::time_point T0 = Clock::now();
    std::string Delta = encodeViewDelta(Prev, Cur, "rects", G, G + 1);
    EncodeMs.push_back(msSince(T0));
    T0 = Clock::now();
    Result<json::Value> Applied = applyViewDelta(Prev, Delta);
    ApplyMs.push_back(msSince(T0));
    if (!Applied || Applied->dump() != Cur.dump())
      Out.fail("in-process delta does not reproduce the flame view");
    Bytes.push_back(static_cast<double>(Delta.size()));
    Prev = std::move(Cur);
  }
  Out.metric("ide.delta_encode_ms", percentile(EncodeMs, 50), "ms");
  Out.metric("ide.delta_apply_ms", percentile(ApplyMs, 50), "ms");
  Out.metric("ide.delta_bytes_per_push", percentile(Bytes, 50), "bytes");
}

void addTelemetryMetrics(const RunConfig &Cfg, const WorkloadOutput &W,
                         RunResult &Out) {
  const json::Value &M = W.ServerMetrics;
  double Hits = 0, Misses = 0;
  if (M.isObject())
    if (const json::Value *S = M.asObject().find("stats"); S && S->isObject()) {
      Hits = S->asObject().find("cacheHits")->numberOr(0);
      Misses = S->asObject().find("cacheMisses")->numberOr(0);
    }
  Out.metric("ide.view_cache_hit_ratio",
             Hits + Misses > 0 ? Hits / (Hits + Misses) : 0, "ratio");
  Out.metric("session.queue_wait_us_p50",
             histogramPercentile(M, "session.queueWaitUs", 50), "us");
  Out.metric("session.run_us_p50", histogramPercentile(M, "session.runUs", 50),
             "us");
  // Client latency minus the server's own latency for the workload's main
  // method. Means, because the server's histograms resolve only to 2x.
  const char *Method = Cfg.Workload == "fleet-regress" ? "pvp/regressions"
                       : Cfg.Workload == "live-follow" ? "pvp/append"
                                                       : "pvp/flame";
  double Client = 0;
  if (auto It = W.ClientMs.find(Method); It != W.ClientMs.end() &&
                                         !It->second.empty()) {
    for (double V : It->second)
      Client += V;
    Client /= static_cast<double>(It->second.size());
  }
  Out.metric("net.client_residual_ms",
             Client - histogramMeanUs(M, std::string("pvp.latencyUs.") + Method) /
                          1000.0,
             "ms");
  Out.metric("net.bytes_out", counter(M, "net.bytesOut"), "bytes");
  Out.metric("net.frames_in", counter(M, "net.framesIn"), "count");
  if (!W.DeltaBytes.empty())
    Out.metric("ide.delta_bytes_per_push", percentile(W.DeltaBytes, 50), "bytes");
}

} // namespace pb
