//===- perfbench/client/workloads.cpp - End-to-end workloads --------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads, each against a real `evtool serve` over a
/// Unix-domain socket: ide-browse (editor sessions, closed loop),
/// fleet-regress (cohort aggregation and regression reports, closed loop)
/// and live-follow (a producer appending on a fixed schedule, open loop,
/// with a subscriber applying every pushed delta). Every reply the checks
/// need is verified against totals the generators computed.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "ide/ViewDelta.h"
#include "proto/EvProf.h"
#include "support/Strings.h"

#include <algorithm>
#include <barrier>
#include <cmath>
#include <thread>

namespace pb {

using namespace ev;

namespace {

double secondsSince(Clock::time_point T0) { return msSince(T0) / 1000.0; }

int64_t intField(const json::Object &O, const char *Key) {
  int64_t V = -1;
  if (const json::Value *F = O.find(Key))
    F->getInteger(V);
  return V;
}

double numField(const json::Object &O, const char *Key) {
  const json::Value *F = O.find(Key);
  return F && F->isNumber() ? F->asNumber() : std::nan("");
}

bool sameTotal(double Got, double Want) {
  return std::fabs(Got - Want) <= 1e-9 * std::max(1.0, std::fabs(Want));
}

struct Rect {
  double X, W, V;
  unsigned Depth;
  int64_t Node;
  std::string Name;
};

std::vector<Rect> rectsOf(const json::Object &Flame) {
  std::vector<Rect> Out;
  const json::Value *Rs = Flame.find("rects");
  if (!Rs || !Rs->isArray())
    return Out;
  for (const json::Value &RV : Rs->asArray()) {
    const json::Object &R = RV.asObject();
    Out.push_back({numField(R, "x"), numField(R, "width"), numField(R, "value"),
                   static_cast<unsigned>(intField(R, "depth")),
                   intField(R, "node"),
                   std::string(R.find("name") ? R.find("name")->stringOr("")
                                              : "")});
  }
  return Out;
}

/// Flame geometry: every rect sits inside a parent one level up, is no
/// wider than it, and the children of a rect sum to no more than it.
std::string checkFlameGeometry(const std::vector<Rect> &Rects) {
  constexpr double Eps = 1e-9;
  std::map<unsigned, std::vector<size_t>> ByDepth;
  for (size_t I = 0; I < Rects.size(); ++I)
    ByDepth[Rects[I].Depth].push_back(I);
  for (auto &[D, Ids] : ByDepth)
    std::sort(Ids.begin(), Ids.end(),
              [&](size_t A, size_t B) { return Rects[A].X < Rects[B].X; });
  std::vector<double> ChildSum(Rects.size(), 0.0), ChildWidth(Rects.size(), 0.0);
  for (auto &[D, Ids] : ByDepth) {
    if (D == ByDepth.begin()->first)
      continue;
    auto Up = ByDepth.find(D - 1);
    if (Up == ByDepth.end())
      return "rects at depth " + std::to_string(D) + " have no parent level";
    const std::vector<size_t> &Parents = Up->second;
    for (size_t C : Ids) {
      const Rect &R = Rects[C];
      if (!std::isfinite(R.X) || !std::isfinite(R.W) || !std::isfinite(R.V))
        return "rect '" + R.Name + "' lacks x, width or value";
      auto It = std::upper_bound(
          Parents.begin(), Parents.end(), R.X + Eps,
          [&](double X, size_t P) { return X < Rects[P].X; });
      if (It == Parents.begin())
        return "rect '" + R.Name + "' has no parent";
      const Rect &P = Rects[*(It - 1)];
      if (R.W > P.W + Eps || R.X + R.W > P.X + P.W + Eps)
        return "rect '" + R.Name + "' is wider than its parent '" + P.Name +
               "'";
      if (R.V > P.V * (1 + 1e-12) + Eps)
        return "rect '" + R.Name + "' exceeds its parent's value";
      ChildSum[*(It - 1)] += R.V;
      ChildWidth[*(It - 1)] += R.W;
    }
  }
  for (size_t I = 0; I < Rects.size(); ++I)
    if (ChildSum[I] > Rects[I].V * (1 + 1e-9) + Eps ||
        ChildWidth[I] > Rects[I].W + 1e-7)
      return "children of '" + Rects[I].Name + "' sum to more than it";
  return "";
}

/// Chain of widest children from the root rect: the hot path.
std::vector<const Rect *> hotPath(const std::vector<Rect> &Rects) {
  std::vector<const Rect *> Path;
  if (Rects.empty())
    return Path;
  const Rect *Cur = &Rects[0];
  for (const Rect &R : Rects)
    if (R.Depth < Cur->Depth)
      Cur = &R;
  Path.push_back(Cur);
  for (;;) {
    const Rect *Best = nullptr;
    for (const Rect &R : Rects)
      if (R.Depth == Cur->Depth + 1 && R.X >= Cur->X - 1e-12 &&
          R.X < Cur->X + Cur->W && (!Best || R.W > Best->W))
        Best = &R;
    if (!Best)
      break;
    Path.push_back(Best);
    Cur = Best;
  }
  return Path;
}

/// Reads pvp/metrics on \p C into \p Out (trace runs only).
void readTelemetry(Conn &C, WorkloadOutput &Out) {
  std::optional<json::Value> M = C.call("pvp/metrics", json::Object());
  if (const json::Object *R = resultOf(M))
    Out.ServerMetrics = json::Value(*R);
}

void finish(WorkloadOutput &Out, ServerProcess &Server, double Setup,
            uint64_t Completed, double Window) {
  Out.Result.metric("setup_s", Setup, "s");
  Out.Result.metric("ops_per_s", static_cast<double>(Completed) / Window,
                    "1/s");
  Out.Result.metric("peak_rss_mb", Server.peakRssMb(), "MB");
  int Code = Server.stop();
  if (Code != 0)
    Out.Result.fail("evtool serve exited with status " + std::to_string(Code));
}

} // namespace

//===-- ide-browse --------------------------------------------------------===//

namespace {

struct BrowseClient {
  std::vector<double> FirstView, View, FlameMs;
  uint64_t Attempted = 0, Failed = 0, Completed = 0;
  std::vector<std::string> Errors;
  void fail(std::string Why) {
    if (Errors.size() < 10)
      Errors.push_back(std::move(Why));
  }
};

const char *const BrowseQuery =
    "derive hot = share(\"samples\") > 0.01 ? 1 : 0;\n"
    "print \"hot contexts: \" + str(total(\"hot\"));\n";

/// Steps of a session at which both editors wait for each other: open,
/// the thirteen interactions, and close.
constexpr size_t SessionSteps = 15;

/// One editor session on \p Path: open, first flame, a dozen interactions,
/// close. Each step starts at \p Step together with the other editor's, so
/// the same requests overlap in every run; waiting is not timed.
void browseSteps(Conn &C, const std::string &Path, const ServiceProfile &S,
                 BrowseClient &St, std::barrier<> &Step, size_t &Synced) {
  auto Call = [&](const char *Method, json::Object P,
                  std::vector<double> *Into,
                  bool Sync = true) -> const json::Object * {
    static thread_local std::optional<json::Value> Reply;
    if (Sync) {
      Step.arrive_and_wait();
      ++Synced;
    }
    ++St.Attempted;
    Clock::time_point T0 = Clock::now();
    Reply = C.call(Method, std::move(P));
    double Ms = msSince(T0);
    const json::Object *R = resultOf(Reply);
    if (!R) {
      ++St.Failed;
      St.fail(std::string(Method) + " failed on " + Path + ": " +
              (Reply ? Reply->dump().substr(0, 200) : "no reply"));
      return nullptr;
    }
    ++St.Completed;
    if (Into)
      Into->push_back(Ms);
    if (std::string_view(Method) == "pvp/flame")
      St.FlameMs.push_back(Ms);
    return R;
  };
  auto CheckTotal = [&](const json::Object *R, double Want, const char *What) {
    if (R && !sameTotal(numField(*R, "total"), Want))
      St.fail(std::string(What) + " total " +
              std::to_string(numField(*R, "total")) + " != generated " +
              std::to_string(Want) + " on " + Path);
  };
  double Samples = static_cast<double>(S.TotalSamples);
  double Cpu = static_cast<double>(S.TotalCpuNs);

  // The first view is timed from pvp/open on, after both editors met.
  Step.arrive_and_wait();
  ++Synced;
  Clock::time_point Open0 = Clock::now();
  const json::Object *Opened =
      Call("pvp/open", params({{"path", Path}}), nullptr, false);
  if (!Opened)
    return;
  int64_t Id = intField(*Opened, "profile");
  json::Object FirstParams = params({{"profile", Id}, {"maxRects", 3000}});
  const json::Object *First = Call("pvp/flame", FirstParams, nullptr, false);
  if (!First)
    return;
  St.FirstView.push_back(msSince(Open0));
  CheckTotal(First, Samples, "top-down");
  std::string FirstDump = json::Value(*First).dump();
  std::vector<Rect> Rects = rectsOf(*First);
  if (std::string Bad = checkFlameGeometry(Rects); !Bad.empty())
    St.fail("top-down flame of " + Path + ": " + Bad);
  std::vector<const Rect *> Hot = hotPath(Rects);
  if (Hot.size() < 4) {
    St.fail("hot path too short on " + Path);
    return;
  }
  int64_t HotNode = Hot[std::min<size_t>(Hot.size() - 1, 3)]->Node;
  int64_t DeepNode = Hot[Hot.size() * 2 / 3]->Node;
  std::string Needle = Hot[2]->Name;

  json::Object BottomUp =
      params({{"profile", Id}, {"shape", "bottom-up"}, {"maxRects", 1500}});
  const json::Object *R = Call("pvp/flame", BottomUp, &St.View);
  CheckTotal(R, Samples, "bottom-up");
  if (R)
    if (std::string Bad = checkFlameGeometry(rectsOf(*R)); !Bad.empty())
      St.fail("bottom-up flame of " + Path + ": " + Bad);
  R = Call("pvp/flame",
           params({{"profile", Id}, {"shape", "flat"}, {"maxRects", 800},
                   {"metric", 1}}),
           &St.View);
  CheckTotal(R, Cpu, "flat cpu");
  R = Call("pvp/flame",
           params({{"profile", Id}, {"shape", "flat"}, {"maxRects", 400}}),
           &St.View);
  CheckTotal(R, Samples, "flat");
  if (R)
    if (std::string Bad = checkFlameGeometry(rectsOf(*R)); !Bad.empty())
      St.fail("flat flame of " + Path + ": " + Bad);
  R = Call("pvp/flame",
           params({{"profile", Id}, {"metric", "cpu"}, {"maxRects", 600}}),
           &St.View);
  CheckTotal(R, Cpu, "top-down cpu");
  Call("pvp/treeTable", params({{"profile", Id}}), &St.View);
  json::Array Expand;
  for (size_t I = 0; I < Hot.size() && I < 8; ++I)
    Expand.push_back(Hot[I]->Node);
  R = Call("pvp/treeTable",
           params({{"profile", Id}, {"expand", Expand}, {"includeText", false}}),
           &St.View);
  if (R && (!R->find("rows") || R->find("rows")->asArray().size() < Expand.size()))
    St.fail("treeTable expand returned too few rows on " + Path);
  R = Call("pvp/hover", params({{"profile", Id}, {"node", HotNode}}), &St.View);
  if (R && (!R->find("contents") || R->find("contents")->stringOr("").empty()))
    St.fail("hover on a hot node of " + Path + " is empty");
  R = Call("pvp/codeLink", params({{"profile", Id}, {"node", HotNode}}),
           &St.View);
  if (R && !(R->find("available") && R->find("available")->boolOr(false)))
    St.fail("codeLink unavailable for a hot node of " + Path);
  R = Call("pvp/search", params({{"profile", Id}, {"pattern", Needle}}),
           &St.View);
  if (R && intField(*R, "count") < 1)
    St.fail("search for '" + Needle + "' found nothing in " + Path);
  Call("pvp/hover", params({{"profile", Id}, {"node", DeepNode}}), &St.View);
  // Two repeats the view cache serves: back to the first view, and the
  // bottom-up view again.
  R = Call("pvp/flame", FirstParams, &St.View);
  if (R && json::Value(*R).dump() != FirstDump)
    St.fail("repeated top-down flame differs from the first on " + Path);
  Call("pvp/flame", BottomUp, &St.View);
  R = Call("pvp/query", params({{"profile", Id}, {"program", BrowseQuery}}),
           &St.View);
  if (R) {
    const json::Value *Printed = R->find("printed");
    if (!Printed || !Printed->isArray() || Printed->asArray().empty() ||
        Printed->asArray()[0].stringOr("").rfind("hot contexts: ", 0) != 0)
      St.fail("query printed no report on " + Path);
    int64_t Derived = intField(*R, "profile");
    if (Derived >= 0)
      Call("pvp/close", params({{"profile", Derived}}), nullptr, false);
  }
  Call("pvp/close", params({{"profile", Id}}), nullptr);
}

void browseSession(Conn &C, const std::string &Path, const ServiceProfile &S,
                   BrowseClient &St, std::barrier<> &Step) {
  size_t Synced = 0;
  browseSteps(C, Path, S, St, Step, Synced);
  // A session cut short by a failure still meets the other editor at
  // every remaining step.
  for (; Synced < SessionSteps; ++Synced)
    Step.arrive_and_wait();
}

} // namespace

WorkloadOutput runIdeBrowse(const RunConfig &Cfg, double Seconds) {
  WorkloadOutput Out;
  BrowseInputs In = makeBrowseInputs(Cfg.Seed, Cfg.WorkDir);

  Clock::time_point T0 = Clock::now();
  ServerProcess Server;
  std::string Err;
  if (!Server.start(Cfg.Evtool, "serve.sock", 2, Cfg.Threads, Err)) {
    Out.Result.fail(Err);
    return Out;
  }
  Conn Clients[2];
  for (Conn &C : Clients)
    if (!C.connect("serve.sock") || !resultOf(C.call("pvp/stats", {}))) {
      Out.Result.fail("cannot reach the server");
      return Out;
    }
  double Setup = secondsSince(T0);

  // Two editors, each on its own connection (and so its own session). A
  // round is each editor browsing half the files, the sizes interleaved so
  // that sessions of similar size run side by side and both halves cost
  // alike. The editors take every step together (see browseSteps) and stop
  // together after the first round past the deadline.
  static const size_t Half[2][BrowseProfiles / 2] = {{0, 3, 4, 7},
                                                     {1, 2, 5, 6}};
  BrowseClient Stats[2];
  bool Stop = false;
  Clock::time_point Start = Clock::now();
  std::barrier RoundStart(2, [&]() noexcept {
    Stop = secondsSince(Start) >= Seconds;
  });
  std::barrier<> Step(2);
  std::vector<std::thread> Threads;
  for (size_t K = 0; K < 2; ++K)
    Threads.emplace_back([&, K] {
      for (;;) {
        RoundStart.arrive_and_wait();
        if (Stop)
          break;
        for (size_t P : Half[K])
          browseSession(Clients[K], In.Paths[P],
                        In.Profiles[In.ProfileOfPath[P]], Stats[K], Step);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  double Window = secondsSince(Start);

  std::vector<double> First, View;
  uint64_t Completed = 0;
  for (BrowseClient &S : Stats) {
    First.insert(First.end(), S.FirstView.begin(), S.FirstView.end());
    View.insert(View.end(), S.View.begin(), S.View.end());
    Out.Result.Attempted += S.Attempted;
    Out.Result.Failed += S.Failed;
    Completed += S.Completed;
    for (std::string &E : S.Errors)
      Out.Result.fail(E);
    Out.ClientMs["pvp/flame"].insert(Out.ClientMs["pvp/flame"].end(),
                                     S.FlameMs.begin(), S.FlameMs.end());
  }
  Out.Result.metric("change_p50_ms", percentile(First, 50), "ms");
  Out.Result.metric("query_p50_ms", percentile(View, 50), "ms");
  Out.Result.metric("query_p90_ms", percentile(View, 90), "ms");
  Out.Result.Notes.push_back(
      "ide-browse: first_view_p50_ms=" + std::to_string(percentile(First, 50)) +
      " (n=" + std::to_string(First.size()) + ") view_p50_ms=" +
      std::to_string(percentile(View, 50)) + " view_p90_ms=" +
      std::to_string(percentile(View, 90)) + " (n=" +
      std::to_string(View.size()) + ") browse_ops_per_s=" +
      std::to_string(static_cast<double>(Completed) / Window));
  if (Cfg.Trace)
    readTelemetry(Clients[0], Out);
  finish(Out, Server, Setup, Completed, Window);
  return Out;
}

//===-- fleet-regress -----------------------------------------------------===//

namespace {

/// Checks one exported aggregate: the sum column's root total and
/// min <= mean <= max at every node, for every input metric.
std::string checkAggregate(const std::string &Base64, double WantSamples) {
  std::string Bytes;
  if (!base64Decode(Base64, Bytes))
    return "aggregate export is not base64";
  Result<Profile> P = readEvProf(Bytes);
  if (!P)
    return "aggregate export does not decode: " + P.error();
  MetricId Sum = P->findMetric("samples");
  if (Sum == Profile::InvalidMetric)
    return "aggregate has no samples column";
  double Total = 0;
  for (const CCTNode &N : P->nodes())
    Total += N.metricOr(Sum);
  if (!sameTotal(Total, WantSamples))
    return "aggregate sum " + std::to_string(Total) + " != generated " +
           std::to_string(WantSamples);
  for (const char *M : {"samples", "cpu"}) {
    MetricId Min = P->findMetric(std::string(M) + ".min");
    MetricId Max = P->findMetric(std::string(M) + ".max");
    MetricId Mean = P->findMetric(std::string(M) + ".mean");
    if (Min == Profile::InvalidMetric || Max == Profile::InvalidMetric ||
        Mean == Profile::InvalidMetric)
      return std::string("aggregate lacks min/mean/max columns for ") + M;
    for (NodeId I = 0; I < P->nodeCount(); ++I) {
      const CCTNode &N = P->node(I);
      double Lo = N.metricOr(Min), Hi = N.metricOr(Max), Mu = N.metricOr(Mean);
      double Tol = 1e-9 * std::max(1.0, std::fabs(Hi));
      if (Lo > Mu + Tol || Mu > Hi + Tol)
        return "node " + std::to_string(I) + " breaks min <= mean <= max for " +
               M;
    }
  }
  return "";
}

/// Every planted change must be reported, by rule and frame.
std::string checkPlanted(const json::Object &Reply, const Cohort &C) {
  const json::Value *Fs = Reply.find("findings");
  if (!Fs || !Fs->isArray())
    return "regressions reply has no findings";
  auto Has = [&](const char *Rule, const std::string &Frame) {
    for (const json::Value &F : Fs->asArray()) {
      const json::Object &O = F.asObject();
      if (O.find("id") && O.find("id")->stringOr("") == Rule &&
          O.find("message") &&
          O.find("message")->stringOr("").find(Frame) != std::string::npos)
        return true;
    }
    return false;
  };
  if (!Has("EVL300", C.ScaledFrame))
    return "planted x1.6 leaf " + C.ScaledFrame + " not reported";
  if (!Has("EVL302", C.NewFrame))
    return "planted new context " + C.NewFrame + " not reported";
  if (!Has("EVL303", C.VanishedFrame))
    return "planted vanished context " + C.VanishedFrame + " not reported";
  return "";
}

} // namespace

WorkloadOutput runFleetRegress(const RunConfig &Cfg, double Seconds) {
  WorkloadOutput Out;
  RunResult &Res = Out.Result;
  Cohort C = makeCohort(Cfg.Seed, FleetNodes, FleetReplicas);
  std::vector<std::string> Paths;
  std::vector<double> Totals;
  for (size_t I = 0; I < C.Base.size() + C.Test.size(); ++I) {
    bool Test = I >= C.Base.size();
    const ServiceProfile &P = Test ? C.Test[I - C.Base.size()] : C.Base[I];
    Paths.push_back(Cfg.WorkDir + "/" + P.Name + ".evprof");
    writeFileBytes(Paths.back(), toEvProfBytes(P));
    Totals.push_back(static_cast<double>(P.TotalSamples));
  }

  Clock::time_point T0 = Clock::now();
  ServerProcess Server;
  std::string Err;
  if (!Server.start(Cfg.Evtool, "serve.sock", 1, Cfg.Threads, Err)) {
    Res.fail(Err);
    return Out;
  }
  Conn Cn;
  if (!Cn.connect("serve.sock")) {
    Res.fail("cannot reach the server");
    return Out;
  }
  std::vector<int64_t> Ids;
  for (const std::string &P : Paths) {
    std::optional<json::Value> Reply = Cn.call("pvp/open", params({{"path", P}}));
    const json::Object *R = resultOf(Reply);
    if (!R) {
      Res.fail("cannot open cohort member " + P);
      return Out;
    }
    Ids.push_back(intField(*R, "profile"));
  }
  double Setup = secondsSince(T0);
  json::Array BaseIds, TestIds;
  for (size_t I = 0; I < Ids.size(); ++I)
    (I < C.Base.size() ? BaseIds : TestIds).push_back(Ids[I]);

  Rng R(Cfg.Seed ^ 0xF1EE7ULL);
  std::vector<double> AggMs, RegMs;
  uint64_t Completed = 0;
  auto Timed = [&](const char *Method, json::Object P,
                   std::vector<double> *Into) -> std::optional<json::Value> {
    ++Res.Attempted;
    Clock::time_point S0 = Clock::now();
    std::optional<json::Value> Reply = Cn.call(Method, std::move(P));
    double Ms = msSince(S0);
    if (!resultOf(Reply)) {
      ++Res.Failed;
      Res.fail(std::string(Method) + " failed: " +
               (Reply ? Reply->dump().substr(0, 200) : "no reply"));
      return Reply;
    }
    ++Completed;
    if (Into) {
      Into->push_back(Ms);
      Out.ClientMs[Method].push_back(Ms);
    }
    return Reply;
  };

  // Each round: an aggregate over half the fleet (checked via export, then
  // closed) and a base-vs-test regression report at a fresh threshold, so
  // neither request can be served from the view cache.
  Clock::time_point Start = Clock::now();
  for (uint64_t K = 0; K == 0 || secondsSince(Start) < Seconds; ++K) {
    std::vector<size_t> Order(Ids.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[R.below(I)]);
    json::Array Subset;
    double Want = 0;
    for (size_t I = 0; I < Ids.size() / 2; ++I) {
      Subset.push_back(Ids[Order[I]]);
      Want += Totals[Order[I]];
    }
    std::optional<json::Value> Agg =
        Timed("pvp/aggregate", params({{"profiles", Subset}}), &AggMs);
    if (const json::Object *A = resultOf(Agg)) {
      int64_t AggId = intField(*A, "profile");
      std::optional<json::Value> Ex = Timed(
          "pvp/export", params({{"profile", AggId}, {"format", "evprof"}}),
          nullptr);
      if (const json::Object *E = resultOf(Ex)) {
        const json::Value *B64 = E->find("dataBase64");
        std::string Bad =
            checkAggregate(B64 ? std::string(B64->stringOr("")) : "", Want);
        if (!Bad.empty())
          Res.fail(Bad);
      }
      Timed("pvp/close", params({{"profile", AggId}}), nullptr);
    }
    double Rel = 0.05 + 0.25 * std::fmod(static_cast<double>(K) * 0.6180339887,
                                         1.0);
    std::optional<json::Value> Reg = Timed(
        "pvp/regressions",
        params({{"base", BaseIds}, {"test", TestIds}, {"relativeMin", Rel}}),
        &RegMs);
    if (const json::Object *G = resultOf(Reg))
      if (std::string Bad = checkPlanted(*G, C); !Bad.empty())
        Res.fail(Bad + " (relativeMin " + std::to_string(Rel) + ")");
  }
  double Window = secondsSince(Start);

  // A cohort compared with itself yields no finding.
  std::optional<json::Value> Self =
      Cn.call("pvp/regressions", params({{"base", BaseIds}, {"test", BaseIds}}));
  if (const json::Object *S = resultOf(Self)) {
    const json::Value *Fs = S->find("findings");
    if (!Fs || !Fs->isArray() || !Fs->asArray().empty())
      Res.fail("a cohort compared with itself reported findings");
  } else {
    Res.fail("self-comparison failed");
  }

  Res.metric("change_p50_ms", percentile(AggMs, 50), "ms");
  Res.metric("query_p50_ms", percentile(RegMs, 50), "ms");
  Res.metric("query_p90_ms", percentile(RegMs, 90), "ms");
  Res.Notes.push_back(
      "fleet-regress: aggregate_p50_ms=" + std::to_string(percentile(AggMs, 50)) +
      " (n=" + std::to_string(AggMs.size()) + ") regress_p50_ms=" +
      std::to_string(percentile(RegMs, 50)) + " (n=" +
      std::to_string(RegMs.size()) + ")");
  if (Cfg.Trace)
    readTelemetry(Cn, Out);
  finish(Out, Server, Setup, Completed, Window);
  return Out;
}

//===-- live-follow -------------------------------------------------------===//

namespace {

/// Append period of the live-follow producer: ten sections a second, a
/// rate the server serves at well under full load, so the latency is
/// service time rather than a queue that grows.
constexpr double AppendPeriodMs = 100.0;
constexpr size_t NodesPerSection = 8;

struct SubState {
  int64_t Id = -1;
  const char *Method = "";
  json::Object ViewParams;
  /// Views by generation, from the server's acked base (the only one it
  /// diffs against) to the newest.
  std::map<uint64_t, json::Value> Views;
  uint64_t Latest = 0;
};

} // namespace

WorkloadOutput runLiveFollow(const RunConfig &Cfg, double Seconds) {
  WorkloadOutput Out;
  RunResult &Res = Out.Result;
  ServiceProfile Base = makeService(Cfg.Seed * 7 + 3, LiveBaseNodes,
                                    "live-service");
  std::string BaseBytes = toEvProfBytes(Base);
  std::string Path = Cfg.WorkDir + "/live.evprof";
  writeFileBytes(Path, BaseBytes);
  // Sections reference the canonical wire tables the server replays.
  Result<Profile> Decoded = readEvProf(BaseBytes);
  if (!Decoded) {
    Res.fail("live base does not decode: " + Decoded.error());
    return Out;
  }
  size_t Appends = static_cast<size_t>(Seconds * 1000.0 / AppendPeriodMs);
  std::vector<Section> Sections =
      makeSections(Cfg.Seed, countRecords(writeEvProf(*Decoded)),
                   std::max<size_t>(Appends, 1), NodesPerSection);
  std::vector<std::string> Payloads;
  double Want = static_cast<double>(Base.TotalSamples);
  for (const Section &S : Sections) {
    Payloads.push_back(base64Encode(S.Bytes));
    Want += static_cast<double>(S.Samples);
  }

  Clock::time_point T0 = Clock::now();
  ServerProcess Server;
  std::string Err;
  if (!Server.start(Cfg.Evtool, "serve.sock", 1, Cfg.Threads, Err)) {
    Res.fail(Err);
    return Out;
  }
  Conn Producer, Viewer;
  if (!Producer.connect("serve.sock") || !Viewer.connect("serve.sock")) {
    Res.fail("cannot reach the server");
    return Out;
  }
  std::optional<json::Value> OpenReply =
      Producer.call("pvp/open", params({{"path", Path}}));
  const json::Object *Opened = resultOf(OpenReply);
  if (!Opened) {
    Res.fail("cannot open the live profile");
    return Out;
  }
  int64_t Prof = intField(*Opened, "profile");
  SubState Subs[2];
  Subs[0].Method = "pvp/flame";
  Subs[0].ViewParams = params({{"profile", Prof}, {"maxRects", 2000}});
  Subs[1].Method = "pvp/treeTable";
  Subs[1].ViewParams = params({{"profile", Prof}, {"includeText", false}});
  for (SubState &S : Subs) {
    const char *View = &S == &Subs[0] ? "flame" : "treeTable";
    std::optional<json::Value> Reply = Viewer.call(
        "pvp/subscribe",
        params({{"profile", Prof}, {"view", View}, {"params", S.ViewParams}}));
    const json::Object *R = resultOf(Reply);
    if (!R) {
      Res.fail(std::string("cannot subscribe to ") + View);
      return Out;
    }
    S.Id = intField(*R, "subscription");
    S.Latest = static_cast<uint64_t>(intField(*R, "generation"));
    S.Views[S.Latest] = *R->find("view");
  }
  uint64_t Gen0 = Subs[0].Latest;
  double Setup = secondsSince(T0);

  // Producer: append k is due at Start + k * period, sent late if the
  // previous reply was late. Viewer: applies every push, acks it, and once
  // both views hold a generation re-queries both and compares bytes.
  Clock::time_point Start = Clock::now();
  std::vector<double> DueMs(Payloads.size()), LateMs;
  std::vector<double> HeldMs(Payloads.size() + 1, -1.0);
  std::vector<double> AppendMs;
  uint64_t ProducerAttempted = 0, ProducerFailed = 0;
  std::vector<std::string> ProducerErrors;
  std::thread ProducerThread([&] {
    for (size_t K = 0; K < Payloads.size(); ++K) {
      DueMs[K] = static_cast<double>(K) * AppendPeriodMs;
      auto Due = Start + std::chrono::microseconds(
                             static_cast<int64_t>(DueMs[K] * 1000.0));
      std::this_thread::sleep_until(Due);
      LateMs.push_back(msSince(Due));
      ++ProducerAttempted;
      Clock::time_point S0 = Clock::now();
      std::optional<json::Value> Reply = Producer.call(
          "pvp/append", params({{"profile", Prof}, {"dataBase64", Payloads[K]}}));
      AppendMs.push_back(msSince(S0));
      const json::Object *R = resultOf(Reply);
      if (!R || static_cast<uint64_t>(intField(*R, "generation")) !=
                    Gen0 + K + 1) {
        ++ProducerFailed;
        if (ProducerErrors.size() < 5)
          ProducerErrors.push_back(
              "append " + std::to_string(K) + ": " +
              (Reply ? Reply->dump().substr(0, 200) : "no reply"));
      }
    }
  });

  uint64_t Target = Gen0 + Payloads.size();
  uint64_t Held = Gen0;
  std::vector<double> RequeryMs, DeltaBytes;
  std::map<int64_t, std::pair<size_t, Clock::time_point>> Requeries;
  uint64_t ViewerCompleted = 0, PendingAcks = 0;
  Clock::time_point Deadline = Start + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(
                                               Seconds + 30.0));
  while ((Held < Target || !Requeries.empty() || PendingAcks > 0) &&
         Clock::now() < Deadline) {
    std::optional<json::Value> Msg = Viewer.read(1000);
    if (!Msg || !Msg->isObject())
      continue;
    const json::Object &M = Msg->asObject();
    if (const json::Value *Method = M.find("method")) {
      if (Method->stringOr("") != "pvp/viewDelta") {
        Res.fail("unexpected notification " +
                 std::string(Method->stringOr("")));
        continue;
      }
      const json::Object &P = M.find("params")->asObject();
      int64_t SubId = intField(P, "subscription");
      SubState *S = SubId == Subs[0].Id ? &Subs[0]
                    : SubId == Subs[1].Id ? &Subs[1]
                                          : nullptr;
      uint64_t From = static_cast<uint64_t>(intField(P, "fromGeneration"));
      uint64_t To = static_cast<uint64_t>(intField(P, "toGeneration"));
      std::string Raw;
      if (!S || !S->Views.count(From) ||
          !base64Decode(P.find("deltaBase64")->stringOr(""), Raw)) {
        Res.fail("push " + std::to_string(From) + "->" + std::to_string(To) +
                 " does not match a held view");
        continue;
      }
      Result<json::Value> Applied = applyViewDelta(S->Views[From], Raw);
      if (!Applied) {
        Res.fail("delta does not apply: " + Applied.error());
        continue;
      }
      DeltaBytes.push_back(static_cast<double>(Raw.size()));
      S->Views[To] = Applied.take();
      S->Latest = std::max(S->Latest, To);
      ++PendingAcks;
      Viewer.send("pvp/ack", params({{"subscription", S->Id},
                                     {"generation", static_cast<int64_t>(To)}}));
      uint64_t Both = std::min(Subs[0].Latest, Subs[1].Latest);
      if (Both > Held) {
        double Now = msSince(Start);
        for (uint64_t G = Held + 1; G <= Both; ++G)
          HeldMs[G - Gen0 - 1] = Now;
        Held = Both;
        for (size_t I = 0; I < 2; ++I) {
          int64_t Id = Viewer.send(Subs[I].Method, Subs[I].ViewParams);
          Requeries[Id] = {I, Clock::now()};
        }
      }
      continue;
    }
    int64_t Id = intField(M, "id");
    auto It = Requeries.find(Id);
    const json::Value *R = M.find("result");
    if (!R) {
      Res.fail("viewer request failed: " + Msg->dump().substr(0, 200));
      if (It != Requeries.end())
        Requeries.erase(It);
      continue;
    }
    if (It == Requeries.end()) {
      // An ack reply: it names the server's delta base, so older views
      // can go. An ack the server refused as stale leaves the base as is.
      ++ViewerCompleted;
      --PendingAcks;
      const json::Object &A = R->asObject();
      int64_t SubId = intField(A, "subscription");
      int64_t Base = intField(A, "generation");
      if (!A.find("acked") || Base < 0 ||
          (SubId != Subs[0].Id && SubId != Subs[1].Id)) {
        Res.fail("malformed ack reply");
        continue;
      }
      SubState &S = SubId == Subs[0].Id ? Subs[0] : Subs[1];
      S.Views.erase(S.Views.begin(),
                    S.Views.lower_bound(static_cast<uint64_t>(Base)));
      continue;
    }
    ++ViewerCompleted;
    RequeryMs.push_back(msSince(It->second.second));
    SubState &S = Subs[It->second.first];
    // Pushes precede the reply of any request that ran after the append,
    // so the newest applied view is the server's view at this reply.
    if (S.Views[S.Latest].dump() != R->dump())
      Res.fail(std::string("applied delta differs from a full re-query of ") +
               S.Method + " at generation " + std::to_string(S.Latest));
    Requeries.erase(It);
  }
  ProducerThread.join();
  double Window = secondsSince(Start);
  for (std::string &E : ProducerErrors)
    Res.fail(E);
  if (Held < Target)
    Res.fail("subscribers reached generation " + std::to_string(Held) +
             " of " + std::to_string(Target));

  // The final view total equals every generated sample.
  std::optional<json::Value> FinalReply =
      Viewer.call("pvp/flame", params({{"profile", Prof}, {"maxRects", 1}}));
  const json::Object *Final = resultOf(FinalReply);
  if (!Final || !sameTotal(numField(*Final, "total"), Want))
    Res.fail("final live flame total differs from the generated samples");

  std::vector<double> Lat;
  for (size_t K = 0; K < Payloads.size(); ++K)
    if (HeldMs[K] >= 0)
      Lat.push_back(HeldMs[K] - DueMs[K]);
  Res.Attempted = ProducerAttempted;
  Res.Failed = ProducerFailed;
  Res.metric("change_p50_ms", percentile(Lat, 50), "ms");
  Res.metric("query_p50_ms", percentile(RequeryMs, 50), "ms");
  Res.metric("query_p90_ms", percentile(RequeryMs, 90), "ms");
  Res.Notes.push_back(
      "live-follow: append_to_delta_p50_ms=" + std::to_string(percentile(Lat, 50)) +
      " (n=" + std::to_string(Lat.size()) + ") generator_late_p50_ms=" +
      std::to_string(percentile(LateMs, 50)) + " generator_late_max_ms=" +
      std::to_string(percentile(LateMs, 100)) + " delta_bytes_per_push=" +
      std::to_string(percentile(DeltaBytes, 50)) + " requery_p50_ms=" +
      std::to_string(percentile(RequeryMs, 50)));
  Out.ClientMs["pvp/append"] = AppendMs;
  Out.DeltaBytes = DeltaBytes;
  if (Cfg.Trace)
    readTelemetry(Viewer, Out);
  finish(Out, Server, Setup, ProducerAttempted + ViewerCompleted, Window);
  return Out;
}

} // namespace pb
