//===- tests/bottomup_test.cpp - Bottom-up builders vs. the reference -----===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Byte-identity oracle for the bottom-up tree builders. bottomUpTree()
/// and the bounded bottomUpView() behind every bottom-up flame must agree
/// with the straightforward construction in BottomUpReference.h: the
/// .evprof bytes of the whole tree, and every `pvp/flame shape=bottom-up`
/// reply (node ids, totals, culling counts, depth, dropped rects and the
/// bits of every x/width/value), for each metric, several rect budgets, and
/// both the sequential and the 4-thread pool.
///
//===----------------------------------------------------------------------===//

#include "BottomUpReference.h"
#include "TestHelpers.h"

#include "analysis/Transform.h"
#include "ide/JsonRpc.h"
#include "ide/PvpServer.h"
#include "proto/EvProfFields.h"
#include "render/Color.h"
#include "render/FlameLayout.h"
#include "support/ProtoWire.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"
#include "workload/LuleshWorkload.h"

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

using namespace ev;
using namespace ev::evprof;

namespace {

const json::Object *resultOf(const json::Value &Response) {
  const json::Value *R = Response.asObject().find("result");
  return R ? &R->asObject() : nullptr;
}

int errorCodeOf(const json::Value &Response) {
  const json::Value *E = Response.asObject().find("error");
  return E ? static_cast<int>(E->asObject().find("code")->asInt()) : 0;
}

json::Value bottomUpFlameRequest(int64_t ReqId, int64_t Profile,
                                 MetricId Metric, size_t MaxRects) {
  json::Object P;
  P.set("profile", Profile);
  P.set("shape", "bottom-up");
  P.set("metric", static_cast<int64_t>(Metric));
  P.set("maxRects", static_cast<int64_t>(MaxRects));
  return rpc::makeRequest(ReqId, "pvp/flame", std::move(P));
}

/// The pvp/flame reply, field for field as the server formats it, laid out
/// over the reference tree.
std::string referenceReply(const Profile &Ref, MetricId Metric,
                           size_t MaxRects) {
  FlameGraph Graph(Ref, Metric);
  json::Object Out;
  Out.set("total", Graph.totalValue());
  Out.set("culled", Graph.culledCount());
  Out.set("depth", Graph.depth());
  json::Array Rects;
  for (const FlameRect &R : Graph.rects()) {
    if (Rects.size() >= MaxRects)
      break;
    json::Object RO;
    RO.set("node", R.Node);
    RO.set("depth", R.Depth);
    RO.set("x", R.X);
    RO.set("width", R.Width);
    RO.set("value", R.Value);
    RO.set("name", std::string(Ref.nameOf(R.Node)));
    RO.set("color", toHexColor(R.Color));
    Rects.push_back(std::move(RO));
  }
  Out.set("truncated", Graph.rects().size() > Rects.size());
  Out.set("droppedRects", Graph.rects().size() - Rects.size());
  Out.set("rects", std::move(Rects));
  return json::Value(std::move(Out)).dump();
}

/// The x/width/value bits of every rect: dump() prints doubles rounded, so
/// the bits are compared separately.
std::vector<uint64_t> rectBits(const FlameGraph &Graph) {
  std::vector<uint64_t> Bits;
  for (const FlameRect &R : Graph.rects())
    for (double D : {R.X, R.Width, R.Value}) {
      uint64_t B;
      std::memcpy(&B, &D, sizeof B);
      Bits.push_back(B);
    }
  return Bits;
}

/// A deep service profile in the shape the ide-browse benchmark opens:
/// long chains that mostly extend the previous context and often branch
/// off a recent one, a skewed function pool, values on every leaf and on a
/// third of the interior contexts, two metrics.
Profile makeDeepServiceProfile(uint64_t Seed, size_t Count) {
  Rng R(Seed);
  Profile P;
  P.setName("service-" + std::to_string(Seed));
  MetricId Samples = P.addMetric("samples", "count");
  MetricId Cpu = P.addMetric("cpu", "nanoseconds");
  size_t Functions = std::max<size_t>(64, Count / 6);
  std::vector<FrameId> Pool;
  for (size_t I = 0; I < Functions; ++I) {
    Frame F;
    F.Name = P.strings().intern("svc" + std::to_string(I % 11) +
                                "::step_" + std::to_string(I));
    F.Loc.File =
        P.strings().intern("src/unit" + std::to_string(I % 53) + ".cc");
    F.Loc.Line = static_cast<uint32_t>(10 + I % 400);
    F.Loc.Module = P.strings().intern("svc");
    Pool.push_back(P.internFrame(F));
  }
  std::vector<uint32_t> Depth{0};
  for (size_t I = 1; I < Count; ++I) {
    double U = R.uniform();
    NodeId Parent = static_cast<NodeId>(
        U < 0.55   ? I - 1
        : U < 0.85 ? I - 1 - R.below(std::min<size_t>(I, 48))
                   : R.below(I));
    while (Depth[Parent] >= 28)
      Parent = P.node(Parent).Parent;
    double Z = R.uniform();
    FrameId F = Pool[static_cast<size_t>(Z * Z * static_cast<double>(
                    Functions - 1))];
    P.createNode(Parent, F);
    Depth.push_back(Depth[Parent] + 1);
  }
  for (NodeId Id = 1; Id < P.nodeCount(); ++Id) {
    if (!P.node(Id).Children.empty() && R.uniform() >= 0.33)
      continue;
    double S = 1.0 + std::floor(std::exp(R.normal() * 1.2) * 5.0);
    P.node(Id).addMetric(Samples, S);
    P.node(Id).addMetric(Cpu, S * 1e7 + static_cast<double>(R.below(1000000)));
  }
  return P;
}

/// Two wire frames (and two wire strings) with one content: the decoder
/// interns them to one frame, so the sibling contexts that referenced
/// them share it, and the bottom-up tree must merge their paths.
Profile makeDuplicateFrameProfile() {
  ProtoWriter W;
  W.writeBytes(FProfileName, "dup-frames");
  for (const char *S : {"", "ROOT", "main", "work", "work", "a.cc", "leaf"})
    W.writeBytes(FProfileString, S);
  ProtoWriter MW;
  MW.writeBytes(FMetricName, "time");
  MW.writeBytes(FMetricUnit, "nanoseconds");
  W.writeBytes(FProfileMetric, MW.buffer());
  auto AddFrame = [&](FrameKind Kind, uint64_t Name, uint64_t File,
                      uint64_t Line) {
    ProtoWriter FW;
    if (Kind != FrameKind::Root)
      FW.writeVarint(FFrameKind, static_cast<uint64_t>(Kind));
    FW.writeVarint(FFrameName, Name);
    if (File)
      FW.writeVarint(FFrameFile, File);
    if (Line)
      FW.writeVarint(FFrameLine, Line);
    W.writeBytes(FProfileFrame, FW.buffer());
  };
  AddFrame(FrameKind::Root, 1, 0, 0);
  AddFrame(FrameKind::Function, 2, 5, 1);  // 1: main
  AddFrame(FrameKind::Function, 3, 5, 7);  // 2: work
  AddFrame(FrameKind::Function, 4, 5, 7);  // 3: work again (string 4)
  AddFrame(FrameKind::Function, 3, 5, 7);  // 4: work again (string 3)
  AddFrame(FrameKind::Function, 6, 5, 9);  // 5: leaf
  auto AddNode = [&](int64_t Parent, uint64_t FrameRef, double Value) {
    ProtoWriter NW;
    if (Parent >= 0)
      NW.writeVarint(FNodeParentPlus1, static_cast<uint64_t>(Parent) + 1);
    if (FrameRef)
      NW.writeVarint(FNodeFrame, FrameRef);
    if (Value != 0.0) {
      ProtoWriter VW;
      VW.writeDouble(FValueValue, Value);
      NW.writeBytes(FNodeValue, VW.buffer());
    }
    W.writeBytes(FProfileNode, NW.buffer());
  };
  AddNode(-1, 0, 0);  // 0: root
  AddNode(0, 1, 1);   // 1: main
  AddNode(1, 2, 10);  // 2: main > work
  AddNode(1, 3, 5);   // 3: main > work'
  AddNode(1, 4, 3);   // 4: main > work''
  AddNode(2, 5, 7);   // 5: main > work > leaf
  AddNode(3, 5, 2);   // 6: main > work' > leaf
  AddNode(0, 3, 4);   // 7: work'
  AddNode(7, 5, 1);   // 8: work' > leaf
  std::string Bytes(EvProfMagic);
  Bytes += W.buffer();
  Result<Profile> P = readEvProf(Bytes);
  EXPECT_TRUE(P.ok()) << P.error();
  return P.ok() ? P.take() : Profile();
}

/// A (call path, metric, value) sample; the path lists frame names from
/// the outermost caller in.
struct Sample {
  std::vector<std::string> Path;
  MetricId Metric;
  double Value;
};
Profile makeProfile(const std::string &Name, const std::vector<Sample> &Data) {
  ProfileBuilder B(Name);
  B.addMetric("time", "nanoseconds");
  B.addMetric("bytes", "bytes");
  for (const Sample &S : Data) {
    std::vector<FrameId> Path;
    for (const std::string &F : S.Path)
      Path.push_back(B.functionFrame(F, F + ".cc", 1, "m"));
    NodeId Leaf = B.pushPath(Path);
    B.addValue(Leaf, S.Metric, S.Value);
  }
  return B.take();
}

/// Contexts inside the tree carry values, and recursion makes some
/// reversed paths prefixes of others.
Profile makeInternalContributorProfile() {
  return makeProfile(
      "internal", {{{"main"}, 0, 3},
                   {{"main", "f"}, 0, 5},
                   {{"main", "f", "f"}, 0, 7},
                   {{"main", "g", "f"}, 0, 11},
                   {{"main", "g", "f", "f"}, 0, 13},
                   {{"main", "g"}, 1, 17},
                   {{"other", "main", "f"}, 0, 19},
                   {{"main", "f", "g", "f"}, 0, 23}});
}

/// Contexts that are zero in one metric and not the other.
Profile makeZeroInMetricProfile() {
  return makeProfile("zero-in-metric", {{{"main", "a"}, 0, 4},
                                        {{"main", "a", "b"}, 1, 9},
                                        {{"main", "c", "b"}, 1, 6},
                                        {{"main", "c", "b"}, 0, 0},
                                        {{"x", "c", "b"}, 0, 2},
                                        {{"main", "d"}, 1, 1},
                                        {{"x", "zero"}, 0, 0}});
}

/// Negative values: a culled child may outweigh its parent.
Profile makeNegativeProfile() {
  return makeProfile("negative", {{{"main", "a"}, 0, 50},
                                  {{"main", "b", "a"}, 0, -20},
                                  {{"x", "b", "a"}, 0, 35},
                                  {{"main", "c"}, 0, -5},
                                  {{"y", "c"}, 0, 1e-6},
                                  {{"main", "b"}, 1, -3}});
}

/// Fractional values of mixed magnitude on leaves and interior contexts
/// of a bushy tree over few functions: shared bottom-up nodes fold many
/// children, so any change in summation order changes the bits.
Profile makeFractionalProfile() {
  Rng R(77);
  ProfileBuilder B("fractional");
  MetricId Time = B.addMetric("time", "nanoseconds");
  MetricId Bytes = B.addMetric("bytes", "bytes");
  std::vector<FrameId> Pool;
  for (int I = 0; I < 8; ++I)
    Pool.push_back(B.functionFrame("f" + std::to_string(I), "f.cc",
                                   static_cast<uint32_t>(I + 1), "m"));
  std::vector<FrameId> Path;
  for (int S = 0; S < 600; ++S) {
    Path.resize(1 + R.below(6));
    for (FrameId &F : Path)
      F = Pool[R.below(Pool.size())];
    NodeId Leaf = B.pushPath(Path);
    B.addValue(Leaf, Time, R.uniform() * std::pow(10.0, R.below(7)) - 0.05);
    B.addValue(Leaf, Bytes, 0.1 * static_cast<double>(1 + R.below(9)));
  }
  return B.take();
}

/// Values that cancel out: the laid-out total is zero or negative.
Profile makeNonPositiveTotalProfile() {
  return makeProfile("non-positive", {{{"main", "a"}, 0, 5},
                                      {{"main", "b"}, 0, -5},
                                      {{"main", "a"}, 1, -2},
                                      {{"x", "a"}, 1, -1}});
}

std::vector<Profile> oracleCorpus() {
  std::vector<Profile> Corpus;
  Corpus.push_back(test::makeFixedProfile());
  Corpus.push_back(workload::generateLuleshProfile({}));
  for (uint64_t Seed = 1; Seed <= 12; ++Seed)
    Corpus.push_back(test::makeRandomProfile(Seed, 150 + 40 * Seed,
                                             4 + static_cast<unsigned>(Seed),
                                             12 + 3 * Seed));
  Corpus.push_back(makeDeepServiceProfile(1000, 6000));
  Corpus.push_back(makeDeepServiceProfile(1003, 16000));
  Corpus.push_back(makeDuplicateFrameProfile());
  Corpus.push_back(makeInternalContributorProfile());
  Corpus.push_back(makeZeroInMetricProfile());
  Corpus.push_back(makeNegativeProfile());
  Corpus.push_back(makeFractionalProfile());
  Corpus.push_back(makeNonPositiveTotalProfile());
  return Corpus;
}

/// Runs \p Body once with the sequential pool and once with 4 threads.
template <typename Fn> void atEachThreadCount(Fn Body) {
  for (unsigned Threads : {0u, 4u}) {
    SCOPED_TRACE("EV_THREADS=" + std::to_string(Threads));
    ThreadPool::setSharedThreadCount(Threads);
    Body();
  }
  ThreadPool::setSharedThreadCount(ThreadPool::configuredThreads());
}

} // namespace

TEST(BottomUpOracle, WholeTreeBytesMatchTheReference) {
  std::vector<Profile> Corpus = oracleCorpus();
  atEachThreadCount([&] {
    for (const Profile &P : Corpus) {
      SCOPED_TRACE(P.name());
      Profile Ref = test::referenceBottomUpTree(P);
      Profile Up = bottomUpTree(P);
      EXPECT_EQ(Up.nodeCount(), Ref.nodeCount());
      EXPECT_TRUE(writeEvProf(Up) == writeEvProf(Ref));
    }
  });
}

TEST(BottomUpOracle, FlameRepliesMatchTheReference) {
  std::vector<Profile> Corpus = oracleCorpus();
  atEachThreadCount([&] {
    PvpServer Server;
    int64_t ReqId = 0;
    for (const Profile &P : Corpus) {
      SCOPED_TRACE(P.name());
      Profile Ref = test::referenceBottomUpTree(P);
      int64_t Id = Server.addProfile(Profile(P));
      for (MetricId M = 0; M < P.metrics().size(); ++M) {
        SCOPED_TRACE("metric " + std::to_string(M));
        size_t Rects = FlameGraph(Ref, M).rects().size();
        for (size_t MaxRects : {size_t(0), size_t(1), size_t(1500),
                                Rects + 7}) {
          SCOPED_TRACE("maxRects " + std::to_string(MaxRects));
          json::Value Reply = Server.handleMessage(
              bottomUpFlameRequest(++ReqId, Id, M, MaxRects));
          const json::Object *R = resultOf(Reply);
          ASSERT_NE(R, nullptr) << Reply.dump();
          EXPECT_EQ(json::Value(*R).dump(), referenceReply(Ref, M, MaxRects));
        }
      }
    }
  });
}

TEST(BottomUpOracle, LaidOutValuesMatchTheReferenceBitForBit) {
  std::vector<Profile> Corpus = oracleCorpus();
  atEachThreadCount([&] {
    for (const Profile &P : Corpus) {
      SCOPED_TRACE(P.name());
      Profile Ref = test::referenceBottomUpTree(P);
      for (MetricId M = 0; M < P.metrics().size(); ++M) {
        FlameLayoutOptions Layout;
        BottomUpView View = bottomUpView(P, M, Layout.MinWidth);
        FlameGraph Bounded(View.Tree, M, Layout);
        FlameGraph Full(Ref, M, Layout);
        ASSERT_EQ(Bounded.rects().size(), Full.rects().size());
        EXPECT_EQ(rectBits(Bounded), rectBits(Full));
        uint64_t TotalA, TotalB;
        double A = Bounded.totalValue(), B = Full.totalValue();
        std::memcpy(&TotalA, &A, sizeof A);
        std::memcpy(&TotalB, &B, sizeof B);
        EXPECT_EQ(TotalA, TotalB);
        for (size_t I = 0; I < Full.rects().size(); ++I)
          ASSERT_EQ(View.FullIds[Bounded.rects()[I].Node],
                    Full.rects()[I].Node);
      }
    }
  });
}

TEST(BottomUpOracle, WiderCullingMatchesTheReference) {
  // Wide culling turns many shared nodes into stubs carrying a subtree's
  // inclusive value, so this pins the builder's own summation order; a
  // depth cut in the layout only hides nodes the view still holds.
  for (const Profile &P : oracleCorpus()) {
    SCOPED_TRACE(P.name());
    Profile Ref = test::referenceBottomUpTree(P);
    for (MetricId M = 0; M < P.metrics().size(); ++M)
      for (double MinWidth : {1.0 / 256, 1.0 / 16, 0.5})
        for (unsigned MaxDepth : {0u, 3u}) {
          FlameLayoutOptions Layout;
          Layout.MinWidth = MinWidth;
          Layout.MaxDepth = MaxDepth;
          BottomUpView View = bottomUpView(P, M, MinWidth);
          FlameGraph Bounded(View.Tree, M, Layout);
          FlameGraph Full(Ref, M, Layout);
          EXPECT_EQ(Bounded.culledCount(), Full.culledCount());
          EXPECT_EQ(Bounded.depth(), Full.depth());
          EXPECT_EQ(rectBits(Bounded), rectBits(Full));
        }
  }
}

TEST(BottomUpBound, LaidOutTreeStaysWithinRectsPlusCulled) {
  Profile P = makeDeepServiceProfile(1007, 20000);
  size_t FullSize = bottomUpTree(P).nodeCount();
  FlameLayoutOptions Layout;
  BottomUpView View = bottomUpView(P, 0, Layout.MinWidth);
  FlameGraph Graph(View.Tree, 0, Layout);
  EXPECT_LE(View.Tree.nodeCount(),
            Graph.rects().size() + Graph.culledCount() + 1);
  EXPECT_LT(View.Tree.nodeCount() * 4, FullSize);
  ASSERT_EQ(View.FullIds.size(), View.Tree.nodeCount());
  for (size_t I = 1; I < View.FullIds.size(); ++I)
    EXPECT_LT(View.FullIds[I - 1], View.FullIds[I]);
  EXPECT_LT(View.FullIds.back(), FullSize);
}

TEST(BottomUpCancel, PreCancelledBuildersThrow) {
  Profile P = makeDeepServiceProfile(1001, 2000);
  CancelToken T = CancelToken::create();
  T.requestCancel();
  EXPECT_THROW(bottomUpTree(P, T), CancelledException);
  EXPECT_THROW(bottomUpView(P, 0, 1.0 / 4096, T), CancelledException);
}

TEST(BottomUpCancel, PreCancelledFlameAnswersMinus32800) {
  PvpServer Server;
  int64_t Id = Server.addProfile(makeDeepServiceProfile(1001, 2000));
  CancelToken T = CancelToken::create();
  T.requestCancel();
  json::Value R = Server.handleMessage(bottomUpFlameRequest(1, Id, 0, 1500), T);
  EXPECT_EQ(errorCodeOf(R), rpc::RequestCancelled);
  json::Value Stats = Server.handleMessage(
      rpc::makeRequest(2, "pvp/stats", json::Object()));
  EXPECT_EQ(resultOf(Stats)->find("cachedViews")->asInt(), 0);
}

TEST(BottomUpTrace, FlameIsAttributedToTheBoundedBuilder) {
  trace::clear();
  PvpServer Server;
  int64_t Id = Server.addProfile(test::makeRandomProfile(5));
  json::Value R = Server.handleMessage(bottomUpFlameRequest(1, Id, 0, 1500));
  ASSERT_NE(resultOf(R), nullptr) << R.dump();
  bool View = false, Tree = false;
  for (const trace::SpanRecord &S : trace::collectSpans()) {
    View |= std::string_view(S.Name) == "analysis/bottomUpView";
    Tree |= std::string_view(S.Name) == "analysis/bottomUpTree";
  }
  EXPECT_TRUE(View);
  EXPECT_FALSE(Tree);
}
