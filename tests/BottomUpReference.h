//===- tests/BottomUpReference.h - Reference bottom-up tree construction --===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The straightforward bottom-up tree construction, kept as the oracle for
/// ev::bottomUpTree() and ev::bottomUpView(): every contributing context's
/// reversed call path is inserted into a hash-indexed trie, in context id
/// order, and its exclusive values are added at the path's end. It
/// materializes the whole inverted tree (the sum of all contributor depths)
/// and is deliberately simple rather than fast.
///
//===----------------------------------------------------------------------===//

#ifndef EASYVIEW_TESTS_BOTTOMUPREFERENCE_H
#define EASYVIEW_TESTS_BOTTOMUPREFERENCE_H

#include "profile/Profile.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace ev {
namespace test {

inline Profile referenceBottomUpTree(const Profile &P) {
  Profile Out;
  Out.setName(P.name() + " (bottom-up)");
  std::vector<MetricId> MetricMap(P.metrics().size());
  for (MetricId I = 0; I < P.metrics().size(); ++I) {
    const MetricDescriptor &M = P.metrics()[I];
    MetricMap[I] = Out.addMetric(M.Name, M.Unit, M.Aggregation);
  }
  std::vector<FrameId> FrameMap(P.frames().size());
  for (FrameId I = 0; I < P.frames().size(); ++I) {
    const Frame &F = P.frame(I);
    Frame Copy;
    Copy.Kind = F.Kind;
    Copy.Name = Out.strings().intern(P.text(F.Name));
    Copy.Loc.File = Out.strings().intern(P.text(F.Loc.File));
    Copy.Loc.Line = F.Loc.Line;
    Copy.Loc.Module = Out.strings().intern(P.text(F.Loc.Module));
    Copy.Loc.Address = F.Loc.Address;
    FrameMap[I] = Out.internFrame(Copy);
  }

  std::unordered_map<uint64_t, NodeId> Index;
  auto Child = [&](NodeId Parent, FrameId F) {
    uint64_t Key = (static_cast<uint64_t>(Parent) << 32) | F;
    auto It = Index.find(Key);
    if (It != Index.end())
      return It->second;
    NodeId Id = Out.createNode(Parent, F);
    Index.emplace(Key, Id);
    return Id;
  };
  for (NodeId Id = 1; Id < P.nodeCount(); ++Id) {
    const CCTNode &Node = P.node(Id);
    bool AllZero = true;
    for (const MetricValue &MV : Node.Metrics)
      if (MV.Value != 0.0)
        AllZero = false;
    if (Node.Metrics.empty() || AllZero)
      continue;
    NodeId Cur = Out.root();
    for (NodeId Walk = Id; Walk != P.root(); Walk = P.node(Walk).Parent)
      Cur = Child(Cur, FrameMap[P.node(Walk).FrameRef]);
    for (const MetricValue &MV : Node.Metrics)
      Out.node(Cur).addMetric(MetricMap[MV.Metric], MV.Value);
  }
  return Out;
}

} // namespace test
} // namespace ev

#endif // EASYVIEW_TESTS_BOTTOMUPREFERENCE_H
