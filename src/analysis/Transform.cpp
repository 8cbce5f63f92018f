//===- analysis/Transform.cpp - Top-down/bottom-up/flat tree shapes -------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/Transform.h"

#include "analysis/MetricEngine.h"
#include "analysis/Traversal.h"
#include "support/Trace.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

namespace ev {

namespace {

/// Copies the metric schema of \p Src into \p Dst; returns the id map
/// (identical when Dst starts empty, but kept explicit for safety).
std::vector<MetricId> copyMetricSchema(const Profile &Src, Profile &Dst) {
  std::vector<MetricId> Map(Src.metrics().size());
  for (MetricId I = 0; I < Src.metrics().size(); ++I) {
    const MetricDescriptor &M = Src.metrics()[I];
    Map[I] = Dst.addMetric(M.Name, M.Unit, M.Aggregation);
  }
  return Map;
}

/// Re-interns frame \p F of \p Src into \p Dst.
FrameId copyFrame(const Profile &Src, const Frame &F, Profile &Dst) {
  Frame Copy;
  Copy.Kind = F.Kind;
  Copy.Name = Dst.strings().intern(Src.text(F.Name));
  Copy.Loc.File = Dst.strings().intern(Src.text(F.Loc.File));
  Copy.Loc.Line = F.Loc.Line;
  Copy.Loc.Module = Dst.strings().intern(Src.text(F.Loc.Module));
  Copy.Loc.Address = F.Loc.Address;
  return Dst.internFrame(Copy);
}

/// Incrementally materializes paths in an output profile, merging common
/// prefixes exactly like ProfileBuilder but against externally supplied
/// frame ids.
class TreeWriter {
public:
  explicit TreeWriter(Profile &P) : P(P) {}

  NodeId child(NodeId Parent, FrameId F) {
    uint64_t Key = (static_cast<uint64_t>(Parent) << 32) | F;
    auto It = Index.find(Key);
    if (It != Index.end())
      return It->second;
    NodeId Id = P.createNode(Parent, F);
    Index.emplace(Key, Id);
    return Id;
  }

private:
  Profile &P;
  std::unordered_map<uint64_t, NodeId> Index;
};

/// Re-interns every frame of \p Src into \p Dst; returns the frame map. Two
/// source frames that intern to one output frame share its id.
std::vector<FrameId> copyFrames(const Profile &Src, Profile &Dst) {
  std::vector<FrameId> FrameMap(Src.frames().size());
  for (FrameId I = 0; I < Src.frames().size(); ++I)
    FrameMap[I] = copyFrame(Src, Src.frame(I), Dst);
  return FrameMap;
}

constexpr uint32_t None = std::numeric_limits<uint32_t>::max();

/// The part of the bottom-up tree that more than one contributor shares,
/// found without materializing the tree.
///
/// A contributor is a context with a non-zero metric; its reversed call
/// path (its own frame first, callers outward, stopping before the root)
/// is its path in the bottom-up tree. Contributors are grouped level by
/// level by canonical (output) frame id. A group that narrows to one
/// contributor heads a chain only that contributor reaches; chains are
/// never walked here.
///
/// Node ids are those of the insertion-order construction: contributor I
/// reuses the first Lcp[I] nodes of its path (the longest prefix an earlier
/// contributor created) and creates the rest, Depth[I] - Lcp[I] nodes with
/// consecutive ids after the Before[I] that earlier contributors created.
class InvertedIndex {
public:
  /// One node of the shared part, or the head of a chain.
  struct Node {
    uint32_t Owner = None; ///< Smallest contributor reaching the node.
    uint32_t Depth = 0;
    uint32_t FirstChild = 0; ///< Children are contiguous, in id order.
    uint32_t NumChildren = 0;
    uint32_t EndBegin = 0; ///< Contributors ending here: Enders[Begin, End).
    uint32_t EndEnd = 0;
    NodeId Src = 0;    ///< A source context carrying the node's frame.
    FrameId Frame = 0; ///< Output frame id.
    bool Chain = false; ///< Only the owner reaches it; its subtree is a path.
  };

  InvertedIndex(const Profile &P, const std::vector<FrameId> &FrameMap,
                size_t OutFrames, const CancelToken &Cancel);

  /// Bottom-up tree id of contributor \p I's node at depth \p D > Lcp[I].
  NodeId fullId(uint32_t I, uint32_t D) const { return Before[I] + D - Lcp[I]; }
  NodeId fullId(const Node &N) const {
    return N.Depth == 0 ? 0 : fullId(N.Owner, N.Depth);
  }
  /// Node count of the whole bottom-up tree, root included.
  size_t treeSize() const { return Before.back() + 1; }

  std::vector<NodeId> Contributors;
  std::vector<uint32_t> Depth;
  std::vector<uint32_t> Lcp;
  std::vector<NodeId> Before;
  /// If contributor I creates nodes: the shared node parenting the first
  /// one, else the shared node its path ends at.
  std::vector<uint32_t> Attach;
  /// Source context carrying the frame of contributor I's first created
  /// node (InvalidNode when it creates none).
  std::vector<NodeId> FirstSrc;
  std::vector<Node> Nodes; ///< Breadth first; Nodes[0] is the root.
  std::vector<uint32_t> Enders;
};

InvertedIndex::InvertedIndex(const Profile &P,
                             const std::vector<FrameId> &FrameMap,
                             size_t OutFrames, const CancelToken &Cancel) {
  Cancel.checkpoint();
  std::vector<uint32_t> Depths = depthColumn(P);
  for (NodeId Id = 1; Id < P.nodeCount(); ++Id) {
    const CCTNode &Node = P.node(Id);
    for (const MetricValue &MV : Node.Metrics)
      if (MV.Value != 0.0) {
        Contributors.push_back(Id);
        Depth.push_back(Depths[Id]);
        break;
      }
  }
  size_t Count = Contributors.size();
  Lcp.assign(Count, None);
  Attach.assign(Count, None);
  FirstSrc.assign(Count, InvalidNode);

  // Next[I]: the source context whose frame contributor I takes one level
  // further down the bottom-up tree.
  std::vector<NodeId> Next(Contributors);
  Nodes.emplace_back(); // The root; every contributor passes through it.
  std::vector<uint32_t> Members(Count);
  for (uint32_t I = 0; I < Count; ++I)
    Members[I] = I;
  std::vector<uint32_t> Offsets{0, static_cast<uint32_t>(Count)};

  std::vector<uint32_t> Stamp(OutFrames, None), Slot(OutFrames, 0);
  std::vector<uint32_t> Sizes, Routed, NextMembers, NextOffsets;
  size_t Seen = 0;
  for (uint32_t Level = 0, Begin = 0, End = 1; Begin < End; ++Level) {
    Sizes.clear();
    Routed.clear();
    for (uint32_t N = Begin; N < End; ++N) {
      if (Nodes[N].Chain)
        continue;
      Nodes[N].FirstChild = static_cast<uint32_t>(Nodes.size());
      Nodes[N].EndBegin = static_cast<uint32_t>(Enders.size());
      for (uint32_t M = Offsets[N - Begin]; M < Offsets[N - Begin + 1]; ++M) {
        if ((++Seen & 1023) == 0)
          Cancel.checkpoint();
        uint32_t I = Members[M];
        if (Depth[I] == Level) {
          Enders.push_back(I);
          if (Lcp[I] == None) {
            Lcp[I] = Level;
            Attach[I] = N;
          }
          continue;
        }
        NodeId S = Next[I];
        FrameId F = FrameMap[P.node(S).FrameRef];
        if (Stamp[F] != N) {
          // Members arrive in index order, so the first one to reach a
          // child owns it and children come out in id order.
          Stamp[F] = N;
          Slot[F] = static_cast<uint32_t>(Nodes.size());
          Node Child;
          Child.Owner = I;
          Child.Depth = Level + 1;
          Child.Src = S;
          Child.Frame = F;
          Nodes.push_back(Child);
          Sizes.push_back(0);
          if (Lcp[I] == None) {
            Lcp[I] = Level;
            Attach[I] = N;
            FirstSrc[I] = S;
          }
        }
        ++Sizes[Slot[F] - End];
        Routed.push_back(Slot[F]);
        Routed.push_back(I);
        Next[I] = P.node(S).Parent;
      }
      Nodes[N].NumChildren =
          static_cast<uint32_t>(Nodes.size()) - Nodes[N].FirstChild;
      Nodes[N].EndEnd = static_cast<uint32_t>(Enders.size());
    }
    // Scatter the routed members into their children, keeping index order.
    NextOffsets.assign(Sizes.size() + 1, 0);
    for (size_t C = 0; C < Sizes.size(); ++C) {
      NextOffsets[C + 1] = NextOffsets[C] + Sizes[C];
      Nodes[End + C].Chain = Sizes[C] == 1;
    }
    NextMembers.resize(NextOffsets.back());
    std::vector<uint32_t> &Fill = Sizes;
    std::copy(NextOffsets.begin(), NextOffsets.end() - 1, Fill.begin());
    for (size_t R = 0; R < Routed.size(); R += 2)
      NextMembers[Fill[Routed[R] - End]++] = Routed[R + 1];
    Members.swap(NextMembers);
    Offsets.swap(NextOffsets);
    Begin = End;
    End = static_cast<uint32_t>(Nodes.size());
  }

  Before.assign(Count + 1, 0);
  for (size_t I = 0; I < Count; ++I)
    Before[I + 1] = Before[I] + Depth[I] - Lcp[I];
}

/// Folds contributor \p Src's values of \p Metric into \p Acc the way
/// CCTNode::addMetric accumulates them: the first value is stored, later
/// ones are added.
void foldMetric(const CCTNode &Src, const std::vector<MetricId> &MetricMap,
                MetricId Metric, double &Acc, bool &Has) {
  for (const MetricValue &MV : Src.Metrics)
    if (MetricMap[MV.Metric] == Metric) {
      Acc = Has ? Acc + MV.Value : MV.Value;
      Has = true;
    }
}

} // namespace

Profile topDownTree(const Profile &P, const CancelToken &Cancel) {
  trace::Span Span("analysis/topDownTree", "analysis");
  Profile Out;
  Out.setName(P.name());
  std::vector<MetricId> MetricMap = copyMetricSchema(P, Out);

  // Frame table first, then nodes in id order (parents precede children).
  std::vector<FrameId> FrameMap = copyFrames(P, Out);

  std::vector<NodeId> NodeMap(P.nodeCount(), InvalidNode);
  NodeMap[P.root()] = Out.root();
  Out.node(Out.root()).FrameRef = FrameMap[P.node(P.root()).FrameRef];
  for (NodeId Id = 1; Id < P.nodeCount(); ++Id) {
    if ((Id & 8191) == 0)
      Cancel.checkpoint();
    const CCTNode &Node = P.node(Id);
    NodeMap[Id] = Out.createNode(NodeMap[Node.Parent], FrameMap[Node.FrameRef]);
  }
  for (NodeId Id = 0; Id < P.nodeCount(); ++Id)
    for (const MetricValue &MV : P.node(Id).Metrics)
      Out.node(NodeMap[Id]).addMetric(MetricMap[MV.Metric], MV.Value);
  return Out;
}

Profile bottomUpTree(const Profile &P, const CancelToken &Cancel) {
  trace::Span Span("analysis/bottomUpTree", "analysis");
  Profile Out;
  Out.setName(P.name() + " (bottom-up)");
  std::vector<MetricId> MetricMap = copyMetricSchema(P, Out);
  std::vector<FrameId> FrameMap = copyFrames(P, Out);
  InvertedIndex Index(P, FrameMap, Out.frames().size(), Cancel);

  // Each contributor appends the nodes it creates in id order; their
  // parent is the shared node it branches off, then each other in turn.
  Out.reserveTables(Index.treeSize(), 0);
  size_t Count = Index.Contributors.size();
  for (size_t I = 0; I < Count; ++I) {
    if ((I & 1023) == 0)
      Cancel.checkpoint();
    if (Index.Lcp[I] == Index.Depth[I])
      continue;
    NodeId Parent = Index.fullId(Index.Nodes[Index.Attach[I]]);
    NodeId Src = Index.FirstSrc[I];
    for (uint32_t D = Index.Lcp[I]; D < Index.Depth[I]; ++D) {
      Parent = Out.createNode(Parent, FrameMap[P.node(Src).FrameRef]);
      Src = P.node(Src).Parent;
    }
  }
  // Exclusive values land where each reversed path ends, in contributor
  // order.
  for (size_t I = 0; I < Count; ++I) {
    NodeId End = Index.Lcp[I] < Index.Depth[I]
                     ? Index.Before[I + 1]
                     : Index.fullId(Index.Nodes[Index.Attach[I]]);
    for (const MetricValue &MV : P.node(Index.Contributors[I]).Metrics)
      Out.node(End).addMetric(MetricMap[MV.Metric], MV.Value);
  }
  return Out;
}

BottomUpView bottomUpView(const Profile &P, MetricId Metric, double MinWidth,
                          const CancelToken &Cancel) {
  trace::Span Span("analysis/bottomUpView", "analysis");
  BottomUpView View;
  Profile &Out = View.Tree;
  Out.setName(P.name() + " (bottom-up)");
  std::vector<MetricId> MetricMap = copyMetricSchema(P, Out);
  std::vector<FrameId> FrameMap = copyFrames(P, Out);
  const InvertedIndex Index(P, FrameMap, Out.frames().size(), Cancel);
  const std::vector<InvertedIndex::Node> &Nodes = Index.Nodes;

  // Exclusive and inclusive values of the shared nodes, children first.
  // Inclusive folds exclusive with the children in descending id order,
  // exactly as inclusiveColumn() sweeps the whole tree. A chain carries its
  // owner's own value: stored at its end, 0.0 + value above it. For a chain
  // head, Excl holds that own value.
  std::vector<double> Excl(Nodes.size(), 0.0), Incl(Nodes.size(), 0.0);
  for (size_t N = Nodes.size(); N-- > 0;) {
    const InvertedIndex::Node &Node = Nodes[N];
    double Value = 0.0;
    bool Has = false;
    if (Node.Chain) {
      foldMetric(P.node(Index.Contributors[Node.Owner]), MetricMap, Metric,
                 Value, Has);
      Excl[N] = Value;
      Incl[N] = Node.Depth == Index.Depth[Node.Owner] ? Value : 0.0 + Value;
      continue;
    }
    for (uint32_t E = Node.EndBegin; E < Node.EndEnd; ++E)
      foldMetric(P.node(Index.Contributors[Index.Enders[E]]), MetricMap,
                 Metric, Value, Has);
    Excl[N] = Value;
    for (uint32_t C = Node.FirstChild + Node.NumChildren; C-- > Node.FirstChild;)
      Value += Incl[C];
    Incl[N] = Value;
  }

  // Walk what FlameGraph lays out. A laid-out node whose children are drawn
  // keeps its exclusive value and gets every child; any other node becomes
  // a stub holding its inclusive value.
  struct Pick {
    NodeId FullId;
    uint32_t Parent; ///< Index in Picks.
    FrameId Frame;
    double Value;
  };
  std::vector<Pick> Picks;
  struct Item {
    uint32_t Node;   ///< Index in Nodes (a chain's head for chain nodes).
    uint32_t Depth;  ///< Depth along the chain for chain nodes.
    NodeId Src;      ///< Source context carrying a chain node's frame.
    uint32_t Parent; ///< Index in Picks.
  };
  double Total = Incl[0];
  std::vector<Item> Stack;
  if (Total <= 0.0)
    Picks.push_back({0, None, Nodes[0].Frame, Total});
  else
    Stack.push_back({0, 0, Nodes[0].Src, None});
  size_t Visited = 0;
  while (!Stack.empty()) {
    if ((++Visited & 1023) == 0)
      Cancel.checkpoint();
    Item W = Stack.back();
    Stack.pop_back();
    const InvertedIndex::Node &Node = Nodes[W.Node];
    NodeId FullId;
    FrameId Frame;
    double Value, Own;
    bool HasChildren;
    if (Node.Chain) {
      uint32_t End = Index.Depth[Node.Owner];
      FullId = Index.fullId(Node.Owner, W.Depth);
      Frame = FrameMap[P.node(W.Src).FrameRef];
      Value = W.Depth == End ? Excl[W.Node] : 0.0 + Excl[W.Node];
      Own = 0.0;
      HasChildren = W.Depth < End;
    } else {
      FullId = Index.fullId(Node);
      Frame = Node.Frame;
      Value = Incl[W.Node];
      Own = Excl[W.Node];
      HasChildren = Node.NumChildren > 0;
    }
    // The same culling tests as FlameGraph, so NaN widths lay out alike.
    bool Expand = HasChildren && !(Value / Total < MinWidth);
    uint32_t Self = static_cast<uint32_t>(Picks.size());
    Picks.push_back({FullId, W.Parent, Frame, Expand ? Own : Value});
    if (!Expand)
      continue;
    if (Node.Chain) {
      Stack.push_back({W.Node, W.Depth + 1, P.node(W.Src).Parent, Self});
      continue;
    }
    for (uint32_t C = Node.FirstChild; C < Node.FirstChild + Node.NumChildren;
         ++C)
      Stack.push_back({C, Nodes[C].Depth, Nodes[C].Src, Self});
  }

  // Emit in bottom-up tree id order; parents precede their children.
  std::vector<uint32_t> Order(Picks.size());
  for (uint32_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(), [&Picks](uint32_t A, uint32_t B) {
    return Picks[A].FullId < Picks[B].FullId;
  });
  bool KnownMetric = Metric < Out.metrics().size();
  std::vector<NodeId> TreeId(Picks.size(), 0);
  Out.reserveTables(Picks.size(), 0);
  View.FullIds.reserve(Picks.size());
  for (uint32_t I : Order) {
    const Pick &K = Picks[I];
    if (K.Parent != None)
      TreeId[I] = Out.createNode(TreeId[K.Parent], K.Frame);
    if (KnownMetric)
      Out.node(TreeId[I]).Metrics.push_back({Metric, K.Value});
    View.FullIds.push_back(K.FullId);
  }
  return View;
}

Profile flatTree(const Profile &P, const CancelToken &Cancel) {
  trace::Span Span("analysis/flatTree", "analysis");
  Profile Out;
  Out.setName(P.name() + " (flat)");
  std::vector<MetricId> ExclMap = copyMetricSchema(P, Out);
  // One extra column per metric holding the call-path-aware inclusive sum.
  std::vector<MetricId> InclMap(P.metrics().size());
  for (MetricId I = 0; I < P.metrics().size(); ++I) {
    const MetricDescriptor &M = P.metrics()[I];
    InclMap[I] = Out.addMetric(M.Name + " (inclusive)", M.Unit, M.Aggregation);
  }

  // All inclusive columns in one fused sweep instead of one pass per metric.
  std::vector<std::vector<double>> Inclusive = inclusiveColumns(P);

  // The module/file/function frames a context expands to depend only on its
  // frame, so materialize them once per distinct frame instead of once per
  // CCT node.
  struct FlatRefs {
    FrameId Module;
    FrameId File;
    FrameId Func;
  };
  std::vector<FlatRefs> Refs(P.frames().size());
  for (FrameId I = 0; I < P.frames().size(); ++I) {
    const Frame &F = P.frame(I);
    StringId ModuleText = Out.strings().intern(P.text(F.Loc.Module));
    StringId FileText = Out.strings().intern(P.text(F.Loc.File));
    Refs[I].Module = Out.internFrame(
        {FrameKind::Function,
         P.text(F.Loc.Module).empty()
             ? Out.strings().intern("<unknown module>")
             : ModuleText,
         SourceLocation{0, 0, ModuleText, 0}});
    Refs[I].File = Out.internFrame(
        {FrameKind::Function,
         P.text(F.Loc.File).empty() ? Out.strings().intern("<unknown file>")
                                    : FileText,
         SourceLocation{FileText, 0, ModuleText, 0}});
    Refs[I].Func = copyFrame(P, F, Out);
  }

  TreeWriter Writer(Out);
  // Count of occurrences of each function frame along the current DFS path,
  // so that recursive functions contribute their inclusive value only once
  // (outermost occurrence).
  std::unordered_map<FrameId, unsigned> ActiveFrames;

  // Iterative DFS with explicit enter/leave events.
  struct Event {
    NodeId Id;
    bool Enter;
  };
  std::vector<Event> Stack{{P.root(), true}};
  size_t Visited = 0;
  while (!Stack.empty()) {
    if ((Visited++ & 8191) == 0)
      Cancel.checkpoint();
    Event E = Stack.back();
    Stack.pop_back();
    const CCTNode &Node = P.node(E.Id);
    if (!E.Enter) {
      if (E.Id != P.root())
        --ActiveFrames[Node.FrameRef];
      continue;
    }
    if (E.Id != P.root()) {
      // Materialize root -> module -> file -> function from the per-frame
      // precomputed refs.
      const FlatRefs &R = Refs[Node.FrameRef];
      NodeId ModuleNode = Writer.child(Out.root(), R.Module);
      NodeId FileNode = Writer.child(ModuleNode, R.File);
      NodeId FuncNode = Writer.child(FileNode, R.Func);

      unsigned &Depth = ActiveFrames[Node.FrameRef];
      for (const MetricValue &MV : Node.Metrics)
        Out.node(FuncNode).addMetric(ExclMap[MV.Metric], MV.Value);
      if (Depth == 0)
        for (MetricId M = 0; M < P.metrics().size(); ++M)
          if (Inclusive[M][E.Id] != 0.0)
            Out.node(FuncNode).addMetric(InclMap[M], Inclusive[M][E.Id]);
      ++Depth;
      Stack.push_back({E.Id, false});
    }
    for (size_t I = Node.Children.size(); I > 0; --I)
      Stack.push_back({Node.Children[I - 1], true});
  }
  return Out;
}

Profile collapseRecursion(const Profile &P, const CancelToken &Cancel) {
  trace::Span Span("analysis/collapseRecursion", "analysis");
  Profile Out;
  Out.setName(P.name());
  std::vector<MetricId> MetricMap = copyMetricSchema(P, Out);
  std::vector<FrameId> FrameMap = copyFrames(P, Out);

  TreeWriter Writer(Out);
  // Map each source node to its (possibly merged) output node. A child with
  // the same frame as its parent collapses into the parent's output node.
  std::vector<NodeId> OutNode(P.nodeCount(), InvalidNode);
  OutNode[P.root()] = Out.root();
  for (NodeId Id = 1; Id < P.nodeCount(); ++Id) {
    if ((Id & 8191) == 0)
      Cancel.checkpoint();
    const CCTNode &Node = P.node(Id);
    NodeId ParentOut = OutNode[Node.Parent];
    if (Node.Parent != P.root() &&
        P.node(Node.Parent).FrameRef == Node.FrameRef) {
      OutNode[Id] = ParentOut; // Self-recursive frame: merge.
    } else {
      OutNode[Id] = Writer.child(ParentOut, FrameMap[Node.FrameRef]);
    }
    for (const MetricValue &MV : Node.Metrics)
      Out.node(OutNode[Id]).addMetric(MetricMap[MV.Metric], MV.Value);
  }
  for (const MetricValue &MV : P.node(P.root()).Metrics)
    Out.node(Out.root()).addMetric(MetricMap[MV.Metric], MV.Value);
  return Out;
}

Profile limitDepth(const Profile &P, unsigned MaxDepth) {
  Profile Out;
  Out.setName(P.name());
  std::vector<MetricId> MetricMap = copyMetricSchema(P, Out);
  std::vector<FrameId> FrameMap = copyFrames(P, Out);

  std::vector<NodeId> OutNode(P.nodeCount(), InvalidNode);
  std::vector<unsigned> Depth(P.nodeCount(), 0);
  OutNode[P.root()] = Out.root();
  for (NodeId Id = 1; Id < P.nodeCount(); ++Id) {
    const CCTNode &Node = P.node(Id);
    Depth[Id] = Depth[Node.Parent] + 1;
    if (Depth[Id] > MaxDepth) {
      OutNode[Id] = OutNode[Node.Parent]; // Fold into the deepest ancestor.
    } else {
      OutNode[Id] =
          Out.createNode(OutNode[Node.Parent], FrameMap[Node.FrameRef]);
    }
    for (const MetricValue &MV : Node.Metrics)
      Out.node(OutNode[Id]).addMetric(MetricMap[MV.Metric], MV.Value);
  }
  for (const MetricValue &MV : P.node(P.root()).Metrics)
    Out.node(Out.root()).addMetric(MetricMap[MV.Metric], MV.Value);
  return Out;
}

} // namespace ev
