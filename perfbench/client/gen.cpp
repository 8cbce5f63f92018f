//===- perfbench/client/gen.cpp - Seeded benchmark inputs -----------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Synthetic service profiles, fleet cohorts with planted regressions, and
/// appendable .evprof sections. The benchmark owns these generators so its
/// inputs stay fixed while the program changes, and every total a check
/// compares against is summed here from the generated values.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "profile/ProfileBuilder.h"
#include "proto/EvProf.h"
#include "proto/EvProfFields.h"
#include "proto/PprofFormat.h"
#include "support/ProtoWire.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <unordered_map>

namespace pb {

using namespace ev;

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos =
      std::clamp(P / 100.0, 0.0, 1.0) * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

bool writeFileBytes(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  return static_cast<bool>(Out);
}

void ServiceProfile::retotal() {
  TotalSamples = TotalCpuNs = 0;
  for (const Node &N : Nodes) {
    TotalSamples += N.Samples;
    TotalCpuNs += N.CpuNs;
  }
}

std::vector<uint32_t> ServiceProfile::stackOf(size_t Id) const {
  std::vector<uint32_t> Out;
  for (int64_t N = static_cast<int64_t>(Id); N >= 0; N = Nodes[N].Parent)
    Out.push_back(Nodes[N].Func);
  std::reverse(Out.begin(), Out.end());
  return Out;
}

namespace {

const char *const Modules[] = {"http", "rpc",  "db",   "cache",
                               "json", "auth", "io",   "sched",
                               "log",  "tls",  "pool", "codec"};
const char *const Verbs[] = {"handle", "parse", "encode", "lookup",
                             "read",   "write", "flush",  "merge",
                             "route",  "check", "commit", "decode"};
const char *const Nouns[] = {"Request", "Header", "Row",    "Entry",
                             "Frame",   "Token",  "Buffer", "Batch",
                             "Record",  "Span",   "Block",  "Chunk"};

int64_t cpuOf(int64_t Samples, Rng &R) {
  return Samples * 10000000 + static_cast<int64_t>(R.below(1000000));
}

/// Adds a leaf under \p Parent with its own uniquely named function.
size_t addPlantedLeaf(ServiceProfile &S, size_t Parent, const std::string &Fn,
                      int64_t Samples, Rng &R) {
  S.Funcs.push_back({Fn, "src/planted/" + Fn + ".cc", 7});
  ServiceProfile::Node N;
  N.Parent = static_cast<int32_t>(Parent);
  N.Func = static_cast<uint32_t>(S.Funcs.size() - 1);
  N.Samples = Samples;
  N.CpuNs = cpuOf(Samples, R);
  S.Nodes.push_back(N);
  return S.Nodes.size() - 1;
}

} // namespace

ServiceProfile makeService(uint64_t Seed, size_t Count, std::string Name) {
  Rng R(Seed);
  ServiceProfile S;
  S.Name = S.Module = std::move(Name);
  size_t FuncCount = std::max<size_t>(64, Count / 6);
  S.Funcs.push_back({"main", "src/main.cc", 12});
  for (size_t I = 1; I < FuncCount; ++I) {
    const char *M = Modules[R.below(std::size(Modules))];
    std::string Fn = std::string(M) + "::" + Verbs[R.below(std::size(Verbs))] +
                     Nouns[R.below(std::size(Nouns))] + "_" +
                     std::to_string(I);
    S.Funcs.push_back({Fn, "src/" + std::string(M) + "/unit" +
                               std::to_string(I % 97) + ".cc",
                       static_cast<uint32_t>(10 + R.below(2000))});
  }

  // Deep chains with branching: mostly extend the previous context, often
  // branch off a recent one, sometimes off any context.
  std::vector<uint32_t> Depth;
  S.Nodes.push_back({-1, 0, 0, 0});
  Depth.push_back(0);
  for (size_t I = 1; I < Count; ++I) {
    double U = R.unit();
    size_t Parent;
    if (U < 0.55)
      Parent = I - 1;
    else if (U < 0.85)
      Parent = I - 1 - R.below(std::min<size_t>(I, 64));
    else
      Parent = R.below(I);
    while (Depth[Parent] >= 32)
      Parent = static_cast<size_t>(S.Nodes[Parent].Parent);
    double Z = R.unit();
    uint32_t Func = static_cast<uint32_t>(
        1 + static_cast<size_t>(Z * Z * static_cast<double>(FuncCount - 1)));
    S.Nodes.push_back({static_cast<int32_t>(Parent), Func, 0, 0});
    Depth.push_back(Depth[Parent] + 1);
  }

  // Values: every leaf and a third of the interior contexts, heavy-tailed.
  std::vector<bool> HasChild(S.Nodes.size(), false);
  for (const ServiceProfile::Node &N : S.Nodes)
    if (N.Parent >= 0)
      HasChild[N.Parent] = true;
  for (size_t I = 1; I < S.Nodes.size(); ++I) {
    if (HasChild[I] && R.unit() >= 0.33)
      continue;
    int64_t Samples =
        1 + static_cast<int64_t>(std::exp(R.gauss() * 1.2) * 5.0);
    S.Nodes[I].Samples = Samples;
    S.Nodes[I].CpuNs = cpuOf(Samples, R);
  }
  S.retotal();
  return S;
}

std::string toPprofBytes(const ServiceProfile &S) {
  pprof::PprofProfile P;
  std::unordered_map<std::string, int64_t> Ids;
  auto Intern = [&](const std::string &Text) {
    auto [It, Fresh] = Ids.emplace(Text, P.StringTable.size());
    if (Fresh)
      P.StringTable.push_back(Text);
    return It->second;
  };
  Intern("");
  P.SampleTypes.push_back({Intern("samples"), Intern("count")});
  P.SampleTypes.push_back({Intern("cpu"), Intern("nanoseconds")});
  P.PeriodType = {Intern("cpu"), Intern("nanoseconds")};
  P.Period = 10000000;
  pprof::Mapping Map;
  Map.Id = 1;
  Map.MemoryStart = 0x400000;
  Map.MemoryLimit = 0x4000000;
  Map.Filename = Intern(S.Module);
  P.Mappings.push_back(Map);
  for (size_t F = 0; F < S.Funcs.size(); ++F) {
    pprof::Function Fn;
    Fn.Id = F + 1;
    Fn.Name = Fn.SystemName = Intern(S.Funcs[F].Name);
    Fn.Filename = Intern(S.Funcs[F].File);
    Fn.StartLine = S.Funcs[F].Line;
    P.Functions.push_back(Fn);
    pprof::Location Loc;
    Loc.Id = F + 1;
    Loc.MappingId = 1;
    Loc.Address = 0x400000 + F * 16;
    Loc.Lines.push_back({F + 1, static_cast<int64_t>(S.Funcs[F].Line) + 3});
    P.Locations.push_back(std::move(Loc));
  }
  for (size_t I = 0; I < S.Nodes.size(); ++I) {
    const ServiceProfile::Node &N = S.Nodes[I];
    if (N.Samples == 0 && N.CpuNs == 0)
      continue;
    pprof::Sample Smp;
    std::vector<uint32_t> Stack = S.stackOf(I);
    for (auto It = Stack.rbegin(); It != Stack.rend(); ++It)
      Smp.LocationIds.push_back(*It + 1);
    Smp.Values = {N.Samples, N.CpuNs};
    P.Samples.push_back(std::move(Smp));
  }
  return pprof::write(P);
}

std::string toEvProfBytes(const ServiceProfile &S) {
  ProfileBuilder B(S.Name);
  MetricId Samples = B.addMetric("samples", "count");
  MetricId Cpu = B.addMetric("cpu", "nanoseconds");
  std::vector<FrameId> Frames;
  Frames.reserve(S.Funcs.size());
  for (const ServiceProfile::Func &F : S.Funcs)
    Frames.push_back(B.functionFrame(F.Name, F.File, F.Line + 3, S.Module));
  std::vector<FrameId> Path;
  for (size_t I = 0; I < S.Nodes.size(); ++I) {
    const ServiceProfile::Node &N = S.Nodes[I];
    if (N.Samples == 0 && N.CpuNs == 0)
      continue;
    Path.clear();
    for (uint32_t F : S.stackOf(I))
      Path.push_back(Frames[F]);
    NodeId Id = B.addSample(Path, Samples, static_cast<double>(N.Samples));
    B.addValue(Id, Cpu, static_cast<double>(N.CpuNs));
  }
  return writeEvProf(B.take());
}

ServiceProfile noisyReplica(const ServiceProfile &S, Rng &R, std::string Name,
                            int64_t Scale) {
  ServiceProfile P = S;
  P.Name = std::move(Name);
  for (ServiceProfile::Node &N : P.Nodes) {
    if (N.Samples == 0) {
      N.CpuNs = 0;
      continue;
    }
    double Noise = 1.0 + 0.03 * std::clamp(R.gauss(), -3.0, 3.0);
    N.Samples = std::max<int64_t>(
        1, std::llround(static_cast<double>(N.Samples * Scale) * Noise));
    N.CpuNs = cpuOf(N.Samples, R);
  }
  P.retotal();
  return P;
}

Cohort makeCohort(uint64_t Seed, size_t Count, size_t Replicas) {
  Rng R(Seed ^ 0xC0407ULL);
  ServiceProfile T = makeService(Seed * 31 + 7, Count, "fleet-service");
  // Planted contexts hang under interior contexts at depth >= 3 that carry
  // their own value, so the parent exists in both cohorts whatever the
  // planted leaf does.
  std::vector<size_t> Hosts;
  for (size_t I = 1; I < T.Nodes.size(); ++I)
    if (T.stackOf(I).size() >= 4)
      Hosts.push_back(I);
  auto Host = [&] {
    size_t H = Hosts[R.below(Hosts.size())];
    if (T.Nodes[H].Samples == 0) {
      T.Nodes[H].Samples = 3;
      T.Nodes[H].CpuNs = cpuOf(3, R);
    }
    return H;
  };
  T.retotal();
  int64_t Share2 = std::max<int64_t>(10, T.TotalSamples / 50);
  int64_t Share3 = std::max<int64_t>(10, T.TotalSamples * 3 / 100);

  Cohort C;
  C.ScaledFrame = "fleet::scaledLeaf";
  C.NewFrame = "fleet::newHotPath";
  C.VanishedFrame = "fleet::vanishedCall";
  size_t Scaled = addPlantedLeaf(T, Host(), C.ScaledFrame, Share2, R);
  size_t Vanished = addPlantedLeaf(T, Host(), C.VanishedFrame, Share3, R);
  size_t Fresh = addPlantedLeaf(T, Host(), C.NewFrame, 0, R);

  // Replicas sample 100x longer than a single profile, so the 3% noise
  // is not lost to integer rounding of small counts.
  auto Replica = [&](bool Test, size_t Index) {
    ServiceProfile P = T;
    if (Test) {
      P.Nodes[Scaled].Samples = P.Nodes[Scaled].Samples * 8 / 5;
      P.Nodes[Vanished].Samples = 0;
      P.Nodes[Fresh].Samples = Share3;
    }
    return noisyReplica(P, R,
                        std::string(Test ? "test" : "base") + "-replica-" +
                            std::to_string(Index),
                        100);
  };
  for (size_t I = 0; I < Replicas; ++I)
    C.Base.push_back(Replica(false, I));
  for (size_t I = 0; I < Replicas; ++I)
    C.Test.push_back(Replica(true, I));
  return C;
}

SectionPlan countRecords(std::string_view Bytes) {
  SectionPlan Plan;
  Bytes.remove_prefix(std::min(Bytes.size(), EvProfMagic.size()));
  ProtoReader Rd(Bytes);
  while (Rd.next()) {
    switch (Rd.fieldNumber()) {
    case evprof::FProfileString:
      ++Plan.Strings;
      break;
    case evprof::FProfileFrame:
      ++Plan.Frames;
      break;
    case evprof::FProfileNode:
      ++Plan.Nodes;
      break;
    default:
      break;
    }
    Rd.skip();
  }
  return Plan;
}

std::vector<Section> makeSections(uint64_t Seed, SectionPlan Plan,
                                  size_t Count, size_t NodesPerSection) {
  Rng R(Seed ^ 0x5EC7ULL);
  std::vector<Section> Out;
  size_t Strings = Plan.Strings, Frames = Plan.Frames, Nodes = Plan.Nodes;
  for (size_t K = 0; K < Count; ++K) {
    ProtoWriter W;
    Section S;
    // Every fourth section introduces a new function frame, as a profiler
    // does when a new code path starts running.
    if (K % 4 == 0) {
      W.writeBytes(evprof::FProfileString, "live::burst_" + std::to_string(K));
      ProtoWriter F;
      F.writeVarint(evprof::FFrameKind, 1);
      F.writeVarint(evprof::FFrameName, Strings);
      F.writeVarint(evprof::FFrameLine, 1 + K);
      W.writeBytes(evprof::FProfileFrame, F.buffer());
      ++Strings;
      ++Frames;
    }
    for (size_t J = 0; J < NodesPerSection; ++J) {
      // Mostly extend recent contexts, sometimes any context.
      size_t Parent = R.unit() < 0.5 ? Nodes - 1 - R.below(std::min<size_t>(
                                                        Nodes, 256))
                                     : R.below(Nodes);
      int64_t Samples = 1 + static_cast<int64_t>(R.below(50));
      ProtoWriter N;
      N.writeVarint(evprof::FNodeParentPlus1, Parent + 1);
      N.writeVarint(evprof::FNodeFrame,
                    J == 0 && K % 4 == 0 ? Frames - 1 : 1 + R.below(Frames - 1));
      ProtoWriter V0, V1;
      V0.writeVarint(evprof::FValueMetric, 0);
      V0.writeDouble(evprof::FValueValue, static_cast<double>(Samples));
      V1.writeVarint(evprof::FValueMetric, 1);
      V1.writeDouble(evprof::FValueValue,
                     static_cast<double>(Samples * 10000000));
      N.writeBytes(evprof::FNodeValue, V0.buffer());
      N.writeBytes(evprof::FNodeValue, V1.buffer());
      W.writeBytes(evprof::FProfileNode, N.buffer());
      ++Nodes;
      S.Samples += Samples;
    }
    S.Bytes = W.takeBuffer();
    Out.push_back(std::move(S));
  }
  return Out;
}

BrowseInputs makeBrowseInputs(uint64_t Seed, const std::string &Dir) {
  // Eight services with sizes spaced geometrically from about 256 KiB to
  // 4 MiB of pprof, written alternately as pprof and as .evprof, so the
  // latencies of a round spread smoothly instead of in a few clusters.
  BrowseInputs In;
  for (size_t I = 0; I < BrowseProfiles; ++I) {
    double Nodes = 6000.0 * std::pow(10.0, static_cast<double>(I) /
                                                static_cast<double>(
                                                    BrowseProfiles - 1));
    In.Profiles.push_back(makeService(Seed * 1000 + I,
                                      static_cast<size_t>(Nodes),
                                      "service-" + std::to_string(I)));
    const ServiceProfile &S = In.Profiles.back();
    bool Pprof = I % 2 == 0;
    std::string Path =
        Dir + "/browse-" + std::to_string(I) + (Pprof ? ".pb" : ".evprof");
    writeFileBytes(Path, Pprof ? toPprofBytes(S) : toEvProfBytes(S));
    In.Paths.push_back(Path);
    In.ProfileOfPath.push_back(I);
  }
  return In;
}

} // namespace pb
