//===- core/EasyView.cpp - The EasyView engine facade -----------------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "core/EasyView.h"

#include "analysis/MetricEngine.h"
#include "analysis/Transform.h"
#include "convert/Converters.h"
#include "query/Vm.h"
#include "render/HtmlRenderer.h"
#include "render/SvgRenderer.h"
#include "render/TreeTable.h"

#include <chrono>

namespace ev {

namespace {

double msSince(std::chrono::steady_clock::time_point Start) {
  auto End = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(End - Start).count();
}

} // namespace

Result<int64_t> EasyViewEngine::openProfileBytes(std::string_view Bytes,
                                                 std::string_view Name) {
  LastOpen = OpenStats{};

  auto T0 = std::chrono::steady_clock::now();
  Result<Profile> P = convert::load(Bytes, Name);
  if (!P)
    return makeError(P.error());
  LastOpen.ParseMs = msSince(T0);

  auto T1 = std::chrono::steady_clock::now();
  // Metric columns for the default metric — what the first view displays.
  if (!P->metrics().empty()) {
    MetricView View(*P, 0);
    (void)View.total();
  }
  LastOpen.AnalyzeMs = msSince(T1);

  auto T2 = std::chrono::steady_clock::now();
  if (!P->metrics().empty()) {
    FlameGraph Graph(*P, 0);
    (void)Graph.rects().size();
  }
  LastOpen.LayoutMs = msSince(T2);

  return Ide.server().addProfile(P.take());
}

Result<std::string> EasyViewEngine::flameSvg(int64_t Id,
                                             const FlameRenderOptions &Options) {
  const Profile *P = profile(Id);
  if (!P)
    return makeError("no profile with id " + std::to_string(Id));

  Profile Shaped;
  const Profile *View = P;
  if (Options.Shape == "flat") {
    Shaped = flatTree(*P);
    View = &Shaped;
  } else if (Options.Shape != "top-down" && Options.Shape != "bottom-up") {
    return makeError("unknown flame shape '" + Options.Shape + "'");
  }
  if (Options.Metric >= View->metrics().size())
    return makeError("metric index out of range");

  // The bottom-up tree shares the source's metric schema; only the part of
  // it the flame draws is built.
  FlameLayoutOptions Layout;
  BottomUpView Up;
  if (Options.Shape == "bottom-up") {
    Up = bottomUpView(*P, Options.Metric, Layout.MinWidth);
    View = &Up.Tree;
  }
  FlameGraph Graph(*View, Options.Metric, Layout);
  SvgOptions Svg;
  Svg.WidthPx = Options.WidthPx;
  Svg.Title = View->name() + " (" + Options.Shape + ")";
  Svg.Inverted = Options.Shape == "bottom-up";
  return renderSvg(Graph, Svg);
}

Result<std::string> EasyViewEngine::treeTableText(int64_t Id) {
  const Profile *P = profile(Id);
  if (!P)
    return makeError("no profile with id " + std::to_string(Id));
  TreeTable Table(*P);
  if (!P->metrics().empty())
    Table.expandHotPath(0);
  return Table.renderText();
}

Result<std::string> EasyViewEngine::summaryText(int64_t Id) {
  const Profile *P = profile(Id);
  if (!P)
    return makeError("no profile with id " + std::to_string(Id));
  return renderSummaryText(*P);
}

Result<evql::QueryOutput> EasyViewEngine::query(int64_t Id,
                                                std::string_view Program) {
  const Profile *P = profile(Id);
  if (!P)
    return makeError("no profile with id " + std::to_string(Id));
  // Compile-and-batch by default; the VM falls back to the interpreter for
  // the rare program the compiler rejects, with identical results either
  // way (the interpreter is the oracle).
  return evql::runProgramAuto(*P, Program);
}

Result<AggregatedProfile>
EasyViewEngine::aggregateProfiles(std::span<const int64_t> Ids) {
  if (Ids.empty())
    return makeError("aggregate needs at least one profile");
  std::vector<const Profile *> Inputs;
  for (int64_t Id : Ids) {
    const Profile *P = profile(Id);
    if (!P)
      return makeError("no profile with id " + std::to_string(Id));
    Inputs.push_back(P);
  }
  AggregateOptions Opt;
  Opt.WithMin = Opt.WithMax = Opt.WithMean = true;
  return aggregate(Inputs, Opt);
}

Result<DiffResult> EasyViewEngine::diff(int64_t BaseId, int64_t TestId,
                                        MetricId Metric) {
  const Profile *Base = profile(BaseId);
  if (!Base)
    return makeError("no profile with id " + std::to_string(BaseId));
  const Profile *Test = profile(TestId);
  if (!Test)
    return makeError("no profile with id " + std::to_string(TestId));
  if (Metric >= Base->metrics().size())
    return makeError("metric index out of range");
  return diffProfiles(*Base, *Test, Metric);
}

} // namespace ev
