//===- tool/CliDriver.cpp - The evtool command-line driver ----------------===//
//
// Part of the EasyView reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "tool/CliDriver.h"

#include "analysis/Aggregate.h"
#include "analysis/Butterfly.h"
#include "analysis/Diff.h"
#include "analysis/MetricEngine.h"
#include "analysis/ProfileLint.h"
#include "analysis/Regression.h"
#include "analysis/RuleRegistry.h"
#include "analysis/Sema.h"
#include "analysis/Transform.h"
#include "convert/Converters.h"
#include "convert/Exporters.h"
#include "ide/SessionManager.h"
#include "net/NetServer.h"
#include "profile/ProfileStore.h"
#include "proto/EvProf.h"
#include "query/Interpreter.h"
#include "query/Vm.h"
#include "render/AnsiRenderer.h"
#include "render/CodeAnnotations.h"
#include "render/DiffRenderer.h"
#include "render/FlameLayout.h"
#include "render/HtmlRenderer.h"
#include "render/SvgRenderer.h"
#include "render/TreeTable.h"
#include "support/FileIo.h"
#include "support/Strings.h"
#include "support/Trace.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <map>
#include <thread>

namespace ev {
namespace tool {

std::string usageText() {
  return "usage: evtool <command> [options]\n"
         "\n"
         "commands:\n"
         "  info <profile>                     format, counts, metrics\n"
         "  summary <profile>                  floating-window summary\n"
         "  flame <profile> [--shape S] [--metric M] [--svg F] "
         "[--columns N]\n"
         "  table <profile> [--rows N]         tree table, hot path open\n"
         "  convert <in> <out> [--to FMT]      evprof|pprof|collapsed|\n"
         "                                     speedscope|chrome\n"
         "  diff <base> <test> [--metric M]    differential view\n"
         "  aggregate <out.evprof> <in...>     merge profiles\n"
         "  query <profile> -e <prog>|--file F run an EVQL program\n"
         "        [--interpreter]                force the tree-walking "
         "interpreter (default: bytecode VM)\n"
         "  check <query.evql> [--profile P] [--min-severity S]\n"
         "        [--disable R,R...] [--werror] [--list-rules]\n"
         "                                     EVQL static analysis (no "
         "execution)\n"
         "  lint <profile.evprof> [--min-severity S] [--disable R,R...]\n"
         "       [--werror] [--list-rules]     profile data-quality lints\n"
         "  regress <base> <test> [--format text|json]\n"
         "        [--min-severity S] [--disable R,R...] [--werror]\n"
         "        [--rel-min F] [--abs-min F] [--sigma F] [--node-budget N]\n"
         "        [--list-rules]               diff two profile cohorts\n"
         "                                     (files or directories) and\n"
         "                                     report EVL3xx regressions\n"
         "  butterfly <profile> <function> [--metric M]\n"
         "  annotate <profile> <source-file>   per-line code lenses\n"
         "  report <profile> <out.html>        self-contained HTML report\n"
         "  store --stats <profile|dir...> [--budget BYTES --spill-dir D]\n"
         "                                     load into a (optionally\n"
         "                                     budgeted) profile store and\n"
         "                                     report resident/spilled/\n"
         "                                     deduplicated memory\n"
         "  serve --input <requests.jsonl> [--sessions N]\n"
         "        [--trace-out F]              run PVP requests through the\n"
         "                                     concurrent session service;\n"
         "                                     --trace-out dumps the server's\n"
         "                                     own spans as Chrome trace JSON\n"
         "  serve (--listen HOST:PORT | --unix PATH) [--sessions N]\n"
         "        [--max-conns N] [--idle-ms N] [--frame-ms N] "
         "[--drain-ms N]\n"
         "        [--drain-after-ms N]         serve PVP over a real socket;\n"
         "                                     SIGINT/SIGTERM drain "
         "gracefully\n"
         "        [--follow FILE]              tail a growing .evprof: open\n"
         "                                     it as a live profile in every\n"
         "                                     session and push view deltas\n"
         "                                     to subscribers as it grows\n"
         "  help                               this text\n";
}

namespace {

/// Simple option scanner: positional arguments plus --key value pairs.
struct ParsedArgs {
  std::vector<std::string> Positional;
  std::map<std::string, std::string> Options;
};

/// Option names that are value-less flags for some command. Flags parse as
/// "--flag" (or the compiler-style alias "-Werror") and show up in Options
/// with the value "1".
const std::initializer_list<std::string_view> BoolFlags = {"werror",
                                                           "list-rules",
                                                           "stats",
                                                           "interpreter"};

Result<ParsedArgs> parseArgs(const std::vector<std::string> &Args,
                             size_t From) {
  ParsedArgs Out;
  auto IsFlag = [](std::string_view Name) {
    for (std::string_view F : BoolFlags)
      if (F == Name)
        return true;
    return false;
  };
  for (size_t I = From; I < Args.size(); ++I) {
    const std::string &A = Args[I];
    if (A == "-Werror") {
      Out.Options["werror"] = "1";
      continue;
    }
    if (startsWith(A, "--")) {
      std::string Name = A.substr(2);
      if (IsFlag(Name)) {
        Out.Options[Name] = "1";
        continue;
      }
      if (I + 1 >= Args.size())
        return makeError("option '" + A + "' needs a value");
      Out.Options[Name] = Args[++I];
      continue;
    }
    Out.Positional.push_back(A);
  }
  return Out;
}

Result<Profile> loadProfile(const std::string &Path) {
  // Transient I/O failures retry with bounded backoff, matching the PVP
  // server's path-based open.
  Result<std::string> Bytes = readFileWithRetry(Path);
  if (!Bytes)
    return makeError(Bytes.error());
  return convert::load(*Bytes, Path);
}

Result<MetricId> resolveMetric(const Profile &P, const ParsedArgs &Args) {
  auto It = Args.Options.find("metric");
  if (It == Args.Options.end()) {
    if (P.metrics().empty())
      return makeError("profile has no metrics");
    return MetricId(0);
  }
  MetricId Id = P.findMetric(It->second);
  if (Id == Profile::InvalidMetric) {
    uint64_t Index;
    if (parseUnsigned(It->second, Index) && Index < P.metrics().size())
      return static_cast<MetricId>(Index);
    return makeError("unknown metric '" + It->second + "'");
  }
  return Id;
}

int failUsage(std::string &Err, const std::string &Message) {
  Err += "evtool: error: " + Message + "\n";
  return ExitUsageError;
}

/// Parses an optional unsigned numeric option into \p Value.
/// \returns false (after reporting) on a malformed value.
bool parseCountOption(const ParsedArgs &Args, const char *Name,
                      uint64_t &Value, std::string &Err, int &Code) {
  auto It = Args.Options.find(Name);
  if (It == Args.Options.end())
    return true;
  if (!parseUnsigned(It->second, Value)) {
    Code = failUsage(Err, std::string("--") + Name +
                              " expects an unsigned number, got '" +
                              It->second + "'");
    return false;
  }
  return true;
}

int failData(std::string &Err, const std::string &Message) {
  Err += "evtool: error: " + Message + "\n";
  return ExitDataError;
}

int cmdInfo(const ParsedArgs &Args, std::string &Out, std::string &Err) {
  if (Args.Positional.size() != 1)
    return failUsage(Err, "info expects exactly one profile");
  Result<std::string> Bytes = readFile(Args.Positional[0]);
  if (!Bytes)
    return failData(Err, Bytes.error());
  convert::Format F = convert::detectFormat(*Bytes, Args.Positional[0]);
  Result<Profile> P = convert::load(*Bytes, Args.Positional[0]);
  if (!P)
    return failData(Err, P.error());
  Out += "file:     " + Args.Positional[0] + "\n";
  Out += "format:   " + std::string(convert::formatName(F)) + "\n";
  Out += "size:     " + formatBytes(static_cast<double>(Bytes->size())) +
         "\n";
  Out += "contexts: " + std::to_string(P->nodeCount()) + "\n";
  Out += "frames:   " + std::to_string(P->frames().size()) + "\n";
  Out += "groups:   " + std::to_string(P->groups().size()) + "\n";
  for (MetricId M = 0; M < P->metrics().size(); ++M) {
    const MetricDescriptor &D = P->metrics()[M];
    Out += "metric:   " + D.Name + " (" + D.Unit + "), total " +
           formatMetric(metricTotal(*P, M), D.Unit) + "\n";
  }
  return 0;
}

int cmdSummary(const ParsedArgs &Args, std::string &Out, std::string &Err) {
  if (Args.Positional.size() != 1)
    return failUsage(Err, "summary expects exactly one profile");
  Result<Profile> P = loadProfile(Args.Positional[0]);
  if (!P)
    return failData(Err, P.error());
  Out += renderSummaryText(*P);
  return 0;
}

int cmdFlame(const ParsedArgs &Args, std::string &Out, std::string &Err) {
  if (Args.Positional.size() != 1)
    return failUsage(Err, "flame expects exactly one profile");
  Result<Profile> Loaded = loadProfile(Args.Positional[0]);
  if (!Loaded)
    return failData(Err, Loaded.error());

  std::string Shape = "top-down";
  if (auto It = Args.Options.find("shape"); It != Args.Options.end())
    Shape = It->second;
  Profile Shaped;
  const Profile *View = &*Loaded;
  if (Shape == "flat") {
    Shaped = flatTree(*Loaded);
    View = &Shaped;
  } else if (Shape != "top-down" && Shape != "bottom-up") {
    return failUsage(Err, "unknown shape '" + Shape + "'");
  }
  Result<MetricId> Metric = resolveMetric(*View, Args);
  if (!Metric)
    return failData(Err, Metric.error());

  // The bottom-up tree shares the source's metric schema; only the part of
  // it the flame draws is built.
  FlameLayoutOptions Layout;
  BottomUpView Up;
  if (Shape == "bottom-up") {
    Up = bottomUpView(*Loaded, *Metric, Layout.MinWidth);
    View = &Up.Tree;
  }
  FlameGraph Graph(*View, *Metric, Layout);
  if (auto It = Args.Options.find("svg"); It != Args.Options.end()) {
    SvgOptions Svg;
    Svg.Title = View->name() + " (" + Shape + ")";
    Result<bool> W = writeFile(It->second, renderSvg(Graph, Svg));
    if (!W)
      return failData(Err, W.error());
    Out += "wrote " + It->second + "\n";
    return 0;
  }
  AnsiOptions Ansi;
  Ansi.Color = false;
  if (auto It = Args.Options.find("columns"); It != Args.Options.end()) {
    uint64_t Columns;
    if (!parseUnsigned(It->second, Columns))
      return failUsage(Err, "--columns expects a number");
    Ansi.Columns = static_cast<unsigned>(Columns);
  }
  Out += renderAnsi(Graph, Ansi);
  return 0;
}

int cmdTable(const ParsedArgs &Args, std::string &Out, std::string &Err) {
  if (Args.Positional.size() != 1)
    return failUsage(Err, "table expects exactly one profile");
  Result<Profile> P = loadProfile(Args.Positional[0]);
  if (!P)
    return failData(Err, P.error());
  TreeTableOptions Opt;
  if (auto It = Args.Options.find("rows"); It != Args.Options.end()) {
    uint64_t Rows;
    if (!parseUnsigned(It->second, Rows))
      return failUsage(Err, "--rows expects a number");
    Opt.MaxRows = Rows;
  }
  TreeTable Table(*P, Opt);
  if (!P->metrics().empty())
    Table.expandHotPath(0);
  Out += Table.renderText();
  return 0;
}

int cmdConvert(const ParsedArgs &Args, std::string &Out, std::string &Err) {
  if (Args.Positional.size() != 2)
    return failUsage(Err, "convert expects <in> <out>");
  Result<Profile> P = loadProfile(Args.Positional[0]);
  if (!P)
    return failData(Err, P.error());

  std::string To = "evprof";
  if (auto It = Args.Options.find("to"); It != Args.Options.end())
    To = It->second;
  std::string Bytes;
  if (To == "evprof") {
    Bytes = writeEvProf(*P);
  } else if (To == "pprof") {
    Bytes = convert::toPprof(*P);
  } else if (To == "collapsed") {
    Bytes = convert::toCollapsed(*P, 0);
  } else if (To == "speedscope") {
    Bytes = convert::toSpeedscope(*P, 0);
  } else if (To == "chrome") {
    Bytes = convert::toChromeTrace(*P, 0);
  } else {
    return failUsage(Err, "unknown target format '" + To + "'");
  }
  Result<bool> W = writeFile(Args.Positional[1], Bytes);
  if (!W)
    return failData(Err, W.error());
  Out += "wrote " + Args.Positional[1] + " (" +
         formatBytes(static_cast<double>(Bytes.size())) + ", " + To +
         ")\n";
  return 0;
}

int cmdDiff(const ParsedArgs &Args, std::string &Out, std::string &Err) {
  if (Args.Positional.size() != 2)
    return failUsage(Err, "diff expects <base> <test>");
  Result<Profile> Base = loadProfile(Args.Positional[0]);
  if (!Base)
    return failData(Err, Base.error());
  Result<Profile> Test = loadProfile(Args.Positional[1]);
  if (!Test)
    return failData(Err, Test.error());
  Result<MetricId> Metric = resolveMetric(*Base, Args);
  if (!Metric)
    return failData(Err, Metric.error());
  DiffResult D = diffProfiles(*Base, *Test, *Metric);
  Out += renderDiffText(D);
  return 0;
}

int cmdAggregate(const ParsedArgs &Args, std::string &Out,
                 std::string &Err) {
  if (Args.Positional.size() < 2)
    return failUsage(Err, "aggregate expects <out.evprof> <in...>");
  std::vector<Profile> Loaded;
  for (size_t I = 1; I < Args.Positional.size(); ++I) {
    Result<Profile> P = loadProfile(Args.Positional[I]);
    if (!P)
      return failData(Err, P.error());
    Loaded.push_back(P.take());
  }
  std::vector<const Profile *> Inputs;
  for (const Profile &P : Loaded)
    Inputs.push_back(&P);
  AggregateOptions Opt;
  Opt.WithMin = Opt.WithMax = Opt.WithMean = true;
  AggregatedProfile Agg = aggregate(Inputs, Opt);
  Result<bool> W =
      writeFile(Args.Positional[0], writeEvProf(Agg.merged()));
  if (!W)
    return failData(Err, W.error());
  Out += "aggregated " + std::to_string(Inputs.size()) + " profiles into " +
         Args.Positional[0] + " (" +
         std::to_string(Agg.merged().nodeCount()) + " contexts)\n";
  return 0;
}

int cmdQuery(const ParsedArgs &Args, std::string &Out, std::string &Err) {
  if (Args.Positional.size() != 1)
    return failUsage(Err, "query expects exactly one profile");
  Result<Profile> P = loadProfile(Args.Positional[0]);
  if (!P)
    return failData(Err, P.error());

  std::string Program;
  if (auto It = Args.Options.find("e"); It != Args.Options.end()) {
    Program = It->second;
  } else if (auto FIt = Args.Options.find("file");
             FIt != Args.Options.end()) {
    Result<std::string> Src = readFile(FIt->second);
    if (!Src)
      return failData(Err, Src.error());
    Program = Src.take();
  } else {
    return failUsage(Err, "query needs --e <program> or --file <program.evql>");
  }

  // --interpreter forces the tree-walking oracle; the default compiles to
  // bytecode and runs the batched VM (identical output by contract).
  Result<evql::QueryOutput> R =
      Args.Options.count("interpreter") ? evql::runProgram(*P, Program)
                                        : evql::runProgramAuto(*P, Program);
  if (!R)
    return failData(Err, R.error());
  for (const std::string &Line : R->Printed)
    Out += Line + "\n";
  if (!R->DerivedMetrics.empty()) {
    Out += "derived metrics:";
    for (const std::string &Name : R->DerivedMetrics)
      Out += " " + Name;
    Out += "\n";
  }
  Out += "result: " + std::to_string(R->Result.nodeCount()) +
         " contexts (input " + std::to_string(P->nodeCount()) + ")\n";
  if (auto It = Args.Options.find("out"); It != Args.Options.end()) {
    Result<bool> W = writeFile(It->second, writeEvProf(R->Result));
    if (!W)
      return failData(Err, W.error());
    Out += "wrote " + It->second + "\n";
  }
  return 0;
}

/// Shared tail of 'check' and 'lint': render the findings, print a
/// summary, and map severities onto exit codes ('-Werror' escalates
/// warnings, clang style).
int reportDiagnostics(const DiagnosticSet &Diags, const std::string &Subject,
                      bool WError, std::string &Out) {
  for (const Diagnostic &D : Diags.all())
    Out += renderDiagnostic(D, Subject) + "\n";
  size_t Errors = Diags.countAtLeast(Severity::Error);
  size_t Warnings = Diags.count(Severity::Warning);
  Out += Subject + ": " + std::to_string(Errors) + " error(s), " +
         std::to_string(Warnings) + " warning(s)";
  if (Diags.truncated())
    Out += " (diagnostics truncated; " + std::to_string(Diags.dropped()) +
           " dropped)";
  Out += "\n";
  if (Errors > 0 || (WError && Warnings > 0))
    return ExitDataError;
  return ExitSuccess;
}

/// Shared `--min-severity` / `--disable` parsing for check, lint, and
/// regress. Disabled names are validated against the unified registry
/// (analysis/RuleRegistry.h), so any family's rules are accepted by any
/// subcommand and a typo is a usage error everywhere.
/// \returns false after reporting (setting \p Code) on a malformed option.
bool parseRuleFilters(const ParsedArgs &Args, Severity &MinSeverity,
                      std::vector<std::string> &Disabled, std::string &Err,
                      int &Code) {
  if (auto It = Args.Options.find("min-severity");
      It != Args.Options.end()) {
    if (!parseSeverity(It->second, MinSeverity)) {
      Code = failUsage(Err, "--min-severity expects note, info, warning, "
                            "or error");
      return false;
    }
  }
  if (auto It = Args.Options.find("disable"); It != Args.Options.end()) {
    for (std::string_view Rule : splitString(It->second, ','))
      if (!Rule.empty()) {
        if (!findRule(Rule)) {
          Code = failUsage(Err, "unknown rule '" + std::string(Rule) +
                                    "' (see --list-rules)");
          return false;
        }
        Disabled.emplace_back(Rule);
      }
  }
  return true;
}

/// Post-filter for passes that do not take the filters natively (the EVQL
/// checker): keeps findings at or above \p MinSeverity whose id and rule
/// name are not disabled.
DiagnosticSet filterDiagnostics(DiagnosticSet In, Severity MinSeverity,
                                const std::vector<std::string> &Disabled) {
  if (MinSeverity == Severity::Note && Disabled.empty())
    return In;
  DiagnosticSet Out(In.size() + In.dropped() + 1);
  for (const Diagnostic &D : In.all()) {
    if (D.Sev < MinSeverity)
      continue;
    bool Skip = false;
    for (const std::string &Name : Disabled)
      if (D.Id == Name || D.Rule == Name)
        Skip = true;
    if (!Skip)
      Out.add(D);
  }
  if (In.truncated())
    Out.markTruncated();
  return Out;
}

int cmdCheck(const ParsedArgs &Args, std::string &Out, std::string &Err) {
  if (Args.Options.count("list-rules")) {
    Out += renderRuleList();
    return ExitSuccess;
  }
  std::string Source;
  std::string Subject;
  if (auto It = Args.Options.find("e"); It != Args.Options.end()) {
    Source = It->second;
    Subject = "<command-line>";
  } else if (Args.Positional.size() == 1) {
    Result<std::string> Src = readFile(Args.Positional[0]);
    if (!Src)
      return failData(Err, Src.error());
    Source = Src.take();
    Subject = Args.Positional[0];
  } else {
    return failUsage(Err, "check expects <query.evql> or --e <program>");
  }

  Profile MetricSource;
  SemaOptions Opts;
  if (auto It = Args.Options.find("profile"); It != Args.Options.end()) {
    Result<Profile> P = loadProfile(It->second);
    if (!P)
      return failData(Err, P.error());
    MetricSource = P.take();
    Opts.MetricSource = &MetricSource;
  }

  Severity MinSeverity = Severity::Note;
  std::vector<std::string> Disabled;
  int Code = ExitSuccess;
  if (!parseRuleFilters(Args, MinSeverity, Disabled, Err, Code))
    return Code;

  DiagnosticSet Diags(Opts.Limits.MaxDiagnostics);
  SemaChecker(Opts).checkSource(Source, Diags);
  Diags = filterDiagnostics(std::move(Diags), MinSeverity, Disabled);
  Diags.sortBySource();
  return reportDiagnostics(Diags, Subject, Args.Options.count("werror") > 0,
                           Out);
}

int cmdLint(const ParsedArgs &Args, std::string &Out, std::string &Err) {
  if (Args.Options.count("list-rules")) {
    Out += renderRuleList();
    return ExitSuccess;
  }
  if (Args.Positional.size() != 1)
    return failUsage(Err, "lint expects exactly one profile");

  LintOptions Opts;
  int Code = ExitSuccess;
  if (!parseRuleFilters(Args, Opts.MinSeverity, Opts.Disabled, Err, Code))
    return Code;

  const std::string &Path = Args.Positional[0];
  Result<std::string> Bytes = readFileWithRetry(Path);
  if (!Bytes)
    return failData(Err, Bytes.error());

  ProfileLinter Linter(Opts);
  DiagnosticSet Diags(Opts.Limits.MaxDiagnostics);
  if (isEvProf(*Bytes)) {
    // Native container: wire-level scan plus decoded rules, so corruption
    // the loader would reject is explained instead of merely refused.
    Linter.lint(*Bytes, DecodeLimits::defaults(), Diags);
  } else {
    // Foreign format: convert first, then run the decoded rules.
    Result<Profile> P = convert::load(*Bytes, Path);
    if (!P)
      return failData(Err, P.error());
    Linter.lintProfile(*P, Diags);
  }
  Diags.sortBySource();
  return reportDiagnostics(Diags, Path, Args.Options.count("werror") > 0,
                           Out);
}

/// Loads one cohort for 'regress': a directory is streamed file-by-file
/// into the accumulator (O(merged CCT) memory, never O(N profiles)); a
/// single file is a cohort of one.
Result<CohortAccumulator> loadCohort(const std::string &Path,
                                     const FleetAggregateOptions &Opts) {
  CohortAccumulator Acc(Opts);
  if (isDirectory(Path)) {
    Result<std::vector<std::string>> Files = listDirectory(Path);
    if (!Files)
      return makeError(Files.error());
    for (const std::string &File : *Files) {
      Result<Profile> P = loadProfile(File);
      if (!P)
        return makeError(P.error());
      Acc.add(*P);
    }
    if (Acc.profileCount() == 0)
      return makeError("cohort directory '" + Path + "' holds no profiles");
    return Acc;
  }
  Result<Profile> P = loadProfile(Path);
  if (!P)
    return makeError(P.error());
  Acc.add(*P);
  return Acc;
}

/// Parses an optional double-valued option into \p Value.
bool parseRatioOption(const ParsedArgs &Args, const char *Name,
                      double &Value, std::string &Err, int &Code) {
  auto It = Args.Options.find(Name);
  if (It == Args.Options.end())
    return true;
  if (!parseDouble(It->second, Value) || Value < 0.0) {
    Code = failUsage(Err, std::string("--") + Name +
                              " expects a non-negative number, got '" +
                              It->second + "'");
    return false;
  }
  return true;
}

/// `evtool regress <base> <test>`: stream both cohorts through the fleet
/// accumulator, run the EVL3xx differential rules, and report with the
/// same exit-code contract as check/lint ('-Werror' escalates warnings),
/// so a CI job can gate a release on "no new regressions".
int cmdRegress(const ParsedArgs &Args, std::string &Out, std::string &Err) {
  if (Args.Options.count("list-rules")) {
    Out += renderRuleList();
    return ExitSuccess;
  }
  if (Args.Positional.size() != 2)
    return failUsage(Err, "regress expects <base> <test> (profile files or "
                          "cohort directories)");

  RegressionOptions Opts;
  int Code = ExitSuccess;
  if (!parseRuleFilters(Args, Opts.MinSeverity, Opts.Disabled, Err, Code))
    return Code;
  if (!parseRatioOption(Args, "rel-min", Opts.RelativeMin, Err, Code) ||
      !parseRatioOption(Args, "abs-min", Opts.AbsoluteMin, Err, Code) ||
      !parseRatioOption(Args, "sigma", Opts.SigmaGate, Err, Code))
    return Code;
  FleetAggregateOptions AggOpts;
  uint64_t Budget = AggOpts.NodeBudget;
  if (!parseCountOption(Args, "node-budget", Budget, Err, Code))
    return Code;
  AggOpts.NodeBudget = static_cast<size_t>(Budget);

  std::string Format = "text";
  if (auto It = Args.Options.find("format"); It != Args.Options.end())
    Format = It->second;
  if (Format != "text" && Format != "json")
    return failUsage(Err, "--format expects text or json");

  Result<CohortAccumulator> Base = loadCohort(Args.Positional[0], AggOpts);
  if (!Base)
    return failData(Err, Base.error());
  Result<CohortAccumulator> Test = loadCohort(Args.Positional[1], AggOpts);
  if (!Test)
    return failData(Err, Test.error());

  DiagnosticSet Diags(Opts.Limits.MaxDiagnostics);
  RegressionAnalyzer(Opts).analyze(*Base, *Test, Diags);

  bool WError = Args.Options.count("werror") > 0;
  std::string Subject =
      Args.Positional[0] + " vs " + Args.Positional[1];
  if (Format == "json") {
    json::Object Root;
    json::Object BaseInfo;
    BaseInfo.set("path", Args.Positional[0]);
    BaseInfo.set("profiles", static_cast<uint64_t>(Base->profileCount()));
    json::Object TestInfo;
    TestInfo.set("path", Args.Positional[1]);
    TestInfo.set("profiles", static_cast<uint64_t>(Test->profileCount()));
    Root.set("base", std::move(BaseInfo));
    Root.set("test", std::move(TestInfo));
    json::Array Findings;
    for (const Diagnostic &D : Diags.all()) {
      json::Object F;
      F.set("id", D.Id);
      F.set("severity", std::string(severityName(D.Sev)));
      F.set("rule", D.Rule);
      F.set("message", D.Message);
      if (!D.Hint.empty())
        F.set("hint", D.Hint);
      if (D.Node != InvalidNode)
        F.set("node", static_cast<uint64_t>(D.Node));
      Findings.push_back(std::move(F));
    }
    Root.set("findings", std::move(Findings));
    Root.set("errors",
             static_cast<uint64_t>(Diags.countAtLeast(Severity::Error)));
    Root.set("warnings",
             static_cast<uint64_t>(Diags.count(Severity::Warning)));
    Root.set("truncated", Diags.truncated());
    Out += json::Value(std::move(Root)).dump() + "\n";
    size_t Errors = Diags.countAtLeast(Severity::Error);
    size_t Warnings = Diags.count(Severity::Warning);
    return Errors > 0 || (WError && Warnings > 0) ? ExitDataError
                                                  : ExitSuccess;
  }
  Out += "base: " + Args.Positional[0] + " (" +
         std::to_string(Base->profileCount()) + " profile(s))\n";
  Out += "test: " + Args.Positional[1] + " (" +
         std::to_string(Test->profileCount()) + " profile(s))\n";
  return reportDiagnostics(Diags, Subject, WError, Out);
}

int cmdButterfly(const ParsedArgs &Args, std::string &Out,
                 std::string &Err) {
  if (Args.Positional.size() != 2)
    return failUsage(Err, "butterfly expects <profile> <function>");
  Result<Profile> P = loadProfile(Args.Positional[0]);
  if (!P)
    return failData(Err, P.error());
  Result<MetricId> Metric = resolveMetric(*P, Args);
  if (!Metric)
    return failData(Err, Metric.error());
  ButterflyResult B = butterfly(*P, Args.Positional[1], *Metric);
  if (B.Occurrences == 0)
    return failData(Err, "function '" + Args.Positional[1] +
                         "' not found in the profile");
  Out += renderButterflyText(*P, B, P->metrics()[*Metric].Unit);
  return 0;
}

int cmdAnnotate(const ParsedArgs &Args, std::string &Out,
                std::string &Err) {
  if (Args.Positional.size() != 2)
    return failUsage(Err, "annotate expects <profile> <source-file>");
  Result<Profile> P = loadProfile(Args.Positional[0]);
  if (!P)
    return failData(Err, P.error());
  Out += renderAnnotationsText(*P, Args.Positional[1]);
  return 0;
}

int cmdReport(const ParsedArgs &Args, std::string &Out, std::string &Err) {
  if (Args.Positional.size() != 2)
    return failUsage(Err, "report expects <profile> <out.html>");
  Result<Profile> P = loadProfile(Args.Positional[0]);
  if (!P)
    return failData(Err, P.error());
  std::string Html = renderHtmlReport(*P);
  Result<bool> W = writeFile(Args.Positional[1], Html);
  if (!W)
    return failData(Err, W.error());
  Out += "wrote " + Args.Positional[1] + " (" +
         formatBytes(static_cast<double>(Html.size())) + ")\n";
  return 0;
}

/// 'store': loads profiles into a ProfileStore — optionally under a memory
/// budget with an out-of-core spill directory — and reports the same
/// memory-attribution stats the PVP server exposes as the store* fields of
/// pvp/stats (docs/PERF.md "Out-of-core columnar store"). The quickest way
/// to eyeball spill/dedup behavior on a cohort without standing up a
/// server.
int cmdStore(const ParsedArgs &Args, std::string &Out, std::string &Err) {
  if (!Args.Options.count("stats"))
    return failUsage(Err, "store requires --stats");
  if (Args.Positional.empty())
    return failUsage(Err, "store expects at least one profile or directory");
  uint64_t Budget = 0;
  int Code = 0;
  if (!parseCountOption(Args, "budget", Budget, Err, Code))
    return Code;
  std::string SpillDir;
  if (auto It = Args.Options.find("spill-dir"); It != Args.Options.end())
    SpillDir = It->second;
  if (Budget != 0 && SpillDir.empty())
    return failUsage(Err, "--budget requires --spill-dir");

  ProfileStore Store;
  if (Budget != 0)
    if (Result<bool> R = Store.setBudget(Budget, SpillDir); !R)
      return failData(Err, R.error());

  std::vector<int64_t> Ids;
  auto AddFile = [&](const std::string &File) -> Result<bool> {
    Result<Profile> P = loadProfile(File);
    if (!P)
      return makeError(P.error());
    Ids.push_back(Store.add(P.take()));
    return true;
  };
  for (const std::string &Path : Args.Positional) {
    if (isDirectory(Path)) {
      Result<std::vector<std::string>> Files = listDirectory(Path);
      if (!Files)
        return failData(Err, Files.error());
      for (const std::string &File : *Files)
        if (Result<bool> R = AddFile(File); !R)
          return failData(Err, R.error());
    } else if (Result<bool> R = AddFile(Path); !R) {
      return failData(Err, R.error());
    }
  }
  if (Ids.empty())
    return failData(Err, "no profiles found in the given inputs");

  // Under a budget, sweep every profile once through the columnar reader
  // so the report reflects steady-state streaming (spilled members fault
  // in and age back out), not just the load order.
  if (Budget != 0)
    for (int64_t Id : Ids)
      (void)Store.columnar(Id);

  StoreStats S = Store.stats();
  auto Bytes = [](uint64_t N) { return formatBytes(static_cast<double>(N)); };
  Out += "profiles:       " + std::to_string(S.Profiles) + "\n";
  Out += "budget:         " +
         (S.BudgetBytes ? Bytes(S.BudgetBytes) : std::string("unbudgeted")) +
         "\n";
  Out += "resident:       " + Bytes(S.ResidentBytes) + "\n";
  Out += "  aos:          " + Bytes(S.AosBytes) + "\n";
  Out += "  columnar:     " + Bytes(S.ColumnarBytes) + "\n";
  Out += "shared strings: " + Bytes(S.SharedStringBytes) +
         " (deduplicated across profiles)\n";
  Out += "spilled:        " + Bytes(S.SpilledBytes) + " in " +
         std::to_string(S.Spills) + " segment(s)\n";
  Out += "evictions:      " + std::to_string(S.Evictions) + "\n";
  Out += "faults:         " + std::to_string(S.Faults) + "\n";
  if (S.SpillFailures != 0)
    Out += "spill failures: " + std::to_string(S.SpillFailures) + "\n";
  return ExitSuccess;
}

/// The server a SIGINT/SIGTERM handler should drain. Handlers run on an
/// arbitrary thread at an arbitrary instruction; requestDrain() is
/// async-signal-safe (one atomic store plus one pipe write) so this is the
/// entire handler story.
std::atomic<net::NetServer *> ActiveServer{nullptr};

void serveSignalHandler(int) {
  if (net::NetServer *S = ActiveServer.load(std::memory_order_acquire))
    S->requestDrain();
}

/// `evtool serve --listen/--unix`: the real-socket deployment of the PVP
/// service (net/NetServer.h). Binds, prints "listening on ADDR" to stderr
/// (immediately — clients and tests wait for it), serves until a
/// SIGINT/SIGTERM (or --drain-after-ms) triggers a graceful drain, and
/// exits 0 when the drain finished cleanly inside its deadline.
int cmdServeSocket(const ParsedArgs &Args, std::string &Out,
                   std::string &Err) {
  (void)Out;
  bool Tcp = Args.Options.count("listen") > 0;
  bool Unix = Args.Options.count("unix") > 0;
  if (Tcp && Unix)
    return failUsage(Err, "serve takes --listen or --unix, not both");
  if (Args.Options.count("input"))
    return failUsage(Err,
                     "serve takes --input (scripted) or a socket listener "
                     "(--listen/--unix), not both");

  SessionManager::Options MOpts;
  if (auto It = Args.Options.find("sessions"); It != Args.Options.end()) {
    uint64_t N;
    if (!parseUnsigned(It->second, N) || N == 0 || N > 256)
      return failUsage(Err, "--sessions expects a count in [1, 256]");
    MOpts.Sessions = static_cast<unsigned>(N);
  }

  net::NetServerOptions NOpts;
  int Code = ExitSuccess;
  uint64_t MaxConns = NOpts.MaxConnections;
  uint64_t DrainAfterMs = 0;
  if (!parseCountOption(Args, "max-conns", MaxConns, Err, Code) ||
      !parseCountOption(Args, "idle-ms", NOpts.IdleTimeoutMs, Err, Code) ||
      !parseCountOption(Args, "frame-ms", NOpts.FrameTimeoutMs, Err, Code) ||
      !parseCountOption(Args, "drain-ms", NOpts.DrainDeadlineMs, Err, Code) ||
      !parseCountOption(Args, "drain-after-ms", DrainAfterMs, Err, Code))
    return Code;
  if (MaxConns == 0)
    return failUsage(Err, "--max-conns must be at least 1");
  NOpts.MaxConnections = static_cast<size_t>(MaxConns);

  SessionManager Manager(MOpts);
  net::NetServer Server(Manager, NOpts);
  Result<bool> Bound = Tcp ? Server.listenTcp(Args.Options.at("listen"))
                           : Server.listenUnix(Args.Options.at("unix"));
  if (!Bound)
    return failData(Err, Bound.error());
  if (Result<bool> Started = Server.start(); !Started)
    return failData(Err, Started.error());

  // Out/Err accumulate until process exit, which is useless for a live
  // server: announce readiness on the real stderr so callers can connect.
  std::fprintf(stderr, "evtool: listening on %s (%u session(s))\n",
               Server.boundAddress().c_str(), Manager.sessionCount());
  std::fflush(stderr);

  ActiveServer.store(&Server, std::memory_order_release);
  auto PrevInt = std::signal(SIGINT, serveSignalHandler);
  auto PrevTerm = std::signal(SIGTERM, serveSignalHandler);

  // --follow: tail a growing .evprof on a side thread. New bytes are fed
  // into the shared store's streaming decoder; every successful append
  // bumps the profile's generation and a publishAll() sweep pushes
  // pvp/viewDelta frames to whoever subscribed. The whole file is re-read
  // per poll and a consumed-byte cursor advances past what the decoder
  // has seen — the decoder buffers mid-field tails itself, so arbitrary
  // producer chunking is fine.
  std::atomic<bool> FollowStop{false};
  std::thread FollowThread;
  if (auto It = Args.Options.find("follow"); It != Args.Options.end()) {
    std::string Path = It->second;
    DecodeLimits Decode = MOpts.Limits.Decode;
    FollowThread = std::thread([&Manager, &FollowStop, Path, Decode] {
      int64_t Id = -1;
      size_t Consumed = 0;
      size_t LastTriedSize = 0;
      while (!FollowStop.load(std::memory_order_acquire)) {
        Result<std::string> Bytes = readFile(Path);
        if (Bytes && Bytes->size() > Consumed) {
          std::string_view Fresh(Bytes->data() + Consumed,
                                 Bytes->size() - Consumed);
          if (Id < 0) {
            // Too-short prefixes fail to open; retry once the file grew
            // past the last attempt instead of spinning on the same bytes.
            if (Bytes->size() != LastTriedSize) {
              LastTriedSize = Bytes->size();
              if (Result<int64_t> Opened =
                      Manager.store().openStream(Fresh, Decode)) {
                Id = *Opened;
                Consumed = Bytes->size();
                Manager.adoptProfileAll(Id);
                Manager.publishAll();
                std::fprintf(stderr,
                             "evtool: following %s as live profile %lld\n",
                             Path.c_str(),
                             static_cast<long long>(Id));
                std::fflush(stderr);
              }
            }
          } else {
            Result<size_t> Gained = Manager.store().append(Id, Fresh, Decode);
            Consumed = Bytes->size();
            if (!Gained) {
              std::fprintf(stderr, "evtool: --follow stopped: %s\n",
                           Gained.error().c_str());
              std::fflush(stderr);
              return;
            }
            if (*Gained > 0)
              Manager.publishAll();
          }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    });
  }

  // --drain-after-ms gives scripts and smoke tests a bounded lifetime
  // without needing to deliver a signal.
  if (DrainAfterMs > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(DrainAfterMs));
    Server.requestDrain();
  }
  bool Clean = Server.waitUntilStopped();

  FollowStop.store(true, std::memory_order_release);
  if (FollowThread.joinable())
    FollowThread.join();

  std::signal(SIGINT, PrevInt);
  std::signal(SIGTERM, PrevTerm);
  ActiveServer.store(nullptr, std::memory_order_release);

  Err += "served " + std::to_string(Server.acceptedConnections()) +
         " connection(s), dropped " +
         std::to_string(Server.droppedConnections()) + "; drain " +
         (Clean ? "clean" : "forced") + "\n";
  return Clean ? ExitSuccess : ExitDataError;
}

/// `evtool serve`: drives the concurrent multi-session PVP service
/// (ide/SessionManager.h) from a JSON-Lines script — one JSON-RPC request
/// object per line, optionally carrying a top-level "session" field that
/// routes it to one of the N sessions (default session 0). Requests are
/// submitted in file order and responses are printed in the SAME order,
/// one per line, so the output of a concurrent run is byte-comparable to a
/// sequential one.
int cmdServe(const ParsedArgs &Args, std::string &Out, std::string &Err) {
  if (Args.Options.count("listen") || Args.Options.count("unix"))
    return cmdServeSocket(Args, Out, Err);
  auto InputIt = Args.Options.find("input");
  if (InputIt == Args.Options.end() && Args.Positional.size() != 1)
    return failUsage(Err, "serve needs --input <requests.jsonl>");
  const std::string &Path = InputIt != Args.Options.end()
                                ? InputIt->second
                                : Args.Positional[0];
  Result<std::string> Script = readFileWithRetry(Path);
  if (!Script)
    return failData(Err, Script.error());

  SessionManager::Options Opts;
  if (auto It = Args.Options.find("sessions"); It != Args.Options.end()) {
    uint64_t N;
    if (!parseUnsigned(It->second, N) || N == 0 || N > 256)
      return failUsage(Err, "--sessions expects a count in [1, 256]");
    Opts.Sessions = static_cast<unsigned>(N);
  }
  SessionManager Manager(Opts);

  std::vector<std::future<json::Value>> Replies;
  size_t LineNo = 0;
  for (std::string_view Line : splitString(*Script, '\n')) {
    ++LineNo;
    if (Line.empty())
      continue;
    Result<json::Value> Request = json::parse(Line);
    if (!Request)
      return failData(Err, Path + ":" + std::to_string(LineNo) + ": " +
                               Request.error());
    unsigned Session = 0;
    if (Request->isObject())
      if (const json::Value *SV = Request->asObject().find("session"); SV) {
        int64_t S;
        if (!SV->getInteger(S) || S < 0 ||
            static_cast<uint64_t>(S) >= Manager.sessionCount())
          return failData(Err, Path + ":" + std::to_string(LineNo) +
                                   ": invalid 'session' field");
        Session = static_cast<unsigned>(S);
      }
    Replies.push_back(Manager.submit(Session, Request.take()));
  }
  for (std::future<json::Value> &F : Replies)
    Out += F.get().dump() + "\n";
  Err += "served " + std::to_string(Replies.size()) + " request(s) across " +
         std::to_string(Manager.sessionCount()) + " session(s)\n";

  // --trace-out dumps the service's own retained spans as Chrome
  // traceEvents JSON: loadable in any trace viewer, and round-trippable
  // back into a profile through `evtool convert --to evprof` (the Chrome
  // converter treats it like any foreign trace).
  if (auto It = Args.Options.find("trace-out"); It != Args.Options.end()) {
    std::string Trace = trace::toChromeTraceJson();
    if (Result<bool> W = writeFile(It->second, Trace); !W)
      return failData(Err, W.error());
    Err += "wrote trace of " + std::to_string(trace::retainedSpans()) +
           " span(s) to " + It->second + "\n";
  }
  return ExitSuccess;
}

} // namespace

int runEvTool(const std::vector<std::string> &Args, std::string &Out,
              std::string &Err) {
  if (Args.empty()) {
    Err += usageText();
    return ExitUsageError;
  }
  if (Args[0] == "help" || Args[0] == "--help") {
    Out += usageText();
    return ExitSuccess;
  }
  const std::string &Command = Args[0];
  Result<ParsedArgs> Parsed = parseArgs(Args, 1);
  if (!Parsed) {
    Err += "evtool: error: " + Parsed.error() + "\n";
    return ExitUsageError;
  }
  if (Command == "info")
    return cmdInfo(*Parsed, Out, Err);
  if (Command == "summary")
    return cmdSummary(*Parsed, Out, Err);
  if (Command == "flame")
    return cmdFlame(*Parsed, Out, Err);
  if (Command == "table")
    return cmdTable(*Parsed, Out, Err);
  if (Command == "convert")
    return cmdConvert(*Parsed, Out, Err);
  if (Command == "diff")
    return cmdDiff(*Parsed, Out, Err);
  if (Command == "aggregate")
    return cmdAggregate(*Parsed, Out, Err);
  if (Command == "query")
    return cmdQuery(*Parsed, Out, Err);
  if (Command == "check")
    return cmdCheck(*Parsed, Out, Err);
  if (Command == "lint")
    return cmdLint(*Parsed, Out, Err);
  if (Command == "regress")
    return cmdRegress(*Parsed, Out, Err);
  if (Command == "butterfly")
    return cmdButterfly(*Parsed, Out, Err);
  if (Command == "annotate")
    return cmdAnnotate(*Parsed, Out, Err);
  if (Command == "report")
    return cmdReport(*Parsed, Out, Err);
  if (Command == "store")
    return cmdStore(*Parsed, Out, Err);
  if (Command == "serve")
    return cmdServe(*Parsed, Out, Err);
  Err += "evtool: error: unknown command '" + Command + "'\n" + usageText();
  return ExitUsageError;
}

} // namespace tool
} // namespace ev
