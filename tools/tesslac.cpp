//===- tools/tesslac.cpp - TeSSLa compiler driver ---------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// The compiler driver: the command-line face of the library, analogous
/// to the paper's TeSSLa compiler binary. Output selection is fully
/// orthogonal: `--emit=<what>` picks the artifact, `-o <file>` picks the
/// destination (stdout by default), and the remaining flags tune the
/// pipeline independently of both.
///
/// \code
///   tesslac spec.tessla                      # analysis report
///   tesslac spec.tessla --emit=flat          # flattened equations
///   tesslac spec.tessla --emit=dot | dot -Tsvg ...   # usage graph
///   tesslac spec.tessla --emit=plan          # interpreter plan
///   tesslac spec.tessla --emit=cpp --main -o monitor.cpp
///   tesslac spec.tessla -O1 --emit=tpb -o spec.tpb   # program bundle
///                                            # (execute: tessla-run)
///   tesslac spec.tessla --run trace.txt      # execute on a trace
///   tesslac spec.tessla --baseline --run trace.txt   # all-persistent
///   tesslac spec.tessla --run trace.txt --fleet 4 --sessions 64
///                                            # sharded multi-session replay
/// \endcode
///
//===----------------------------------------------------------------------===//

#include "tessla/Analysis/GraphWriter.h"
#include "tessla/Analysis/Pipeline.h"
#include "tessla/Analysis/Statistics.h"
#include "tessla/CodeGen/CppEmitter.h"
#include "tessla/CodeGen/NativeCompile.h"
#include "tessla/Compiler/Compiler.h"
#include "tessla/Lang/Parser.h"
#include "tessla/Lang/PrintSource.h"
#include "tessla/Opt/Lint.h"
#include "tessla/Program/Serialize.h"
#include "tessla/Runtime/MonitorFleet.h"
#include "tessla/Runtime/TraceIO.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace tessla;

namespace {

void printUsage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s <spec.tessla> [options]\n"
      "  --emit=report|flat|source|stats|dot|plan|cpp|tpb|run\n"
      "                                    what to produce (default report)\n"
      "  -o <file>                         write the emitted artifact to\n"
      "                                    <file> instead of stdout\n"
      "  --baseline                        disable the aggregate update\n"
      "                                    optimization (all persistent)\n"
      "  -O0 | -O1                         program optimization level\n"
      "                                    (default -O0; -O1 folds\n"
      "                                    constants, fuses steps and\n"
      "                                    eliminates dead steps)\n"
      "  --dump-passes                     print per-pass statistics to\n"
      "                                    stderr\n"
      "  --dump-analysis[=dot]             print the abstract-\n"
      "                                    interpretation facts of the\n"
      "                                    compiled program (tick kind,\n"
      "                                    clock formula, value range,\n"
      "                                    memory bound per stream) as\n"
      "                                    text, or as an annotated dot\n"
      "                                    graph; honors -O<level> and\n"
      "                                    --baseline\n"
      "  --lint                            run the spec linter and print\n"
      "                                    its warnings to stderr\n"
      "  --werror                          treat lint warnings as errors\n"
      "                                    (implies --lint, exits 1)\n"
      "  --main                            add a main() to --emit=cpp\n"
      "  --trace <trace.txt>               input trace for --emit=run\n"
      "  --run <trace.txt>                 shorthand for\n"
      "                                    --emit=run --trace <trace.txt>\n"
      "  --horizon <t>                     bound delay draining at finish\n"
      "  --fleet <n>                       replay through a MonitorFleet\n"
      "                                    with n worker shards\n"
      "  --sessions <m>                    fleet sessions; the trace is\n"
      "                                    replayed once per session\n"
      "                                    (default 1)\n"
      "  --producers <p>                   fleet producer threads; the\n"
      "                                    sessions are partitioned over\n"
      "                                    them (default 1)\n"
      "  --engine=interp|batched|native    execution engine for\n"
      "                                    --emit=run: one interpreter\n"
      "                                    Monitor per session, SoA\n"
      "                                    lockstep lanes, or the\n"
      "                                    compiled native tier\n"
      "                                    (CppEmitter -> system compiler\n"
      "                                    -> dlopen; falls back to the\n"
      "                                    interpreter when no compiler\n"
      "                                    is available). Outputs are\n"
      "                                    byte-identical across engines.\n"
      "                                    Default: batched (fleet),\n"
      "                                    interpreter (sequential)\n"
      "  --batched | --per-session         aliases for --engine=batched /\n"
      "                                    --engine=interp\n",
      Argv0);
}

/// Engine selection shared by the sequential and fleet paths. Explicit
/// selections must agree; the aliases and --engine= are one knob.
enum class EngineSel { Default, Interp, Batched, Native };

std::optional<std::string> readFile(const char *Path) {
  std::ifstream In(Path);
  if (!In)
    return std::nullopt;
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

/// The -o destination: stdout unless a path was given. Binary artifacts
/// (tpb) open in "wb" so the bundle survives every platform's stdio.
FILE *openOutput(const char *Path, bool Binary) {
  if (!Path)
    return stdout;
  FILE *F = std::fopen(Path, Binary ? "wb" : "w");
  if (!F)
    std::fprintf(stderr, "cannot open %s for writing\n", Path);
  return F;
}

int closeOutput(FILE *F, const char *Path) {
  if (F == stdout)
    return std::fflush(F) == 0 ? 0 : 1;
  if (std::fclose(F) != 0) {
    std::fprintf(stderr, "short write to %s\n", Path);
    return 1;
  }
  return 0;
}

/// Emits \p Text to the -o destination; returns the process exit code.
int emitText(const std::string &Text, const char *OutPath) {
  FILE *Out = openOutput(OutPath, /*Binary=*/false);
  if (!Out)
    return 1;
  std::fwrite(Text.data(), 1, Text.size(), Out);
  return closeOutput(Out, OutPath);
}

} // namespace

int main(int argc, char **argv) {
  const char *SpecPath = nullptr;
  const char *TracePath = nullptr;
  const char *OutPath = nullptr;
  std::string Emit = "report";
  bool Baseline = false;
  bool EmitMain = false;
  unsigned OptLevel = 0;
  bool DumpPasses = false;
  bool DumpAnalysis = false;
  bool DumpAnalysisDot = false;
  bool Lint = false;
  bool Werror = false;
  std::optional<Time> Horizon;
  unsigned FleetShards = 0; // 0 = single-session sequential replay
  unsigned FleetSessions = 1;
  unsigned FleetProducers = 1;
  EngineSel Engine = EngineSel::Default;
  const char *EngineFlag = nullptr; // the flag that selected it

  auto selectEngine = [&](EngineSel Sel, const char *Flag) {
    if (Engine != EngineSel::Default && Engine != Sel) {
      std::fprintf(stderr,
                   "conflicting engine selections '%s' and '%s'\n",
                   EngineFlag, Flag);
      return false;
    }
    Engine = Sel;
    EngineFlag = Flag;
    return true;
  };

  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    if (std::strncmp(Arg, "--emit=", 7) == 0) {
      Emit = Arg + 7;
    } else if (std::strcmp(Arg, "-o") == 0 && I + 1 < argc) {
      OutPath = argv[++I];
    } else if (std::strcmp(Arg, "--baseline") == 0) {
      Baseline = true;
    } else if (std::strcmp(Arg, "--main") == 0) {
      EmitMain = true;
    } else if (std::strcmp(Arg, "-O0") == 0) {
      OptLevel = 0;
    } else if (std::strcmp(Arg, "-O1") == 0) {
      OptLevel = 1;
    } else if (std::strcmp(Arg, "--dump-passes") == 0) {
      DumpPasses = true;
    } else if (std::strcmp(Arg, "--dump-analysis") == 0) {
      DumpAnalysis = true;
    } else if (std::strcmp(Arg, "--dump-analysis=dot") == 0) {
      DumpAnalysis = true;
      DumpAnalysisDot = true;
    } else if (std::strcmp(Arg, "--lint") == 0) {
      Lint = true;
    } else if (std::strcmp(Arg, "--werror") == 0) {
      Lint = true;
      Werror = true;
    } else if (std::strcmp(Arg, "--run") == 0 && I + 1 < argc) {
      TracePath = argv[++I];
      Emit = "run";
    } else if (std::strcmp(Arg, "--trace") == 0 && I + 1 < argc) {
      TracePath = argv[++I];
    } else if (std::strcmp(Arg, "--horizon") == 0 && I + 1 < argc) {
      Horizon = std::strtoll(argv[++I], nullptr, 10);
    } else if (std::strcmp(Arg, "--fleet") == 0 && I + 1 < argc) {
      FleetShards = static_cast<unsigned>(
          std::max(1ll, std::strtoll(argv[++I], nullptr, 10)));
    } else if (std::strcmp(Arg, "--sessions") == 0 && I + 1 < argc) {
      FleetSessions = static_cast<unsigned>(
          std::max(1ll, std::strtoll(argv[++I], nullptr, 10)));
    } else if (std::strcmp(Arg, "--producers") == 0 && I + 1 < argc) {
      FleetProducers = static_cast<unsigned>(
          std::max(1ll, std::strtoll(argv[++I], nullptr, 10)));
    } else if (std::strncmp(Arg, "--engine=", 9) == 0) {
      const char *Which = Arg + 9;
      EngineSel Sel;
      if (std::strcmp(Which, "interp") == 0)
        Sel = EngineSel::Interp;
      else if (std::strcmp(Which, "batched") == 0)
        Sel = EngineSel::Batched;
      else if (std::strcmp(Which, "native") == 0)
        Sel = EngineSel::Native;
      else {
        std::fprintf(stderr, "unknown engine '%s'\n", Which);
        printUsage(argv[0]);
        return 2;
      }
      if (!selectEngine(Sel, Arg))
        return 2;
    } else if (std::strcmp(Arg, "--batched") == 0) {
      if (!selectEngine(EngineSel::Batched, Arg))
        return 2;
    } else if (std::strcmp(Arg, "--per-session") == 0) {
      if (!selectEngine(EngineSel::Interp, Arg))
        return 2;
    } else if (std::strcmp(Arg, "--help") == 0) {
      printUsage(argv[0]);
      return 0;
    } else if (Arg[0] != '-' && !SpecPath) {
      SpecPath = Arg;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", Arg);
      printUsage(argv[0]);
      return 2;
    }
  }
  if (!SpecPath) {
    printUsage(argv[0]);
    return 2;
  }

  auto Source = readFile(SpecPath);
  if (!Source) {
    std::fprintf(stderr, "cannot open %s\n", SpecPath);
    return 1;
  }
  DiagnosticEngine Diags;
  auto S = parseSpec(*Source, Diags);
  if (!S) {
    std::fprintf(stderr, "%s", Diags.str(SpecPath).c_str());
    return 1;
  }

  if (Lint) {
    DiagnosticEngine LintDiags;
    opt::LintOptions LOpts;
    LOpts.WarningsAsErrors = Werror;
    unsigned Findings = opt::lintSpec(*S, LintDiags, LOpts);
    if (Findings != 0)
      std::fprintf(stderr, "%s", LintDiags.str(SpecPath).c_str());
    if (LintDiags.hasErrors())
      return 1;
  }

  // Compiles (and at -O1 optimizes) through the embedding API for the
  // modes that execute or emit the lowered program. Verification runs
  // after every pass; a failure is a compiler bug and exits nonzero.
  auto makePlan = [&]() -> std::optional<Program> {
    CompileOptions COpts;
    COpts.Optimize = !Baseline;
    COpts.OptLevel = OptLevel;
    OptStatistics Stats;
    auto Plan = compileSpec(*S, COpts, Diags, &Stats);
    if (!Plan) {
      std::fprintf(stderr, "%s", Diags.str(SpecPath).c_str());
      return std::nullopt;
    }
    if (DumpPasses) {
      if (OptLevel >= 1)
        std::fprintf(stderr, "%s", Stats.str().c_str());
      else
        std::fprintf(stderr, "(-O0: no optimization passes run)\n");
    }
    return Plan;
  };

  // The abstract-interpretation dump is its own artifact: facts over the
  // program exactly as compiled (so -O1 shows what the optimizer left).
  if (DumpAnalysis) {
    std::optional<Program> Plan = makePlan();
    if (!Plan)
      return 1;
    absint::AnalysisFacts Facts = absint::AnalysisFacts::compute(*Plan);
    if (DumpAnalysisDot) {
      MutabilityOptions MOpts;
      MOpts.Optimize = !Baseline;
      AnalysisResult Analysis = analyzeSpec(*S, MOpts);
      return emitText(writeAnalysisFactsDot(Analysis.graph(), Facts),
                      OutPath);
    }
    return emitText(Facts.str(), OutPath);
  }

  // The analysis-artifact modes (reusing the analysis the program modes
  // run internally via compileSpec).
  if (Emit == "report" || Emit == "flat" || Emit == "source" ||
      Emit == "stats" || Emit == "dot") {
    MutabilityOptions MOpts;
    MOpts.Optimize = !Baseline;
    AnalysisResult Analysis = analyzeSpec(*S, MOpts);
    if (Emit == "report")
      return emitText(Analysis.report(), OutPath);
    if (Emit == "flat")
      return emitText(Analysis.spec().str(), OutPath);
    if (Emit == "source")
      return emitText(printSpecSource(Analysis.spec()), OutPath);
    if (Emit == "stats")
      return emitText(collectStatistics(Analysis).str(), OutPath);
    return emitText(
        writeUsageGraphDot(Analysis.graph(), &Analysis.mutability()),
        OutPath);
  }
  if (Emit == "plan") {
    std::optional<Program> Plan = makePlan();
    if (!Plan)
      return 1;
    return emitText(Plan->str(), OutPath);
  }
  if (Emit == "cpp") {
    std::optional<Program> Plan = makePlan();
    if (!Plan)
      return 1;
    CppEmitterOptions EOpts;
    EOpts.EmitMain = EmitMain;
    auto Code = emitCppMonitor(*Plan, EOpts, Diags);
    if (!Code) {
      std::fprintf(stderr, "%s", Diags.str(SpecPath).c_str());
      return 1;
    }
    return emitText(*Code, OutPath);
  }
  if (Emit == "tpb") {
    std::optional<Program> Plan = makePlan();
    if (!Plan)
      return 1;
    std::vector<uint8_t> Bytes = serializeProgram(*Plan);
    FILE *Out = openOutput(OutPath, /*Binary=*/true);
    if (!Out)
      return 1;
    std::fwrite(Bytes.data(), 1, Bytes.size(), Out);
    return closeOutput(Out, OutPath);
  }
  if (Emit == "run") {
    if (!TracePath) {
      std::fprintf(stderr, "--emit=run needs --trace <trace.txt>\n");
      return 2;
    }
    auto TraceText = readFile(TracePath);
    if (!TraceText) {
      std::fprintf(stderr, "cannot open %s\n", TracePath);
      return 1;
    }
    DiagnosticEngine TraceDiags;
    auto Events = parseTrace(*TraceText, *S, TraceDiags);
    if (!Events) {
      std::fprintf(stderr, "%s", TraceDiags.str(TracePath).c_str());
      return 1;
    }
    std::optional<Program> PlanOpt = makePlan();
    if (!PlanOpt)
      return 1;
    Program &Plan = *PlanOpt;
    // Resolve the native tier up front (shared by the sequential and
    // the fleet path) so a missing compiler degrades to the interpreter
    // with one diagnostic instead of failing the run.
    EngineFactory NativeFactory;
    if (Engine == EngineSel::Native) {
      std::string NativeErr;
      NativeFactory =
          makeNativeEngineFactory(Plan, NativeCompileOptions(), NativeErr);
      if (!NativeFactory) {
        std::fprintf(stderr,
                     "native engine unavailable: %s; falling back to the "
                     "interpreter\n",
                     NativeErr.c_str());
        Engine = EngineSel::Interp;
      }
    }
    FILE *Out = openOutput(OutPath, /*Binary=*/false);
    if (!Out)
      return 1;
    if (FleetShards > 0) {
      // Multi-session replay: every session receives the same trace;
      // each producer thread interleaves its own sessions per event
      // (round-robin), mimicking a multiplexed feed. Output is the
      // deterministic fleet merge, invariant in the producer count.
      FleetOptions FOpts;
      FOpts.Shards = FleetShards;
      FOpts.Horizon = Horizon;
      switch (Engine) {
      case EngineSel::Default:
        FOpts.Mode = FleetMode::Auto;
        break;
      case EngineSel::Interp:
        FOpts.Mode = FleetMode::PerSession;
        break;
      case EngineSel::Batched:
        FOpts.Mode = FleetMode::Batched;
        break;
      case EngineSel::Native:
        FOpts.Mode = FleetMode::Native;
        FOpts.NativeFactory = NativeFactory;
        break;
      }
      unsigned Producers = std::min(FleetProducers, FleetSessions);
      FOpts.MaxProducers = std::max(FOpts.MaxProducers, Producers);
      MonitorFleet Fleet(Plan, FOpts);
      std::vector<std::thread> Threads;
      Threads.reserve(Producers);
      for (unsigned P = 0; P != Producers; ++P)
        Threads.emplace_back([&, P] {
          ProducerHandle Handle = Fleet.producer();
          for (const auto &[Id, Ts, V] : *Events)
            for (SessionId Session = P; Session < FleetSessions;
                 Session += Producers)
              Handle.feed(Session, Id, Ts, V);
        });
      for (std::thread &T : Threads)
        T.join();
      Fleet.finish();
      for (const SessionOutputEvent &E : Fleet.takeOutputs())
        std::fprintf(Out, "s%llu| %lld: %s = %s\n",
                     static_cast<unsigned long long>(E.Session),
                     static_cast<long long>(E.Event.Ts),
                     Plan.spec().stream(E.Event.Id).Name.c_str(),
                     E.Event.V.str().c_str());
      std::fprintf(stderr, "%s", Fleet.stats().str().c_str());
      int CloseRc = closeOutput(Out, OutPath);
      if (Fleet.failed()) {
        for (const SessionError &E : Fleet.errors())
          std::fprintf(stderr, "session %llu error: %s\n",
                       static_cast<unsigned long long>(E.Session),
                       E.Message.c_str());
        return 1;
      }
      return CloseRc;
    }
    // Sequential replay through a non-default engine: collect through
    // the ShardEngine interface, then print — same bytes as the
    // streaming interpreter path below.
    if (Engine == EngineSel::Batched || Engine == EngineSel::Native) {
      std::unique_ptr<ShardEngine> Eng =
          Engine == EngineSel::Batched ? makeBatchedEngine(Plan)
                                       : NativeFactory(Plan, true);
      EventBatch Batch;
      for (const auto &[Id, Ts, V] : *Events)
        Batch.Records.push_back({0, Id, Ts, V});
      std::string Err;
      std::vector<OutputEvent> Outs =
          runEngineSingle(*Eng, Batch, Horizon, &Err);
      for (const OutputEvent &E : Outs)
        std::fprintf(Out, "%lld: %s = %s\n", static_cast<long long>(E.Ts),
                     Plan.spec().stream(E.Id).Name.c_str(),
                     E.V.str().c_str());
      Eng.reset(); // a native engine must not outlive the library
      int CloseRc = closeOutput(Out, OutPath);
      if (!Err.empty()) {
        std::fprintf(stderr, "monitor error: %s\n", Err.c_str());
        return 1;
      }
      return CloseRc;
    }
    Monitor M(Plan);
    M.setOutputHandler([&Plan, Out](Time Ts, StreamId Id, const Value &V) {
      std::fprintf(Out, "%lld: %s = %s\n", static_cast<long long>(Ts),
                   Plan.spec().stream(Id).Name.c_str(), V.str().c_str());
    });
    for (const auto &[Id, Ts, V] : *Events)
      if (!M.feed(Id, Ts, V))
        break;
    M.finish(Horizon);
    int CloseRc = closeOutput(Out, OutPath);
    if (M.failed()) {
      std::fprintf(stderr, "monitor error: %s\n",
                   M.errorMessage().c_str());
      return 1;
    }
    return CloseRc;
  }
  std::fprintf(stderr, "unknown --emit mode '%s'\n", Emit.c_str());
  return 2;
}
