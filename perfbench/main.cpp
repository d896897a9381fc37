//===- perfbench/main.cpp - The monitor benchmark ---------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
//
//   tessla-perfbench --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> [--work-dir <dir>]
//   tessla-perfbench --selftest [--work-dir <dir>]
//
// Prints the result object as the last line of stdout. --selftest checks
// that the benchmark catches wrong answers: on every workload, a
// corrupted reference record and an injected failing session must each
// make the run report wrong sessions, while a clean run reports none.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

using namespace perfbench;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <solo-aggregate|fleet-interleaved|"
               "service-fork|native-replay> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>]\n"
               "       %s --selftest [--work-dir <dir>]\n",
               Argv0, Argv0);
  return 2;
}

int selfTest(const std::string &WorkDir) {
  const char *Names[] = {"solo-aggregate", "fleet-interleaved",
                         "service-fork", "native-replay"};
  bool Ok = true;
  for (const char *Name : Names) {
    for (int Variant = 0; Variant != 3; ++Variant) {
      RunOptions Opts;
      Opts.Kind = *parseWorkload(Name);
      Opts.Seed = 7;
      Opts.Seconds = 0;
      Opts.MinEpisodes = 1;
      Opts.Scale = 0.05;
      Opts.WorkDir = WorkDir;
      Opts.PerturbReference = Variant == 1;
      Opts.InjectFailingSession = Variant == 2;
      std::optional<RunReport> R = runWorkload(Opts);
      bool Expected = R && (Variant == 0 ? R->Failed == 0 : R->Failed > 0);
      const char *What = Variant == 0   ? "clean"
                         : Variant == 1 ? "perturbed reference"
                                        : "failing session";
      std::fprintf(stderr, "selftest %-17s %-19s attempted=%llu wrong=%llu "
                           "%s\n",
                   Name, What,
                   R ? static_cast<unsigned long long>(R->Attempted) : 0ull,
                   R ? static_cast<unsigned long long>(R->Failed) : 0ull,
                   Expected ? "ok" : "UNEXPECTED");
      Ok &= Expected;
    }
  }
  std::printf("selftest %s\n", Ok ? "passed" : "FAILED");
  return Ok ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  RunOptions Opts;
  std::string Workload;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  bool SelfTest = false;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    bool HasValue = I + 1 < argc;
    if (Arg == "--selftest") {
      SelfTest = true;
    } else if (Arg == "--workload" && HasValue) {
      Workload = argv[++I];
    } else if (Arg == "--seed" && HasValue) {
      Opts.Seed = std::strtoull(argv[++I], nullptr, 10);
      HaveSeed = true;
    } else if (Arg == "--seconds" && HasValue) {
      Opts.Seconds = std::atof(argv[++I]);
      HaveSeconds = true;
    } else if (Arg == "--trace" && HasValue) {
      Opts.Trace = std::strcmp(argv[++I], "0") != 0;
      HaveTrace = true;
    } else if (Arg == "--work-dir" && HasValue) {
      Opts.WorkDir = argv[++I];
    } else {
      return usage(argv[0]);
    }
  }
  std::error_code Ec;
  std::filesystem::create_directories(Opts.WorkDir, Ec);
  if (SelfTest)
    return selfTest(Opts.WorkDir);

  std::optional<WorkloadKind> Kind = parseWorkload(Workload);
  if (!Kind || !HaveSeed || !HaveSeconds || !HaveTrace)
    return usage(argv[0]);
  Opts.Kind = *Kind;
  // The traced run needs an untraced and a traced episode of each kind.
  Opts.MinEpisodes = Opts.Trace ? 4 : 3;

  std::optional<RunReport> R = runWorkload(Opts);
  if (!R)
    return 1;
  if (Opts.Trace) {
    std::string Path = Opts.WorkDir + "/spans-" + Workload + "-seed" +
                       std::to_string(Opts.Seed) + ".jsonl";
    if (!Tracer::get().write(Path))
      std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
  }
  printResult(R->Correct, R->Attempted, R->Failed, R->Metrics);
  return 0;
}
