//===- perfbench/Workloads.h - The benchmark's four workloads --*- C++ -*-===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One entry point per run: generate the workload's inputs from the seed,
/// compute the reference outputs, then repeat episodes (set-up, feed,
/// finish, check) until the time budget is spent, and report the
/// end-to-end metrics (tracing off) or the per-layer metrics (tracing on
/// for every other episode). README.md describes the workloads.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Harness.h"

#include <optional>
#include <string>
#include <vector>

namespace perfbench {

enum class WorkloadKind { SoloAggregate, FleetInterleaved, ServiceFork,
                          NativeReplay };

/// Parses a workload name ("solo-aggregate", ...).
std::optional<WorkloadKind> parseWorkload(const std::string &Name);

struct RunOptions {
  WorkloadKind Kind = WorkloadKind::SoloAggregate;
  uint64_t Seed = 1;
  double Seconds = 10;
  /// Episodes run even when they take longer than Seconds.
  unsigned MinEpisodes = 3;
  bool Trace = false;
  /// Directory (inside the checkout) for sockets, native caches and the
  /// span file.
  std::string WorkDir = ".";
  /// Input size multiplier (1 = the benchmark's sizes; the self-test
  /// runs small).
  double Scale = 1.0;
  /// Self-test knobs: corrupt one reference output record, or add one
  /// session whose trace makes its monitor fail.
  bool PerturbReference = false;
  bool InjectFailingSession = false;
};

struct RunReport {
  bool Correct = false;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
};

/// Runs one workload. Returns nullopt (after printing why to stderr) on a
/// set-up error or a vacuous run: no events or no outputs.
std::optional<RunReport> runWorkload(const RunOptions &Opts);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
