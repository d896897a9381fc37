//===- perfbench/Harness.h - Spans, digests, statistics --------*- C++ -*-===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measuring side of the benchmark, independent of any workload:
///
///  - Tracer: in-memory spans (name, start, end, causing span) recorded by
///    the benchmark around its calls into each layer's public functions.
///    Off in the end-to-end runs; spans are written out once, at exit.
///  - OutputDigest: the reference check's per-session digest over
///    (time, stream, value), computed by the benchmark's own code.
///  - small statistics and the result line.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "tessla/Runtime/Value.h"

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

// --- Spans ------------------------------------------------------------------

struct Span {
  uint32_t Id = 0;
  uint32_t Parent = 0; ///< 0 = a root span
  const char *Name = "";
  int64_t StartNs = 0;
  int64_t EndNs = 0;
};

/// Process-wide span recorder. Thread-safe; each thread keeps its own
/// stack of open spans, which gives every new span its causing parent.
class Tracer {
public:
  static Tracer &get();

  void enable(bool On) { Enabled = On; }
  bool enabled() const { return Enabled; }

  /// Opens a span; returns 0 (and records nothing) while disabled.
  uint32_t begin(const char *Name);
  void end(uint32_t Id);

  /// Sum of the durations of every closed span called \p Name, in
  /// seconds, restricted to spans opened after mark() returned \p Since.
  double total(const char *Name, size_t Since = 0) const;
  /// Number of spans recorded so far (a mark for total()).
  size_t mark() const;

  /// Writes every span as one JSON object per line.
  bool write(const std::string &Path) const;

private:
  bool Enabled = false;
  mutable std::mutex Mu;
  std::vector<Span> Spans; // index = Id - 1
};

/// RAII span.
class ScopedSpan {
public:
  explicit ScopedSpan(const char *Name) : Id(Tracer::get().begin(Name)) {}
  ~ScopedSpan() { Tracer::get().end(Id); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  uint32_t Id;
};

// --- Reference check ----------------------------------------------------------

/// Order-sensitive digest of one session's output trace.
struct OutputDigest {
  uint64_t Hash = 1469598103934665603ull; // FNV-1a-64 offset basis
  uint64_t Count = 0;

  void add(tessla::Time Ts, tessla::StreamId Stream, const tessla::Value &V);
  bool operator==(const OutputDigest &O) const {
    return Hash == O.Hash && Count == O.Count;
  }
};

/// One session's observed result.
struct SessionResult {
  OutputDigest Digest;
  bool Failed = false;
};

// --- Statistics and output ------------------------------------------------------

double median(std::vector<double> Values);

/// Peak resident set size of this process so far, in MiB.
double peakRssMiB();

/// One reported metric.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// Prints the result object as one line on stdout.
void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Metrics);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
