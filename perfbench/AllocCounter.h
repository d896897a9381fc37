//===- perfbench/AllocCounter.h - Counting global allocator ----*- C++ -*-===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark binary replaces the global operator new/delete with a
/// malloc-backed version that can count allocations. Counting is off by
/// default, so the untraced end-to-end runs pay one relaxed load per
/// allocation and nothing else.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_ALLOCCOUNTER_H
#define PERFBENCH_ALLOCCOUNTER_H

#include <cstdint>

namespace perfbench {

struct AllocCounts {
  uint64_t Calls = 0;
  uint64_t Bytes = 0;
};

/// Starts or stops counting (all threads).
void setAllocCounting(bool On);

/// Allocations counted since the process started.
AllocCounts allocCounts();

/// Counts the allocations of one scope: construct, run, read delta().
class AllocScope {
public:
  AllocScope() : Start(allocCounts()) { setAllocCounting(true); }
  ~AllocScope() { setAllocCounting(false); }
  AllocScope(const AllocScope &) = delete;
  AllocScope &operator=(const AllocScope &) = delete;

  AllocCounts delta() const {
    AllocCounts Now = allocCounts();
    return {Now.Calls - Start.Calls, Now.Bytes - Start.Bytes};
  }

private:
  AllocCounts Start;
};

} // namespace perfbench

#endif // PERFBENCH_ALLOCCOUNTER_H
