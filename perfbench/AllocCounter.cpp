//===- perfbench/AllocCounter.cpp -------------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// Replacement global allocation functions for the benchmark binary. Every
// form of operator new funnels into countedAlloc(); every operator delete
// into free().
//
//===----------------------------------------------------------------------===//

#include "AllocCounter.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

std::atomic<bool> Counting{false};

// One counter slot per allocating thread, so counting threads never
// share a cache line. A slot has a single writer (plain load + store);
// threads beyond MaxSlots share Overflow, which needs read-modify-write.
struct alignas(64) Slot {
  std::atomic<uint64_t> Calls{0};
  std::atomic<uint64_t> Bytes{0};
};
constexpr unsigned MaxSlots = 1024;
Slot Slots[MaxSlots];
Slot Overflow;
std::atomic<unsigned> SlotsUsed{0};
thread_local Slot *Mine = nullptr;

void count(std::size_t Size) {
  if (!Mine) {
    unsigned I = SlotsUsed.fetch_add(1, std::memory_order_relaxed);
    Mine = I < MaxSlots ? &Slots[I] : &Overflow;
  }
  if (Mine == &Overflow) {
    Overflow.Calls.fetch_add(1, std::memory_order_relaxed);
    Overflow.Bytes.fetch_add(Size, std::memory_order_relaxed);
    return;
  }
  Mine->Calls.store(Mine->Calls.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
  Mine->Bytes.store(Mine->Bytes.load(std::memory_order_relaxed) + Size,
                    std::memory_order_relaxed);
}

void *countedAlloc(std::size_t Size, std::size_t Align) {
  if (Counting.load(std::memory_order_relaxed))
    count(Size);
  if (Size == 0)
    Size = 1;
  if (Align <= alignof(std::max_align_t))
    return std::malloc(Size);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return std::aligned_alloc(Align, (Size + Align - 1) / Align * Align);
}

void *allocOrThrow(std::size_t Size, std::size_t Align) {
  if (void *P = countedAlloc(Size, Align))
    return P;
  throw std::bad_alloc();
}

} // namespace

void perfbench::setAllocCounting(bool On) {
  Counting.store(On, std::memory_order_relaxed);
}

perfbench::AllocCounts perfbench::allocCounts() {
  AllocCounts Sum;
  unsigned Used =
      std::min(SlotsUsed.load(std::memory_order_relaxed), MaxSlots);
  for (const Slot *S = Slots; S != Slots + Used; ++S) {
    Sum.Calls += S->Calls.load(std::memory_order_relaxed);
    Sum.Bytes += S->Bytes.load(std::memory_order_relaxed);
  }
  Sum.Calls += Overflow.Calls.load(std::memory_order_relaxed);
  Sum.Bytes += Overflow.Bytes.load(std::memory_order_relaxed);
  return Sum;
}

void *operator new(std::size_t Size) {
  return allocOrThrow(Size, alignof(std::max_align_t));
}
void *operator new[](std::size_t Size) {
  return allocOrThrow(Size, alignof(std::max_align_t));
}
void *operator new(std::size_t Size, std::align_val_t Align) {
  return allocOrThrow(Size, static_cast<std::size_t>(Align));
}
void *operator new[](std::size_t Size, std::align_val_t Align) {
  return allocOrThrow(Size, static_cast<std::size_t>(Align));
}
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  return countedAlloc(Size, alignof(std::max_align_t));
}
void *operator new[](std::size_t Size, const std::nothrow_t &) noexcept {
  return countedAlloc(Size, alignof(std::max_align_t));
}
void *operator new(std::size_t Size, std::align_val_t Align,
                   const std::nothrow_t &) noexcept {
  return countedAlloc(Size, static_cast<std::size_t>(Align));
}
void *operator new[](std::size_t Size, std::align_val_t Align,
                     const std::nothrow_t &) noexcept {
  return countedAlloc(Size, static_cast<std::size_t>(Align));
}

void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete(void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete(void *P, std::align_val_t,
                     const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::align_val_t,
                       const std::nothrow_t &) noexcept {
  std::free(P);
}
