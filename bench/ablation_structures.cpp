//===- bench/ablation_structures.cpp ----------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// Container-level ablation (google-benchmark): persistent structures vs.
/// their mutable counterparts at the paper's three size classes. This
/// substantiates the §V-A explanation of Fig. 9's shape:
///
///  * HAMT updates pay path copying that grows with the structure, so
///    the set/map gap widens with size;
///  * the two-list persistent queue "requires less restructuring after a
///    modification", so its gap stays small — hence Queue Window's
///    flatter speedups.
///
//===----------------------------------------------------------------------===//

#include "tessla/Persistent/HAMT.h"
#include "tessla/Persistent/List.h"
#include "tessla/Persistent/Queue.h"

#include <benchmark/benchmark.h>

#include <deque>
#include <memory>
#include <random>
#include <unordered_map>
#include <unordered_set>

using namespace tessla;

namespace {

std::vector<int64_t> randomValues(size_t Count, int64_t Domain,
                                  uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  std::uniform_int_distribution<int64_t> Dist(0, Domain - 1);
  std::vector<int64_t> Out(Count);
  for (int64_t &V : Out)
    V = Dist(Rng);
  return Out;
}

// --- Seen-Set style toggle workload --------------------------------------

void BM_HamtSetToggle(benchmark::State &State) {
  const int64_t Size = State.range(0);
  auto Values = randomValues(4096, 2 * Size, 1);
  HamtSet<int64_t> S;
  // Pre-populate to the stationary size.
  for (int64_t I = 0; I != Size; ++I)
    S = S.insert(2 * I);
  size_t I = 0;
  for (auto _ : State) {
    int64_t V = Values[I++ % Values.size()];
    S = S.contains(V) ? S.erase(V) : S.insert(V);
    benchmark::DoNotOptimize(S.size());
  }
}
BENCHMARK(BM_HamtSetToggle)->Arg(10)->Arg(200)->Arg(10000);

void BM_StdSetToggle(benchmark::State &State) {
  const int64_t Size = State.range(0);
  auto Values = randomValues(4096, 2 * Size, 1);
  std::unordered_set<int64_t> S;
  for (int64_t I = 0; I != Size; ++I)
    S.insert(2 * I);
  size_t I = 0;
  for (auto _ : State) {
    int64_t V = Values[I++ % Values.size()];
    if (!S.insert(V).second)
      S.erase(V);
    benchmark::DoNotOptimize(S.size());
  }
}
BENCHMARK(BM_StdSetToggle)->Arg(10)->Arg(200)->Arg(10000);

// --- Map-Window style put workload ----------------------------------------

void BM_HamtMapRingPut(benchmark::State &State) {
  const int64_t Size = State.range(0);
  HamtMap<int64_t, int64_t> M;
  for (int64_t I = 0; I != Size; ++I)
    M = M.set(I, I);
  int64_t C = 0;
  for (auto _ : State) {
    M = M.set(C % Size, C);
    ++C;
    benchmark::DoNotOptimize(M.size());
  }
}
BENCHMARK(BM_HamtMapRingPut)->Arg(10)->Arg(200)->Arg(10000);

void BM_StdMapRingPut(benchmark::State &State) {
  const int64_t Size = State.range(0);
  std::unordered_map<int64_t, int64_t> M;
  for (int64_t I = 0; I != Size; ++I)
    M[I] = I;
  int64_t C = 0;
  for (auto _ : State) {
    M[C % Size] = C;
    ++C;
    benchmark::DoNotOptimize(M.size());
  }
}
BENCHMARK(BM_StdMapRingPut)->Arg(10)->Arg(200)->Arg(10000);

// --- Queue-Window style enq/deq workload ----------------------------------

void BM_PQueueWindow(benchmark::State &State) {
  const int64_t Size = State.range(0);
  PQueue<int64_t> Q;
  for (int64_t I = 0; I != Size; ++I)
    Q = Q.enqueue(I);
  int64_t C = 0;
  for (auto _ : State) {
    Q = Q.enqueue(C++);
    benchmark::DoNotOptimize(Q.front());
    Q = Q.dequeue();
  }
}
BENCHMARK(BM_PQueueWindow)->Arg(10)->Arg(200)->Arg(10000);

void BM_StdDequeWindow(benchmark::State &State) {
  const int64_t Size = State.range(0);
  std::deque<int64_t> Q;
  for (int64_t I = 0; I != Size; ++I)
    Q.push_back(I);
  int64_t C = 0;
  for (auto _ : State) {
    Q.push_back(C++);
    benchmark::DoNotOptimize(Q.front());
    Q.pop_front();
  }
}
BENCHMARK(BM_StdDequeWindow)->Arg(10)->Arg(200)->Arg(10000);

// --- Lookup-only comparison ------------------------------------------------

void BM_HamtSetContains(benchmark::State &State) {
  const int64_t Size = State.range(0);
  HamtSet<int64_t> S;
  for (int64_t I = 0; I != Size; ++I)
    S = S.insert(I);
  int64_t C = 0;
  for (auto _ : State)
    benchmark::DoNotOptimize(S.contains(C++ % (2 * Size)));
}
BENCHMARK(BM_HamtSetContains)->Arg(10)->Arg(200)->Arg(10000);

void BM_StdSetContains(benchmark::State &State) {
  const int64_t Size = State.range(0);
  std::unordered_set<int64_t> S;
  for (int64_t I = 0; I != Size; ++I)
    S.insert(I);
  int64_t C = 0;
  for (auto _ : State)
    benchmark::DoNotOptimize(S.count(C++ % (2 * Size)));
}
BENCHMARK(BM_StdSetContains)->Arg(10)->Arg(200)->Arg(10000);

// --- refcounting ablation (DESIGN.md decision 4) ---------------------------
//
// Persistent nodes use intrusive refcounting (atomic, since forked
// sessions share spines across shard threads) instead of std::shared_ptr;
// this pair quantifies the decision on the hottest pattern (spine
// sharing in cons lists, as in the banker's queue).

void BM_RefCntPtrListCons(benchmark::State &State) {
  for (auto _ : State) {
    PList<int64_t> L;
    for (int I = 0; I != 64; ++I)
      L = L.cons(I);
    benchmark::DoNotOptimize(L.size());
  }
}
BENCHMARK(BM_RefCntPtrListCons);

namespace {
/// The same cons list over std::shared_ptr (atomic refcounts).
struct SharedNode {
  int64_t Head;
  std::shared_ptr<SharedNode> Tail;
};
} // namespace

void BM_SharedPtrListCons(benchmark::State &State) {
  for (auto _ : State) {
    std::shared_ptr<SharedNode> L;
    for (int I = 0; I != 64; ++I)
      L = std::make_shared<SharedNode>(SharedNode{I, L});
    benchmark::DoNotOptimize(L.get());
    // Iterative teardown (mirrors PList's node destructor).
    while (L && L.use_count() == 1)
      L = std::move(L->Tail);
  }
}
BENCHMARK(BM_SharedPtrListCons);

} // namespace

BENCHMARK_MAIN();
