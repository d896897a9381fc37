//===- tests/Integration/InPlaceHitRateTest.cpp -----------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// The paper's in-place tier must actually run. For every evaluation
/// workload whose program has an in-place step, both interpreting
/// engines at -O0 and -O1 must take the destructive tier on every
/// in-place update when nothing outside the lane shares the payload: the
/// output handler keeps no values, no fork or snapshot exists. A single
/// miss means the engine itself kept a second handle on the family's
/// payload and the update path-copied — the regression that once made
/// the optimized monitor no faster than the all-persistent one while
/// every output stayed correct.
///
//===----------------------------------------------------------------------===//

#include "tessla/Runtime/BatchedMonitor.h"
#include "tessla/Runtime/TraceGen.h"

#include "../RandomSpecGen.h"
#include "../TestSpecs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace tessla;
using namespace tessla::testspecs;

namespace {

struct Workload {
  const char *Name;
  Spec S;
  std::vector<TraceEvent> Events;
};

/// Two independent random streams sharing the timestamps 1..Count.
std::vector<TraceEvent> twoInts(const Spec &S, const char *A, const char *B,
                                size_t Count, uint64_t Seed) {
  std::vector<TraceEvent> Out =
      tracegen::randomInts(*S.lookup(A), Count, 40, Seed);
  std::vector<TraceEvent> Second =
      tracegen::randomInts(*S.lookup(B), Count, 40, Seed + 1);
  Out.insert(Out.end(), Second.begin(), Second.end());
  std::stable_sort(Out.begin(), Out.end(),
                   [](const TraceEvent &X, const TraceEvent &Y) {
                     return std::get<1>(X) < std::get<1>(Y);
                   });
  return Out;
}

std::vector<Workload> paperWorkloads() {
  constexpr size_t Count = 600;
  std::vector<Workload> W;
  auto Ints = [&](Spec S, const char *Name, const char *In, int64_t Domain) {
    auto Events = tracegen::randomInts(*S.lookup(In), Count, Domain, 7);
    W.push_back({Name, std::move(S), std::move(Events)});
  };
  Ints(figure1(), "Figure1", "i", 40);
  {
    Spec S = figure4Upper();
    auto Events = twoInts(S, "i1", "i2", Count, 8);
    W.push_back({"Figure4Upper", std::move(S), std::move(Events)});
  }
  {
    Spec S = figure4Lower();
    auto Events = twoInts(S, "i1", "i2", Count, 9);
    W.push_back({"Figure4Lower", std::move(S), std::move(Events)});
  }
  Ints(seenSet(), "SeenSet", "x", 40);
  Ints(mapWindow(16), "MapWindow", "x", 1000);
  Ints(queueWindow(16), "QueueWindow", "x", 1000);
  {
    Spec S = dbAccessConstraint();
    tracegen::DbLogConfig C;
    C.Count = Count;
    auto Events = tracegen::dbLog(*S.lookup("ins"), *S.lookup("del"),
                                  *S.lookup("acc"), C);
    W.push_back({"DBAccess", std::move(S), std::move(Events)});
  }
  {
    Spec S = dbTimeConstraint();
    tracegen::DbPairConfig C;
    C.Count = Count;
    auto Events = tracegen::dbPairLog(*S.lookup("db2"), *S.lookup("db3"), C);
    W.push_back({"DBTime", std::move(S), std::move(Events)});
  }
  tracegen::PowerConfig Power;
  Power.Count = Count;
  {
    Spec S = peakDetection(16);
    auto Events = tracegen::powerSignal(*S.lookup("p"), Power);
    W.push_back({"PeakDetection", std::move(S), std::move(Events)});
  }
  {
    Spec S = spectrumCalculation();
    auto Events = tracegen::powerSignal(*S.lookup("p"), Power);
    W.push_back({"SpectrumCalculation", std::move(S), std::move(Events)});
  }
  return W;
}

struct Counts {
  uint64_t Hits = 0, Misses = 0;
};

Counts runMonitorCounting(const Program &P,
                          const std::vector<TraceEvent> &Events) {
  Monitor M(P);
  M.setOutputHandler([](Time, StreamId, const Value &) {}); // keeps none
  for (const auto &[Id, Ts, V] : Events)
    EXPECT_TRUE(M.feed(Id, Ts, V)) << M.errorMessage();
  M.finish();
  EXPECT_FALSE(M.failed()) << M.errorMessage();
  return {M.inPlaceHits(), M.inPlaceMisses()};
}

/// Three lanes of one BatchedMonitor replaying the trace — lane L skips
/// the first 10 * L events, so lanes sit at different timestamps of one
/// sweep — without recording outputs.
Counts runBatchedCounting(const Program &P,
                          const std::vector<TraceEvent> &Events) {
  BatchedMonitor B(P, /*CollectOutputs=*/false);
  unsigned Lanes[3];
  for (unsigned L = 0; L != 3; ++L)
    Lanes[L] = B.addLane(L);
  for (size_t I = 0; I != Events.size(); ++I) {
    const auto &[Id, Ts, V] = Events[I];
    for (unsigned L = 0; L != 3; ++L)
      if (I >= L * 10)
        B.feed(Lanes[L], Id, Ts, V);
    if (I % 16 == 0)
      B.pump();
  }
  B.finishAll();
  Counts C;
  for (unsigned L = 0; L != 3; ++L) {
    EXPECT_FALSE(B.laneFailed(Lanes[L])) << B.laneError(Lanes[L]);
    C.Hits += B.laneInPlaceHits(Lanes[L]);
    C.Misses += B.laneInPlaceMisses(Lanes[L]);
  }
  return C;
}

} // namespace

TEST(InPlaceHitRateTest, EveryPaperWorkloadTakesTheDestructiveTier) {
  std::set<std::string> Covered;
  for (const Workload &W : paperWorkloads()) {
    for (unsigned Level : {0u, 1u}) {
      Program P = compileOrDie(W.S, /*Optimize=*/true, Level);
      if (P.inPlaceStepCount() == 0)
        continue;
      Covered.insert(std::string(W.Name) + "/O" + std::to_string(Level));
      SCOPED_TRACE(std::string(W.Name) + " at -O" + std::to_string(Level));
      Counts M = runMonitorCounting(P, W.Events);
      EXPECT_GT(M.Hits, 0u) << "Monitor: no in-place update ran";
      EXPECT_EQ(M.Misses, 0u)
          << "Monitor: " << M.Misses << " of " << M.Hits + M.Misses
          << " in-place updates path-copied\n"
          << P.str();
      Counts B = runBatchedCounting(P, W.Events);
      EXPECT_GT(B.Hits, 0u) << "BatchedMonitor: no in-place update ran";
      EXPECT_EQ(B.Misses, 0u)
          << "BatchedMonitor: " << B.Misses << " of " << B.Hits + B.Misses
          << " in-place updates path-copied\n"
          << P.str();
    }
  }
  // Vacuity guard: the workloads the gate is about all have in-place
  // steps (Figure 4 lower must stay persistent, and -O1 removes the
  // spectrum histogram no output reads).
  for (const char *Name :
       {"Figure1/O0", "Figure1/O1", "Figure4Upper/O0", "Figure4Upper/O1",
        "SeenSet/O0", "SeenSet/O1", "MapWindow/O0", "MapWindow/O1",
        "QueueWindow/O0", "QueueWindow/O1", "DBAccess/O0", "DBAccess/O1",
        "DBTime/O0", "DBTime/O1", "PeakDetection/O0", "PeakDetection/O1",
        "SpectrumCalculation/O0"})
    EXPECT_TRUE(Covered.count(Name)) << Name << " has no in-place step";
}

TEST(InPlaceHitRateTest, RandomSpecsTakeTheDestructiveTier) {
  // The ownership plan must hold beyond the paper's workloads: random
  // specs route sets, maps and queues through merges, filters, lasts and
  // fused steps (and delays on the second half), and output only
  // scalars, so with a handler that keeps no values nothing outside the
  // lane ever shares a payload.
  uint64_t Hits = 0;
  for (bool WithDelay : {false, true})
    for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
      testrandom::RandomSpecOptions Opts;
      Opts.WithDelay = WithDelay;
      Spec S = testrandom::randomSpec(Seed, Opts);
      auto Events = testrandom::randomSpecTrace(S, 300, Seed * 977);
      for (unsigned Level : {0u, 1u}) {
        SCOPED_TRACE(testing::Message() << "seed " << Seed << " at -O"
                                        << Level << (WithDelay ? ", delay"
                                                               : ""));
        Program P = compileOrDie(S, /*Optimize=*/true, Level);
        Counts M = runMonitorCounting(P, Events);
        Counts B = runBatchedCounting(P, Events);
        EXPECT_EQ(M.Misses, 0u) << "Monitor\n" << P.str();
        EXPECT_EQ(B.Misses, 0u) << "BatchedMonitor\n" << P.str();
        Hits += M.Hits + B.Hits;
      }
    }
  EXPECT_GT(Hits, 0u) << "no in-place update ran; the test is vacuous";
}

TEST(InPlaceHitRateTest, SharersOutsideTheLaneMakeUpdatesPathCopy) {
  // The same count from the other side: a handler that keeps every
  // output value shares the family's payload whenever the output is the
  // aggregate itself, so those updates must path-copy.
  Spec S = parseOrDie(R"(
    in x: Int
    def prev := last(merge(y, setEmpty()), x)
    def y := setAdd(prev, x)
    out y
  )");
  for (unsigned Level : {0u, 1u}) {
    Program P = compileOrDie(S, /*Optimize=*/true, Level);
    Monitor M(P);
    std::vector<Value> Kept;
    M.setOutputHandler(
        [&Kept](Time, StreamId, const Value &V) { Kept.push_back(V); });
    for (int I = 0; I != 20; ++I)
      M.feed(*S.lookup("x"), I + 1, Value::integer(I));
    M.finish();
    ASSERT_FALSE(M.failed()) << M.errorMessage();
    // Only the first update, on the fresh empty set, owns its payload.
    EXPECT_EQ(M.inPlaceHits(), 1u) << "-O" << Level;
    EXPECT_EQ(M.inPlaceMisses(), 19u) << "-O" << Level;
    for (size_t I = 0; I != Kept.size(); ++I)
      EXPECT_EQ(Kept[I].asSet().size(), I + 1) << "output " << I;
  }
}
