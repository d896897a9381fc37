//===- tests/Integration/DifferentialTest.cpp -------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// The paper's implicit correctness claim (§IV-E1): implementing the
/// mutability set with destructive updates must not change observable
/// behavior. We check it differentially — the optimized monitor and the
/// all-persistent baseline must produce byte-identical output traces, on
/// the evaluation workloads and on randomly generated specifications.
///
//===----------------------------------------------------------------------===//

#include "tessla/Runtime/TraceGen.h"

#include "../RandomSpecGen.h"
#include "../TestSpecs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

using namespace tessla;
using namespace tessla::testspecs;

namespace {

/// Runs \p Events through a monitor of \p S and renders its outputs;
/// \p InPlaceHits receives the in-place updates that took the
/// destructive tier — the dynamic proof that the regime under test ran —
/// and \p Moves whether some pass-through of the program moves its
/// argument at its last use (ProgramStep::MoveArgs).
std::string runWith(const Spec &S, const std::vector<TraceEvent> &Events,
                    bool Optimize, uint64_t *InPlaceHits = nullptr,
                    unsigned OptLevel = 0, bool *Moves = nullptr) {
  Program Plan = compileOrDie(S, Optimize, OptLevel);
  if (Moves)
    *Moves = std::any_of(Plan.steps().begin(), Plan.steps().end(),
                         [](const ProgramStep &St) { return St.MoveArgs; });
  Monitor M(Plan);
  std::vector<OutputEvent> Out;
  M.setOutputHandler([&Out](Time Ts, StreamId Id, const Value &V) {
    Out.push_back({Ts, Id, V});
  });
  for (const auto &[Id, Ts, V] : Events)
    if (!M.feed(Id, Ts, V))
      break;
  M.finish();
  EXPECT_EQ(M.failed() ? M.errorMessage() : "", "");
  if (InPlaceHits)
    *InPlaceHits = M.inPlaceHits();
  return formatOutputs(Plan.spec(), Out);
}

void expectDifferentialEqual(const Spec &S,
                             const std::vector<TraceEvent> &Events,
                             bool ExpectInPlace = true,
                             unsigned OptLevel = 0) {
  uint64_t Hits = 0;
  std::string Optimized = runWith(S, Events, true, &Hits, OptLevel);
  std::string Baseline = runWith(S, Events, false);
  EXPECT_EQ(Optimized, Baseline);
  EXPECT_FALSE(Optimized.empty()) << "vacuous comparison";
  if (ExpectInPlace) {
    EXPECT_GT(Hits, 0u)
        << "no in-place update took the destructive tier; test is vacuous";
  }
}

} // namespace

TEST(DifferentialTest, Figure1) {
  Spec S = figure1();
  StreamId I = *S.lookup("i");
  expectDifferentialEqual(S, tracegen::randomInts(I, 2000, 40, 1));
}

TEST(DifferentialTest, Figure4Upper) {
  Spec S = figure4Upper();
  auto E1 = tracegen::randomInts(*S.lookup("i1"), 1000, 30, 2);
  auto E2 = tracegen::randomInts(*S.lookup("i2"), 1000, 30, 3);
  // Interleave at odd/even timestamps.
  std::vector<TraceEvent> Events;
  for (size_t I = 0; I != 1000; ++I) {
    auto [S1, T1, V1] = E1[I];
    auto [S2, T2, V2] = E2[I];
    Events.emplace_back(S1, static_cast<Time>(2 * I + 1), V1);
    Events.emplace_back(S2, static_cast<Time>(2 * I + 2), V2);
  }
  expectDifferentialEqual(S, Events);
}

TEST(DifferentialTest, Figure4LowerStaysCorrectWhilePersistent) {
  Spec S = figure4Lower();
  auto E1 = tracegen::randomInts(*S.lookup("i1"), 500, 20, 4);
  auto E2 = tracegen::randomInts(*S.lookup("i2"), 500, 20, 5);
  std::vector<TraceEvent> Events;
  for (size_t I = 0; I != 500; ++I) {
    Events.emplace_back(std::get<0>(E1[I]), static_cast<Time>(2 * I + 1),
                        std::get<2>(E1[I]));
    Events.emplace_back(std::get<0>(E2[I]), static_cast<Time>(2 * I + 2),
                        std::get<2>(E2[I]));
  }
  // The analysis keeps this persistent; outputs still must agree.
  expectDifferentialEqual(S, Events, /*ExpectInPlace=*/false);
}

TEST(DifferentialTest, SeenSet) {
  Spec S = seenSet();
  expectDifferentialEqual(
      S, tracegen::randomInts(*S.lookup("x"), 5000, 60, 6));
}

TEST(DifferentialTest, MapWindow) {
  Spec S = mapWindow(16);
  expectDifferentialEqual(
      S, tracegen::randomInts(*S.lookup("x"), 5000, 1000, 7));
}

TEST(DifferentialTest, QueueWindow) {
  Spec S = queueWindow(16);
  expectDifferentialEqual(
      S, tracegen::randomInts(*S.lookup("x"), 5000, 1000, 8));
}

TEST(DifferentialTest, DbAccessConstraint) {
  Spec S = dbAccessConstraint();
  tracegen::DbLogConfig Config;
  Config.Count = 5000;
  Config.Seed = 9;
  expectDifferentialEqual(S, tracegen::dbLog(*S.lookup("ins"),
                                             *S.lookup("del"),
                                             *S.lookup("acc"), Config));
}

TEST(DifferentialTest, DbTimeConstraint) {
  Spec S = dbTimeConstraint();
  tracegen::DbPairConfig Config;
  Config.Count = 3000;
  Config.Seed = 10;
  expectDifferentialEqual(
      S, tracegen::dbPairLog(*S.lookup("db2"), *S.lookup("db3"), Config));
}

TEST(DifferentialTest, PeakDetection) {
  Spec S = peakDetection(16);
  tracegen::PowerConfig Config;
  Config.Count = 4000;
  Config.PeakProb = 0.01;
  Config.Seed = 11;
  expectDifferentialEqual(S, tracegen::powerSignal(*S.lookup("p"),
                                                   Config));
}

TEST(DifferentialTest, SpectrumCalculation) {
  Spec S = spectrumCalculation();
  tracegen::PowerConfig Config;
  Config.Count = 4000;
  Config.Seed = 12;
  expectDifferentialEqual(S, tracegen::powerSignal(*S.lookup("p"),
                                                   Config));
}

// --- Randomized specifications -------------------------------------------
//
// The generator lives in tests/RandomSpecGen.h (shared with the fleet
// determinism suite and the semantics oracle's delay-free subset).

TEST(DifferentialTest, RandomSpecsAgree) {
  uint64_t TotalHits = 0;
  unsigned MovingPrograms = 0;
  for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
    Spec S = testrandom::randomSpec(Seed);
    auto Events = testrandom::randomSpecTrace(S, 600, Seed * 977);
    uint64_t Hits = 0;
    bool Moves = false;
    std::string Optimized = runWith(S, Events, true, &Hits, 0, &Moves);
    std::string Baseline = runWith(S, Events, false);
    EXPECT_EQ(Optimized, Baseline) << "seed " << Seed << "\n" << S.str();
    EXPECT_FALSE(Optimized.empty())
        << "vacuous comparison at seed " << Seed;
    TotalHits += Hits;
    MovingPrograms += Moves;
  }
  // Not every seed must run an in-place update, but the batch as a
  // whole must — otherwise all 25 comparisons are trivially vacuous.
  EXPECT_GT(TotalHits, 0u)
      << "no in-place update ever took the destructive tier; the property "
         "is vacuous";
  // Likewise for the moves at last use: some program must move a
  // pass-through's argument, or the corpus never compares them.
  EXPECT_GT(MovingPrograms, 0u)
      << "no compiled program moves a pass-through argument; the property "
         "is vacuous for moves";
}

TEST(DifferentialTest, RandomSpecsWithDelayAgree) {
  // Delay streams make the triggering section fire between input
  // timestamps (§III-B); the firing schedule must not depend on the
  // aggregate representation.
  testrandom::RandomSpecOptions Opts;
  Opts.WithDelay = true;
  uint64_t TotalHits = 0;
  for (uint64_t Seed = 1; Seed <= 15; ++Seed) {
    Spec S = testrandom::randomSpec(Seed, Opts);
    auto Events = testrandom::randomSpecTrace(S, 400, Seed * 1313);
    uint64_t Hits = 0;
    std::string Optimized = runWith(S, Events, true, &Hits);
    std::string Baseline = runWith(S, Events, false);
    EXPECT_EQ(Optimized, Baseline) << "seed " << Seed << "\n" << S.str();
    EXPECT_FALSE(Optimized.empty())
        << "vacuous comparison at seed " << Seed;
    TotalHits += Hits;
  }
  EXPECT_GT(TotalHits, 0u)
      << "no in-place update ever took the destructive tier; the property "
         "is vacuous";
}

TEST(DifferentialTest, WholeAggregateOutputsAgree) {
  // Render the full aggregate values (canonical form must match across
  // representations).
  Spec S = parseOrDie(R"(
    in x: Int
    def prev := last(merge(y, setEmpty()), x)
    def y := setToggle(prev, x)
    def qprev := last(merge(q, queueEmpty()), x)
    def q := queueTrim(queueEnq(qprev, x), 5)
    def mprev := last(merge(m, mapEmpty()), x)
    def m := mapPut(mprev, x % 7, x)
    out y
    out q
    out m
  )");
  expectDifferentialEqual(
      S, tracegen::randomInts(*S.lookup("x"), 500, 25, 13));
}

TEST(DifferentialTest, FilterGatedRefreshKeepsTheOldValue) {
  // The family's last is refreshed only when the filter passes the
  // update. Whenever it drops one, the next `last` must still read the
  // set from before, also with the last fused into the update at -O1.
  Spec S = parseOrDie(R"(
    in x: Int
    def prev := last(merge(f, setEmpty()), x)
    def y := setAdd(prev, x)
    def f := filter(y, x > 5)
    def n := setSize(prev)
    out n
  )");
  StreamId X = *S.lookup("x");
  std::vector<TraceEvent> Dropped = {{X, 1, Value::integer(1)},
                                     {X, 2, Value::integer(2)}};
  EXPECT_EQ(runWith(S, Dropped, false), "1: n = 0\n2: n = 0\n");
  for (unsigned Level : {0u, 1u}) {
    SCOPED_TRACE(testing::Message() << "-O" << Level);
    expectDifferentialEqual(S, Dropped, /*ExpectInPlace=*/false, Level);
    expectDifferentialEqual(S, tracegen::randomInts(X, 400, 10, 14),
                            /*ExpectInPlace=*/false, Level);
  }
}
