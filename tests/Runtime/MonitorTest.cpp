//===- tests/Runtime/MonitorTest.cpp ----------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// Operator and triggering-section semantics (§II, §III) through the
/// interpreter engine, in both optimized and baseline configurations.
///
//===----------------------------------------------------------------------===//

#include "tessla/Runtime/BatchedMonitor.h"
#include "tessla/Runtime/TraceIO.h"

#include "../TestSpecs.h"

#include <gtest/gtest.h>

using namespace tessla;
using namespace tessla::testspecs;

namespace {

struct Runner {
  Spec S;
  Program Plan;

  Runner(Spec Spec_, bool Optimize = true)
      : S(std::move(Spec_)), Plan(compileOrDie(S, Optimize)) {}

  /// Runs events given as (name, ts, value) and renders the output trace.
  std::string run(
      const std::vector<std::tuple<std::string, Time, Value>> &Events,
      std::optional<Time> Horizon = std::nullopt) {
    std::vector<TraceEvent> Mapped;
    for (const auto &[Name, Ts, V] : Events)
      Mapped.emplace_back(*S.lookup(Name), Ts, V);
    std::string Error;
    auto Out = runMonitor(Plan, Mapped, Horizon, &Error);
    EXPECT_EQ(Error, "");
    return formatOutputs(Plan.spec(), Out);
  }
};

} // namespace

TEST(MonitorTest, UnitAndConstFireAtZero) {
  Runner R(parseOrDie(R"(
    in a: Int
    def u := unit
    def c := default(a, 41)
    out u
    out c
  )"));
  EXPECT_EQ(R.run({{"a", 5, Value::integer(7)}}),
            "0: u = ()\n0: c = 41\n5: c = 7\n");
}

TEST(MonitorTest, UnitFiresWithoutAnyInput) {
  Runner R(parseOrDie(R"(
    in a: Int
    def u := unit
    out u
  )"));
  EXPECT_EQ(R.run({}), "0: u = ()\n");
}

TEST(MonitorTest, TimeOperator) {
  Runner R(parseOrDie(R"(
    in a: Int
    def t := time(a)
    out t
  )"));
  EXPECT_EQ(R.run({{"a", 3, Value::integer(100)},
                   {"a", 8, Value::integer(200)}}),
            "3: t = 3\n8: t = 8\n");
}

TEST(MonitorTest, LiftAllNeedsAllArguments) {
  Runner R(parseOrDie(R"(
    in a: Int
    in b: Int
    def x := a + b
    out x
  )"));
  EXPECT_EQ(R.run({{"a", 1, Value::integer(10)},
                   {"b", 2, Value::integer(5)},
                   {"a", 3, Value::integer(1)},
                   {"b", 3, Value::integer(2)}}),
            "3: x = 3\n");
}

TEST(MonitorTest, MergePrioritizesFirstStream) {
  Runner R(parseOrDie(R"(
    in a: Int
    in b: Int
    def m := merge(a, b)
    out m
  )"));
  EXPECT_EQ(R.run({{"a", 1, Value::integer(1)},
                   {"b", 2, Value::integer(2)},
                   {"a", 3, Value::integer(3)},
                   {"b", 3, Value::integer(99)}}),
            "1: m = 1\n2: m = 2\n3: m = 3\n");
}

TEST(MonitorTest, LastIsStrict) {
  Runner R(parseOrDie(R"(
    in v: Int
    in t: Int
    def l := last(v, t)
    out l
  )"));
  // t at 1: v uninitialized -> no event. t at 4: last v value is 10 (the
  // value at 2, not the simultaneous one at 4).
  EXPECT_EQ(R.run({{"t", 1, Value::integer(0)},
                   {"v", 2, Value::integer(10)},
                   {"v", 4, Value::integer(20)},
                   {"t", 4, Value::integer(0)},
                   {"t", 5, Value::integer(0)}}),
            "4: l = 10\n5: l = 20\n");
}

TEST(MonitorTest, FilterPassesOnTrueOnly) {
  Runner R(parseOrDie(R"(
    in a: Int
    def f := filter(a, a % 2 == 0)
    out f
  )"));
  EXPECT_EQ(R.run({{"a", 1, Value::integer(3)},
                   {"a", 2, Value::integer(4)},
                   {"a", 3, Value::integer(5)}}),
            "2: f = 4\n");
}

TEST(MonitorTest, CounterRecursion) {
  // The standard TeSSLa counting idiom (recursion through last).
  Runner R(parseOrDie(R"(
    in x: Int
    def c := merge(last(c, x) + 1, 0)
    out c
  )"));
  EXPECT_EQ(R.run({{"x", 2, Value::integer(0)},
                   {"x", 5, Value::integer(0)},
                   {"x", 9, Value::integer(0)}}),
            "0: c = 0\n2: c = 1\n5: c = 2\n9: c = 3\n");
}

TEST(MonitorTest, HeldLiteralArithmetic) {
  Runner R(parseOrDie(R"(
    in a: Int
    def x := a * 2 + 1
    out x
  )"));
  EXPECT_EQ(R.run({{"a", 1, Value::integer(3)},
                   {"a", 7, Value::integer(10)}}),
            "1: x = 7\n7: x = 21\n");
}

TEST(MonitorTest, DelayFiresAfterReset) {
  Runner R(parseOrDie(R"(
    in r: Int
    def d := delay(r, r)
    out d
  )"));
  // r=5 at t=10 arms the timer for t=15; no reset in between.
  EXPECT_EQ(R.run({{"r", 10, Value::integer(5)},
                   {"r", 30, Value::integer(100)}},
                  /*Horizon=*/200),
            "15: d = ()\n130: d = ()\n");
}

TEST(MonitorTest, DelayCancelledByReset) {
  Runner R(parseOrDie(R"(
    in r: Int
    in c: Int
    def d := delay(r, merge(time(r), time(c)))
    out d
  )"));
  // Armed at 10 (+50 -> 60), but the reset at 20 carries no delay value:
  // cancelled. Re-armed at 40 (+5 -> fires at 45).
  EXPECT_EQ(R.run({{"r", 10, Value::integer(50)},
                   {"c", 20, Value::integer(0)},
                   {"r", 40, Value::integer(5)}},
                  /*Horizon=*/1000),
            "45: d = ()\n");
}

TEST(MonitorTest, DelayGeneratesBetweenInputs) {
  // The triggering section must run calculation steps at delay
  // timestamps that fall between input events (§III-B).
  Runner R(parseOrDie(R"(
    in r: Int
    def d := delay(r, r)
    def both := merge(time(d), time(r))
    out both
  )"));
  EXPECT_EQ(R.run({{"r", 10, Value::integer(3)},
                   {"r", 20, Value::integer(100)}},
                  /*Horizon=*/50),
            "10: both = 10\n13: both = 13\n20: both = 20\n");
}

TEST(MonitorTest, PeriodicDelayWithHorizon) {
  // Periodic clock: the delay stream itself is an implicit reset
  // (§III-B), so delay(10, unit) keeps firing every 10 units after the
  // unit kick-off, bounded by the finish horizon.
  Runner R(parseOrDie(R"(
    def tick := delay(10, unit)
    def t := time(tick)
    out t
  )"));
  EXPECT_EQ(R.run({}, /*Horizon=*/35), "10: t = 10\n20: t = 20\n30: t = 30\n");
}

TEST(MonitorTest, SeenSetBehavior) {
  Runner R(seenSet());
  EXPECT_EQ(R.run({{"x", 1, Value::integer(7)},
                   {"x", 2, Value::integer(7)},
                   {"x", 3, Value::integer(7)},
                   {"x", 4, Value::integer(9)}}),
            "1: seen = false\n2: seen = true\n3: seen = false\n"
            "4: seen = false\n");
}

TEST(MonitorTest, Figure1SetAccumulation) {
  Runner R(figure1());
  EXPECT_EQ(R.run({{"i", 1, Value::integer(1)},
                   {"i", 2, Value::integer(2)},
                   {"i", 3, Value::integer(1)}}),
            "1: s = false\n2: s = false\n3: s = true\n");
}

TEST(MonitorTest, BaselineProducesSameOutputs) {
  Runner Opt(figure1(), /*Optimize=*/true);
  Runner Base(figure1(), /*Optimize=*/false);
  std::vector<std::tuple<std::string, Time, Value>> Events;
  for (int I = 0; I != 50; ++I)
    Events.push_back({"i", I + 1, Value::integer(I % 7)});
  std::string Optimized = Opt.run(Events);
  std::string Baseline = Base.run(Events);
  EXPECT_EQ(Optimized, Baseline);
  EXPECT_FALSE(Optimized.empty()) << "vacuous comparison";
  EXPECT_GT(Opt.Plan.inPlaceStepCount(), 0u);
  EXPECT_EQ(Base.Plan.inPlaceStepCount(), 0u);
}

// Pins the output-handler contract documented in Monitor.h: storing the
// Value shallowly is safe. A handler-held handle is a sharer, so a later
// in-place-verdict update sees the share and path-copies instead of
// mutating through it — the stored value never changes, in either
// regime, and deepCopy() is the O(1) identity.
TEST(MonitorTest, OutputHandlerValuesAreStableSnapshots) {
  Spec S = parseOrDie(R"(
    in x: Int
    def prev := last(merge(y, setEmpty()), x)
    def y := setAdd(prev, x)
    out y
  )");
  auto RunAndSnapshot = [&](bool Optimize, Value &Shallow, Value &Deep) {
    Program Plan = compileOrDie(S, Optimize);
    EXPECT_EQ(Plan.inPlaceStepCount() > 0, Optimize)
        << "mutability premise broken; test is vacuous";
    Monitor M(Plan);
    bool First = true;
    M.setOutputHandler([&](Time, StreamId, const Value &V) {
      if (!First)
        return;
      First = false;
      Shallow = V;            // shares the aggregate handle
      Deep = V.deepCopy();    // snapshot
    });
    for (int I = 0; I != 5; ++I)
      M.feed(*S.lookup("x"), I + 1, Value::integer(I));
    M.finish();
    EXPECT_FALSE(M.failed()) << M.errorMessage();
  };

  Value Shallow, Deep;
  RunAndSnapshot(/*Optimize=*/true, Shallow, Deep);
  // The first emission was {0}; the four later adds path-copied because
  // the handler's handle kept the old version alive.
  EXPECT_EQ(Deep.str(), "{0}");
  EXPECT_EQ(Shallow.str(), "{0}");
  EXPECT_EQ(Shallow, Deep);
  EXPECT_EQ(Shallow.aggregateIdentity(), Deep.aggregateIdentity())
      << "deepCopy shares the handle";

  // Baseline: every update path-copies anyway.
  RunAndSnapshot(/*Optimize=*/false, Shallow, Deep);
  EXPECT_EQ(Deep.str(), "{0}");
  EXPECT_EQ(Shallow.str(), "{0}");
  EXPECT_EQ(Shallow, Deep);

  // The same guarantee for a map family (Map Window) and a db-log family
  // (setUpdate), on both interpreting engines at -O0 and -O1: every
  // output value the engine hands out, and every value of a lane
  // snapshot taken mid-run, must render at the end of the run exactly as
  // it did when it was handed out — later in-place updates path-copy
  // around them. The baseline program, whose updates all path-copy,
  // supplies the expected renderings.
  struct Family {
    const char *Name;
    const char *Source;
    std::vector<std::pair<std::string, int64_t>> Inputs; // stream, value
  };
  std::vector<Family> Families = {
      {"map window", R"(
        in x: Int
        def c    := merge(last(c, x) + 1, 0)
        def prev := last(merge(m, mapEmpty()), x)
        def m    := mapPut(prev, c % 4, x)
        out m
      )",
       {}},
      {"db log", R"(
        in ins: Int
        in del: Int
        in acc: Int
        def anyOp := merge(merge(ins, del), acc)
        def prev  := last(merge(live, setEmpty()), anyOp)
        def live  := setUpdate(prev, ins, del)
        out live
      )",
       {}},
  };
  for (int64_t I = 0; I != 24; ++I) {
    Families[0].Inputs.push_back({"x", I * 3});
    const char *Op = I % 3 == 2 ? "del" : I % 5 == 4 ? "acc" : "ins";
    Families[1].Inputs.push_back({Op, I % 3 == 2 ? I - 2 : I});
  }
  constexpr size_t SnapshotAt = 12;
  auto Render = [](const EngineLaneState &Snap) {
    std::string Out;
    for (const Value &V : Snap.Cur)
      Out += V.str() + ";";
    for (const Value &V : Snap.LastVal)
      Out += V.str() + ";";
    return Out;
  };
  for (const Family &F : Families)
    for (unsigned Level : {0u, 1u})
      for (bool Batched : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << F.Name << ", -O" << Level << ", "
                     << (Batched ? "batched" : "per-session"));
        Spec FS = parseOrDie(F.Source);
        std::vector<std::string> Expected;
        for (bool Optimize : {false, true}) {
          Program P = compileOrDie(FS, Optimize, Level);
          std::vector<Value> Held;
          std::vector<std::string> AtEmission;
          EngineLaneState Snap;
          std::string SnapAtTake;
          uint64_t Misses = 0;
          if (!Batched) {
            Monitor M(P);
            M.setOutputHandler([&](Time, StreamId, const Value &V) {
              Held.push_back(V);
              AtEmission.push_back(V.str());
            });
            for (size_t I = 0; I != F.Inputs.size(); ++I) {
              if (I == SnapshotAt) {
                M.snapshotState(Snap);
                SnapAtTake = Render(Snap);
              }
              ASSERT_TRUE(M.feed(*FS.lookup(F.Inputs[I].first), Time(I + 1),
                                 Value::integer(F.Inputs[I].second)))
                  << M.errorMessage();
            }
            M.finish();
            Misses = M.inPlaceMisses();
          } else {
            BatchedMonitor B(P);
            unsigned Lane = B.addLane(0);
            for (size_t I = 0; I != F.Inputs.size(); ++I) {
              if (I == SnapshotAt) {
                B.pump();
                Snap = B.snapshotLane(Lane);
                SnapAtTake = Render(Snap);
              }
              B.feed(Lane, *FS.lookup(F.Inputs[I].first), Time(I + 1),
                     Value::integer(F.Inputs[I].second));
              B.pump();
              // Render each output as the engine hands it out.
              for (const OutputEvent &E : B.takeLaneOutputs(Lane)) {
                Held.push_back(E.V);
                AtEmission.push_back(E.V.str());
              }
            }
            B.finishAll();
            for (const OutputEvent &E : B.takeLaneOutputs(Lane)) {
              Held.push_back(E.V);
              AtEmission.push_back(E.V.str());
            }
            ASSERT_FALSE(B.laneFailed(Lane)) << B.laneError(Lane);
            Misses = B.laneInPlaceMisses(Lane);
          }
          std::vector<std::string> AtEnd;
          for (const Value &V : Held)
            AtEnd.push_back(V.str());
          EXPECT_EQ(AtEnd, AtEmission) << "a held output value changed";
          EXPECT_EQ(Render(Snap), SnapAtTake) << "the snapshot changed";
          if (!Optimize) {
            Expected = AtEnd;
            continue;
          }
          EXPECT_EQ(AtEnd, Expected) << "optimized outputs differ";
          EXPECT_GT(Misses, 0u)
              << "no update path-copied around the held values; vacuous";
        }
      }
}

// Pass-throughs move their argument at its last use instead of copying
// it (ProgramStep::MoveArgs): a merge and a filter whose argument is read
// again after the step must copy, next to ones whose argument nothing
// reads later. Both engines at -O0 and -O1 must print what the
// all-persistent reference prints.
TEST(MonitorTest, PassThroughsMoveOnlyAtTheLastUse) {
  Spec S = parseOrDie(R"(
    in x: Int
    def prev  := last(merge(y, setEmpty()), x)
    def y     := setAdd(prev, x)
    def kept  := merge(y, setEmpty())
    def n     := setSize(y)
    def big   := x > 2
    def gated := filter(kept, big)
    def m     := setSize(kept)
    def moved := filter(gated, big)
    def w     := merge(moved, setEmpty())
    def k     := setSize(w)
    def t     := merge(x, 0)
    def u     := t + setSize(prev)
    out n
    out m
    out k
    out u
  )");
  StreamId X = *S.lookup("x");
  std::vector<TraceEvent> Events;
  for (int64_t I = 0; I != 40; ++I)
    Events.push_back({X, I + 1, Value::integer((I * 7) % 11)});
  std::string Error;
  Program Ref = compileOrDie(S, /*Optimize=*/false);
  std::string Expected =
      formatOutputs(S, runMonitor(Ref, Events, std::nullopt, &Error));
  ASSERT_EQ(Error, "");
  ASSERT_NE(Expected.find("k = "), std::string::npos) << "vacuous";

  for (unsigned Level : {0u, 1u}) {
    SCOPED_TRACE(testing::Message() << "-O" << Level);
    Program P = compileOrDie(S, /*Optimize=*/true, Level);
    // The plan: a pass-through argument moves exactly when no later step
    // and no reader outside the step loop reads its slot.
    std::vector<char> Pinned(P.numValueSlots() + 1, 0);
    for (const OutputSlot &O : P.outputs())
      Pinned[O.ValueSlot] = 1;
    for (const LastSlot &L : P.lastSlots())
      Pinned[L.ValueSlot] = 1;
    unsigned Moves = 0, Copies = 0;
    const std::vector<ProgramStep> &Steps = P.steps();
    for (size_t K = 0; K != Steps.size(); ++K) {
      const ProgramStep &Step = Steps[K];
      if (Step.Op != Opcode::LiftMerge && Step.Op != Opcode::LiftFilter)
        continue;
      unsigned Passed = Step.Op == Opcode::LiftMerge ? Step.NumArgs : 1;
      for (unsigned I = 0; I != Passed; ++I) {
        SlotId Slot = Step.ArgSlot[I];
        bool ReadLater = Slot >= P.numValueSlots() || Pinned[Slot];
        for (size_t J = K + 1; J != Steps.size(); ++J)
          for (unsigned A = 0; A != Steps[J].NumArgs; ++A)
            ReadLater |= Steps[J].ArgSlot[A] == Slot;
        bool Moved = Step.MoveArgs >> I & 1;
        EXPECT_EQ(Moved, !ReadLater) << "step " << K << " argument " << I;
        ++(Moved ? Moves : Copies);
      }
    }
    EXPECT_GT(Moves, 0u) << "no pass-through moves; vacuous";
    EXPECT_GT(Copies, 0u) << "no pass-through must copy; vacuous";

    EXPECT_EQ(formatOutputs(S, runMonitor(P, Events, std::nullopt, &Error)),
              Expected);
    EXPECT_EQ(Error, "");
    BatchedMonitor B(P);
    EXPECT_EQ(formatOutputs(S, runEngineSingle(B, toBatch(Events),
                                               std::nullopt, &Error)),
              Expected);
    EXPECT_EQ(Error, "");
  }
}

TEST(MonitorTest, OutOfOrderInputRejected) {
  Spec S = parseOrDie("in a: Int\ndef t := time(a)\nout t");
  Program Plan = compileOrDie(S);
  Monitor M(Plan);
  EXPECT_TRUE(M.feed(*S.lookup("a"), 10, Value::integer(1)));
  EXPECT_FALSE(M.feed(*S.lookup("a"), 5, Value::integer(2)));
  EXPECT_TRUE(M.failed());
  EXPECT_NE(M.errorMessage().find("order"), std::string::npos);
}

TEST(MonitorTest, DuplicateEventSameTimestampRejected) {
  Spec S = parseOrDie("in a: Int\ndef t := time(a)\nout t");
  Program Plan = compileOrDie(S);
  Monitor M(Plan);
  EXPECT_TRUE(M.feed(*S.lookup("a"), 10, Value::integer(1)));
  EXPECT_FALSE(M.feed(*S.lookup("a"), 10, Value::integer(2)));
  EXPECT_TRUE(M.failed());
}

TEST(MonitorTest, RuntimeErrorsSurface) {
  Spec S = parseOrDie(R"(
    in a: Int
    def x := 10 / a
    out x
  )");
  Program Plan = compileOrDie(S);
  Monitor M(Plan);
  M.feed(*S.lookup("a"), 1, Value::integer(0));
  M.finish();
  EXPECT_TRUE(M.failed());
  EXPECT_NE(M.errorMessage().find("division by zero"), std::string::npos)
      << M.errorMessage();
}

// A record whose value does not have its input's declared type fails
// the monitor with a typed error at its own timestamp, on both
// interpreting engines, before any builtin reads it.
TEST(MonitorTest, MistypedInputFailsWithATypedError) {
  for (const Spec &S : {parseOrDie(QueueTrimSpec), seenSet()}) {
    Program Plan = compileOrDie(S);
    StreamId X = *S.lookup("x");
    std::vector<TraceEvent> Events = {{X, 1, Value::integer(3)},
                                      {X, 2, Value::string("abc")},
                                      {X, 3, Value::integer(4)}};
    std::string Error;
    std::vector<OutputEvent> Out = runMonitor(Plan, Events, std::nullopt,
                                              &Error);
    EXPECT_EQ(Error, "at t=2, stream 'x': expected Int, got String");
    // The record is rejected before t=1's calculation is flushed, as an
    // out-of-order record would be.
    EXPECT_TRUE(Out.empty());
    BatchedMonitor B(Plan);
    std::string BatchedError;
    EXPECT_TRUE(
        runEngineSingle(B, toBatch(Events), std::nullopt, &BatchedError)
            .empty());
    EXPECT_EQ(BatchedError, Error);
  }
}

// Aggregate inputs are checked element by element.
TEST(MonitorTest, MistypedAggregateInputFails) {
  Spec S = parseOrDie("in s: Set[Int]\ndef n := setSize(s)\nout n");
  Program Plan = compileOrDie(S);
  StreamId In = *S.lookup("s");
  auto SetOf = [](std::initializer_list<Value> Elems) {
    Value Empty = Value::emptySet();
    SetCow C = Empty.setCow(false);
    for (const Value &E : Elems)
      C.add(E);
    return std::move(C).finish();
  };
  Value Good = SetOf({Value::integer(1)});
  Value Bad = SetOf({Value::integer(1), Value::string("abc")});
  std::string Error;
  runMonitor(Plan, {{In, 1, Good}, {In, 2, Bad}}, std::nullopt, &Error);
  EXPECT_EQ(Error, "at t=2, stream 's': expected Set[Int], got Set of String");
  runMonitor(Plan, {{In, 1, Value::integer(1)}}, std::nullopt, &Error);
  EXPECT_EQ(Error, "at t=1, stream 's': expected Set[Int], got Int");
}

TEST(MonitorTest, FeedAfterFinishRejected) {
  Spec S = parseOrDie("in a: Int\ndef t := time(a)\nout t");
  Program Plan = compileOrDie(S);
  Monitor M(Plan);
  M.finish();
  EXPECT_FALSE(M.feed(*S.lookup("a"), 1, Value::integer(1)));
}

TEST(MonitorTest, PlanPrintingShowsOrderAndInPlaceMarkers) {
  Runner R(figure1());
  std::string Text = R.Plan.str();
  // Steps in translation order: the read (s) precedes the write (y).
  size_t ReadPos = Text.find("s = setContains");
  size_t WritePos = Text.find("y = setAdd");
  ASSERT_NE(ReadPos, std::string::npos) << Text;
  ASSERT_NE(WritePos, std::string::npos);
  EXPECT_LT(ReadPos, WritePos);
  EXPECT_NE(Text.find("[in-place]"), std::string::npos);
  // Baseline plan has no in-place markers.
  Runner Base(figure1(), /*Optimize=*/false);
  EXPECT_EQ(Base.Plan.str().find("[in-place]"), std::string::npos);
}

TEST(MonitorTest, StatsCounters) {
  Runner R(figure1());
  Monitor M(R.Plan);
  M.feed(*R.S.lookup("i"), 1, Value::integer(1));
  M.feed(*R.S.lookup("i"), 2, Value::integer(2));
  M.finish();
  EXPECT_FALSE(M.failed());
  EXPECT_GE(M.calcRuns(), 3u); // t=0 implicit + two input timestamps
  EXPECT_EQ(M.outputEvents(), 2u);
}
