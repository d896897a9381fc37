//===- tests/Runtime/MonitorFleetTest.cpp -----------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// The fleet runtime's core guarantee: output is byte-identical to
/// running every session through its own sequential Monitor, regardless
/// of the shard count, the ingest interleaving across sessions, and the
/// aggregate representation (Optimize on/off). Plus the observability
/// counters and per-session failure isolation.
///
//===----------------------------------------------------------------------===//

#include "tessla/Runtime/MonitorFleet.h"
#include "tessla/Runtime/TraceGen.h"

#include "../RandomSpecGen.h"
#include "../TestSpecs.h"

#include <gtest/gtest.h>

#include <map>
#include <random>

using namespace tessla;
using namespace tessla::testspecs;

namespace {

using SessionTraces = std::map<SessionId, std::vector<TraceEvent>>;

/// Renders one session-attributed output line.
std::string renderLine(const Spec &S, SessionId Session,
                       const OutputEvent &E) {
  return "s" + std::to_string(Session) + "| " + formatEvent(S, E) + "\n";
}

/// The reference: each session through its own sequential Monitor,
/// sessions concatenated in ascending id order.
std::string sequentialReference(const Program &Plan,
                                const SessionTraces &Traces,
                                std::optional<Time> Horizon = std::nullopt) {
  std::string Out;
  for (const auto &[Session, Events] : Traces) {
    std::string Error;
    auto Outputs = runMonitor(Plan, Events, Horizon, &Error);
    EXPECT_EQ(Error, "") << "session " << Session;
    for (const OutputEvent &E : Outputs)
      Out += renderLine(Plan.spec(), Session, E);
  }
  return Out;
}

/// Runs the same traces through a fleet with \p Shards workers, feeding
/// in a seed-determined random interleaving across sessions (per-session
/// order preserved).
std::string fleetRun(const Program &Plan, const SessionTraces &Traces,
                     unsigned Shards, uint64_t InterleaveSeed,
                     FleetStats *StatsOut = nullptr,
                     std::optional<Time> Horizon = std::nullopt) {
  FleetOptions Opts;
  Opts.Shards = Shards;
  Opts.BatchSize = 7;     // deliberately small: exercise hand-off
  Opts.QueueCapacity = 4; // ... and ring wrap-around + backpressure
  Opts.Horizon = Horizon;
  MonitorFleet Fleet(Plan, Opts);
  ProducerHandle P = Fleet.producer();

  std::vector<std::pair<SessionId, const std::vector<TraceEvent> *>> Live;
  std::vector<size_t> Next;
  for (const auto &[Session, Events] : Traces) {
    Live.emplace_back(Session, &Events);
    Next.push_back(0);
  }
  std::mt19937_64 Rng(InterleaveSeed);
  size_t Remaining = 0;
  for (const auto &[Session, Events] : Traces)
    Remaining += Events.size();
  while (Remaining != 0) {
    size_t Pick = Rng() % Live.size();
    if (Next[Pick] == Live[Pick].second->size())
      continue;
    const auto &[Id, Ts, V] = (*Live[Pick].second)[Next[Pick]++];
    EXPECT_TRUE(P.feed(Live[Pick].first, Id, Ts, V));
    --Remaining;
  }
  P.close();
  Fleet.finish();
  EXPECT_FALSE(Fleet.failed())
      << (Fleet.errors().empty() ? std::string()
                                 : Fleet.errors().front().Message);
  if (StatsOut)
    *StatsOut = Fleet.stats();
  std::string Out;
  for (const SessionOutputEvent &E : Fleet.takeOutputs())
    Out += renderLine(Plan.spec(), E.Session, E.Event);
  return Out;
}

struct CompiledSpec {
  Program Plan;
  uint32_t MutableCount;

  CompiledSpec(const Spec &S, bool Optimize)
      : Plan(compileOrDie(S, Optimize)),
        MutableCount(mutableStreamCount(Plan)) {}
};

} // namespace

TEST(MonitorFleetTest, DeterministicAcrossShardCountsOnWorkloads) {
  // The evaluation workloads with per-session distinct traces.
  Spec S = seenSet();
  StreamId X = *S.lookup("x");
  SessionTraces Traces;
  for (SessionId Session = 0; Session != 24; ++Session)
    Traces[Session * 131 + 7] =
        tracegen::randomInts(X, 300, 40, 100 + Session);

  for (bool Optimize : {true, false}) {
    CompiledSpec C(S, Optimize);
    if (Optimize) {
      EXPECT_GT(C.MutableCount, 0u)
          << "optimization did not kick in; test is vacuous";
    }
    std::string Reference = sequentialReference(C.Plan, Traces);
    EXPECT_FALSE(Reference.empty()) << "vacuous comparison";
    for (unsigned Shards : {1u, 2u, 8u})
      EXPECT_EQ(fleetRun(C.Plan, Traces, Shards, 42 + Shards), Reference)
          << "shards=" << Shards << " optimize=" << Optimize;
  }
}

TEST(MonitorFleetTest, DeterministicOnRandomSpecsAndInterleavings) {
  uint32_t TotalMutable = 0;
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    Spec S = testrandom::randomSpec(Seed);
    SessionTraces Traces;
    for (SessionId Session = 0; Session != 10; ++Session)
      Traces[Session * 977 + 13] = testrandom::randomSpecTrace(
          S, 120, Seed * 10007 + Session);

    for (bool Optimize : {true, false}) {
      CompiledSpec C(S, Optimize);
      if (Optimize)
        TotalMutable += C.MutableCount;
      std::string Reference = sequentialReference(C.Plan, Traces);
      EXPECT_FALSE(Reference.empty())
          << "vacuous comparison at seed " << Seed;
      for (unsigned Shards : {1u, 2u, 8u})
        EXPECT_EQ(fleetRun(C.Plan, Traces, Shards, Seed * 31 + Shards),
                  Reference)
            << "seed " << Seed << " shards=" << Shards
            << " optimize=" << Optimize << "\n"
            << S.str();
    }
  }
  EXPECT_GT(TotalMutable, 0u)
      << "optimization never kicked in; the property is vacuous";
}

TEST(MonitorFleetTest, DeterministicOnDelaySpecs) {
  // Delay firings happen *between* input timestamps; the fleet must
  // reproduce them per session exactly like the sequential engine.
  testrandom::RandomSpecOptions Opts;
  Opts.WithDelay = true;
  for (uint64_t Seed = 2; Seed <= 5; ++Seed) {
    Spec S = testrandom::randomSpec(Seed, Opts);
    SessionTraces Traces;
    for (SessionId Session = 0; Session != 6; ++Session)
      Traces[Session + 1] =
          testrandom::randomSpecTrace(S, 80, Seed * 555 + Session);
    for (bool Optimize : {true, false}) {
      CompiledSpec C(S, Optimize);
      std::string Reference = sequentialReference(C.Plan, Traces);
      EXPECT_FALSE(Reference.empty())
          << "vacuous comparison at seed " << Seed;
      for (unsigned Shards : {1u, 2u, 8u})
        EXPECT_EQ(fleetRun(C.Plan, Traces, Shards, Seed + Shards),
                  Reference)
            << "seed " << Seed << " shards=" << Shards
            << " optimize=" << Optimize;
    }
  }
}

TEST(MonitorFleetTest, StatsAccountForEveryEventAndSession) {
  Spec S = seenSet();
  StreamId X = *S.lookup("x");
  SessionTraces Traces;
  size_t TotalEvents = 0;
  for (SessionId Session = 0; Session != 16; ++Session) {
    Traces[Session] = tracegen::randomInts(X, 50 + Session, 20, Session);
    TotalEvents += Traces[Session].size();
  }
  CompiledSpec C(S, /*Optimize=*/true);
  FleetStats Stats;
  fleetRun(C.Plan, Traces, /*Shards=*/4, /*InterleaveSeed=*/7, &Stats);
  ASSERT_EQ(Stats.Shards.size(), 4u);
  EXPECT_EQ(Stats.totalEvents(), TotalEvents);
  EXPECT_EQ(Stats.totalSessions(), 16u);
  EXPECT_EQ(Stats.totalFailedSessions(), 0u);
  EXPECT_GT(Stats.totalOutputs(), 0u);
  uint64_t Batches = 0, HighWater = 0;
  for (const ShardStats &Sh : Stats.Shards) {
    Batches += Sh.BatchesDrained;
    HighWater = std::max(HighWater, Sh.QueueHighWater);
  }
  EXPECT_GT(Batches, 0u);
  EXPECT_GE(HighWater, 1u);
  EXPECT_NE(Stats.str().find("shard 3"), std::string::npos);
  // The default mode runs every shard batched, and the stats line names
  // the engine for operators.
  for (const ShardStats &Sh : Stats.Shards)
    EXPECT_NE(Sh.str().find("engine=batched"), std::string::npos) << Sh.str();
}

TEST(MonitorFleetTest, SessionFailureIsIsolated) {
  Spec S = seenSet();
  StreamId X = *S.lookup("x");
  CompiledSpec C(S, /*Optimize=*/true);
  FleetOptions Opts;
  Opts.Shards = 2;
  Opts.BatchSize = 3;
  MonitorFleet Fleet(C.Plan, Opts);
  ProducerHandle P = Fleet.producer();
  // Session 1: healthy. Session 2: violates timestamp order.
  P.feed(1, X, 1, Value::integer(4));
  P.feed(2, X, 10, Value::integer(5));
  P.feed(2, X, 5, Value::integer(6)); // out of order -> session fails
  P.feed(1, X, 2, Value::integer(4));
  P.close();
  Fleet.finish();
  EXPECT_TRUE(Fleet.failed());
  auto Errors = Fleet.errors();
  ASSERT_EQ(Errors.size(), 1u);
  EXPECT_EQ(Errors[0].Session, 2u);
  EXPECT_NE(Errors[0].Message.find("order"), std::string::npos);
  // The healthy session produced its full trace.
  unsigned Session1Outputs = 0;
  for (const SessionOutputEvent &E : Fleet.takeOutputs())
    if (E.Session == 1)
      ++Session1Outputs;
  EXPECT_EQ(Session1Outputs, 2u);
  EXPECT_EQ(Fleet.stats().totalFailedSessions(), 1u);
}

// A mistyped record fails only its own session, with the typed message,
// on both interpreting engines; the other sessions' outputs stay
// byte-identical to their sequential runs.
TEST(MonitorFleetTest, MistypedRecordFailsOnlyItsSession) {
  Spec S = parseOrDie(QueueTrimSpec);
  Program Plan = compileOrDie(S);
  StreamId X = *S.lookup("x");
  SessionTraces Good;
  for (SessionId Session : {0, 1, 3})
    Good[Session] = tracegen::randomInts(X, 30, 5, 40 + Session);
  std::string Reference = sequentialReference(Plan, Good);
  ASSERT_FALSE(Reference.empty());
  for (FleetMode Mode : {FleetMode::PerSession, FleetMode::Batched}) {
    FleetOptions Opts;
    Opts.Shards = 2;
    Opts.Mode = Mode;
    MonitorFleet Fleet(Plan, Opts);
    ProducerHandle P = Fleet.producer();
    for (size_t I = 0; I != 30; ++I) {
      for (const auto &[Session, Events] : Good) {
        const auto &[Id, Ts, V] = Events[I];
        EXPECT_TRUE(P.feed(Session, Id, Ts, V));
      }
      Time Ts = static_cast<Time>(I) + 1;
      P.feed(2, X, Ts, Ts == 2 ? Value::string("abc") : Value::integer(2));
    }
    P.close();
    Fleet.finish();
    std::vector<SessionError> Errors = Fleet.errors();
    ASSERT_EQ(Errors.size(), 1u);
    EXPECT_EQ(Errors[0].Session, 2u);
    EXPECT_EQ(Errors[0].Message,
              "at t=2, stream 'x': expected Int, got String");
    std::string Out;
    for (const SessionOutputEvent &E : Fleet.takeOutputs())
      if (E.Session != 2)
        Out += renderLine(S, E.Session, E.Event);
    EXPECT_EQ(Out, Reference);
  }
}

TEST(MonitorFleetTest, FeedAfterFinishRejected) {
  Spec S = seenSet();
  CompiledSpec C(S, true);
  MonitorFleet Fleet(C.Plan);
  ProducerHandle P = Fleet.producer();
  EXPECT_TRUE(P.feed(1, *S.lookup("x"), 1, Value::integer(1)));
  P.close();
  Fleet.finish();
  // A closed handle rejects records, and no new handle is issued.
  EXPECT_FALSE(P.feed(1, *S.lookup("x"), 2, Value::integer(1)));
  EXPECT_FALSE(Fleet.producer().valid());
  Fleet.finish(); // idempotent
}

TEST(MonitorFleetTest, SessionPinningIsStable) {
  Spec S = seenSet();
  CompiledSpec C(S, true);
  FleetOptions Opts;
  Opts.Shards = 8;
  MonitorFleet Fleet(C.Plan, Opts);
  std::map<unsigned, unsigned> Histogram;
  for (SessionId Session = 0; Session != 1000; ++Session) {
    unsigned Shard = Fleet.shardOf(Session);
    EXPECT_EQ(Shard, Fleet.shardOf(Session)); // stable
    ASSERT_LT(Shard, 8u);
    ++Histogram[Shard];
  }
  // The mixer must spread sequential ids over all shards.
  EXPECT_EQ(Histogram.size(), 8u);
  for (const auto &[Shard, N] : Histogram)
    EXPECT_GT(N, 60u) << "shard " << Shard << " is starved";
}
