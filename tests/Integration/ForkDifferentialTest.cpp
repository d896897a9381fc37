//===- tests/Integration/ForkDifferentialTest.cpp ---------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// The session-fork headline property: forking a live session at a
/// mid-stream point and feeding each lane its own tail is byte-identical
/// to two independent sessions fed the shared head plus their own tail —
/// the forked lane carries the head's recorded outputs and the O(1)
/// structure-shared aggregate state, and the copy-on-write
/// representation keeps the two lanes from observing each other's later
/// updates. Proven differentially over a randomized corpus (queue and
/// map builtins, delay streams on every third seed; both mutability
/// modes; -O0 and -O1) on the per-session and batched engines under the
/// migration-hostile fleet shape, so forked lanes are also stolen
/// across shards mid-run. The corpus size and seed are env-overridable
/// (TESSLA_CORPUS_SPECS / TESSLA_CORPUS_SEED).
///
/// The native tier is the deliberate odd one out: compiled lanes are
/// not migratable, so forkSession must refuse — checked here so the
/// error contract is pinned alongside the property it protects.
///
//===----------------------------------------------------------------------===//

#include "tessla/CodeGen/NativeCompile.h"
#include "tessla/Runtime/MonitorFleet.h"

#include "../RandomSpecGen.h"
#include "../TestSpecs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#if defined(__SANITIZE_THREAD__)
#define TESSLA_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define TESSLA_TSAN 1
#endif
#endif
#ifndef TESSLA_TSAN
#define TESSLA_TSAN 0
#endif

using namespace tessla;
using namespace tessla::testspecs;
using namespace tessla::testrandom;

namespace {

/// One corpus compile configuration: mutability mode x opt level.
struct Config {
  bool Optimize;
  unsigned OptLevel;
};

std::string renderLine(const Spec &S, SessionId Session,
                       const OutputEvent &E) {
  return "s" + std::to_string(Session) + "| " + formatEvent(S, E) + "\n";
}

/// Ground truth: every session through its own sequential Monitor.
std::string sequentialReference(const Program &Plan,
                                const std::vector<CorpusRecord> &Records) {
  std::map<SessionId, std::vector<TraceEvent>> PerSession;
  for (const CorpusRecord &R : Records)
    PerSession[R.Session].emplace_back(*Plan.spec().lookup(R.Input), R.Ts,
                                       R.V);
  std::string Out;
  for (const auto &[Session, Events] : PerSession) {
    std::string Error;
    auto Outputs = runMonitor(Plan, Events, std::nullopt, &Error);
    EXPECT_EQ(Error, "") << "session " << Session;
    for (const OutputEvent &E : Outputs)
      Out += renderLine(Plan.spec(), Session, E);
  }
  return Out;
}

/// Migration-hostile shape (same as BatchedDifferentialTest): sessions
/// pin to shard 0, idle peers steal, tiny batches and rings.
FleetOptions hostileOptions(FleetMode Mode) {
  FleetOptions Opts;
  Opts.Shards = 4;
  Opts.BatchSize = 4;
  Opts.QueueCapacity = 4;
  Opts.StealBacklog = 1;
  Opts.Mode = Mode;
  return Opts;
}

/// Session ids that all hash-pin to shard 0 of a 4-shard fleet.
std::vector<SessionId> pinnedSessions(const Program &Plan, size_t Count) {
  MonitorFleet Probe(Plan, hostileOptions(FleetMode::PerSession));
  std::vector<SessionId> Ids;
  for (SessionId Id = 0; Ids.size() < Count && Id < 100000; ++Id)
    if (Probe.shardOf(Id) == 0)
      Ids.push_back(Id);
  EXPECT_EQ(Ids.size(), Count);
  Probe.finish();
  return Ids;
}

/// Interleaves per-session traces into one arrival order: round-robin
/// with a seeded random pick, per-session order preserved. Any prefix of
/// the result is itself a valid arrival order, which makes the fork cut
/// below well-formed.
std::vector<CorpusRecord>
interleave(const Spec &S, const std::vector<SessionId> &Sessions,
           const std::vector<std::vector<TraceEvent>> &Traces,
           uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  std::vector<size_t> Next(Traces.size(), 0);
  std::vector<CorpusRecord> Out;
  size_t Remaining = 0;
  for (const auto &T : Traces)
    Remaining += T.size();
  Out.reserve(Remaining);
  while (Remaining != 0) {
    size_t Pick = Rng() % Traces.size();
    if (Next[Pick] == Traces[Pick].size())
      continue;
    const auto &[Id, Ts, V] = Traces[Pick][Next[Pick]++];
    Out.push_back({Sessions[Pick], S.stream(Id).Name, Ts, V});
    --Remaining;
  }
  return Out;
}

/// What the forked runs of the corpus did, for the vacuity guards.
struct RunCounters {
  uint64_t Steals = 0;
  uint64_t InPlaceHits = 0;
};

/// The value the fork destination receives where the source's tail
/// record carries \p V. Different on purpose: with identical tails, a
/// destructive update leaking through a shared payload can hide behind
/// the other lane applying the very same update.
Value destinationValue(const Value &V) {
  return V.kind() == Value::Kind::Int ? Value::integer(V.getInt() + 1) : V;
}

/// The forked run: feed the first \p SplitAt records, close the
/// producer, fork \p Src into \p Dst, then feed the tail — with every
/// tail record of \p Src duplicated to \p Dst (destinationValue()).
/// \returns the rendered outputs, or nullopt (with a test failure
/// recorded) on any stage error.
std::optional<std::string>
forkedRun(const Program &Plan, FleetMode Mode,
          const std::vector<CorpusRecord> &Records, size_t SplitAt,
          SessionId Src, SessionId Dst, RunCounters &Counters) {
  MonitorFleet Fleet(Plan, hostileOptions(Mode));
  EXPECT_EQ(Fleet.mode(), Mode);
  {
    ProducerHandle P = Fleet.producer();
    for (size_t I = 0; I != SplitAt; ++I) {
      const CorpusRecord &R = Records[I];
      EXPECT_TRUE(
          P.feed(R.Session, *Plan.spec().lookup(R.Input), R.Ts, R.V));
    }
    P.close();
  }
  std::string Err;
  if (!Fleet.forkSession(Src, Dst, &Err)) {
    ADD_FAILURE() << "fork failed: " << Err;
    Fleet.finish();
    return std::nullopt;
  }
  {
    ProducerHandle P = Fleet.producer();
    for (size_t I = SplitAt; I != Records.size(); ++I) {
      const CorpusRecord &R = Records[I];
      StreamId Id = *Plan.spec().lookup(R.Input);
      EXPECT_TRUE(P.feed(R.Session, Id, R.Ts, R.V));
      if (R.Session == Src) {
        EXPECT_TRUE(P.feed(Dst, Id, R.Ts, destinationValue(R.V)));
      }
    }
    P.close();
  }
  Fleet.finish();
  EXPECT_FALSE(Fleet.failed())
      << (Fleet.errors().empty() ? std::string()
                                 : Fleet.errors().front().Message);
  Counters.Steals += Fleet.stats().totalSessionsStolen();
  Counters.InPlaceHits += Fleet.stats().totalInPlaceHits();
  std::string Out;
  for (const SessionOutputEvent &E : Fleet.takeOutputs())
    Out += renderLine(Plan.spec(), E.Session, E.Event);
  return Out;
}

} // namespace

// The acceptance property: random specs x {baseline, optimized} x
// -O0/-O1 x {per-session, batched}, each forked at a mid-stream point;
// the forked run must be byte-identical to the sequential reference in
// which the fork destination is an independent session fed the source's
// head and its own tail. Guards vacuity: outputs nonempty, steals
// happened on the hostile shape, and in-place updates took the
// destructive tier next to the forked lanes' sharing.
TEST(ForkDifferentialTest, ForkEqualsReplayAcrossEnginesAndOptLevels) {
  const uint64_t Seed0 = corpusSeed();
  const size_t NumSpecs = corpusSpecs(12);
  RunCounters Counters;
  size_t OutputBytes = 0;
  for (uint64_t Seed = Seed0; Seed != Seed0 + NumSpecs; ++Seed) {
    RandomSpecOptions Opts;
    Opts.WithQueueOps = true;
    Opts.WithDelay = Seed % 3 == 0;
    Spec S = randomSpec(Seed, Opts);

    std::vector<std::vector<TraceEvent>> Traces;
    for (unsigned Session = 0; Session != 2; ++Session)
      Traces.push_back(randomSpecTrace(S, 60, Seed * 10007 + Session));
    Program Probe = compileOrDie(S, true);
    // Three pinned ids: two live sessions plus the fork destination.
    std::vector<SessionId> Ids = pinnedSessions(Probe, 3);
    std::vector<SessionId> Sessions(Ids.begin(), Ids.begin() + 2);
    const SessionId Src = Ids[0], Dst = Ids[2];
    std::vector<CorpusRecord> Records =
        interleave(S, Sessions, Traces, Seed * 31 + 7);

    // Cut at a seed-dependent point after the source's first record
    // (before it the source is not live, and forkSession rightly
    // refuses) and at or before its last one (so both lanes get a tail
    // of their own), so the corpus sweeps early, middle and late forks.
    size_t FirstSrc = Records.size(), LastSrc = 0;
    for (size_t I = 0; I != Records.size(); ++I)
      if (Records[I].Session == Src) {
        FirstSrc = std::min(FirstSrc, I);
        LastSrc = I;
      }
    if (FirstSrc >= LastSrc)
      continue; // fewer than two source records: no cut leaves a tail
    size_t SplitAt =
        FirstSrc + 1 + (Seed * 2654435761u) % (LastSrc - FirstSrc);

    // The reference trace set: both live sessions in full, plus the
    // fork destination as an independent session fed the source's head
    // and its own tail.
    std::vector<CorpusRecord> WithDst = Records;
    for (size_t I = 0; I != Records.size(); ++I)
      if (Records[I].Session == Src)
        WithDst.push_back({Dst, Records[I].Input, Records[I].Ts,
                           I < SplitAt ? Records[I].V
                                       : destinationValue(Records[I].V)});

    for (Config Cfg : {Config{Seed % 2 == 0, 0}, Config{Seed % 2 == 0, 1}})
      for (FleetMode Mode : {FleetMode::PerSession, FleetMode::Batched}) {
        Program Plan = compileOrDie(S, Cfg.Optimize, Cfg.OptLevel);
        std::string Reference = sequentialReference(Plan, WithDst);
        auto Forked =
            forkedRun(Plan, Mode, Records, SplitAt, Src, Dst, Counters);
        if (!Forked)
          return;
        if (*Forked != Reference) {
          ADD_FAILURE()
              << "forked run diverged from the replay reference (seed "
              << Seed << ", "
              << (Cfg.Optimize ? "optimized" : "baseline") << ", -O"
              << Cfg.OptLevel << ", "
              << (Mode == FleetMode::Batched ? "batched" : "per-session")
              << ", split at " << SplitAt << "/" << Records.size()
              << ")\n"
              << S.str();
          return; // one diverging seed beats the whole sweep
        }
        OutputBytes += Reference.size();
      }
  }
  EXPECT_GT(OutputBytes, 0u) << "vacuous comparison";
  EXPECT_GT(Counters.Steals, 0u)
      << "no lane was ever migrated; the migration axis is vacuous";
  EXPECT_GT(Counters.InPlaceHits, 0u)
      << "no in-place update took the destructive tier; the sharing the "
         "forks create was never put to the test";
}

// Sharers path-copy: after a fork, source and destination hold one
// payload, so whichever of them updates it first must path-copy (a
// miss), which leaves both owning their own wrapper again. The two
// lanes may sit on different shards and update concurrently, so both
// can miss once, never more. Without the fork the same run has no miss
// at all. Each session's outputs must match an independent replay of
// its own trace.
TEST(ForkDifferentialTest, ForkedSessionsPathCopyAroundEachOther) {
  Spec S = seenSet();
  StreamId X = *S.lookup("x");
  std::vector<CorpusRecord> Records;
  for (Time T = 1; T != 60; ++T)
    Records.push_back({1, "x", T, Value::integer(T % 7)});
  for (Time T = 1; T != 60; ++T)
    Records.push_back({2, "x", T, Value::integer(T < 30 ? T % 7 : T % 5)});
  for (unsigned Level : {0u, 1u})
    for (FleetMode Mode : {FleetMode::PerSession, FleetMode::Batched})
      for (bool Fork : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << "-O" << Level << ", "
                     << (Mode == FleetMode::Batched ? "batched"
                                                    : "per-session")
                     << (Fork ? ", forked" : ", not forked"));
        Program Plan = compileOrDie(S, true, Level);
        MonitorFleet Fleet(Plan, hostileOptions(Mode));
        {
          ProducerHandle P = Fleet.producer();
          for (Time T = 1; T != 30; ++T)
            EXPECT_TRUE(P.feed(1, X, T, Value::integer(T % 7)));
          P.close();
        }
        std::string Err;
        if (Fork) {
          ASSERT_TRUE(Fleet.forkSession(1, 2, &Err)) << Err;
        }
        {
          ProducerHandle P = Fleet.producer();
          for (Time T = 30; T != 60; ++T) {
            EXPECT_TRUE(P.feed(1, X, T, Value::integer(T % 7)));
            if (Fork) {
              EXPECT_TRUE(P.feed(2, X, T, Value::integer(T % 5)));
            }
          }
          P.close();
        }
        Fleet.finish();
        ASSERT_FALSE(Fleet.failed());
        std::string Out;
        for (const SessionOutputEvent &E : Fleet.takeOutputs())
          Out += renderLine(Plan.spec(), E.Session, E.Event);
        std::vector<CorpusRecord> Expected(Records.begin(),
                                           Records.begin() + (Fork ? 118
                                                                   : 59));
        EXPECT_EQ(Out, sequentialReference(Plan, Expected));
        const FleetStats &Stats = Fleet.stats();
        if (Fork) {
          EXPECT_GE(Stats.totalInPlaceMisses(), 1u);
          EXPECT_LE(Stats.totalInPlaceMisses(), 2u);
        } else {
          EXPECT_EQ(Stats.totalInPlaceMisses(), 0u);
        }
        // 59 updates of the source; the forked session runs the
        // source's pending timestamp 29 and its own 30.
        EXPECT_EQ(Stats.totalInPlaceHits() + Stats.totalInPlaceMisses(),
                  Fork ? 90u : 59u);
      }
}

// The native tier refuses to fork: compiled lanes are not migratable,
// so the error contract — not a hang, not a crash — is the property.
TEST(ForkDifferentialTest, NativeFleetRefusesFork) {
#if TESSLA_TSAN
  GTEST_SKIP() << "native tier skipped under TSan (uninstrumented dlopen)";
#else
  Program Plan = compileOrDie(seenSet(), true, 1);
  std::string NativeErr;
  std::shared_ptr<NativeMonitorLibrary> Lib =
      compileNative(Plan, NativeCompileOptions(), NativeErr);
  if (!Lib)
    GTEST_SKIP() << "native tier unavailable: " << NativeErr;

  FleetOptions Opts = hostileOptions(FleetMode::Native);
  Opts.NativeFactory = makeNativeEngineFactory(Lib);
  MonitorFleet Fleet(Plan, Opts);
  ASSERT_EQ(Fleet.mode(), FleetMode::Native);
  StreamId X = *Plan.spec().lookup("x");
  {
    ProducerHandle P = Fleet.producer();
    EXPECT_TRUE(P.feed(1, X, 1, Value::integer(3)));
    P.close();
  }
  std::string Err;
  EXPECT_FALSE(Fleet.forkSession(1, 2, &Err));
  EXPECT_NE(Err.find("native"), std::string::npos) << Err;
  Fleet.finish();
  EXPECT_FALSE(Fleet.failed());
#endif
}
