//===- tests/Integration/BatchedDifferentialTest.cpp ------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// The batched engine's contract (Runtime/BatchedMonitor.h): a fleet in
/// Batched mode is *byte-identical* to the per-session engine — which is
/// itself pinned to the sequential Monitor by MonitorFleetTest. We prove
/// it differentially on a randomized corpus (delay, queue and map
/// builtins; both mutability modes; -O0 and -O1), under forced lane
/// migration (all sessions pinned to one home shard of a multi-shard
/// fleet, so idle peers steal lanes mid-run) and mid-stream session
/// joins (lanes added while others are deep into their traces). The
/// corpus size and seed are env-overridable (TESSLA_CORPUS_SPECS /
/// TESSLA_CORPUS_SEED); a failing pair is shrunk by the corpus
/// minimizer, which prints a standalone tesslac repro command.
///
/// CI runs this suite under ASan/UBSan and TSan (the batched-differential
/// job), so "byte-identical" is also checked against the engines' actual
/// memory behavior, not just their outputs.
///
//===----------------------------------------------------------------------===//

#include "tessla/CodeGen/NativeCompile.h"
#include "tessla/Runtime/MonitorFleet.h"
#include "tessla/Runtime/TraceGen.h"

#include "../RandomSpecGen.h"
#include "../TestSpecs.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

// The native tier dlopen()s code built by the *system* compiler, which
// carries no sanitizer instrumentation. TSan in particular cannot model
// synchronization inside an uninstrumented library, so the native axis
// is skipped under TSan (the CI native job runs it without sanitizers
// and under ASan/UBSan instead).
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
constexpr Config Configs[] = {
    {false, 0}, {false, 1}, {true, 0}, {true, 1}};

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

/// Calculation runs of every session through its own sequential Monitor:
/// the per-lane runs a batched fleet spreads over its lockstep sweeps,
/// whatever the migration.
uint64_t sequentialCalcRuns(const Program &Plan,
                            const std::vector<CorpusRecord> &Records) {
  std::map<SessionId, Monitor> PerSession;
  for (const CorpusRecord &R : Records)
    PerSession.try_emplace(R.Session, Plan)
        .first->second.feed(*Plan.spec().lookup(R.Input), R.Ts, R.V);
  uint64_t Runs = 0;
  for (auto &[Session, M] : PerSession) {
    M.finish();
    Runs += M.calcRuns();
  }
  return Runs;
}

/// Migration-hostile fleet shape: 4 shards but every session pinned to
/// one home shard, tiny batches and a hair-trigger steal threshold, so
/// the three idle peers steal lanes (and the home shard then forwards
/// the stolen sessions' records) essentially every run.
FleetOptions migrationHostileOptions(FleetMode Mode) {
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
  MonitorFleet Probe(Plan, migrationHostileOptions(FleetMode::PerSession));
  std::vector<SessionId> Ids;
  for (SessionId Id = 0; Ids.size() < Count && Id < 100000; ++Id)
    if (Probe.shardOf(Id) == 0)
      Ids.push_back(Id);
  EXPECT_EQ(Ids.size(), Count);
  Probe.finish();
  return Ids;
}

/// Runs \p Records (already in the desired arrival order) through a
/// fleet in \p Mode and returns the rendered output trace. For
/// FleetMode::Native the caller passes the engine factory (the library
/// is compiled once per (spec, config) and shared across runs).
std::string fleetRun(const Program &Plan,
                     const std::vector<CorpusRecord> &Records,
                     FleetMode Mode, FleetStats *StatsOut = nullptr,
                     EngineFactory Native = {}) {
  FleetOptions FOpts = migrationHostileOptions(Mode);
  FOpts.NativeFactory = std::move(Native);
  MonitorFleet Fleet(Plan, FOpts);
  EXPECT_EQ(Fleet.mode(), Mode);
  ProducerHandle P = Fleet.producer();
  for (const CorpusRecord &R : Records)
    EXPECT_TRUE(
        P.feed(R.Session, *Plan.spec().lookup(R.Input), R.Ts, R.V));
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

/// Interleaves per-session traces into one arrival order: round-robin
/// with a seeded random pick, per-session order preserved. \p JoinStride
/// staggers session starts — session k joins only after k*JoinStride
/// records of earlier sessions were fed (mid-stream joins / sparse
/// activation: late lanes are added while early lanes are deep into
/// their traces, and at any moment only part of the fleet is active).
std::vector<CorpusRecord>
interleave(const Spec &S, const std::vector<SessionId> &Sessions,
           const std::vector<std::vector<TraceEvent>> &Traces,
           uint64_t Seed, size_t JoinStride = 0) {
  std::mt19937_64 Rng(Seed);
  std::vector<size_t> Next(Traces.size(), 0);
  std::vector<CorpusRecord> Out;
  size_t Remaining = 0;
  for (const auto &T : Traces)
    Remaining += T.size();
  Out.reserve(Remaining);
  while (Remaining != 0) {
    size_t Pick = Rng() % Traces.size();
    if (Pick * JoinStride > Out.size())
      continue; // session Pick has not joined yet
    if (Next[Pick] == Traces[Pick].size())
      continue;
    const auto &[Id, Ts, V] = Traces[Pick][Next[Pick]++];
    Out.push_back({Sessions[Pick], S.stream(Id).Name, Ts, V});
    --Remaining;
  }
  return Out;
}

/// The corpus check for one (spec, records, config): batched fleet ==
/// per-session fleet == sequential reference, byte for byte. On
/// mismatch, shrinks the pair and reports the repro. \returns false on
/// failure so the caller can stop the sweep.
/// Counters the corpus sums to prove its axes ran: steals, in-place
/// hits, and per-lane calculation runs against the lockstep sweeps that
/// executed them (more runs than sweeps means some sweep was wide).
struct CorpusCounts {
  uint64_t Steals = 0;
  uint64_t Hits = 0;
  uint64_t LaneRuns = 0;
  uint64_t Sweeps = 0;
};

bool checkOneConfig(uint64_t Seed, const Spec &S,
                    const std::vector<CorpusRecord> &Records,
                    Config Cfg, const char *TestBinary,
                    CorpusCounts *Counts, size_t *OutputBytes) {
  Program Plan = compileOrDie(S, Cfg.Optimize, Cfg.OptLevel);
  std::string Reference = sequentialReference(Plan, Records);
  FleetStats Stats;
  std::string Batched = fleetRun(Plan, Records, FleetMode::Batched, &Stats);
  std::string PerSession = fleetRun(Plan, Records, FleetMode::PerSession);
  if (Counts) {
    Counts->Steals += Stats.totalSessionsStolen();
    Counts->Hits += Stats.totalInPlaceHits();
    Counts->LaneRuns += sequentialCalcRuns(Plan, Records);
    for (const ShardStats &Sh : Stats.Shards)
      Counts->Sweeps += Sh.LockstepSweeps;
  }
  if (OutputBytes)
    *OutputBytes += Reference.size();
  if (Batched == Reference && PerSession == Reference)
    return true;

  const bool BatchedDiverged = Batched != Reference;
  CorpusFailure Info;
  Info.Seed = Seed;
  Info.Baseline = !Cfg.Optimize;
  Info.OptLevel = Cfg.OptLevel;
  Info.TestBinary = TestBinary;
  auto Fails = [&](const Spec &Shrunk,
                   const std::vector<CorpusRecord> &R) {
    Program P = compileOrDie(Shrunk, Cfg.Optimize, Cfg.OptLevel);
    std::string Ref = sequentialReference(P, R);
    std::string Got =
        fleetRun(P, R,
                 BatchedDiverged ? FleetMode::Batched
                                 : FleetMode::PerSession);
    return Got != Ref;
  };
  ADD_FAILURE() << (BatchedDiverged ? "batched" : "per-session")
                << " fleet diverged from the sequential reference (seed "
                << Seed << ", " << (Cfg.Optimize ? "optimized" : "baseline")
                << ", -O" << Cfg.OptLevel << ")\n"
                << minimizeAndReport(S, Records, Fails, Info);
  return false;
}

} // namespace

// The headline property: >= 50 random specs (queue ops always on, delay
// streams on every third seed) x both mutability modes x -O0/-O1, under
// forced lane migration. Both engines run the same calculation kernel,
// so this proves lane scheduling, layout and migration rather than
// opcode semantics. Guards vacuity four ways: outputs nonempty, steals
// actually happened, in-place updates of the batched engine actually
// took the destructive tier somewhere in the corpus, and some sweep ran
// more than one lane.
TEST(BatchedDifferentialTest, CorpusByteIdenticalUnderMigration) {
  const uint64_t Seed0 = corpusSeed();
  const size_t NumSpecs = corpusSpecs(50);
  CorpusCounts Counts;
  size_t OutputBytes = 0;
  for (uint64_t Seed = Seed0; Seed != Seed0 + NumSpecs; ++Seed) {
    RandomSpecOptions Opts;
    Opts.WithQueueOps = true;
    Opts.WithDelay = Seed % 3 == 0;
    Spec S = randomSpec(Seed, Opts);

    std::vector<std::vector<TraceEvent>> Traces;
    for (unsigned Session = 0; Session != 6; ++Session)
      Traces.push_back(
          randomSpecTrace(S, 80, Seed * 10007 + Session));
    Program Probe = compileOrDie(S, true);
    std::vector<SessionId> Sessions = pinnedSessions(Probe, Traces.size());
    std::vector<CorpusRecord> Records =
        interleave(S, Sessions, Traces, Seed * 31 + 7);

    for (Config Cfg : Configs)
      if (!checkOneConfig(Seed, S, Records, Cfg,
                          "integration_batched_differential_test", &Counts,
                          &OutputBytes))
        return; // one shrunken repro beats 50 raw failures
  }
  EXPECT_GT(OutputBytes, 0u) << "vacuous comparison";
  EXPECT_GT(Counts.Steals, 0u)
      << "no lane was ever migrated; the migration axis is vacuous";
  EXPECT_GT(Counts.Hits, 0u)
      << "no batched in-place update took the destructive tier; the "
         "mutability axis is vacuous";
  EXPECT_GT(Counts.LaneRuns, Counts.Sweeps)
      << "no lockstep sweep ran more than one lane; the batching axis is "
         "vacuous";
}

// The three-way tentpole property: >= 50 random specs x -O0/-O1, each
// run through the interpreter reference, the batched fleet AND the
// native compiled tier (CppEmitter -> system compiler -> dlopen), byte
// for byte. The native library is compiled once per (spec, opt level)
// and shared by all its runs; a machine without a working system
// compiler skips with the compileNative diagnostic rather than failing.
// Native lanes cannot migrate (supportsMigration() is false), so the
// steal pressure of the hostile fleet shape is exercised but inert on
// this axis — the batched run in the same comparison keeps it honest.
TEST(BatchedDifferentialTest, CorpusThreeWayNativeByteIdentical) {
#if TESSLA_TSAN
  GTEST_SKIP() << "native tier runs uninstrumented code; not a TSan axis";
#endif
  const uint64_t Seed0 = corpusSeed();
  const size_t NumSpecs = corpusSpecs(50);
  size_t OutputBytes = 0;
  std::set<Opcode> Ran; // every opcode some compiled program executes
  // The random corpus, then a fixed spec over the same inputs (a, b)
  // whose -O0 and -O1 programs hold every opcode between them, so the
  // guard below holds at any corpus width.
  std::vector<std::pair<uint64_t, Spec>> Corpus;
  for (uint64_t Seed = Seed0; Seed != Seed0 + NumSpecs; ++Seed) {
    RandomSpecOptions Opts;
    Opts.WithQueueOps = true;
    Opts.WithDelay = Seed % 3 == 0;
    Corpus.emplace_back(Seed, randomSpec(Seed, Opts));
  }
  Corpus.emplace_back(Seed0 + NumSpecs, parseOrDie(R"(
    in a: Int
    in b: Int
    def prev := last(merge(s, setEmpty()), merge(a, b))
    def s := setUpdate(prev, a, b)
    def n := setSize(s) + 1
    def big := filter(a, a > 3)
    def da := last(a, a) - a
    def sq := abs(b) * b
    def d := delay(time(b), b)
    def dt := time(d)
    out n
    out big
    out da
    out sq
    out dt
  )"));
  for (const auto &[Seed, S] : Corpus) {
    std::vector<std::vector<TraceEvent>> Traces;
    for (unsigned Session = 0; Session != 4; ++Session)
      Traces.push_back(randomSpecTrace(S, 60, Seed * 10007 + Session));
    Program Probe = compileOrDie(S, true);
    std::vector<SessionId> Sessions = pinnedSessions(Probe, Traces.size());
    std::vector<CorpusRecord> Records =
        interleave(S, Sessions, Traces, Seed * 31 + 7);

    // Alternate the mutability mode with the seed (both native code
    // paths face the reference) while sweeping the -O0/-O1 axis.
    for (Config Cfg : {Config{Seed % 2 == 0, 0}, Config{Seed % 2 == 0, 1}}) {
      Program Plan = compileOrDie(S, Cfg.Optimize, Cfg.OptLevel);
      for (const ProgramStep &Step : Plan.steps())
        Ran.insert(Step.Op);
      std::string NativeErr;
      std::shared_ptr<NativeMonitorLibrary> Lib =
          compileNative(Plan, NativeCompileOptions(), NativeErr);
      if (!Lib)
        GTEST_SKIP() << "native tier unavailable: " << NativeErr;
      std::string Reference = sequentialReference(Plan, Records);
      std::string Batched = fleetRun(Plan, Records, FleetMode::Batched);
      std::string Native = fleetRun(Plan, Records, FleetMode::Native,
                                    nullptr, makeNativeEngineFactory(Lib));
      OutputBytes += Reference.size();
      if (Batched == Reference && Native == Reference)
        continue;

      const bool NativeDiverged = Native != Reference;
      CorpusFailure Info;
      Info.Seed = Seed;
      Info.Baseline = !Cfg.Optimize;
      Info.OptLevel = Cfg.OptLevel;
      Info.TestBinary = "integration_batched_differential_test";
      auto Fails = [&](const Spec &Shrunk,
                       const std::vector<CorpusRecord> &R) {
        Program P = compileOrDie(Shrunk, Cfg.Optimize, Cfg.OptLevel);
        std::string Ref = sequentialReference(P, R);
        if (!NativeDiverged)
          return fleetRun(P, R, FleetMode::Batched) != Ref;
        // Each shrink candidate is a new Program, so the native tier
        // recompiles per step — slow, but only on the failure path.
        std::string Err;
        auto ShrunkLib = compileNative(P, NativeCompileOptions(), Err);
        if (!ShrunkLib)
          return false; // a spec the compiler rejects is not a repro
        return fleetRun(P, R, FleetMode::Native, nullptr,
                        makeNativeEngineFactory(ShrunkLib)) != Ref;
      };
      ADD_FAILURE() << (NativeDiverged ? "native" : "batched")
                    << " fleet diverged from the sequential reference "
                    << "(seed " << Seed << ", "
                    << (Cfg.Optimize ? "optimized" : "baseline") << ", -O"
                    << Cfg.OptLevel << ")\n"
                    << minimizeAndReport(S, Records, Fails, Info);
      return; // one shrunken repro beats 50 raw failures
    }
  }
  EXPECT_GT(OutputBytes, 0u) << "vacuous comparison";
  // This corpus and the parity suites are the checks that share no code
  // with the interpreters' calculation kernel; each opcode must face
  // the native tier somewhere.
  for (uint8_t Op = 0; Op <= static_cast<uint8_t>(Opcode::FusedLiftLift); ++Op)
    EXPECT_TRUE(Ran.count(static_cast<Opcode>(Op)))
        << "no corpus program contains opcode " << unsigned(Op);
}

// Mid-stream joins: sessions enter one by one while earlier lanes are
// already hundreds of records in, so the batched engine keeps adding
// lanes (sparse activation) mid-run. Timestamps are per-session clocks —
// a late join's t=0 calculation runs after its neighbors' clocks are far
// ahead, which is exactly the "lanes advance on their own timelines"
// contract.
TEST(BatchedDifferentialTest, MidStreamJoinsByteIdentical) {
  const uint64_t Seed0 = corpusSeed();
  const size_t NumSpecs = corpusSpecs(50) / 4 + 1;
  size_t OutputBytes = 0;
  for (uint64_t Seed = Seed0; Seed != Seed0 + NumSpecs; ++Seed) {
    RandomSpecOptions Opts;
    Opts.WithDelay = Seed % 2 == 0;
    Spec S = randomSpec(Seed, Opts);
    std::vector<std::vector<TraceEvent>> Traces;
    for (unsigned Session = 0; Session != 10; ++Session)
      Traces.push_back(randomSpecTrace(S, 60, Seed * 555 + Session));
    Program Probe = compileOrDie(S, true);
    std::vector<SessionId> Sessions = pinnedSessions(Probe, Traces.size());
    // Session k joins after ~50 earlier records: the last session joins
    // when the first ones are nearly done. (The stride must stay below
    // the per-session trace length, or a late session could wait on
    // records that will never be fed.)
    std::vector<CorpusRecord> Records =
        interleave(S, Sessions, Traces, Seed * 13 + 1, /*JoinStride=*/50);

    for (Config Cfg : {Config{true, 1}, Config{false, 0}})
      if (!checkOneConfig(Seed, S, Records, Cfg,
                          "integration_batched_differential_test", nullptr,
                          &OutputBytes))
        return;
  }
  EXPECT_GT(OutputBytes, 0u) << "vacuous comparison";
}

// Whole-aggregate outputs through the batched engine: canonical set /
// map / queue renderings must match the sequential engine byte for byte
// (sizes alone could mask ordering or representation leaks).
TEST(BatchedDifferentialTest, WholeAggregateOutputsByteIdentical) {
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
  StreamId X = *S.lookup("x");
  std::vector<std::vector<TraceEvent>> Traces;
  for (unsigned Session = 0; Session != 5; ++Session)
    Traces.push_back(tracegen::randomInts(X, 400, 25, 77 + Session));
  size_t OutputBytes = 0;
  for (Config Cfg : Configs) {
    Program Plan = compileOrDie(S, Cfg.Optimize, Cfg.OptLevel);
    std::vector<SessionId> Sessions = pinnedSessions(Plan, Traces.size());
    std::vector<CorpusRecord> Records =
        interleave(S, Sessions, Traces, 99);
    std::string Reference = sequentialReference(Plan, Records);
    EXPECT_EQ(fleetRun(Plan, Records, FleetMode::Batched), Reference);
    EXPECT_EQ(fleetRun(Plan, Records, FleetMode::PerSession), Reference);
#if !TESSLA_TSAN
    // Canonical aggregate renderings must also survive the C boundary of
    // the native tier (values are re-parsed from their textual form on
    // the way back into the fleet).
    std::string NativeErr;
    if (auto Lib = compileNative(Plan, NativeCompileOptions(), NativeErr)) {
      EXPECT_EQ(fleetRun(Plan, Records, FleetMode::Native, nullptr,
                         makeNativeEngineFactory(Lib)),
                Reference);
    }
#endif
    OutputBytes += Reference.size();
  }
  EXPECT_GT(OutputBytes, 0u) << "vacuous comparison";
}

// Failure isolation parity: a session that violates timestamp order
// must fail with the same message, at the same point, in both engines —
// and its lane's failure must not perturb healthy lanes' outputs.
TEST(BatchedDifferentialTest, FailureIsolationMatchesPerSession) {
  Spec S = seenSet();
  StreamId X = *S.lookup("x");
  Program Plan = compileOrDie(S, true);
  for (FleetMode Mode : {FleetMode::Batched, FleetMode::PerSession}) {
    FleetOptions Opts;
    Opts.Shards = 2;
    Opts.BatchSize = 3;
    Opts.Mode = Mode;
    MonitorFleet Fleet(Plan, Opts);
    ProducerHandle P = Fleet.producer();
    P.feed(1, X, 1, Value::integer(4));
    P.feed(2, X, 10, Value::integer(5));
    P.feed(2, X, 5, Value::integer(6)); // out of order: session fails
    P.feed(1, X, 2, Value::integer(4));
    P.close();
    Fleet.finish();
    EXPECT_TRUE(Fleet.failed());
    auto Errors = Fleet.errors();
    ASSERT_EQ(Errors.size(), 1u);
    EXPECT_EQ(Errors[0].Session, 2u);
    EXPECT_NE(Errors[0].Message.find("order"), std::string::npos);
    unsigned Session1Outputs = 0;
    for (const SessionOutputEvent &E : Fleet.takeOutputs())
      if (E.Session == 1)
        ++Session1Outputs;
    EXPECT_EQ(Session1Outputs, 2u) << "mode " << static_cast<int>(Mode);
  }
}
