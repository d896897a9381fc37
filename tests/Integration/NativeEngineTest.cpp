//===- tests/Integration/NativeEngineTest.cpp -------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// Failure paths and lifecycle of the native execution tier
/// (CodeGen/NativeCompile.h). The happy path — byte-identity against the
/// interpreter over a randomized corpus — lives in
/// BatchedDifferentialTest and CodegenParityTest; this file proves the
/// edges the corpus cannot reach: a missing or broken system compiler
/// degrades to a diagnostic (never a crash), a stale or foreign cache
/// entry is rebuilt rather than trusted, the fleet falls back to the
/// interpreter when Native mode has no factory, and engines keep the
/// dlopen()d library alive for as long as any lane can still execute
/// code from it (the CI job runs this under ASan, so a dlclose ordering
/// mistake is a use-after-unmap report, not a silent pass).
///
//===----------------------------------------------------------------------===//

#include "tessla/CodeGen/NativeCompile.h"
#include "tessla/Runtime/MonitorFleet.h"
#include "tessla/Runtime/TraceIO.h"

#include "../TestSpecs.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sys/stat.h>
#include <vector>

using namespace tessla;
using namespace tessla::testspecs;

// Like everywhere else, the native tier stays off the TSan axis: the
// shared object carries no instrumentation.
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

namespace {

std::string freshDir(const char *Tag) {
  std::string Dir = ::testing::TempDir() + "tessla_native_" + Tag + "_XXXXXX";
  std::vector<char> Buf(Dir.begin(), Dir.end());
  Buf.push_back('\0');
  const char *Result = mkdtemp(Buf.data());
  EXPECT_NE(Result, nullptr);
  return Result ? Result : std::string();
}

Program simpleProgram() {
  return compileOrDie(parseOrDie(R"(
    in x: Int
    def s := merge(last(s, x) + x, x)
    out s
  )"));
}

std::vector<TraceEvent> simpleTrace(const Spec &S) {
  StreamId X = *S.lookup("x");
  std::vector<TraceEvent> Events;
  for (int64_t I = 0; I != 20; ++I)
    Events.push_back({X, I * 3, Value::integer(I)});
  return Events;
}

/// Runs \p Engine over \p Events (one lane) and renders the outputs.
std::string engineOutput(ShardEngine &Engine,
                         const std::vector<TraceEvent> &Events,
                         const Spec &S) {
  EventBatch Batch;
  for (const auto &[Id, Ts, V] : Events)
    Batch.Records.push_back({0, Id, Ts, V});
  std::string Error;
  auto Outputs = runEngineSingle(Engine, Batch, std::nullopt, &Error);
  EXPECT_EQ(Error, "");
  return formatOutputs(S, Outputs);
}

} // namespace

TEST(NativeEngineTest, MissingCompilerReportsDiagnostic) {
  Program P = simpleProgram();
  NativeCompileOptions Opts;
  Opts.Compiler = "/nonexistent/tessla-missing-cxx";
  Opts.CacheDir = freshDir("missing");
  std::string Error;
  EXPECT_EQ(compileNative(P, Opts, Error), nullptr);
  EXPECT_NE(Error.find("not found"), std::string::npos) << Error;
  EXPECT_NE(Error.find("/nonexistent/tessla-missing-cxx"),
            std::string::npos)
      << Error;

  // The factory convenience degrades the same way: empty factory plus
  // the diagnostic, so callers can fall back to the interpreter.
  Error.clear();
  EngineFactory Factory = makeNativeEngineFactory(P, Opts, Error);
  EXPECT_FALSE(Factory);
  EXPECT_NE(Error.find("not found"), std::string::npos) << Error;
}

TEST(NativeEngineTest, BrokenCompilerDiagnosticCarriesStderr) {
  std::string Dir = freshDir("broken");
  std::string Fake = Dir + "/failing-cxx";
  {
    std::ofstream Out(Fake);
    Out << "#!/bin/sh\necho 'synthetic frontend explosion' >&2\nexit 1\n";
  }
  ASSERT_EQ(::chmod(Fake.c_str(), 0755), 0);

  Program P = simpleProgram();
  NativeCompileOptions Opts;
  Opts.Compiler = Fake;
  Opts.CacheDir = Dir;
  std::string Error;
  EXPECT_EQ(compileNative(P, Opts, Error), nullptr);
  EXPECT_NE(Error.find("failed"), std::string::npos) << Error;
  EXPECT_NE(Error.find("synthetic frontend explosion"), std::string::npos)
      << "compiler stderr must reach the diagnostic: " << Error;
}

#if !TESSLA_TSAN

TEST(NativeEngineTest, StaleCacheEntryIsRebuilt) {
  Program P = simpleProgram();
  std::vector<TraceEvent> Events = simpleTrace(P.spec());
  std::string Error;
  std::string Expected =
      formatOutputs(P.spec(), runMonitor(P, Events, std::nullopt, &Error));
  ASSERT_EQ(Error, "");
  ASSERT_FALSE(Expected.empty());

  // Plant garbage bytes in the exact slot compileNative() will probe:
  // dlopen fails on it, and the loader must unlink and rebuild instead
  // of surfacing the corrupt file as an error.
  uint64_t Checksum = 0;
  {
    NativeCompileOptions Opts;
    Opts.CacheDir = freshDir("stale");
    std::string Slot = nativeCachePathFor(P, Opts);
    {
      std::ofstream Out(Slot, std::ios::binary);
      Out << "this is not a shared object";
    }
    auto Lib = compileNative(P, Opts, Error);
    ASSERT_TRUE(Lib) << Error;
    EXPECT_EQ(Lib->path(), Slot);
    Checksum = Lib->checksum();
    auto Engine = makeNativeEngineFactory(Lib)(P, true);
    EXPECT_EQ(engineOutput(*Engine, Events, P.spec()), Expected);
  }

  // A *valid* shared object built from a different Program occupying the
  // slot (a fresh cache dir, so nothing is mapped there yet — clobbering
  // a live mapping in place is undefined for any dlopen user): the
  // library loads, but the checksum stamp mismatches, which must equally
  // count as stale and trigger a rebuild.
  NativeCompileOptions Opts;
  Opts.CacheDir = freshDir("foreign");
  Program Other = compileOrDie(parseOrDie(R"(
    in x: Int
    def doubled := x * 2
    out doubled
  )"));
  std::string OtherErr;
  auto OtherLib = compileNative(Other, Opts, OtherErr);
  ASSERT_TRUE(OtherLib) << OtherErr;
  std::string OtherPath = OtherLib->path();
  OtherLib.reset(); // unmap before we copy its bytes around
  std::string Slot = nativeCachePathFor(P, Opts);
  {
    std::ifstream In(OtherPath, std::ios::binary);
    std::ofstream Out(Slot, std::ios::binary);
    Out << In.rdbuf();
  }
  auto Rebuilt = compileNative(P, Opts, Error);
  ASSERT_TRUE(Rebuilt) << Error;
  EXPECT_EQ(Rebuilt->checksum(), Checksum);
  auto Engine2 = makeNativeEngineFactory(Rebuilt)(P, true);
  EXPECT_EQ(engineOutput(*Engine2, Events, P.spec()), Expected);
}

TEST(NativeEngineTest, CacheHitAndForceRebuild) {
  Program P = simpleProgram();
  NativeCompileOptions Opts;
  Opts.CacheDir = freshDir("hit");
  std::string Error;
  auto First = compileNative(P, Opts, Error);
  ASSERT_TRUE(First) << Error;
  auto Second = compileNative(P, Opts, Error);
  ASSERT_TRUE(Second) << Error;
  EXPECT_EQ(Second->path(), First->path());
  EXPECT_EQ(Second->checksum(), First->checksum());

  Opts.Force = true;
  auto Forced = compileNative(P, Opts, Error);
  ASSERT_TRUE(Forced) << Error;
  EXPECT_EQ(Forced->checksum(), First->checksum());
}

// The dlclose ordering contract: a ShardEngine (and through it the
// fleet) keeps the library mapped while any lane can still run. Drop
// every other owner — the factory, the caller's shared_ptr — and the
// engine must still execute; under ASan a premature dlclose turns this
// into a hard failure.
TEST(NativeEngineTest, EngineKeepsLibraryAliveAfterFactoryDies) {
  Program P = simpleProgram();
  std::vector<TraceEvent> Events = simpleTrace(P.spec());
  std::string Error;
  std::string Expected =
      formatOutputs(P.spec(), runMonitor(P, Events, std::nullopt, &Error));
  ASSERT_EQ(Error, "");

  NativeCompileOptions Opts;
  Opts.CacheDir = freshDir("alive");
  std::unique_ptr<ShardEngine> Engine;
  {
    auto Lib = compileNative(P, Opts, Error);
    ASSERT_TRUE(Lib) << Error;
    EngineFactory Factory = makeNativeEngineFactory(std::move(Lib));
    Engine = Factory(P, true);
    // Factory and Lib die here; Engine holds the last reference.
  }
  ASSERT_TRUE(Engine);
  EXPECT_EQ(engineOutput(*Engine, Events, P.spec()), Expected);
  Engine.reset(); // instances must be destroyed before the dlclose
}

// Native feed validation parity: the host-side mirror of Monitor::feed
// must reject malformed input with Monitor's exact wording *before*
// crossing the C boundary, and the failed lane must not disturb others.
TEST(NativeEngineTest, FeedValidationMatchesMonitor) {
  Program P = simpleProgram();
  StreamId X = *P.spec().lookup("x");
  NativeCompileOptions Opts;
  Opts.CacheDir = freshDir("validate");
  std::string Error;
  auto Lib = compileNative(P, Opts, Error);
  ASSERT_TRUE(Lib) << Error;
  auto Engine = makeNativeEngineFactory(Lib)(P, true);

  Engine->addLane(1);
  Engine->addLane(2);
  EXPECT_TRUE(Engine->feed(0, X, 10, Value::integer(1)));
  EXPECT_FALSE(Engine->feed(0, X, 5, Value::integer(2))); // out of order
  EXPECT_TRUE(Engine->laneFailed(0));
  EXPECT_EQ(Engine->laneError(0),
            "at t=5, stream 'x': input events must arrive in timestamp order");
  // The healthy lane keeps running through the same engine.
  EXPECT_TRUE(Engine->feed(1, X, 3, Value::integer(7)));
  Engine->finishAll(std::nullopt);
  EXPECT_FALSE(Engine->laneFailed(1));
  EXPECT_GT(Engine->laneOutputEvents(1), 0u);
}

// A mistyped record fails only its own native lane with the typed
// message of the interpreting engines; the host check stops it before
// the shim would read a String as an Int.
TEST(NativeEngineTest, MistypedRecordFailsOnlyItsSession) {
  Spec S = parseOrDie(QueueTrimSpec);
  Program P = compileOrDie(S);
  StreamId X = *S.lookup("x");
  NativeCompileOptions Opts;
  Opts.CacheDir = freshDir("mistyped");
  std::string Error;
  auto Lib = compileNative(P, Opts, Error);
  if (!Lib)
    GTEST_SKIP() << "native tier unavailable: " << Error;
  std::vector<TraceEvent> Good;
  for (Time Ts = 1; Ts != 20; ++Ts)
    Good.push_back({X, Ts, Value::integer(Ts % 4)});

  FleetOptions FOpts;
  FOpts.Shards = 2;
  FOpts.Mode = FleetMode::Native;
  FOpts.NativeFactory = makeNativeEngineFactory(Lib);
  MonitorFleet Fleet(P, FOpts);
  ProducerHandle Prod = Fleet.producer();
  for (const auto &[Id, Ts, V] : Good) {
    for (SessionId Session : {0, 1})
      EXPECT_TRUE(Prod.feed(Session, Id, Ts, V));
    Prod.feed(2, X, Ts, Ts == 2 ? Value::string("abc") : V);
  }
  Prod.close();
  Fleet.finish();
  std::vector<SessionError> Errors = Fleet.errors();
  ASSERT_EQ(Errors.size(), 1u);
  EXPECT_EQ(Errors[0].Session, 2u);
  EXPECT_EQ(Errors[0].Message, "at t=2, stream 'x': expected Int, got String");
  std::string Reference = formatOutputs(S, runMonitor(P, Good));
  std::string Healthy[2];
  for (const SessionOutputEvent &E : Fleet.takeOutputs())
    if (E.Session < 2)
      Healthy[E.Session] += formatEvent(S, E.Event) + "\n";
  EXPECT_EQ(Healthy[0], Reference);
  EXPECT_EQ(Healthy[1], Reference);
}

#endif // !TESSLA_TSAN

TEST(NativeEngineTest, FleetNativeModeWithoutFactoryFallsBack) {
  Program P = simpleProgram();
  FleetOptions Opts;
  Opts.Shards = 2;
  Opts.Mode = FleetMode::Native;
  // No Opts.NativeFactory: the fleet must degrade to the per-session
  // interpreter and say why, instead of constructing a dead fleet.
  MonitorFleet Fleet(P, Opts);
  EXPECT_EQ(Fleet.mode(), FleetMode::PerSession);
  EXPECT_FALSE(Fleet.engineFallbackReason().empty());
  StreamId X = *P.spec().lookup("x");
  ProducerHandle Prod = Fleet.producer();
  EXPECT_TRUE(Prod.feed(7, X, 1, Value::integer(4)));
  Prod.close();
  Fleet.finish();
  EXPECT_FALSE(Fleet.failed());
  EXPECT_FALSE(Fleet.takeOutputs().empty());
}
