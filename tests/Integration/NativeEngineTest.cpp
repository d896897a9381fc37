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
/// entry is rebuilt rather than trusted, an edit to any runtime header
/// changes the cache key, the precompiled runtime header is used, built
/// once and survives corruption, the fleet falls back to the
/// interpreter when Native mode has no factory, and engines keep the
/// dlopen()d library alive for as long as any lane can still execute
/// code from it (the CI job runs this under ASan, so a dlclose ordering
/// mistake is a use-after-unmap report, not a silent pass).
///
//===----------------------------------------------------------------------===//

#include "tessla/CodeGen/CppEmitter.h"
#include "tessla/CodeGen/NativeCompile.h"
#include "tessla/Program/BinaryCodec.h"
#include "tessla/Program/Serialize.h"
#include "tessla/Runtime/MonitorFleet.h"
#include "tessla/Runtime/TraceIO.h"

#include "../TestSpecs.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <sys/stat.h>
#include <sys/wait.h>
#include <vector>

using namespace tessla;
using namespace tessla::testspecs;
namespace fs = std::filesystem;

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

/// Sets an environment variable for one scope.
class ScopedEnv {
public:
  ScopedEnv(const char *Name, const std::string &Value) : Name(Name) {
    if (const char *Old = std::getenv(Name))
      Saved = Old;
    ::setenv(Name, Value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (Saved)
      ::setenv(Name, Saved->c_str(), 1);
    else
      ::unsetenv(Name);
  }
  ScopedEnv(const ScopedEnv &) = delete;
  ScopedEnv &operator=(const ScopedEnv &) = delete;

private:
  const char *Name;
  std::optional<std::string> Saved;
};

/// A fresh native cache root for one test, removed with it: the
/// precompiled runtime header it builds never touches the shared one.
struct PrivateCacheRoot {
  explicit PrivateCacheRoot(const char *Tag)
      : Dir(freshDir(Tag)), Env("TESSLA_NATIVE_CACHE_DIR", Dir) {}
  ~PrivateCacheRoot() {
    std::error_code Ec;
    fs::remove_all(Dir, Ec);
  }
  std::string Dir;
  ScopedEnv Env;
};

/// Names in \p Dir starting with "pch-": published PCH directories and
/// leftover PCH build directories alike.
std::vector<std::string> pchEntries(const std::string &Dir) {
  std::vector<std::string> Names;
  std::error_code Ec;
  for (const auto &E : fs::directory_iterator(Dir, Ec))
    if (E.path().filename().string().starts_with("pch-"))
      Names.push_back(E.path().filename().string());
  return Names;
}

/// The one precompiled RuntimeSupport.h published under \p Root.
std::string onlyPch(const std::string &Root) {
  std::vector<std::string> Names = pchEntries(Root);
  EXPECT_EQ(Names.size(), 1u);
  return Names.empty() ? std::string()
                       : Root + "/" + Names.front() +
                             "/tessla/CodeGen/RuntimeSupport.h.gch";
}

/// The value's codec bytes: equal bytes mean the same kind and the same
/// bits (a Float's sign and NaN payload included).
std::vector<uint8_t> codecBytes(const Value &V) {
  bc::ByteWriter W;
  bc::writeValue(W, V);
  return W.take();
}

} // namespace

TEST(NativeEngineTest, MissingCompilerReportsDiagnostic) {
  PrivateCacheRoot Root("missing_root");
  Program P = simpleProgram();
  NativeCompileOptions Opts;
  Opts.Compiler = "/nonexistent/tessla-missing-cxx";
  Opts.CacheDir = freshDir("missing");
  std::string Error;
  EXPECT_EQ(compileNative(P, Opts, Error), nullptr);
  // The failed PCH attempt neither shows in the diagnostic nor leaves a
  // directory behind.
  EXPECT_EQ(Error,
            "native compiler '/nonexistent/tessla-missing-cxx' not found");
  EXPECT_TRUE(pchEntries(Root.Dir).empty());

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

  PrivateCacheRoot Root("broken_root");
  Program P = simpleProgram();
  NativeCompileOptions Opts;
  Opts.Compiler = Fake;
  Opts.CacheDir = Dir;
  std::string Error;
  EXPECT_EQ(compileNative(P, Opts, Error), nullptr);
  EXPECT_EQ(Error, "native compiler '" + Fake +
                       "' failed (exit 1): synthetic frontend explosion\n")
      << "compiler stderr must reach the diagnostic";
  EXPECT_TRUE(pchEntries(Root.Dir).empty());
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

// The cache key covers the bytes of every runtime header the monitor
// includes, not only RuntimeSupport.h: an edit to Format.h (included by
// RuntimeSupport.h) must move the slot and rebuild, never serve the
// library built before it, and so must one to RefCntPtr.h, which only
// Queue.h -> List.h reach.
TEST(NativeEngineTest, CacheKeyCoversTransitiveRuntimeHeaders) {
  PrivateCacheRoot Root("header_key");
  std::string Inc = Root.Dir + "/include";
  fs::copy(TESSLA_INCLUDE_DIR, Inc, fs::copy_options::recursive);
  ScopedEnv IncEnv("TESSLA_NATIVE_INCLUDE", Inc);
  Program P = simpleProgram();
  std::vector<TraceEvent> Events = simpleTrace(P.spec());
  std::string Error;
  std::string Expected =
      formatOutputs(P.spec(), runMonitor(P, Events, std::nullopt, &Error));
  ASSERT_EQ(Error, "");

  NativeCompileOptions Opts;
  Opts.CacheDir = Root.Dir + "/libs";
  auto First = compileNative(P, Opts, Error);
  ASSERT_TRUE(First) << Error;
  std::string Before = nativeCachePathFor(P, Opts);
  EXPECT_EQ(First->path(), Before);
  First.reset();

  {
    std::ofstream Out(Inc + "/tessla/Support/Format.h", std::ios::app);
    Out << "// reached only through RuntimeSupport.h\n";
  }
  std::string After = nativeCachePathFor(P, Opts);
  EXPECT_NE(After, Before);
  EXPECT_FALSE(fs::exists(After));
  auto Second = compileNative(P, Opts, Error);
  ASSERT_TRUE(Second) << Error;
  EXPECT_EQ(Second->path(), After);
  EXPECT_TRUE(fs::exists(After));
  auto Engine = makeNativeEngineFactory(Second)(P, true);
  EXPECT_EQ(engineOutput(*Engine, Events, P.spec()), Expected);

  {
    std::ofstream Out(Inc + "/tessla/ADT/RefCntPtr.h", std::ios::app);
    Out << "// reached only through Queue.h and List.h\n";
  }
  std::string Deeper = nativeCachePathFor(P, Opts);
  EXPECT_NE(Deeper, After);
  EXPECT_NE(Deeper, Before);
}

// The PCH tests build with the compiler the tests were built with, which
// precompiles headers; $TESSLA_NATIVE_CXX may name one that cannot, and
// the other tests then check that the plain build still works.

// The monitor build reads the precompiled RuntimeSupport.h: g++'s -H
// marks a PCH it used with "! <path>.gch".
TEST(NativeEngineTest, PrecompiledRuntimeHeaderIsUsed) {
  PrivateCacheRoot Root("pch_used");
  std::string Log = Root.Dir + "/includes.log";
  std::string Wrapper = Root.Dir + "/cxx-with-H";
  {
    std::ofstream Out(Wrapper);
    Out << "#!/bin/sh\nexec " << TESSLA_TEST_CXX << " -H \"$@\" 2>>'" << Log
        << "'\n";
  }
  ASSERT_EQ(::chmod(Wrapper.c_str(), 0755), 0);
  Program P = simpleProgram();
  NativeCompileOptions Opts;
  Opts.Compiler = Wrapper;
  Opts.CacheDir = Root.Dir + "/libs";
  std::string Error;
  auto Lib = compileNative(P, Opts, Error);
  ASSERT_TRUE(Lib) << Error;

  std::string Used = "! " + onlyPch(Root.Dir);
  std::ifstream In(Log);
  bool Found = false;
  for (std::string Line; std::getline(In, Line);)
    Found |= Line == Used;
  EXPECT_TRUE(Found) << "no '" << Used << "' line in " << Log;
}

// The PCH depends on no program: a build for another cache directory
// reuses it instead of precompiling the header again.
TEST(NativeEngineTest, PrecompiledRuntimeHeaderIsBuiltOnce) {
  PrivateCacheRoot Root("pch_once");
  Program P = simpleProgram();
  NativeCompileOptions Opts;
  Opts.Compiler = TESSLA_TEST_CXX;
  Opts.CacheDir = Root.Dir + "/libs-a";
  std::string Error;
  ASSERT_TRUE(compileNative(P, Opts, Error)) << Error;
  std::string Gch = onlyPch(Root.Dir);
  ASSERT_TRUE(fs::exists(Gch));
  fs::file_time_type Built = fs::last_write_time(Gch);

  Opts.CacheDir = Root.Dir + "/libs-b";
  auto Lib = compileNative(P, Opts, Error);
  ASSERT_TRUE(Lib) << Error;
  EXPECT_EQ(Lib->path().rfind(Opts.CacheDir, 0), 0u) << Lib->path();
  EXPECT_EQ(onlyPch(Root.Dir), Gch);
  EXPECT_EQ(fs::last_write_time(Gch), Built);
}

// g++ fails outright on a truncated .gch ("cannot read PCH file"). The
// build retries from the plain header and drops the broken PCH, so the
// next build precompiles it afresh.
TEST(NativeEngineTest, TruncatedPrecompiledHeaderFallsBackToPlainBuild) {
  PrivateCacheRoot Root("pch_truncated");
  Program P = simpleProgram();
  std::vector<TraceEvent> Events = simpleTrace(P.spec());
  std::string Error;
  std::string Expected =
      formatOutputs(P.spec(), runMonitor(P, Events, std::nullopt, &Error));
  ASSERT_EQ(Error, "");

  NativeCompileOptions Opts;
  Opts.Compiler = TESSLA_TEST_CXX;
  Opts.CacheDir = Root.Dir + "/libs-a";
  ASSERT_TRUE(compileNative(P, Opts, Error)) << Error;
  std::string Gch = onlyPch(Root.Dir);
  fs::resize_file(Gch, 4096);

  Opts.CacheDir = Root.Dir + "/libs-b";
  auto Lib = compileNative(P, Opts, Error);
  ASSERT_TRUE(Lib) << Error;
  auto Engine = makeNativeEngineFactory(Lib)(P, true);
  EXPECT_EQ(engineOutput(*Engine, Events, P.spec()), Expected);
  EXPECT_FALSE(fs::exists(Gch));

  Opts.CacheDir = Root.Dir + "/libs-c";
  ASSERT_TRUE(compileNative(P, Opts, Error)) << Error;
  EXPECT_GT(fs::file_size(Gch), 4096u);
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

// Native Float outputs keep their kind and bits: an integral Float (2.0)
// stays a Float rather than becoming the Int 2, -0.0 keeps its sign, and
// inf and NaN survive. A text round trip loses the first two.
TEST(NativeEngineTest, FloatOutputsKeepTheirKindAndBits) {
  Spec S = parseOrDie(R"(
    in x: Int
    def f := toFloat(x)
    def q := f / toFloat(x - 2)
    def r := toFloat(x - 2) / toFloat(x - 2)
    out f
    out q
    out r
  )");
  Program P = compileOrDie(S);
  StreamId X = *S.lookup("x");
  std::vector<TraceEvent> Events = {{X, 1, Value::integer(2)},
                                    {X, 2, Value::integer(3)},
                                    {X, 3, Value::integer(0)}};
  std::string Error;
  std::vector<OutputEvent> Reference =
      runMonitor(P, Events, std::nullopt, &Error);
  ASSERT_EQ(Error, "");
  ASSERT_EQ(Reference.size(), 9u);
  // The trace holds every case this test is about.
  const Value &Q3 = Reference[7].V;
  ASSERT_EQ(S.stream(Reference[7].Id).Name, "q");
  ASSERT_TRUE(Q3.kind() == Value::Kind::Float && Q3.getFloat() == 0 &&
              std::signbit(Q3.getFloat()));
  ASSERT_TRUE(std::isinf(Reference[1].V.getFloat()));
  ASSERT_TRUE(std::isnan(Reference[2].V.getFloat()));

  auto ExpectSame = [&](const std::vector<OutputEvent> &Got,
                        const char *Where) {
    ASSERT_EQ(Got.size(), Reference.size()) << Where;
    for (size_t I = 0; I != Got.size(); ++I) {
      const OutputEvent &G = Got[I], &R = Reference[I];
      EXPECT_EQ(G.Ts, R.Ts) << Where << " #" << I;
      EXPECT_EQ(G.Id, R.Id) << Where << " #" << I;
      EXPECT_EQ(G.V.kind(), R.V.kind())
          << Where << " #" << I << ": " << G.V.str();
      EXPECT_EQ(codecBytes(G.V), codecBytes(R.V))
          << Where << " #" << I << ": " << G.V.str() << " vs " << R.V.str();
    }
    const Value &GotQ3 = Got[7].V;
    EXPECT_TRUE(GotQ3.kind() == Value::Kind::Float &&
                std::signbit(GotQ3.getFloat()))
        << Where << ": q at t=3 must be -0.0, got " << GotQ3.str();
    EXPECT_EQ(formatOutputs(S, Got), formatOutputs(S, Reference)) << Where;
  };

  NativeCompileOptions Opts;
  Opts.CacheDir = freshDir("floats");
  auto Lib = compileNative(P, Opts, Error);
  if (!Lib)
    GTEST_SKIP() << "native tier unavailable: " << Error;

  auto Engine = makeNativeEngineFactory(Lib)(P, true);
  EventBatch Batch;
  for (const auto &[Id, Ts, V] : Events)
    Batch.Records.push_back({0, Id, Ts, V});
  std::vector<OutputEvent> Single =
      runEngineSingle(*Engine, Batch, std::nullopt, &Error);
  ASSERT_EQ(Error, "");
  ExpectSame(Single, "runEngineSingle");

  FleetOptions FOpts;
  FOpts.Shards = 2;
  FOpts.Mode = FleetMode::Native;
  FOpts.NativeFactory = makeNativeEngineFactory(Lib);
  MonitorFleet Fleet(P, FOpts);
  ASSERT_EQ(Fleet.mode(), FleetMode::Native);
  ProducerHandle Prod = Fleet.producer();
  for (const auto &[Id, Ts, V] : Events)
    for (SessionId Session : {3, 4})
      ASSERT_TRUE(Prod.feed(Session, Id, Ts, V));
  Prod.close();
  Fleet.finish();
  ASSERT_FALSE(Fleet.failed());
  std::vector<OutputEvent> PerSession[2];
  for (SessionOutputEvent &E : Fleet.takeOutputs())
    PerSession[E.Session - 3].push_back(std::move(E.Event));
  ExpectSame(PerSession[0], "fleet session 3");
  ExpectSame(PerSession[1], "fleet session 4");
}

namespace {

/// A hand-written shim for the program `in x: Int`, `out y: Int`,
/// `out z: Float` that misbehaves on request: fed x = k, it sends output
/// case k at that timestamp; fed anything else, it sends a well-formed
/// y = x + 1 and z = x. Every payload is a heap buffer of exactly its
/// size, so an over-read on the host is an ASan report.
constexpr const char *HostileShimSource = R"(
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

extern "C" {
typedef void (*OutputFn)(void *Ctx, int64_t Ts, int32_t Output,
                         const uint8_t *Bytes, size_t Size);
}

namespace {
struct Inst {
  OutputFn Fn;
  void *Ctx;
  uint64_t Outputs;
};

void send(Inst *I, int64_t Ts, int32_t Output, std::vector<uint8_t> Bytes) {
  uint8_t *Exact = new uint8_t[Bytes.size() ? Bytes.size() : 1];
  if (!Bytes.empty())
    std::memcpy(Exact, Bytes.data(), Bytes.size());
  ++I->Outputs;
  if (I->Fn)
    I->Fn(I->Ctx, Ts, Output, Exact, Bytes.size());
  delete[] Exact;
}

std::vector<uint8_t> scalar(uint8_t Kind, uint64_t Bits) {
  std::vector<uint8_t> B{Kind};
  for (int I = 0; I != 8; ++I)
    B.push_back(static_cast<uint8_t>(Bits >> (8 * I)));
  return B;
}
} // namespace

extern "C" {
int64_t tessla_native_abi(void) { return ABI; }
uint64_t tessla_native_checksum(void) { return CHECKSUM; }
int32_t tessla_native_num_inputs(void) { return 1; }
const char *tessla_native_input_name(int32_t I) {
  return I == 0 ? "x" : nullptr;
}
void *tessla_native_create(OutputFn Fn, void *Ctx) {
  return new Inst{Fn, Ctx, 0};
}
int32_t tessla_native_feed(void *P, int32_t, int64_t Ts, int64_t X, double,
                           const char *, int32_t) {
  Inst *I = static_cast<Inst *>(P);
  std::vector<uint8_t> Y = scalar(2, static_cast<uint64_t>(X + 1));
  switch (X) {
  case 1: // an output index past the program's outputs
    send(I, Ts, 7, Y);
    break;
  case 2: // truncated bytes
    Y.resize(4);
    send(I, Ts, 0, Y);
    break;
  case 3: // trailing bytes
    Y.push_back(0);
    Y.push_back(0);
    send(I, Ts, 0, Y);
    break;
  case 4: // an unknown kind byte
    send(I, Ts, 1, scalar(9, 0));
    break;
  case 5: // a well-formed value of the wrong kind (Int on a Float output)
    send(I, Ts, 1, Y);
    break;
  case 6: // a negative output index
    send(I, Ts, -1, Y);
    break;
  default: {
    send(I, Ts, 0, Y);
    double Z = static_cast<double>(X);
    uint64_t Bits;
    std::memcpy(&Bits, &Z, sizeof(Bits));
    send(I, Ts, 1, scalar(3, Bits));
  }
  }
  return 1;
}
int32_t tessla_native_finish(void *, int64_t, int32_t) { return 1; }
const char *tessla_native_error(void *) { return nullptr; }
uint64_t tessla_native_num_outputs(void *P) {
  return static_cast<Inst *>(P)->Outputs;
}
void tessla_native_destroy(void *P) { delete static_cast<Inst *>(P); }
}
)";

} // namespace

// A shim that sends malformed outputs fails only the lane it sent them
// on, with an error naming the output stream (or the index, when it is
// out of range); the other lanes of the engine keep running.
TEST(NativeEngineTest, HostileShimFailsOnlyItsOwnLane) {
  Spec S = parseOrDie(R"(
    in x: Int
    def y := x + 1
    def z := toFloat(x)
    out y
    out z
  )");
  Program P = compileOrDie(S);
  StreamId X = *S.lookup("x");
  std::vector<uint8_t> Tpb = serializeProgram(P);
  uint64_t Checksum = tpbChecksum(Tpb.data(), Tpb.size());

  std::string Dir = freshDir("hostile");
  std::string Src = Dir + "/hostile.cpp", So = Dir + "/hostile.so";
  {
    std::ofstream Out(Src);
    Out << "#define ABI " << NativeShimAbiVersion << "\n"
        << "#define CHECKSUM " << Checksum << "ULL\n"
        << HostileShimSource;
  }
  const char *Env = std::getenv("TESSLA_NATIVE_CXX");
  std::string Cxx = Env && *Env ? Env : TESSLA_TEST_CXX;
  std::string Cmd = Cxx + " -std=c++20 -O1 -fPIC -shared '" + Src +
                    "' -o '" + So + "' 2>'" + Dir + "/err.txt'";
  int Rc = std::system(Cmd.c_str());
  if (Rc == -1 || !WIFEXITED(Rc) || WEXITSTATUS(Rc) != 0)
    GTEST_SKIP() << "cannot compile the hostile shim: " << Cmd;
  std::string Error;
  auto Lib = NativeMonitorLibrary::open(So, Checksum, Error);
  ASSERT_TRUE(Lib) << Error;
  auto Engine = makeNativeEngineFactory(Lib)(P, true);

  // Lane 0 stays healthy; lane k sends misbehaviour k at t=2.
  const std::vector<std::string> Expected = {
      "",
      "at t=2: native output index 7 is out of range (the program has 2 "
      "outputs)",
      "at t=2, stream 'y': native output: truncated value",
      "at t=2, stream 'y': native output: 2 trailing bytes after the value",
      "at t=2, stream 'z': native output: unknown value kind 9",
      "at t=2, stream 'z': native output: expected Float, got Int",
      "at t=2: native output index -1 is out of range (the program has 2 "
      "outputs)",
  };
  for (unsigned L = 0; L != Expected.size(); ++L)
    ASSERT_EQ(Engine->addLane(100 + L), L);
  for (unsigned L = 0; L != Expected.size(); ++L) {
    EXPECT_TRUE(Engine->feed(L, X, 1, Value::integer(0))) << L;
    EXPECT_EQ(Engine->feed(L, X, 2, Value::integer(L)), L == 0) << L;
    EXPECT_EQ(Engine->feed(L, X, 3, Value::integer(10)), L == 0) << L;
  }
  Engine->finishAll(std::nullopt);
  for (unsigned L = 1; L != Expected.size(); ++L) {
    EXPECT_TRUE(Engine->laneFailed(L)) << L;
    EXPECT_EQ(Engine->laneError(L), Expected[L]) << L;
  }

  ASSERT_FALSE(Engine->laneFailed(0)) << Engine->laneError(0);
  StreamId Y = *S.lookup("y"), Z = *S.lookup("z");
  std::vector<OutputEvent> Healthy = Engine->takeLaneOutputs(0);
  std::string Rendered;
  for (const OutputEvent &E : Healthy) {
    Rendered += formatEvent(S, E) + "\n";
    EXPECT_EQ(E.V.kind(), E.Id == Y ? Value::Kind::Int : Value::Kind::Float);
    EXPECT_TRUE(E.Id == Y || E.Id == Z);
  }
  EXPECT_EQ(Rendered, "1: y = 1\n1: z = 0\n2: y = 1\n2: z = 0\n"
                      "3: y = 11\n3: z = 10\n");
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
