//===- perfbench/Workloads.cpp ----------------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// Every workload drives the public API along one path:
//
//   spec source -> compileSpec(-O1) -> .tpb serialize + load -> engine
//   (Monitor | MonitorFleet | FleetServer + remote FleetClient | native
//   fleet) -> finish() -> merged outputs -> digest vs. the reference
//
// The reference is a sequential Monitor over the same source compiled at
// -O0 with the aggregate update optimization off (every aggregate
// persistent), one fresh Monitor per session.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "AllocCounter.h"

#include "tessla/Analysis/Pipeline.h"
#include "tessla/CodeGen/NativeCompile.h"
#include "tessla/Compiler/Compiler.h"
#include "tessla/Lang/Parser.h"
#include "tessla/Opt/PassManager.h"
#include "tessla/Program/Serialize.h"
#include "tessla/Runtime/Checkpoint.h"
#include "tessla/Runtime/Containers.h"
#include "tessla/Runtime/FleetClient.h"
#include "tessla/Runtime/FleetServer.h"
#include "tessla/Runtime/MonitorFleet.h"
#include "tessla/Runtime/TraceGen.h"
#include "tessla/Runtime/Wire.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <span>
#include <thread>
#include <unistd.h>

using namespace tessla;
using namespace perfbench;
namespace fs = std::filesystem;

namespace {

// --- Spec sources (the paper's evaluation specifications) ----------------

const char *const SeenSetSource = R"(
in x: Int
def prev := last(merge(y, setEmpty()), x)
def seen := setContains(prev, x)
def y    := setToggle(prev, x)
out seen
)";

std::string mapWindowSource(int64_t N) {
  std::string NS = std::to_string(N);
  return R"(
in x: Int
def c    := merge(last(c, x) + 1, 0)
def prev := last(merge(m, mapEmpty()), x)
def m    := mapPut(prev, c % )" +
         NS + R"(, x)
def nth  := mapGetOrElse(prev, c % )" +
         NS + R"(, -1)
out nth
)";
}

const char *const DbAccessSource = R"(
in ins: Int
in del: Int
in acc: Int
def anyOp := merge(merge(ins, del), acc)
def prev  := last(merge(live, setEmpty()), anyOp)
def live  := setUpdate(prev, ins, del)
def violation := filter(acc, !setContains(prev, acc))
out violation
)";

// --- Sizes ------------------------------------------------------------------

// solo-aggregate: Fig. 9 Seen Set (domain 20000: the set settles near
// 10 000 live elements) followed by Map Window over N = 200.
constexpr size_t SoloSeenSetEvents = 200000;
constexpr int64_t SoloSeenSetDomain = 20000;
constexpr size_t SoloMapWindowEvents = 200000;
constexpr int64_t SoloMapWindowN = 200;

// fleet-interleaved: 1000 small db-log sessions, one record per session
// per round, 3 shards + this thread as the producer.
constexpr size_t FleetSessions = 1000;
constexpr size_t FleetEventsPerSession = 1000;
constexpr unsigned FleetShards = 3;

// service-fork: 64 Seen Set sessions, head + tail, forked at the head.
constexpr size_t ServiceSessions = 64;
constexpr size_t ServiceEventsPerSession = 4000;
constexpr int64_t ServiceDomain = 20000;
constexpr unsigned ServiceShards = 2;

// native-replay: 64 Seen Set sessions over a small domain.
constexpr size_t NativeSessions = 64;
constexpr size_t NativeEventsPerSession = 20000;
constexpr int64_t NativeDomain = 400;
constexpr unsigned NativeShards = 3;

// Replay arrival: records per session per round.
constexpr size_t ReplayRun = 64;
// The remote producer's batch size (records per Batch frame).
constexpr size_t WireBatchRecords = 256;

// Sessions run through the sequential in-place/persistent pair that
// gives speedup_vs_persistent on the multi-session workloads.
constexpr size_t FleetPairSessions = 100;
constexpr size_t ServicePairSessions = 8;
constexpr size_t NativePairSessions = 4;

// The traced run measures a layer its workload does not cross on an
// episode of the workload that crosses it, at this input size.
constexpr double ProbeScale = 0.1;

// Episodes checked but not timed at the start of a run.
constexpr unsigned WarmupEpisodes = 2;

// Monitor::feed is timed in blocks so the clock reads stay cheap.
constexpr size_t FeedBlock = 1024;

uint64_t mixSeed(uint64_t Seed, uint64_t Stream) {
  // splitmix64 over (seed, stream): independent generator seeds.
  uint64_t Z = Seed * 0x9E3779B97F4A7C15ull + Stream + 1;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

size_t scaled(size_t N, double Scale) {
  return std::max<size_t>(1, static_cast<size_t>(static_cast<double>(N) *
                                                 Scale));
}

[[noreturn]] void die(const std::string &Why) {
  std::fprintf(stderr, "perfbench: %s\n", Why.c_str());
  std::fflush(stderr);
  std::_Exit(3);
}

// --- Jobs -------------------------------------------------------------------

using Trace = std::vector<TraceEvent>;

/// One spec and the traces of its sessions. Session ids are global over
/// the workload: Traces[I] belongs to session FirstSession + I.
struct Job {
  std::string Source;
  std::vector<Trace> Traces;
  SessionId FirstSession = 0;
};

StreamId inputId(const std::string &Source, const char *Name) {
  DiagnosticEngine Diags;
  std::optional<Spec> S = parseSpec(Source, Diags);
  if (!S)
    die("workload spec does not parse:\n" + Diags.str());
  std::optional<StreamId> Id = S->lookup(Name);
  if (!Id)
    die(std::string("workload spec has no input ") + Name);
  return *Id;
}

/// A trace whose monitor fails: the second record goes back in time.
Trace failingTrace(const Trace &From) {
  Trace T(From.begin(), From.begin() + std::min<size_t>(From.size(), 8));
  if (T.size() >= 2)
    std::get<1>(T[1]) = std::get<1>(T[0]) - 1;
  return T;
}

// --- Compilation --------------------------------------------------------------

/// The program under test: compiled from source at -O1, then shipped
/// through the .tpb bundle format and loaded back.
struct Compiled {
  std::unique_ptr<Program> Prog;
  size_t TpbBytes = 0;
};

Compiled compileForEngine(const std::string &Source, bool Traced) {
  DiagnosticEngine Diags;
  std::optional<Program> P;
  if (!Traced) {
    CompileOptions Opts;
    Opts.OptLevel = 1;
    P = compileSpec(Source, Opts, Diags);
  } else {
    // compileSpec's own pipeline, one span per layer.
    std::optional<Spec> S;
    {
      ScopedSpan Sp("lang.parse");
      S = parseSpec(Source, Diags);
    }
    if (S) {
      std::optional<AnalysisResult> A;
      {
        ScopedSpan Sp("analysis.analyze");
        A.emplace(analyzeSpec(std::move(*S), MutabilityOptions()));
      }
      {
        ScopedSpan Sp("program.lower");
        P = Program::compile(*A);
      }
      ScopedSpan Sp("opt.optimize");
      opt::OptOptions OOpts;
      OOpts.Level = 1;
      if (!opt::optimizeProgram(*P, *A, OOpts, Diags))
        P.reset();
    }
  }
  if (!P)
    die("compile failed:\n" + Diags.str());
  ScopedSpan Sp("program.tpb_roundtrip");
  std::vector<uint8_t> Bytes = serializeProgram(*P);
  std::optional<Program> Loaded = loadProgram(Bytes, Diags);
  if (!Loaded)
    die("bundle round trip failed:\n" + Diags.str());
  Compiled C;
  C.Prog = std::make_unique<Program>(std::move(*Loaded));
  C.TpbBytes = Bytes.size();
  return C;
}

std::unique_ptr<Program> compileReference(const std::string &Source) {
  DiagnosticEngine Diags;
  CompileOptions Opts;
  Opts.Optimize = false;
  Opts.OptLevel = 0;
  std::optional<Program> P = compileSpec(Source, Opts, Diags);
  if (!P)
    die("reference compile failed:\n" + Diags.str());
  return std::make_unique<Program>(std::move(*P));
}

// --- Sequential monitors --------------------------------------------------------

/// Feeds \p T into \p M in blocks of FeedBlock records, one \p SpanName
/// span per block (no spans when null).
void feedBlocks(Monitor &M, const Trace &T, const char *SpanName) {
  for (size_t B = 0; B < T.size(); B += FeedBlock) {
    uint32_t Id = SpanName ? Tracer::get().begin(SpanName) : 0;
    size_t E = std::min(B + FeedBlock, T.size());
    bool Ok = true;
    for (size_t I = B; I < E && Ok; ++I) {
      const auto &[Stream, Ts, V] = T[I];
      Ok = M.feed(Stream, Ts, V);
    }
    Tracer::get().end(Id);
    if (!Ok)
      return;
  }
}

struct SeqRun {
  double Seconds = 0;
  uint64_t Events = 0;
};

/// Runs the first \p Limit sessions of \p J through fresh Monitors over
/// \p P, writing each session's result into Out[session]. The clock runs
/// from the first Monitor's construction to the last finish().
/// \p PerturbSession's first output value is replaced (the self-test's
/// corrupted reference record).
SeqRun runSequential(const Program &P, const Job &J, size_t Limit,
                     std::vector<SessionResult> &Out, const char *SpanName,
                     SessionId PerturbSession = ~SessionId(0)) {
  Limit = std::min(Limit, J.Traces.size());
  SeqRun R;
  Clock::time_point Start = Clock::now();
  for (size_t I = 0; I != Limit; ++I) {
    SessionId Session = J.FirstSession + I;
    SessionResult &Res = Out[Session];
    Res = SessionResult();
    Monitor M(P);
    bool Perturb = Session == PerturbSession;
    M.setOutputHandler(
        [&Res, Perturb](Time Ts, StreamId Id, const Value &V) {
          if (Perturb && Res.Digest.Count == 0)
            Res.Digest.add(Ts, Id, Value::string("perturbed"));
          else
            Res.Digest.add(Ts, Id, V);
        });
    feedBlocks(M, J.Traces[I], SpanName);
    M.finish();
    Res.Failed = M.failed();
    R.Events += J.Traces[I].size();
  }
  R.Seconds = secondsSince(Start);
  return R;
}

// --- Replay ---------------------------------------------------------------------

/// Feeds records [Begin, End) of every trace round by round, \p Run
/// records per session per round (Run = 1 is fully interleaved arrival).
/// Traces[S] belongs to session First + S.
template <typename FeedFn>
uint64_t replayRounds(std::span<const Trace> Traces, SessionId First,
                      size_t Begin, size_t End, size_t Run, FeedFn &&Feed) {
  uint64_t Fed = 0;
  for (size_t Base = Begin; Base < End; Base += Run) {
    for (size_t S = 0; S != Traces.size(); ++S) {
      const Trace &T = Traces[S];
      size_t Stop = std::min({Base + Run, End, T.size()});
      for (size_t I = Base; I < Stop; ++I) {
        Feed(First + S, T[I]);
        ++Fed;
      }
    }
  }
  return Fed;
}

size_t longest(std::span<const Trace> Traces) {
  size_t N = 0;
  for (const Trace &T : Traces)
    N = std::max(N, T.size());
  return N;
}

void digestOutputs(const std::vector<SessionOutputEvent> &Outputs,
                   std::vector<SessionResult> &Out) {
  for (const SessionOutputEvent &E : Outputs) {
    if (E.Session >= Out.size())
      Out.resize(E.Session + 1);
    Out[E.Session].Digest.add(E.Event.Ts, E.Event.Id, E.Event.V);
  }
}

// --- The service path -----------------------------------------------------------

/// Forwards to a real transport and records a span around every send(),
/// so the traced run sees how long a producer sat in the socket layer.
class SpanTransport final : public Transport {
public:
  SpanTransport(std::unique_ptr<Transport> Inner, const char *SendSpan)
      : Inner(std::move(Inner)), SendSpan(SendSpan) {}

  bool send(const uint8_t *Data, size_t Size) override {
    ScopedSpan Sp(SendSpan);
    return Inner->send(Data, Size);
  }
  ptrdiff_t recv(uint8_t *Data, size_t Size) override {
    return Inner->recv(Data, Size);
  }
  ptrdiff_t tryRecv(uint8_t *Data, size_t Size) override {
    return Inner->tryRecv(Data, Size);
  }
  void close() override { Inner->close(); }
  void interrupt() override { Inner->interrupt(); }

private:
  std::unique_ptr<Transport> Inner;
  const char *SendSpan;
};

/// Runs FleetServer::serve on a thread; stops and joins it on every path
/// out of the episode.
class ServerThread {
public:
  ServerThread(FleetServer &Server, Listener &L)
      : Server(Server), Thread([&Server, &L] { Server.serve(L); }) {}
  ~ServerThread() {
    Server.requestShutdown();
    Thread.join();
  }
  ServerThread(const ServerThread &) = delete;
  ServerThread &operator=(const ServerThread &) = delete;

private:
  FleetServer &Server;
  std::thread Thread;
};

// --- Episodes -------------------------------------------------------------------

/// One repetition: set-up, run, check, plus the speedup pair. Layer
/// holds a traced episode's per-layer values.
struct Episode {
  double SetupS = 0;
  double RunS = 0;
  uint64_t Events = 0;
  uint64_t Sessions = 0;
  uint64_t Wrong = 0;
  double Speedup = 0;
  std::map<std::string, double> Layer;
};

class Runner {
public:
  explicit Runner(const RunOptions &Opts) : Opts(Opts) {}

  bool prepare();
  Episode episode(unsigned Iter, bool Traced);
  /// Side measurements of the traced run, after the episodes: those every
  /// workload takes (monitor, value), then ownLayers().
  std::map<std::string, double> sideLayers();
  /// Side measurements of the layers only this workload's path crosses.
  std::map<std::string, double> ownLayers();

private:
  const RunOptions &Opts;
  std::vector<Job> Jobs;
  std::vector<std::unique_ptr<Program>> RefProgs; // per job
  std::vector<SessionResult> Reference;           // per session
  uint64_t SessionCount = 0;
  size_t PairLimit = 0;  // sessions per job in the speedup pair
  size_t ForkSources = 0; // service-fork: sessions [0, N) fork into [N, 2N)
  size_t ForkHead = 0;    // service-fork: records fed before the fork

  // Spans of the current episode start here.
  size_t Mark = 0;

  // What the side measurements reuse from the last episode.
  std::vector<Compiled> LastProgs;
  std::vector<uint8_t> LastCheckpoint;
  std::shared_ptr<NativeMonitorLibrary> LastNative;

  void buildJobs();
  double spanTotal(const char *Name) const {
    return Tracer::get().total(Name, Mark);
  }
  void checkSessions(Episode &E, const std::vector<SessionResult> &Observed,
                     size_t Limit) const;
  double pairSpeedup(Episode &E, const std::vector<Compiled> &Progs,
                     bool Traced);
  void soloEpisode(Episode &E, std::vector<Compiled> &Progs, bool Traced);
  void fleetEpisode(Episode &E, std::vector<Compiled> &Progs, unsigned Iter,
                    bool Traced, bool Native);
  void serviceEpisode(Episode &E, std::vector<Compiled> &Progs,
                      unsigned Iter, bool Traced);
  void sideService(std::map<std::string, double> &L);
};

void Runner::buildJobs() {
  double Scale = Opts.Scale;
  uint64_t Seed = Opts.Seed;
  switch (Opts.Kind) {
  case WorkloadKind::SoloAggregate: {
    Job Seen{SeenSetSource, {}, 0};
    Seen.Traces.push_back(tracegen::randomInts(
        inputId(Seen.Source, "x"), scaled(SoloSeenSetEvents, Scale),
        SoloSeenSetDomain, mixSeed(Seed, 1)));
    if (Opts.InjectFailingSession)
      Seen.Traces.push_back(failingTrace(Seen.Traces[0]));
    Job Window{mapWindowSource(SoloMapWindowN), {}, 0};
    Window.FirstSession = Seen.Traces.size();
    Window.Traces.push_back(tracegen::randomInts(
        inputId(Window.Source, "x"), scaled(SoloMapWindowEvents, Scale),
        int64_t(1) << 20, mixSeed(Seed, 2)));
    Jobs.push_back(std::move(Seen));
    Jobs.push_back(std::move(Window));
    PairLimit = ~size_t(0);
    break;
  }
  case WorkloadKind::FleetInterleaved: {
    Job J{DbAccessSource, {}, 0};
    StreamId Ins = inputId(J.Source, "ins"), Del = inputId(J.Source, "del"),
             Acc = inputId(J.Source, "acc");
    size_t Sessions = scaled(FleetSessions, Scale);
    for (size_t I = 0; I != Sessions; ++I) {
      tracegen::DbLogConfig C;
      C.Count = FleetEventsPerSession;
      C.Seed = mixSeed(Seed, 1000 + I);
      J.Traces.push_back(tracegen::dbLog(Ins, Del, Acc, C));
    }
    if (Opts.InjectFailingSession)
      J.Traces.push_back(failingTrace(J.Traces[0]));
    Jobs.push_back(std::move(J));
    PairLimit = scaled(FleetPairSessions, Scale);
    break;
  }
  case WorkloadKind::ServiceFork: {
    // A fork's trace is its source's head followed by a tail of its own,
    // drawn like the source's. A failing session, when injected, comes
    // last and is fed entirely before the fork.
    Job J{SeenSetSource, {}, 0};
    StreamId X = inputId(J.Source, "x");
    ForkSources = scaled(ServiceSessions, Scale);
    size_t Len = scaled(ServiceEventsPerSession, Scale);
    ForkHead = Len / 2;
    for (size_t I = 0; I != ForkSources; ++I)
      J.Traces.push_back(
          tracegen::randomInts(X, Len, ServiceDomain, mixSeed(Seed, I)));
    for (size_t I = 0; I != ForkSources; ++I) {
      Trace Other = tracegen::randomInts(X, Len, ServiceDomain,
                                         mixSeed(Seed, ForkSources + I));
      Trace Fork(J.Traces[I].begin(), J.Traces[I].begin() + ForkHead);
      Fork.insert(Fork.end(), Other.begin() + ForkHead, Other.end());
      J.Traces.push_back(std::move(Fork));
    }
    if (Opts.InjectFailingSession)
      J.Traces.push_back(failingTrace(J.Traces[0]));
    Jobs.push_back(std::move(J));
    PairLimit = scaled(ServicePairSessions, Scale);
    break;
  }
  case WorkloadKind::NativeReplay: {
    Job J{SeenSetSource, {}, 0};
    StreamId X = inputId(J.Source, "x");
    size_t N = scaled(NativeSessions, Scale);
    for (size_t I = 0; I != N; ++I)
      J.Traces.push_back(tracegen::randomInts(
          X, scaled(NativeEventsPerSession, Scale), NativeDomain,
          mixSeed(Seed, I)));
    if (Opts.InjectFailingSession)
      J.Traces.push_back(failingTrace(J.Traces[0]));
    Jobs.push_back(std::move(J));
    PairLimit = scaled(NativePairSessions, Scale);
    break;
  }
  }
}

bool Runner::prepare() {
  buildJobs();
  uint64_t Events = 0;
  for (const Job &J : Jobs) {
    SessionCount += J.Traces.size();
    for (const Trace &T : J.Traces)
      Events += T.size();
  }
  Reference.resize(SessionCount);
  for (const Job &J : Jobs) {
    RefProgs.push_back(compileReference(J.Source));
    runSequential(*RefProgs.back(), J, ~size_t(0), Reference, nullptr,
                  Opts.PerturbReference ? 0 : ~SessionId(0));
  }
  uint64_t Outputs = 0;
  for (const SessionResult &R : Reference)
    Outputs += R.Digest.Count;
  // Non-vacuity: a run that monitors nothing or emits nothing proves
  // nothing.
  if (Events == 0 || Outputs == 0) {
    std::fprintf(stderr,
                 "perfbench: vacuous workload (%llu events, %llu reference "
                 "outputs)\n",
                 static_cast<unsigned long long>(Events),
                 static_cast<unsigned long long>(Outputs));
    return false;
  }
  return true;
}

/// Counts the first \p Limit sessions of every job: each one whose
/// result differs from the reference, or that failed on either side, is
/// wrong.
void Runner::checkSessions(Episode &E,
                           const std::vector<SessionResult> &Observed,
                           size_t Limit) const {
  for (const Job &J : Jobs) {
    size_t N = std::min(Limit, J.Traces.size());
    for (size_t I = 0; I != N; ++I) {
      SessionId S = J.FirstSession + I;
      const SessionResult &R = Reference[S];
      ++E.Sessions;
      if (S >= Observed.size() || Observed[S].Failed || R.Failed ||
          !(Observed[S].Digest == R.Digest))
        ++E.Wrong;
    }
  }
}

/// Times the sequential in-place program against the sequential
/// persistent reference on the pair sessions; returns persistent time /
/// in-place time. The in-place outputs are checked as well.
double Runner::pairSpeedup(Episode &E, const std::vector<Compiled> &Progs,
                           bool Traced) {
  SeqRun InPlace, Persistent;
  std::vector<SessionResult> Seq(SessionCount), Ref(SessionCount);
  for (size_t J = 0; J != Jobs.size(); ++J) {
    SeqRun A = runSequential(*Progs[J].Prog, Jobs[J], PairLimit, Seq,
                             "monitor.feed");
    SeqRun B = runSequential(*RefProgs[J], Jobs[J], PairLimit, Ref, nullptr);
    InPlace.Seconds += A.Seconds;
    InPlace.Events += A.Events;
    Persistent.Seconds += B.Seconds;
  }
  checkSessions(E, Seq, PairLimit);
  if (Traced)
    E.Layer["monitor.feed_ns_per_event"] =
        spanTotal("monitor.feed") * 1e9 / static_cast<double>(InPlace.Events);
  return Persistent.Seconds / InPlace.Seconds;
}

void Runner::soloEpisode(Episode &E, std::vector<Compiled> &Progs,
                         bool Traced) {
  Clock::time_point SetupStart = Clock::now();
  {
    ScopedSpan Sp("setup");
    for (const Job &J : Jobs)
      Progs.push_back(compileForEngine(J.Source, Traced));
  }
  E.SetupS = secondsSince(SetupStart);
  // The engine run is the sequential in-place pass of the speedup pair.
  std::vector<SessionResult> Observed(SessionCount);
  double Persistent = 0;
  for (size_t J = 0; J != Jobs.size(); ++J) {
    SeqRun A = runSequential(*Progs[J].Prog, Jobs[J], ~size_t(0), Observed,
                             "monitor.feed");
    E.RunS += A.Seconds;
    E.Events += A.Events;
    std::vector<SessionResult> Ref(SessionCount);
    Persistent +=
        runSequential(*RefProgs[J], Jobs[J], ~size_t(0), Ref, nullptr)
            .Seconds;
  }
  checkSessions(E, Observed, ~size_t(0));
  E.Speedup = Persistent / E.RunS;
  if (Traced)
    E.Layer["monitor.feed_ns_per_event"] =
        spanTotal("monitor.feed") * 1e9 / static_cast<double>(E.Events);
}

void Runner::fleetEpisode(Episode &E, std::vector<Compiled> &Progs,
                          unsigned Iter, bool Traced, bool Native) {
  const Job &J = Jobs.front();
  std::string CacheDir;
  Clock::time_point SetupStart = Clock::now();
  std::unique_ptr<MonitorFleet> Fleet;
  {
    ScopedSpan Sp("setup");
    Progs.push_back(compileForEngine(J.Source, Traced));
    FleetOptions FOpts;
    if (Native) {
      // A cold native build: a fresh cache directory every episode.
      CacheDir = Opts.WorkDir + "/native-" + std::to_string(::getpid()) +
                 "-" + std::to_string(Iter);
      NativeCompileOptions NOpts;
      NOpts.CacheDir = CacheDir;
      std::string Err;
      {
        ScopedSpan Build("codegen.native_build");
        LastNative = compileNative(*Progs[0].Prog, NOpts, Err);
      }
      if (!LastNative)
        die("native build failed: " + Err);
      FOpts.Mode = FleetMode::Native;
      FOpts.NativeFactory = makeNativeEngineFactory(LastNative);
      FOpts.Shards = NativeShards;
    } else {
      FOpts.Mode = FleetMode::Auto;
      FOpts.Shards = FleetShards;
    }
    Fleet = std::make_unique<MonitorFleet>(*Progs[0].Prog, FOpts);
  }
  E.SetupS = secondsSince(SetupStart);
  if (Native && Fleet->mode() != FleetMode::Native)
    die("native fleet fell back: " + Fleet->engineFallbackReason());

  std::optional<AllocScope> Allocs;
  if (Traced)
    Allocs.emplace();
  std::vector<SessionOutputEvent> Outputs;
  Clock::time_point Start = Clock::now();
  {
    ScopedSpan Ingest("fleet.ingest");
    ProducerHandle P = Fleet->producer();
    E.Events = replayRounds(
        J.Traces, J.FirstSession, 0, longest(J.Traces),
        Native ? ReplayRun : 1, [&](SessionId S, const TraceEvent &Ev) {
          const auto &[Stream, Ts, V] = Ev;
          if (P.tryFeed(S, Stream, Ts, V) == FeedStatus::WouldBlock) {
            ScopedSpan Wait("fleet.feed_blocked");
            P.feed(S, Stream, Ts, V);
          }
        });
    P.close();
  }
  {
    ScopedSpan Sp("fleet.finish");
    Fleet->finish();
  }
  {
    ScopedSpan Sp("fleet.merge");
    Outputs = Fleet->takeOutputs();
  }
  E.RunS = secondsSince(Start);
  uint64_t AllocCalls = Allocs ? Allocs->delta().Calls : 0;
  Allocs.reset();

  std::vector<SessionResult> Observed(SessionCount);
  digestOutputs(Outputs, Observed);
  for (const SessionError &Err : Fleet->errors())
    if (Err.Session < Observed.size())
      Observed[Err.Session].Failed = true;
  checkSessions(E, Observed, ~size_t(0));

  if (Traced) {
    const FleetStats &St = Fleet->stats();
    double Events = static_cast<double>(E.Events);
    uint64_t MaxEvents = 0, Sum = 0, Forwarded = 0, Stalls = 0, Sweeps = 0;
    unsigned BatchedShards = 0;
    for (const ShardStats &S : St.Shards) {
      MaxEvents = std::max(MaxEvents, S.EventsProcessed);
      Sum += S.EventsProcessed;
      Forwarded += S.RecordsForwarded;
      Stalls += S.BackpressureStalls;
      Sweeps += S.LockstepSweeps;
      BatchedShards += S.Engine == "batched";
    }
    double Shards = static_cast<double>(St.Shards.size());
    double Mean = static_cast<double>(Sum) / Shards;
    double IngestS = spanTotal("fleet.ingest");
    E.Layer["fleet.ingest_s"] = IngestS;
    E.Layer["fleet.feed_blocked_share"] =
        spanTotal("fleet.feed_blocked") / IngestS;
    E.Layer["fleet.finish_s"] = spanTotal("fleet.finish");
    E.Layer["fleet.merge_s"] = spanTotal("fleet.merge");
    E.Layer["fleet.shard_skew"] = Mean > 0 ? MaxEvents / Mean : 0;
    E.Layer["fleet.steals"] = static_cast<double>(St.totalSessionsStolen());
    E.Layer["fleet.records_forwarded"] = static_cast<double>(Forwarded);
    E.Layer["fleet.backpressure_stalls"] = static_cast<double>(Stalls);
    E.Layer["fleet.lockstep_sweeps_per_event"] = Sweeps / Events;
    E.Layer["fleet.batched_shard_share"] = BatchedShards / Shards;
    E.Layer["fleet.allocs_per_event"] = AllocCalls / Events;
    if (Native) {
      E.Layer["codegen.native_build_s"] = spanTotal("codegen.native_build");
      E.Layer["native.outputs_per_event"] =
          static_cast<double>(St.totalOutputs()) / Events;
    }
  }
  Fleet.reset();
  if (!CacheDir.empty()) {
    std::error_code Ec;
    fs::remove_all(CacheDir, Ec);
  }
}

void Runner::serviceEpisode(Episode &E, std::vector<Compiled> &Progs,
                            unsigned Iter, bool Traced) {
  const Job &J = Jobs.front();
  std::span<const Trace> All(J.Traces);
  size_t N = ForkSources;
  std::string Path = Opts.WorkDir + "/svc-" + std::to_string(::getpid()) +
                     "-" + std::to_string(Iter) + ".sock";
  std::string Err;
  Clock::time_point SetupStart = Clock::now();
  std::unique_ptr<FleetServer> Server;
  std::unique_ptr<Listener> L;
  std::optional<ServerThread> Serving;
  std::unique_ptr<FleetClient> Client;
  {
    ScopedSpan Sp("setup");
    Progs.push_back(compileForEngine(J.Source, Traced));
    FleetOptions FOpts;
    FOpts.Shards = ServiceShards;
    Server = std::make_unique<FleetServer>(*Progs[0].Prog, FOpts);
    L = listenUnixSocket(Path, &Err);
    if (!L)
      die("listen failed: " + Err);
    Serving.emplace(*Server, *L);
    // The first dial is the control connection, every later one a
    // producer's.
    unsigned Dials = 0;
    Client = makeRemoteClient(
        [&Path, Dials](std::string *DialErr) mutable
        -> std::unique_ptr<Transport> {
          std::unique_ptr<Transport> T = connectUnixSocket(Path, DialErr);
          if (!T)
            return nullptr;
          return std::make_unique<SpanTransport>(
              std::move(T), Dials++ == 0 ? "transport.send_control"
                                         : "transport.send");
        },
        &Err);
    if (!Client)
      die("connect failed: " + Err);
  }
  E.SetupS = secondsSince(SetupStart);

  uint64_t Busy = 0;
  // Feeds records [Begin, End) of Traces (sessions First, First + 1, ...)
  // through a new producer connection.
  auto Ingest = [&](std::span<const Trace> Traces, SessionId First,
                    size_t Begin, size_t End) {
    ScopedSpan Sp("client.ingest");
    std::unique_ptr<ClientProducer> P = Client->producer(&Err);
    if (!P)
      die("producer failed: " + Err);
    E.Events += replayRounds(Traces, First, Begin, End, ReplayRun,
                             [&](SessionId S, const TraceEvent &Ev) {
                               const auto &[Stream, Ts, V] = Ev;
                               P->feed(S, Stream, Ts, V);
                             });
    if (!P->close())
      die("producer close failed: " + P->error());
    Busy += P->busySignals();
  };

  std::vector<double> ForkUs;
  double SnapshotS = 0;
  std::optional<FleetFinish> Fin;
  Clock::time_point Start = Clock::now();
  // The head of every source, and the whole of an injected failing
  // session (the last trace, past the forks).
  Ingest(All.first(N), 0, 0, ForkHead);
  if (All.size() > 2 * N)
    Ingest(All.subspan(2 * N), 2 * N, 0, longest(All.subspan(2 * N)));
  for (size_t S = 0; S != N; ++S) {
    ScopedSpan Sp("client.fork");
    Clock::time_point T0 = Clock::now();
    if (!Client->forkSession(S, N + S, &Err))
      die("fork failed: " + Err);
    ForkUs.push_back(secondsSince(T0) * 1e6);
  }
  {
    ScopedSpan Sp("checkpoint.snapshot");
    Clock::time_point T0 = Clock::now();
    std::optional<std::vector<uint8_t>> Bytes = Client->snapshot(&Err);
    SnapshotS = secondsSince(T0);
    if (!Bytes)
      die("snapshot failed: " + Err);
    LastCheckpoint = std::move(*Bytes);
  }
  // The tail of every source and every fork.
  Ingest(All.first(2 * N), 0, ForkHead, longest(All.first(2 * N)));
  {
    ScopedSpan Sp("client.finish");
    Fin = Client->finish(&Err);
  }
  E.RunS = secondsSince(Start);
  if (!Fin)
    die("finish failed: " + Err);

  std::vector<SessionResult> Observed(SessionCount);
  digestOutputs(Fin->Outputs, Observed);
  checkSessions(E, Observed, ~size_t(0));
  // The wire carries the failed-session count, not the ids.
  E.Wrong = std::max<uint64_t>(E.Wrong, Fin->FailedSessions);

  if (Traced) {
    double IngestS = spanTotal("client.ingest");
    E.Layer["client.feed_blocked_share"] =
        spanTotal("transport.send") / IngestS;
    E.Layer["client.busy_signals"] = static_cast<double>(Busy);
    E.Layer["client.finish_s"] = spanTotal("client.finish");
    E.Layer["client.fork_p50_us"] = median(ForkUs);
    E.Layer["checkpoint.snapshot_s"] = SnapshotS;
    E.Layer["checkpoint.bytes"] = static_cast<double>(LastCheckpoint.size());
  }
  Client.reset();
  Serving.reset();
  L.reset();
  std::error_code Ec;
  fs::remove(Path, Ec);
}

Episode Runner::episode(unsigned Iter, bool Traced) {
  Episode E;
  Mark = Tracer::get().mark();
  std::vector<Compiled> Progs;
  switch (Opts.Kind) {
  case WorkloadKind::SoloAggregate:
    soloEpisode(E, Progs, Traced);
    break;
  case WorkloadKind::FleetInterleaved:
    fleetEpisode(E, Progs, Iter, Traced, /*Native=*/false);
    break;
  case WorkloadKind::ServiceFork:
    serviceEpisode(E, Progs, Iter, Traced);
    break;
  case WorkloadKind::NativeReplay:
    fleetEpisode(E, Progs, Iter, Traced, /*Native=*/true);
    break;
  }
  if (Opts.Kind != WorkloadKind::SoloAggregate)
    E.Speedup = pairSpeedup(E, Progs, Traced);
  if (Traced) {
    double Steps = 0, Bytes = 0;
    for (const Compiled &C : Progs) {
      Steps += static_cast<double>(C.Prog->steps().size());
      Bytes += static_cast<double>(C.TpbBytes);
    }
    E.Layer["lang.parse_s"] = spanTotal("lang.parse");
    E.Layer["analysis.analyze_s"] = spanTotal("analysis.analyze");
    E.Layer["program.lower_s"] = spanTotal("program.lower");
    E.Layer["opt.optimize_s"] = spanTotal("opt.optimize");
    E.Layer["program.tpb_roundtrip_s"] = spanTotal("program.tpb_roundtrip");
    E.Layer["program.steps"] = Steps;
    E.Layer["program.tpb_bytes"] = Bytes;
  }
  LastProgs = std::move(Progs);
  return E;
}

/// ns per Value::setCow(true) update (toggle one element) on a set of
/// \p SetSize elements, with the handle uniquely held or shared with one
/// other handle at every update.
double setUpdateNs(size_t SetSize, bool Shared, uint64_t Seed) {
  SetSize = std::max<size_t>(SetSize, 1);
  Value V = Value::emptySet();
  for (size_t I = 0; I != SetSize; ++I) {
    SetCow C = V.setCow(true);
    C.add(Value::integer(static_cast<int64_t>(I)));
    V = std::move(C).finish();
  }
  constexpr size_t Ops = 100000;
  std::mt19937_64 Rng(Seed);
  std::uniform_int_distribution<int64_t> Pick(
      0, 2 * static_cast<int64_t>(SetSize) - 1);
  std::vector<Value> Keys;
  Keys.reserve(Ops);
  for (size_t I = 0; I != Ops; ++I)
    Keys.push_back(Value::integer(Pick(Rng)));
  Value Sharer;
  Clock::time_point Start = Clock::now();
  for (const Value &K : Keys) {
    if (Shared)
      Sharer = V;
    SetCow C = V.setCow(true);
    if (!C.remove(K))
      C.add(K);
    V = std::move(C).finish();
  }
  return secondsSince(Start) * 1e9 / Ops;
}

void Runner::sideService(std::map<std::string, double> &L) {
  // The producer's own batches, in the order it sent them.
  const Job &J = Jobs.front();
  std::span<const Trace> Sources(J.Traces.data(), 2 * ForkSources);
  std::vector<EventBatch> Batches(1);
  auto Add = [&](SessionId S, const TraceEvent &Ev) {
    const auto &[Stream, Ts, V] = Ev;
    if (Batches.back().Records.size() == WireBatchRecords)
      Batches.emplace_back();
    Batches.back().Records.push_back({S, Stream, Ts, V});
  };
  uint64_t Records =
      replayRounds(Sources.first(ForkSources), 0, 0, ForkHead, ReplayRun,
                   Add) +
      replayRounds(Sources, 0, ForkHead, longest(Sources), ReplayRun, Add);
  std::vector<double> EncNs, DecNs;
  size_t FrameBytes = 0;
  for (int Rep = 0; Rep != 3; ++Rep) {
    std::vector<std::vector<uint8_t>> Payloads;
    Payloads.reserve(Batches.size());
    Clock::time_point T0 = Clock::now();
    for (const EventBatch &B : Batches)
      Payloads.push_back(encodeEventBatch(B));
    EncNs.push_back(secondsSince(T0) * 1e9 / Records);
    std::string Err;
    T0 = Clock::now();
    for (const std::vector<uint8_t> &P : Payloads)
      if (!decodeEventBatch(P.data(), P.size(), Err))
        die("wire decode failed: " + Err);
    DecNs.push_back(secondsSince(T0) * 1e9 / Records);
    FrameBytes = 0;
    for (const std::vector<uint8_t> &P : Payloads)
      FrameBytes += encodeFrame(FrameType::Batch, P).size();
  }
  L["wire.encode_ns_per_record"] = median(EncNs);
  L["wire.decode_ns_per_record"] = median(DecNs);
  L["wire.bytes_per_record"] = static_cast<double>(FrameBytes) / Records;

  DiagnosticEngine Diags;
  Clock::time_point T0 = Clock::now();
  std::optional<FleetCheckpoint> C =
      loadCheckpoint(LastCheckpoint, *LastProgs.front().Prog, Diags);
  L["checkpoint.load_s"] = secondsSince(T0);
  if (!C)
    die("checkpoint load failed:\n" + Diags.str());
}

std::map<std::string, double> Runner::sideLayers() {
  std::map<std::string, double> L;
  // In-place hit rate as seen from outside: after every feed, compare
  // each aggregate slot's identity with the one it had after the
  // previous feed. Also finds the largest set a session reaches.
  uint64_t Updates = 0, Kept = 0;
  size_t MaxSet = 0;
  std::vector<const void *> Prev, Cur;
  for (size_t J = 0; J != Jobs.size(); ++J) {
    size_t N = std::min(PairLimit, Jobs[J].Traces.size());
    for (size_t I = 0; I != N; ++I) {
      Monitor M(*LastProgs[J].Prog);
      Prev.clear();
      for (const TraceEvent &Ev : Jobs[J].Traces[I]) {
        const auto &[Stream, Ts, V] = Ev;
        if (!M.feed(Stream, Ts, V))
          break;
        Cur.clear();
        M.visitValues([&](const Value &Slot) {
          Cur.push_back(Slot.aggregateIdentity());
          if (Slot.kind() == Value::Kind::Set)
            MaxSet = std::max(MaxSet, Slot.asSet().size());
        });
        for (size_t K = 0; K < std::min(Prev.size(), Cur.size()); ++K)
          if (Prev[K] && Cur[K]) {
            ++Updates;
            Kept += Prev[K] == Cur[K];
          }
        std::swap(Prev, Cur);
      }
      M.finish();
    }
  }
  L["monitor.aggregate_kept_ratio"] =
      Updates ? static_cast<double>(Kept) / Updates : 0;
  // The workload's shape, for comparing seeds.
  std::fprintf(stderr, "perfbench: largest live set: %zu elements\n", MaxSet);

  // Allocations of the sequential in-place monitor.
  {
    std::vector<SessionResult> Out(SessionCount);
    uint64_t Events = 0;
    AllocScope Scope;
    for (size_t J = 0; J != Jobs.size(); ++J)
      Events += runSequential(*LastProgs[J].Prog, Jobs[J], PairLimit, Out,
                              nullptr)
                    .Events;
    AllocCounts A = Scope.delta();
    L["monitor.allocs_per_event"] = static_cast<double>(A.Calls) / Events;
    L["monitor.alloc_bytes_per_event"] =
        static_cast<double>(A.Bytes) / Events;
  }

  L["value.set_update_unique_ns"] = setUpdateNs(MaxSet, false, Opts.Seed);
  L["value.set_update_shared_ns"] = setUpdateNs(MaxSet, true, Opts.Seed);
  L.merge(ownLayers());
  return L;
}

std::map<std::string, double> Runner::ownLayers() {
  std::map<std::string, double> L;
  if (Opts.Kind == WorkloadKind::ServiceFork)
    sideService(L);
  if (Opts.Kind == WorkloadKind::NativeReplay) {
    // One lane on the native engine, fed one session's trace.
    const Trace &T = Jobs.front().Traces.front();
    std::unique_ptr<ShardEngine> Engine =
        makeNativeEngineFactory(LastNative)(*LastProgs.front().Prog, true);
    unsigned Lane = Engine->addLane(0);
    Clock::time_point T0 = Clock::now();
    for (const TraceEvent &Ev : T) {
      const auto &[Stream, Ts, V] = Ev;
      Engine->feed(Lane, Stream, Ts, V);
    }
    Engine->finishAll();
    L["native.feed_ns_per_event"] = secondsSince(T0) * 1e9 / T.size();
    if (Engine->laneFailed(Lane))
      die("native lane failed: " + Engine->laneError(Lane));
  }
  return L;
}

// --- Reporting ------------------------------------------------------------------

struct MetricInfo {
  const char *Name;
  const char *Unit;
};

/// Every per-layer metric, in BENCHMARK.json order.
const MetricInfo PerLayer[] = {
    {"lang.parse_s", "s"},
    {"analysis.analyze_s", "s"},
    {"program.lower_s", "s"},
    {"opt.optimize_s", "s"},
    {"program.steps", "count"},
    {"program.tpb_bytes", "bytes"},
    {"program.tpb_roundtrip_s", "s"},
    {"codegen.native_build_s", "s"},
    {"monitor.feed_ns_per_event", "ns"},
    {"monitor.allocs_per_event", "count"},
    {"monitor.alloc_bytes_per_event", "bytes"},
    {"monitor.aggregate_kept_ratio", "ratio"},
    {"value.set_update_unique_ns", "ns"},
    {"value.set_update_shared_ns", "ns"},
    {"fleet.ingest_s", "s"},
    {"fleet.feed_blocked_share", "ratio"},
    {"fleet.finish_s", "s"},
    {"fleet.merge_s", "s"},
    {"fleet.shard_skew", "ratio"},
    {"fleet.steals", "count"},
    {"fleet.records_forwarded", "count"},
    {"fleet.backpressure_stalls", "count"},
    {"fleet.lockstep_sweeps_per_event", "ratio"},
    {"fleet.batched_shard_share", "ratio"},
    {"fleet.allocs_per_event", "count"},
    {"wire.encode_ns_per_record", "ns"},
    {"wire.decode_ns_per_record", "ns"},
    {"wire.bytes_per_record", "bytes"},
    {"client.feed_blocked_share", "ratio"},
    {"client.busy_signals", "count"},
    {"client.finish_s", "s"},
    {"client.fork_p50_us", "us"},
    {"checkpoint.snapshot_s", "s"},
    {"checkpoint.bytes", "bytes"},
    {"checkpoint.load_s", "s"},
    {"native.feed_ns_per_event", "ns"},
    {"native.outputs_per_event", "ratio"},
    {"trace.events_per_s_untraced", "1/s"},
    {"trace.events_per_s_traced", "1/s"},
    {"trace.overhead_share", "ratio"},
    {"check.error_rate", "ratio"},
};

/// The workload whose path crosses each layer that not every workload
/// crosses, by metric-name prefix.
struct LayerOwner {
  WorkloadKind Kind;
  std::vector<std::string> Prefixes;
};
const LayerOwner LayerOwners[] = {
    {WorkloadKind::FleetInterleaved, {"fleet."}},
    {WorkloadKind::ServiceFork, {"wire.", "client.", "checkpoint."}},
    {WorkloadKind::NativeReplay, {"codegen.", "native."}},
};

bool ownedBy(const std::string &Name, const LayerOwner &O) {
  for (const std::string &P : O.Prefixes)
    if (Name.starts_with(P))
      return true;
  return false;
}

/// Fills in the metrics of the layers that \p Opts's workload does not
/// cross, from one traced episode of the workload that crosses them, run
/// on the same seed at ProbeScale. Its sessions are checked like the
/// main run's and count in \p Rep.
void probeLayers(const RunOptions &Opts, std::map<std::string, double> &Values,
                 RunReport &Rep) {
  for (const LayerOwner &O : LayerOwners) {
    bool Missing = false;
    for (const MetricInfo &M : PerLayer)
      Missing |= ownedBy(M.Name, O) && !Values.count(M.Name);
    if (!Missing)
      continue;
    RunOptions P = Opts;
    P.Kind = O.Kind;
    P.Scale = ProbeScale;
    Runner R(P);
    if (!R.prepare())
      die("probe workload is vacuous");
    Tracer::get().enable(true);
    Episode E;
    {
      ScopedSpan Sp("probe");
      E = R.episode(1, /*Traced=*/true);
    }
    Tracer::get().enable(false);
    Rep.Attempted += E.Sessions;
    Rep.Failed += E.Wrong;
    E.Layer.merge(R.ownLayers());
    for (const auto &[Name, Value] : E.Layer)
      if (ownedBy(Name, O))
        Values.emplace(Name, Value);
  }
}

} // namespace

std::optional<WorkloadKind> perfbench::parseWorkload(const std::string &Name) {
  if (Name == "solo-aggregate")
    return WorkloadKind::SoloAggregate;
  if (Name == "fleet-interleaved")
    return WorkloadKind::FleetInterleaved;
  if (Name == "service-fork")
    return WorkloadKind::ServiceFork;
  if (Name == "native-replay")
    return WorkloadKind::NativeReplay;
  return std::nullopt;
}

std::optional<RunReport> perfbench::runWorkload(const RunOptions &Opts) {
  Runner R(Opts);
  if (!R.prepare())
    return std::nullopt;

  RunReport Rep;
  std::vector<double> Setup, Rate, TracedRate, Speedup;
  std::map<std::string, std::vector<double>> Layers;
  Clock::time_point Start = Clock::now();
  for (unsigned Iter = 0;; ++Iter) {
    // The first episodes warm the allocator and caches up (the second
    // one still runs slow now and then): they are checked but not timed.
    // The traced run then alternates untraced and traced episodes, so
    // both throughputs come from one process and one input.
    bool Warmup = Iter < WarmupEpisodes;
    bool Traced = Opts.Trace && !Warmup && Iter % 2 == 0;
    Tracer::get().enable(Traced);
    Episode E = R.episode(Iter, Traced);
    Tracer::get().enable(false);
    if (E.Events == 0 || E.RunS <= 0) {
      std::fprintf(stderr, "perfbench: an episode monitored no events\n");
      return std::nullopt;
    }
    Rep.Attempted += E.Sessions;
    Rep.Failed += E.Wrong;
    std::fprintf(stderr,
                 "perfbench: episode %u%s: setup %.4f s, %llu events in "
                 "%.4f s, speedup %.3f, %llu/%llu sessions wrong\n",
                 Iter, Warmup ? " (warm-up)" : Traced ? " (traced)" : "",
                 E.SetupS, static_cast<unsigned long long>(E.Events), E.RunS,
                 E.Speedup, static_cast<unsigned long long>(E.Wrong),
                 static_cast<unsigned long long>(E.Sessions));
    if (!Warmup) {
      Setup.push_back(E.SetupS);
      (Traced ? TracedRate : Rate).push_back(E.Events / E.RunS);
      Speedup.push_back(E.Speedup);
      for (const auto &[Name, Value] : E.Layer)
        Layers[Name].push_back(Value);
    }
    if (Iter >= Opts.MinEpisodes && secondsSince(Start) >= Opts.Seconds)
      break;
  }
  Rep.Correct = Rep.Failed == 0;

  if (!Opts.Trace) {
    Rep.Metrics = {
        {"events_per_s", median(Rate), "1/s"},
        {"setup_s", median(Setup), "s"},
        {"peak_rss_mib", peakRssMiB(), "MiB"},
        {"speedup_vs_persistent", median(Speedup), "x"},
    };
    return Rep;
  }

  std::map<std::string, double> Values;
  for (const auto &[Name, Samples] : Layers)
    Values[Name] = median(Samples);
  for (const auto &[Name, Value] : R.sideLayers())
    Values[Name] = Value;
  probeLayers(Opts, Values, Rep);
  Rep.Correct = Rep.Failed == 0;
  double Untraced = median(Rate), Traced = median(TracedRate);
  Values["trace.events_per_s_untraced"] = Untraced;
  Values["trace.events_per_s_traced"] = Traced;
  Values["trace.overhead_share"] = 1.0 - Traced / Untraced;
  Values["check.error_rate"] =
      static_cast<double>(Rep.Failed) / static_cast<double>(Rep.Attempted);
  for (const MetricInfo &M : PerLayer)
    Rep.Metrics.push_back({M.Name, Values[M.Name], M.Unit});
  return Rep;
}
