//===- tessla/Runtime/MonitorFleet.h - Sharded multi-session runtime -*- C++ -*-===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A multi-session monitor runtime: one Program served to many
/// concurrent trace sessions across N worker shards. Each session runs
/// on exactly one worker thread at a time, so everything the
/// single-session engine relies on for speed — non-atomic RefCntPtr
/// spines, destructively updated mutable aggregates — stays strictly
/// single-threaded per session. No session state is ever shared between
/// threads; sessions move between threads only through synchronized
/// whole-object hand-offs (work stealing).
///
/// Within a shard, FleetOptions::Mode picks the execution engine behind
/// the ShardEngine interface (Runtime/ExecutionEngine.h): one
/// independent Monitor per session (PerSession), one SoA BatchedMonitor
/// per shard whose lanes are the shard's sessions (Batched), or
/// compiled monitor code loaded from a shared object (Native; the
/// engine factory is injected through FleetOptions::NativeFactory so
/// this library never links the code generator). Auto, the default,
/// runs every shard Batched. All engines produce byte-identical output.
///
/// ## Ingestion: producer handles (multi-producer fan-in)
///
/// Ingestion is multi-producer: every producer thread obtains its own
/// ProducerHandle, which owns one bounded lock-free SPSC ring into each
/// shard. feed() buffers records per shard and hands full batches to
/// the owning shard's ring — no locks and no shared mutable state on
/// the hot path, so N threads feed concurrently without contending.
/// Batches carry a fleet-wide monotone sequence number; a shard always
/// drains the lowest-sequence batch available across its producer
/// rings, so a *handed-off* session (producer A flushes/closes, then —
/// synchronized externally — producer B continues the same session)
/// keeps its event order.
///
/// \code
///   MonitorFleet Fleet(Prog, {.Shards = 4});
///   std::thread T1([&] {
///     ProducerHandle P = Fleet.producer();
///     P.feed(SessionA, InputId, 3, Value::integer(7));
///     P.close();                      // or let the destructor close
///   });
///   std::thread T2([&] {
///     ProducerHandle P = Fleet.producer();
///     P.feed(SessionB, InputId, 1, Value::integer(9));
///   });
///   T1.join(); T2.join();
///   Fleet.finish();
///   for (const SessionOutputEvent &E : Fleet.takeOutputs()) ...
///   Fleet.stats().str();              // per-shard counters
/// \endcode
///
/// Threading contract:
///  - producer() may be called from any thread (it takes a short
///    registration lock); each returned handle must then be used from
///    one thread at a time. Handles must be closed (or destroyed, or
///    quiescent) before finish(), and must not outlive the fleet.
///  - At most one producer may feed a given session at a time. A
///    hand-off between producers must be externally synchronized:
///    A.flush() (or close()) happens-before B's first feed of that
///    session.
///  - finish()/suspend()/takeOutputs()/errors()/stats() are called from
///    one controlling thread after the producers quiesced. (The old
///    single-producer feed() shim is gone — every ingest path holds an
///    explicit ProducerHandle, or a FleetClient wrapping one.)
///
/// ## Checkpoint / restore
///
/// suspend() is the checkpointing twin of finish(): it drains every ring
/// and inbox exactly like finish(), but instead of running end-of-input
/// semantics it extracts every live session through the engine migration
/// contract (ShardEngine::extractLane) and returns the lane snapshots,
/// sorted by session id. Serialized as a `.tcp` checkpoint
/// (Runtime/Checkpoint.h) they can be restored — into a fresh fleet of
/// *any* shard count, in this or another process — with restore(), which
/// injects each lane into its home shard through the same migration
/// inboxes work stealing uses and waits until the workers adopted them.
/// restore() must complete before any producer feeds the restored
/// sessions; outputs recorded before the suspend travel inside the lane
/// snapshots, so run-to-T + suspend + restore + run-to-end is
/// byte-identical to an uninterrupted run.
///
/// ## Work stealing
///
/// Session-to-shard placement starts at hash(session) % shards, but is
/// not fixed: an idle worker posts standing steal requests to its
/// peers, and an overloaded worker (ring backlog over
/// FleetOptions::StealBacklog records) donates one whole session —
/// Monitor state plus recorded outputs — at a batch boundary through
/// the thief's migration inbox. The home shard keeps forwarding that
/// session's subsequent records to the thief (single forwarder, FIFO
/// channel), so per-session event order is preserved; a stolen session
/// is pinned to its thief (no re-steal), which keeps the forwarding
/// topology single-hop. The migration inbox is mutex-guarded and
/// unbounded — it only carries rare hand-offs plus forwarded records
/// already admitted through the bounded producer rings.
///
/// ## Determinism
///
/// Outputs are collected per session and merged by ascending session
/// id, then per-session emission order (timestamp, then stream
/// definition order). Since each session's records are fed to its
/// monitor in producer order regardless of which shard executes them,
/// fleet output is byte-identical for every shard count, producer
/// count, and steal schedule — enforced against the sequential engine
/// by tests/Runtime/MonitorFleetTest.cpp and
/// tests/Runtime/FleetProducerTest.cpp (TSan-clean).
///
//===----------------------------------------------------------------------===//

#ifndef TESSLA_RUNTIME_MONITORFLEET_H
#define TESSLA_RUNTIME_MONITORFLEET_H

#include "tessla/Runtime/ExecutionEngine.h"
#include "tessla/Runtime/Monitor.h"
#include "tessla/Runtime/TraceIO.h"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace tessla {

class MonitorFleet;

/// How the shards execute their sessions.
enum class FleetMode : uint8_t {
  /// The default: resolves to Batched when the fleet is constructed.
  /// Lockstep sweeps pay at the fleet's interleaved shape and hold even
  /// on chunky replay (EXPERIMENTS.md, "Engine selection at the fleet's
  /// real shape"), so no shard switches engines mid-run.
  Auto,
  /// One independent Monitor per session (the original path; kept for
  /// heterogeneous fleets and as the differential reference).
  PerSession,
  /// One BatchedMonitor per shard: sessions become SoA lanes and every
  /// Program step sweeps all active lanes in lockstep (see
  /// Runtime/BatchedMonitor.h). Byte-identical outputs, amortized
  /// dispatch. Work stealing migrates whole lanes between the shards'
  /// batched groups.
  Batched,
  /// Compiled monitor code (CodeGen/NativeCompile.h) behind
  /// FleetOptions::NativeFactory. Native lanes are not migratable, so
  /// work stealing is inert in this mode. Falls back to PerSession —
  /// with the reason in MonitorFleet::engineFallbackReason() — when no
  /// factory was injected.
  Native,
};

/// Fleet construction knobs.
struct FleetOptions {
  /// Worker shards (threads). 0 is clamped to 1.
  unsigned Shards = 1;
  /// Events buffered per (producer, shard) before the batch is handed to
  /// the worker. Larger batches amortize queue traffic; smaller ones cut
  /// latency.
  size_t BatchSize = 256;
  /// Bounded SPSC ring capacity, in batches, per (producer, shard). A
  /// producer blocks when a shard falls this far behind (backpressure).
  size_t QueueCapacity = 64;
  /// Producer-handle slots. producer() beyond this returns an invalid
  /// handle. Slots are preallocated so workers can discover new
  /// producers without locks.
  unsigned MaxProducers = 16;
  /// Enables session work stealing between shards.
  bool WorkStealing = true;
  /// Backlog (buffered records bound for one shard) at which an idle
  /// peer's steal request is honoured. 0 means 4 * BatchSize.
  size_t StealBacklog = 0;
  /// Horizon handed to every session's Monitor::finish() — required for
  /// specs with self-resetting periodic delays.
  std::optional<Time> Horizon;
  /// Record per-session outputs (deep-copied) for takeOutputs(). Turn
  /// off for throughput benchmarks that only need the counters.
  bool CollectOutputs = true;
  /// Execution engine selection (see FleetMode).
  FleetMode Mode = FleetMode::Auto;
  /// Engine factory for FleetMode::Native, injected by the tool layer
  /// (e.g. makeNativeEngineFactory() after tessla::compileNative()); the
  /// runtime library itself never links the code generator. Null means
  /// Native falls back to PerSession.
  EngineFactory NativeFactory;
};

/// Counters of one worker shard (written by the worker, read after
/// finish()).
struct ShardStats {
  uint64_t EventsProcessed = 0;  ///< records fed into session monitors here
  uint64_t BatchesDrained = 0;   ///< producer batches popped from the rings
  uint64_t QueueHighWater = 0;   ///< max batches in flight in any one ring
  uint64_t Sessions = 0;         ///< sessions that finished on this shard
  uint64_t OutputsEmitted = 0;   ///< sum of session monitor outputs
  uint64_t FailedSessions = 0;   ///< sessions whose monitor failed
  uint64_t SessionsStolenIn = 0; ///< sessions migrated onto this shard
  uint64_t SessionsStolenOut = 0; ///< sessions donated to idle peers
  uint64_t RecordsForwarded = 0; ///< records relayed to a session's thief
  uint64_t LockstepSweeps = 0;   ///< batched mode: lockstep sweeps run
  uint64_t BackpressureStalls = 0; ///< producer blocks on this shard's rings
  uint64_t SessionsForkedIn = 0; ///< sessions created here by forkSession()
  uint64_t AggregateBytes = 0;   ///< resident aggregate node bytes (each
                                 ///< shared node counted once)
  uint64_t AggregateNodesUnique = 0; ///< aggregate nodes with one owner
  uint64_t AggregateNodesShared = 0; ///< aggregate nodes with >1 owner
                                     ///< (structural sharing from COW
                                     ///< updates and session forks)
  uint64_t InPlaceHits = 0;   ///< in-place updates that mutated destructively
  uint64_t InPlaceMisses = 0; ///< in-place updates that path-copied around
                              ///< a sharer (Monitor::inPlaceMisses)
  std::string Engine;            ///< engine ("per-session", "batched",
                                 ///< "native")

  /// Stable self-describing "key=value key=value ..." rendering — one
  /// format shared by `tessla-run --stats`, FleetStats::str() and the
  /// service stats frame. Keys are append-only across releases.
  std::string str() const;
};

/// Aggregated observability report for one fleet run.
struct FleetStats {
  std::vector<ShardStats> Shards;
  uint64_t Producers = 0; ///< producer handles registered over the run

  uint64_t totalEvents() const;
  uint64_t totalOutputs() const;
  uint64_t totalSessions() const;
  uint64_t totalFailedSessions() const;
  uint64_t totalSessionsStolen() const;
  uint64_t totalInPlaceHits() const;
  uint64_t totalInPlaceMisses() const;

  /// Renders the per-shard table plus totals.
  std::string str() const;
};

/// One output event attributed to its session.
struct SessionOutputEvent {
  SessionId Session;
  OutputEvent Event;
};

/// A failed session's diagnostic.
struct SessionError {
  SessionId Session;
  std::string Message;
};

/// Result of a non-blocking ProducerHandle::tryFeed().
enum class FeedStatus : uint8_t {
  Ok,         ///< the record was buffered/handed off
  WouldBlock, ///< the target shard's ring is full (backpressure); retry
              ///< later or fall back to the blocking feed()
  Closed,     ///< invalid or closed handle — the record was rejected
};

/// One producer's ingestion endpoint: a movable handle owning a private
/// ring into every shard (see the file comment for the threading
/// contract). Obtained from MonitorFleet::producer(); an
/// default-constructed or moved-from handle is invalid and rejects
/// feed().
class ProducerHandle {
public:
  ProducerHandle() = default;
  ProducerHandle(ProducerHandle &&O) noexcept
      : Fleet(O.Fleet), Lane(O.Lane) {
    O.Fleet = nullptr;
  }
  ProducerHandle &operator=(ProducerHandle &&O) noexcept {
    if (this != &O) {
      close();
      Fleet = O.Fleet;
      Lane = O.Lane;
      O.Fleet = nullptr;
    }
    return *this;
  }
  ~ProducerHandle() { close(); }

  ProducerHandle(const ProducerHandle &) = delete;
  ProducerHandle &operator=(const ProducerHandle &) = delete;

  /// True for a live handle obtained from producer().
  bool valid() const { return Fleet != nullptr; }

  /// Buffers one input event for \p Session. Events of one session must
  /// arrive in non-decreasing timestamp order (the per-session Monitor
  /// enforces it; violations fail that session only). Blocks when the
  /// target shard's ring is full. \returns false on an invalid/closed
  /// handle.
  bool feed(SessionId Session, StreamId Input, Time Ts, Value V);

  /// Non-blocking feed(): refuses — without buffering the record — when
  /// accepting it could force a blocking ring push (the shard's ring is
  /// full and the pending batch is at capacity). The service layer turns
  /// WouldBlock into a wire-level Busy frame instead of silently
  /// stalling the client.
  FeedStatus tryFeed(SessionId Session, StreamId Input, Time Ts, Value V);

  /// Hands off all partially filled batches now (e.g. before a session
  /// hand-off to another producer).
  void flush();

  /// Flushes, then signals this producer's end-of-input to every shard.
  /// Idempotent; the destructor calls it.
  void close();

private:
  friend class MonitorFleet;
  ProducerHandle(MonitorFleet *F, unsigned LaneIdx)
      : Fleet(F), Lane(LaneIdx) {}

  MonitorFleet *Fleet = nullptr;
  unsigned Lane = 0;
};

/// The sharded multi-session runtime. See the file comment for the
/// threading contract.
class MonitorFleet {
public:
  MonitorFleet(const Program &Prog, FleetOptions Opts = FleetOptions());
  ~MonitorFleet();

  MonitorFleet(const MonitorFleet &) = delete;
  MonitorFleet &operator=(const MonitorFleet &) = delete;

  /// Registers a new producer and returns its handle. Thread-safe.
  /// Returns an invalid handle once finish() ran or all
  /// FleetOptions::MaxProducers slots are taken.
  ProducerHandle producer();

  /// Closes any producer handles still open (requires them quiescent),
  /// drains all rings, signals end-of-input to every session
  /// (Monitor::finish with the configured horizon) and joins the
  /// workers. Idempotent.
  void finish();

  /// Checkpointing twin of finish(): drains everything, then *extracts*
  /// every live session instead of finishing it — lane snapshots (state,
  /// recorded outputs, unconsumed records) sorted by session id, ready
  /// for serializeCheckpoint() and a later restore() into any fleet over
  /// the same Program. Requires a migratable engine (not Native; see
  /// engineFallbackReason() conventions) — with a non-migratable engine
  /// the shards finish normally and suspend() returns an empty vector
  /// with \p ErrorOut set. Terminal like finish(): the fleet accepts no
  /// further input afterwards.
  std::vector<EngineLaneState> suspend(std::string *ErrorOut = nullptr);

  /// Injects checkpointed lane snapshots into their home shards (through
  /// the same migration inboxes work stealing uses) and waits until the
  /// workers adopted them. Must complete before any producer feeds the
  /// restored sessions; restoring a session that is already live is a
  /// caller error. \returns false on a finished fleet, a non-migratable
  /// engine, or duplicate session ids in \p Lanes.
  bool restore(std::vector<EngineLaneState> Lanes);

  /// O(1) snapshot-fork of live session \p Src into new session \p Dst:
  /// the worker executing \p Src snapshots its lane at a quiescent point
  /// (ShardEngine::snapshotLane — aggregate state is shared structurally
  /// under COW, never deep-copied) and the copy is adopted on \p Dst's
  /// home shard, ready to diverge under its own input. The fork cost is
  /// independent of the session's state size. Records fed to \p Src
  /// concurrently with the fork land on either side of the fork point
  /// nondeterministically — quiesce \p Src's producer first for a
  /// deterministic fork. Called from the controlling thread (serialized
  /// with finish()/suspend()/restore()). \returns false — with
  /// \p ErrorOut set — when \p Src is not live, \p Dst already is,
  /// \p Src == \p Dst, the engine is not migratable (Native), or the
  /// fleet already finished.
  bool forkSession(SessionId Src, SessionId Dst,
                   std::string *ErrorOut = nullptr);

  /// True once finish() ran and at least one session's monitor failed.
  bool failed() const;

  /// Failed sessions in ascending session-id order. Valid after
  /// finish().
  std::vector<SessionError> errors() const;

  /// The deterministic merged output trace: sessions in ascending id
  /// order, each session's events in emission order (timestamp, then
  /// stream definition order). Valid after finish(); moves the events
  /// out.
  std::vector<SessionOutputEvent> takeOutputs();

  /// Per-shard counters. Valid after finish().
  const FleetStats &stats() const { return Stats; }

  unsigned shardCount() const { return static_cast<unsigned>(Workers.size()); }

  /// The resolved execution mode (never Auto): the engine every shard
  /// runs. Under FleetMode::Auto this is Batched.
  FleetMode mode() const { return Mode; }

  /// Non-empty when the requested mode could not be honoured (e.g.
  /// Native without a NativeFactory) and the fleet fell back to
  /// PerSession.
  const std::string &engineFallbackReason() const { return EngineFallback; }

  /// The shard a session's records are ingested through (its *home*
  /// shard): hash(session) % shards, with a bit-mixing hash so
  /// sequential ids spread evenly. Work stealing may execute the
  /// session elsewhere; the home shard then forwards.
  unsigned shardOf(SessionId Session) const;

private:
  friend class ProducerHandle;

  struct Shard;
  struct ProducerLane;

  const Program &Prog;
  FleetOptions Opts;
  FleetMode Mode = FleetMode::PerSession; // resolved, never Auto
  std::string EngineFallback;
  std::vector<std::unique_ptr<Shard>> Workers;

  // Producer fan-in: preallocated lane slots (no reallocation, so
  // workers index lanes below LaneCount without locks). AdminMu guards
  // registration and lane close; the feed hot path takes no lock.
  std::vector<std::unique_ptr<ProducerLane>> Lanes;
  std::atomic<unsigned> LaneCount{0};
  std::atomic<uint64_t> NextBatchSeq{0};
  std::atomic<bool> Finishing{false};
  std::atomic<bool> Suspending{false};
  std::atomic<unsigned> DrainedWorkers{0};
  std::atomic<uint64_t> RestoresAdopted{0};
  // One fork in flight at a time (ForkMu); outcome codes: 0 pending,
  // 1 adopted, -1 source not live, -2 destination already live.
  std::atomic<int> ForkOutcome{0};
  std::mutex ForkMu;
  std::mutex AdminMu;

  FleetStats Stats;
  bool Finished = false;

  void joinAndCollect();
  bool laneFeed(unsigned LaneIdx, SessionId Session, StreamId Input,
                Time Ts, Value V);
  FeedStatus laneTryFeed(unsigned LaneIdx, SessionId Session,
                         StreamId Input, Time Ts, Value V);
  void laneFlush(unsigned LaneIdx);
  void laneFlushShard(ProducerLane &L, unsigned ShardIdx);
  void laneClose(unsigned LaneIdx);
  void bumpSignal(unsigned ShardIdx);
  void finishFork(int Outcome);
};

} // namespace tessla

#endif // TESSLA_RUNTIME_MONITORFLEET_H
