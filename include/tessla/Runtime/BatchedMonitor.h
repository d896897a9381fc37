//===- tessla/Runtime/BatchedMonitor.h - SoA lockstep engine ---*- C++ -*-===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A same-spec multi-session execution engine: N session *lanes* over one
/// Program, with all engine state laid out structure-of-arrays — every
/// value/last/delay slot becomes a per-slot row indexed by lane — and the
/// calculation section executed as a *lockstep sweep*: each ProgramStep's
/// opcode is decoded once and applied to every active lane before moving
/// to the next step. Compared to running one Monitor per session this
/// amortizes the per-step dispatch over all lanes of a shard and turns
/// the per-slot state walk into contiguous row traversals (cache-friendly
/// now, SIMD-able next).
///
/// ## One kernel
///
/// A sweep is the calculation kernel Monitor runs too
/// (src/Runtime/CalcKernel.h), over the sweep's active lanes, and a
/// lane's buffered records pass the engines' one record check
/// (Runtime/RecordCheck.h) when the pump consumes them. So a lane is
/// byte-identical to its own Monitor by construction — same outputs,
/// emission order, failure points and messages; this engine owns only
/// the striped layout, lane bookkeeping and the scheduling of records
/// into tiled sweeps. The differential corpus
/// (tests/Integration/BatchedDifferentialTest.cpp) checks that
/// scheduling, layout and migration keep the identity, on random specs,
/// both optimization levels and both mutability modes.
///
/// Lanes advance on *their own* timelines: a sweep runs each active lane
/// at that lane's next due timestamp (pending input timestamp or delay
/// firing), so lockstep does not require sessions to share a clock —
/// only a spec.
///
/// ## Usage
///
/// \code
///   BatchedMonitor BM(Prog);
///   unsigned L = BM.addLane(SessionId);   // sessions may join any time
///   BM.feed(L, InputId, 3, Value::integer(7));   // buffers
///   BM.pump();                            // lockstep sweeps
///   BM.finishAll(Horizon);
///   for (OutputEvent &E : BM.takeLaneOutputs(L)) ...
/// \endcode
///
/// ## Migration
///
/// A lane is migrated between engines (the fleet's work stealing moves
/// lanes between shards' batched groups) by extractLane()/insertLane():
/// the LaneState snapshot carries the lane's complete engine state —
/// slot values and presence, last slots, armed delay timers, the
/// pending-timestamp cursor, recorded outputs, counters and any
/// unconsumed buffered records. As with Monitor hand-off, the transfer
/// must synchronize (release/acquire happens-before the new owner's
/// first use) and the old owner retains nothing derived from the lane.
///
/// Not thread-safe; one instance per shard/thread.
///
//===----------------------------------------------------------------------===//

#ifndef TESSLA_RUNTIME_BATCHEDMONITOR_H
#define TESSLA_RUNTIME_BATCHEDMONITOR_H

#include "tessla/Runtime/ExecutionEngine.h"
#include "tessla/Runtime/Monitor.h"
#include "tessla/Runtime/TraceIO.h"

#include <optional>
#include <string>
#include <vector>

namespace tessla {

class BatchedMonitor : public ShardEngine {
public:
  /// \p CollectOutputs mirrors FleetOptions::CollectOutputs: when false,
  /// outputs are only counted, never recorded.
  explicit BatchedMonitor(const Program &Prog, bool CollectOutputs = true);

  /// One buffered input record of a lane (not yet validated/applied; the
  /// record check runs when the pump loop consumes it). The record and
  /// snapshot types live in Runtime/ExecutionEngine.h — the migration
  /// contract is engine-agnostic — but keep their historical names here.
  using PendingRecord = EnginePendingRecord;

  /// A whole lane's engine state, extracted for migration; movable
  /// across threads under the usual synchronized hand-off contract.
  using LaneState = EngineLaneState;

  /// Adds a fresh lane for \p Session (identical to constructing a new
  /// Monitor: its timestamp-0 calculation runs before its first event's
  /// timestamp). Lanes of extracted sessions are reused. Returns the
  /// lane index, stable until extractLane().
  unsigned addLane(SessionId Session) override;

  /// Buffers one input record for \p Lane. The record check (timestamp
  /// order, duplicate events, negative timestamps, the value's type) is
  /// deferred to pump(), where it fails the lane exactly like
  /// Monitor::feed would. \returns false if the lane already failed or
  /// the engine is finished.
  bool feed(unsigned Lane, StreamId Input, Time Ts, Value V) override;

  /// Runs lockstep sweeps until every lane has consumed its buffered
  /// records (a lane mid-timestamp keeps its partial state buffered,
  /// like a Monitor between feeds).
  void pump() override;

  /// End of input for every lane (Monitor::finish semantics, shared
  /// \p Horizon): pending timestamps run, armed delays drain — in
  /// lockstep across lanes until no lane has work left.
  void finishAll(std::optional<Time> Horizon = std::nullopt) override;

  bool supportsMigration() const override { return true; }

  /// Extracts \p Lane for migration and frees its index for reuse.
  LaneState extractLane(unsigned Lane) override;
  /// Inserts a migrated lane; returns its new lane index.
  unsigned insertLane(LaneState State) override;
  /// Copies \p Lane's state non-destructively (the fork primitive);
  /// aggregate values are shared structurally.
  LaneState snapshotLane(unsigned Lane) const override;
  /// Visits every Value of every live lane (memory accounting).
  void visitValues(
      const std::function<void(const Value &)> &Fn) const override;

  // --- Per-lane observers (valid for live lanes). ---
  SessionId laneSession(unsigned Lane) const override {
    return Session[Lane];
  }
  bool laneFailed(unsigned Lane) const override { return Failed[Lane] != 0; }
  const std::string &laneError(unsigned Lane) const override {
    return ErrMsg[Lane];
  }
  /// Accepted input records (the fleet's steal heuristic).
  uint64_t laneInputEvents(unsigned Lane) const override {
    return NumFed[Lane];
  }
  uint64_t laneOutputEvents(unsigned Lane) const override {
    return NumOutputs[Lane];
  }
  uint64_t laneInPlaceHits(unsigned Lane) const override {
    return InPlaceStats[Lane].Hits;
  }
  uint64_t laneInPlaceMisses(unsigned Lane) const override {
    return InPlaceStats[Lane].Misses;
  }
  /// True when the lane has no unconsumed buffered records (always true
  /// after pump(); donation only migrates idle lanes).
  bool laneIdle(unsigned Lane) const override {
    return QueuePos[Lane] == Queue[Lane].size();
  }
  /// Moves out the lane's recorded outputs (emission order).
  std::vector<OutputEvent> takeLaneOutputs(unsigned Lane) override {
    return std::move(Outputs[Lane]);
  }

  /// Live lanes.
  size_t laneCount() const override { return NumLive; }
  /// Lockstep sweeps executed (each replaces `active lanes` many
  /// per-session calculation runs).
  uint64_t sweeps() const override { return NumSweeps; }

  const char *name() const override { return "batched"; }

private:
  /// Sweep strip-mining width: pump()/finishAll() drain lanes in tiles
  /// of this many, each tile swept to completion before the next. Wide
  /// enough to amortize the per-step opcode dispatch, small enough that
  /// a tile's working set — its engine rows plus the hot paths of the
  /// aggregates its lanes carry — stays cache-resident across all of
  /// the tile's sweeps. The aggregates dominate that budget (a lane's
  /// set/map/queue is touched once per sweep), which is why the best
  /// width is much smaller than what the row arrays alone would allow;
  /// one maximal sweep over a thousand lanes reloads every lane's
  /// aggregate path from L2/DRAM on every step.
  static constexpr size_t TileLanes = 8;

  const Program &Prog;
  const bool CollectOutputs;
  const uint32_t NumSlots;   // numValueSlots() + 1 (dead slot included)
  size_t LaneCap = 0;        // row stride of the SoA arrays
  unsigned NumLanes = 0;     // high-water lane count (Live[] gates reuse)
  size_t NumLive = 0;
  bool EngineFinished = false;
  bool AnyFailed = false; // fast path: skip per-lane Failed checks
  uint64_t NumSweeps = 0;

  // SoA engine state: index = Slot * LaneCap + Lane, so one step's sweep
  // walks contiguous rows.
  std::vector<Value> Cur;      // [NumSlots  x LaneCap]
  std::vector<char> Present;   // [NumSlots  x LaneCap]
  std::vector<Value> LastVal;  // [lastSlots x LaneCap]
  std::vector<char> LastInit;  // [lastSlots x LaneCap]
  std::vector<Time> NextTs;    // [delays    x LaneCap]
  std::vector<char> NextTsSet; // [delays    x LaneCap]

  // Per-lane control state (plain per-lane vectors).
  std::vector<SessionId> Session;
  std::vector<char> Live;
  std::vector<char> Failed;
  std::vector<char> CalcDone;
  std::vector<char> FinishedL;
  std::vector<Time> PendingTs;
  std::vector<Time> RunTs; // the timestamp the current sweep runs at
  std::vector<std::string> ErrMsg;
  std::vector<uint64_t> NumFed;
  std::vector<uint64_t> NumOutputs;
  std::vector<uint64_t> NumCalcRuns;
  std::vector<InPlaceCounts> InPlaceStats;
  std::vector<std::vector<PendingRecord>> Queue;
  std::vector<size_t> QueuePos;
  std::vector<std::vector<SlotId>> Touched;
  std::vector<std::vector<OutputEvent>> Outputs;

  std::vector<uint32_t> FreeLanes;
  std::vector<uint32_t> Active; // lanes of the current sweep
  // Worklist of lanes with unconsumed buffered records: pump() is
  // O(dirty lanes), not O(all lanes) — feeding 4 sessions of a
  // 1000-lane group must not scan the other 996.
  std::vector<uint32_t> DirtyLanes;
  std::vector<char> InDirty;

  /// The kernel's view of a sweep (src/Runtime/CalcKernel.h).
  struct CalcState;

  size_t idx(SlotId Slot, uint32_t Lane) const {
    return static_cast<size_t>(Slot) * LaneCap + Lane;
  }
  void growLanes(size_t NewCap);
  unsigned allocLane(SessionId Id);
  template <class Self> static LaneState laneState(Self &B, unsigned Lane);
  bool prepareLane(uint32_t Lane);
  void sweep();
  void failLane(uint32_t Lane, std::string Message);
};

} // namespace tessla

#endif // TESSLA_RUNTIME_BATCHEDMONITOR_H
