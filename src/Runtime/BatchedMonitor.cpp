//===- Runtime/BatchedMonitor.cpp -------------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// A lockstep sweep is the shared calculation kernel (CalcKernel.h) run
// over the sweep's active lanes, with slot state striped
// Slot * LaneCap + Lane so one step's sweep walks contiguous rows. What
// this file adds is the engine's own part: the striped layout, lane
// allocation and migration, and the scheduling of buffered records into
// tiled sweeps.
//
//===----------------------------------------------------------------------===//

#include "tessla/Runtime/BatchedMonitor.h"

#include "CalcKernel.h"
#include "tessla/Runtime/RecordCheck.h"

#include <cassert>

using namespace tessla;

BatchedMonitor::BatchedMonitor(const Program &Prog_, bool CollectOutputs_)
    : Prog(Prog_), CollectOutputs(CollectOutputs_),
      // +1: the shared dead slot of nil streams stays never-present,
      // exactly as in Monitor's AoS layout.
      NumSlots(Prog_.numValueSlots() + 1u) {}

/// The kernel's view of a sweep (CalcKernel.h): the active lanes, each
/// at its own RunTs, over rows of stride LaneCap.
struct BatchedMonitor::CalcState {
  BatchedMonitor &B;
  const size_t Stride;

  const std::vector<uint32_t> &lanes() const { return B.Active; }
  bool failed(uint32_t L) const { return B.AnyFailed && B.Failed[L]; }
  size_t row(size_t R) const { return R * Stride; }
  Value &cur(size_t I) { return B.Cur[I]; }
  char &present(size_t I) { return B.Present[I]; }
  Value &lastVal(size_t I) { return B.LastVal[I]; }
  char &lastInit(size_t I) { return B.LastInit[I]; }
  Time &nextTs(size_t I) { return B.NextTs[I]; }
  char &nextTsSet(size_t I) { return B.NextTsSet[I]; }
  std::vector<SlotId> &touched(uint32_t L) { return B.Touched[L]; }
  Time runTs(uint32_t L) const { return B.RunTs[L]; }
  InPlaceCounts &inPlace(uint32_t L) { return B.InPlaceStats[L]; }
  void emit(uint32_t L, StreamId Id, const Value &V) {
    // Recording shares the handle: a later in-place update of the
    // aggregate sees the extra holder and path-copies around it.
    ++B.NumOutputs[L];
    if (B.CollectOutputs)
      B.Outputs[L].push_back({B.RunTs[L], Id, V.deepCopy()});
  }
  void fail(uint32_t L, Time At, StreamId Id, const std::string &Message) {
    B.failLane(L, failureAt(B.Prog.spec(), At, Id, Message));
  }
};

void BatchedMonitor::failLane(uint32_t Lane, std::string Message) {
  Failed[Lane] = 1;
  AnyFailed = true;
  ErrMsg[Lane] = std::move(Message);
}

void BatchedMonitor::growLanes(size_t NewCap) {
  // Re-stripe the SoA rows to the wider stride.
  auto Restripe = [&](auto &Vec, size_t Rows) {
    std::remove_reference_t<decltype(Vec)> New(Rows * NewCap);
    for (size_t R = 0; R != Rows; ++R)
      for (size_t L = 0; L != NumLanes; ++L)
        New[R * NewCap + L] = std::move(Vec[R * LaneCap + L]);
    Vec = std::move(New);
  };
  Restripe(Cur, NumSlots);
  Restripe(Present, NumSlots);
  Restripe(LastVal, Prog.lastSlots().size());
  Restripe(LastInit, Prog.lastSlots().size());
  Restripe(NextTs, Prog.delays().size());
  Restripe(NextTsSet, Prog.delays().size());
  LaneCap = NewCap;

  Session.resize(NewCap, 0);
  Live.resize(NewCap, 0);
  Failed.resize(NewCap, 0);
  CalcDone.resize(NewCap, 0);
  FinishedL.resize(NewCap, 0);
  PendingTs.resize(NewCap, 0);
  RunTs.resize(NewCap, 0);
  ErrMsg.resize(NewCap);
  NumFed.resize(NewCap, 0);
  NumOutputs.resize(NewCap, 0);
  NumCalcRuns.resize(NewCap, 0);
  InPlaceStats.resize(NewCap);
  Queue.resize(NewCap);
  QueuePos.resize(NewCap, 0);
  Touched.resize(NewCap);
  Outputs.resize(NewCap);
  InDirty.resize(NewCap, 0);
}

unsigned BatchedMonitor::allocLane(SessionId Id) {
  uint32_t L;
  if (!FreeLanes.empty()) {
    L = FreeLanes.back();
    FreeLanes.pop_back();
  } else {
    if (NumLanes == LaneCap)
      growLanes(LaneCap ? LaneCap * 2 : 8);
    L = NumLanes++;
  }
  Live[L] = 1;
  ++NumLive;
  Session[L] = Id;
  Failed[L] = 0;
  CalcDone[L] = 0;
  FinishedL[L] = 0;
  PendingTs[L] = 0;
  RunTs[L] = 0;
  ErrMsg[L].clear();
  NumFed[L] = NumOutputs[L] = NumCalcRuns[L] = 0;
  InPlaceStats[L] = {};
  Queue[L].clear();
  QueuePos[L] = 0;
  Touched[L].clear();
  Outputs[L].clear();
  assert(!InDirty[L] && "freed lanes leave the dirty worklist");
  return L;
}

unsigned BatchedMonitor::addLane(SessionId Id) {
  // A fresh lane is a freshly constructed Monitor: PendingTs = 0 with
  // the calculation not yet run, so the timestamp-0 section (constants
  // firing, delays arming) runs before the lane's first event even when
  // the session joins mid-stream.
  return allocLane(Id);
}

bool BatchedMonitor::feed(unsigned Lane, StreamId Input, Time Ts, Value V) {
  assert(Lane < NumLanes && Live[Lane] && "feed() targets a live lane");
  if (Failed[Lane])
    return false;
  if (EngineFinished || FinishedL[Lane]) {
    failLane(Lane, describeRecordFault(Prog, RecordFault::AfterFinish, Input,
                                       Ts, V));
    return false;
  }
  assert(Prog.spec().stream(Input).Kind == StreamKind::Input &&
         "feed() targets must be input streams");
  Queue[Lane].emplace_back(Input, Ts, std::move(V));
  if (!InDirty[Lane]) {
    InDirty[Lane] = 1;
    DirtyLanes.push_back(Lane);
  }
  return true;
}

/// Consumes buffered records of \p Lane until the lane either drains its
/// queue (returns false) or needs a calculation run (returns true with
/// RunTs[Lane] set). Runs Monitor::feed's record check, deferred: a
/// rejected record's pending timestamp is never calculated (the lane
/// fails before its flush, exactly as a failed feed() leaves Monitor).
bool BatchedMonitor::prepareLane(uint32_t Lane) {
  auto &Q = Queue[Lane];
  CalcState S{*this, LaneCap};
  for (;;) {
    if (QueuePos[Lane] == Q.size()) {
      Q.clear();
      QueuePos[Lane] = 0;
      return false;
    }
    PendingRecord &R = Q[QueuePos[Lane]];
    SlotId Slot = Prog.valueSlot(R.Input);
    if (RecordFault F = checkRecord(Prog, false, R.Input, R.Ts, R.V,
                                    PendingTs[Lane], CalcDone[Lane],
                                    Present[idx(Slot, Lane)]);
        F != RecordFault::None) {
      failLane(Lane, describeRecordFault(Prog, F, R.Input, R.Ts, R.V));
      return false;
    }
    if (R.Ts > PendingTs[Lane]) {
      // Monitor::flushBefore(R.Ts): first the pending timestamp's own
      // calculation, then every armed delay strictly before R.Ts — each
      // is one lockstep sweep; this lane re-enters here afterwards.
      if (!CalcDone[Lane]) {
        RunTs[Lane] = PendingTs[Lane];
        return true;
      }
      if (!Prog.delays().empty()) {
        if (std::optional<Time> Min = calc::nextDelay(Prog, S, Lane);
            Min && *Min < R.Ts) {
          RunTs[Lane] = *Min;
          return true;
        }
      }
      PendingTs[Lane] = R.Ts;
      CalcDone[Lane] = 0;
    }
    calc::setSlot(S, Slot, Lane, std::move(R.V));
    ++NumFed[Lane];
    ++QueuePos[Lane];
  }
}

void BatchedMonitor::sweep() {
  ++NumSweeps;
  for (uint32_t L : Active)
    ++NumCalcRuns[L];
  calc::runCalculation(Prog, CalcState{*this, LaneCap});
  // The sweep was each surviving lane's pending calculation.
  for (uint32_t L : Active)
    if (!Failed[L])
      CalcDone[L] = 1;
}

void BatchedMonitor::pump() {
  // Strip-mined: dirty lanes are processed in fixed-size tiles, each
  // tile swept to completion before the next begins. One maximal sweep
  // over every dirty lane would amortize dispatch best, but its per-step
  // row walk touches lanes * sizeof(Value) bytes per slot — past a few
  // hundred lanes the engine rows overflow L2 and every sweep pays DRAM
  // latency. A tile keeps the dispatch amortization (up to TileLanes
  // wide) while the tile's rows stay cache-resident across all of its
  // sweeps.
  for (size_t Pos = 0, E = DirtyLanes.size(); Pos < E;) {
    const size_t End = std::min(Pos + TileLanes, E);
    for (;;) {
      Active.clear();
      for (size_t I = Pos; I != End; ++I) {
        uint32_t L = DirtyLanes[I];
        if (Live[L] && !Failed[L] && !FinishedL[L] && prepareLane(L))
          Active.push_back(L);
      }
      if (Active.empty())
        break;
      sweep();
    }
    // Every lane of the tile drained (or failed/finished: their records
    // are dropped, as a failed Monitor drops subsequent feeds).
    for (size_t I = Pos; I != End; ++I) {
      uint32_t L = DirtyLanes[I];
      InDirty[L] = 0;
      Queue[L].clear();
      QueuePos[L] = 0;
    }
    Pos = End;
  }
  DirtyLanes.clear();
}

void BatchedMonitor::finishAll(std::optional<Time> Horizon) {
  pump();
  const Time Bound = drainBound(Horizon);
  CalcState S{*this, LaneCap};
  // Tiled like pump(), and legal for the same reason: lanes share no
  // state, so draining them tile by tile reorders only independent work.
  for (uint32_t Base = 0; Base < NumLanes; Base += TileLanes) {
    const uint32_t End =
        static_cast<uint32_t>(std::min<size_t>(Base + TileLanes, NumLanes));
    for (;;) {
      Active.clear();
      for (uint32_t L = Base; L != End; ++L) {
        if (!Live[L] || Failed[L] || FinishedL[L])
          continue;
        if (!CalcDone[L]) {
          RunTs[L] = PendingTs[L];
          Active.push_back(L);
          continue;
        }
        if (std::optional<Time> Min = calc::nextDelay(Prog, S, L);
            Min && *Min < Bound) {
          RunTs[L] = *Min;
          Active.push_back(L);
          continue;
        }
        FinishedL[L] = 1;
      }
      if (Active.empty())
        break;
      sweep();
    }
  }
  EngineFinished = true;
}

/// The lane state behind extractLane() and snapshotLane(): std::move
/// moves out of a mutable engine and copies out of a const one, so one
/// body serves both.
template <class Self>
BatchedMonitor::LaneState BatchedMonitor::laneState(Self &B, unsigned Lane) {
  LaneState S;
  S.Session = B.Session[Lane];
  S.PendingTs = B.PendingTs[Lane];
  S.CalcDone = B.CalcDone[Lane] != 0;
  S.Failed = B.Failed[Lane] != 0;
  S.Error = std::move(B.ErrMsg[Lane]);
  S.NumFed = B.NumFed[Lane];
  S.NumOutputs = B.NumOutputs[Lane];
  S.NumCalcRuns = B.NumCalcRuns[Lane];
  S.Cur.resize(B.NumSlots);
  S.Present.resize(B.NumSlots);
  for (uint32_t Slot = 0; Slot != B.NumSlots; ++Slot) {
    size_t I = B.idx(Slot, Lane);
    S.Cur[Slot] = std::move(B.Cur[I]); // O(1): handles share structure
    S.Present[Slot] = B.Present[I];
  }
  size_t Lasts = B.Prog.lastSlots().size();
  S.LastVal.resize(Lasts);
  S.LastInit.resize(Lasts);
  for (size_t R = 0; R != Lasts; ++R) {
    S.LastVal[R] = std::move(B.LastVal[R * B.LaneCap + Lane]);
    S.LastInit[R] = B.LastInit[R * B.LaneCap + Lane];
  }
  size_t Delays = B.Prog.delays().size();
  S.NextTs.resize(Delays);
  S.NextTsSet.resize(Delays);
  for (size_t R = 0; R != Delays; ++R) {
    S.NextTs[R] = B.NextTs[R * B.LaneCap + Lane];
    S.NextTsSet[R] = B.NextTsSet[R * B.LaneCap + Lane];
  }
  auto &Q = B.Queue[Lane];
  S.Queue.assign(std::make_move_iterator(Q.begin() + B.QueuePos[Lane]),
                 std::make_move_iterator(Q.end()));
  S.Outputs = std::move(B.Outputs[Lane]);
  return S;
}

BatchedMonitor::LaneState BatchedMonitor::extractLane(unsigned Lane) {
  assert(Lane < NumLanes && Live[Lane] && "extractLane() targets a live lane");
  assert(laneIdle(Lane) == (QueuePos[Lane] == Queue[Lane].size()));
  LaneState S = laneState(*this, Lane);
  S.InPlace = InPlaceStats[Lane];
  // Leave the rows as a fresh lane finds them.
  for (uint32_t Slot = 0; Slot != NumSlots; ++Slot) {
    Cur[idx(Slot, Lane)] = Value();
    Present[idx(Slot, Lane)] = 0;
  }
  for (size_t R = 0, E = Prog.lastSlots().size(); R != E; ++R) {
    LastVal[R * LaneCap + Lane] = Value();
    LastInit[R * LaneCap + Lane] = 0;
  }
  for (size_t R = 0, E = Prog.delays().size(); R != E; ++R) {
    NextTs[R * LaneCap + Lane] = 0;
    NextTsSet[R * LaneCap + Lane] = 0;
  }
  Queue[Lane].clear();
  QueuePos[Lane] = 0;
  Touched[Lane].clear();
  Outputs[Lane].clear();
  Live[Lane] = 0;
  --NumLive;
  FreeLanes.push_back(Lane);
  return S;
}

BatchedMonitor::LaneState BatchedMonitor::snapshotLane(unsigned Lane) const {
  assert(Lane < NumLanes && Live[Lane] &&
         "snapshotLane() targets a live lane");
  // In-place counters stay zero, as in Monitor::snapshotState.
  return laneState(*this, Lane);
}

void BatchedMonitor::visitValues(
    const std::function<void(const Value &)> &Fn) const {
  for (uint32_t Lane = 0; Lane != NumLanes; ++Lane) {
    if (!Live[Lane])
      continue;
    for (uint32_t Slot = 0; Slot != NumSlots; ++Slot)
      Fn(Cur[idx(Slot, Lane)]);
    for (size_t R = 0, E = Prog.lastSlots().size(); R != E; ++R)
      Fn(LastVal[R * LaneCap + Lane]);
    for (size_t I = QueuePos[Lane], E = Queue[Lane].size(); I != E; ++I)
      Fn(Queue[Lane][I].V);
    for (const OutputEvent &E : Outputs[Lane])
      Fn(E.V);
  }
}

unsigned BatchedMonitor::insertLane(LaneState S) {
  uint32_t L = allocLane(S.Session);
  PendingTs[L] = S.PendingTs;
  CalcDone[L] = S.CalcDone;
  Failed[L] = S.Failed;
  if (S.Failed)
    AnyFailed = true;
  ErrMsg[L] = std::move(S.Error);
  NumFed[L] = S.NumFed;
  NumOutputs[L] = S.NumOutputs;
  NumCalcRuns[L] = S.NumCalcRuns;
  InPlaceStats[L] = S.InPlace;
  assert(S.Cur.size() == NumSlots && "lane state is for another program");
  for (uint32_t Slot = 0; Slot != NumSlots; ++Slot) {
    size_t I = idx(Slot, L);
    Cur[I] = std::move(S.Cur[Slot]);
    Present[I] = S.Present[Slot];
    // Rebuild the touched list from presence: reset order is
    // unobservable, membership is what matters.
    if (Present[I])
      Touched[L].push_back(Slot);
  }
  for (size_t R = 0, E = Prog.lastSlots().size(); R != E; ++R) {
    size_t I = R * LaneCap + L;
    LastVal[I] = std::move(S.LastVal[R]);
    LastInit[I] = S.LastInit[R];
  }
  for (size_t R = 0, E = Prog.delays().size(); R != E; ++R) {
    size_t I = R * LaneCap + L;
    NextTs[I] = S.NextTs[R];
    NextTsSet[I] = S.NextTsSet[R];
  }
  Queue[L] = std::move(S.Queue);
  QueuePos[L] = 0;
  if (!Queue[L].empty() && !InDirty[L]) {
    InDirty[L] = 1;
    DirtyLanes.push_back(L);
  }
  Outputs[L] = std::move(S.Outputs);
  return L;
}
