//===- Runtime/Monitor.cpp --------------------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "tessla/Runtime/Monitor.h"

#include "CalcKernel.h"
#include "tessla/Runtime/ExecutionEngine.h"
#include "tessla/Runtime/RecordCheck.h"

#include <array>
#include <cassert>

using namespace tessla;

Monitor::Monitor(const Program &Prog_) : Prog(Prog_) {
  // +1: the shared dead slot of nil streams stays never-present.
  uint32_t N = Prog.numValueSlots() + 1u;
  Cur.resize(N);
  Present.assign(N, 0);
  LastVal.resize(Prog.lastSlots().size());
  LastInit.assign(Prog.lastSlots().size(), 0);
  NextTs.assign(Prog.delays().size(), 0);
  NextTsSet.assign(Prog.delays().size(), 0);
}

/// Monitor's kernel layout (CalcKernel.h): one lane, rows indexed by
/// slot, every run at one timestamp.
struct Monitor::CalcState {
  Monitor &M;
  Time Ts;

  static std::array<uint32_t, 1> lanes() { return {0}; }
  bool failed(uint32_t) const { return M.Err.Failed; }
  static size_t row(size_t R) { return R; }
  Value &cur(size_t I) { return M.Cur[I]; }
  char &present(size_t I) { return M.Present[I]; }
  Value &lastVal(size_t I) { return M.LastVal[I]; }
  char &lastInit(size_t I) { return M.LastInit[I]; }
  Time &nextTs(size_t I) { return M.NextTs[I]; }
  char &nextTsSet(size_t I) { return M.NextTsSet[I]; }
  std::vector<SlotId> &touched(uint32_t) { return M.Touched; }
  Time runTs(uint32_t) const { return Ts; }
  InPlaceCounts &inPlace(uint32_t) { return M.InPlaceStats; }
  void emit(uint32_t, StreamId Id, const Value &V) {
    ++M.NumOutputs;
    if (M.Handler)
      M.Handler(Ts, Id, V);
  }
  void fail(uint32_t, Time At, StreamId Id, const std::string &Message) {
    M.Err.fail(failureAt(M.Prog.spec(), At, Id, Message));
  }
};

void Monitor::runCalc(Time Ts) {
  ++NumCalcRuns;
  calc::runCalculation(Prog, CalcState{*this, Ts});
}

void Monitor::flushBefore(Time T) {
  if (!CalcDoneForPending) {
    runCalc(PendingTs);
    CalcDoneForPending = true;
  }
  CalcState S{*this, T};
  while (!Err.Failed) {
    std::optional<Time> Min = calc::nextDelay(Prog, S, 0);
    if (!Min || *Min >= T)
      return;
    runCalc(*Min);
  }
}

bool Monitor::feed(StreamId Input, Time Ts, Value V) {
  if (Err.Failed)
    return false;
  assert(Prog.spec().stream(Input).Kind == StreamKind::Input &&
         "feed() targets must be input streams");
  SlotId Slot = Prog.valueSlot(Input);
  if (RecordFault F = checkRecord(Prog, Finished, Input, Ts, V, PendingTs,
                                  CalcDoneForPending, Present[Slot]);
      F != RecordFault::None) {
    Err.fail(describeRecordFault(Prog, F, Input, Ts, V));
    return false;
  }
  if (Ts > PendingTs) {
    flushBefore(Ts);
    if (Err.Failed)
      return false;
    PendingTs = Ts;
    CalcDoneForPending = false;
  }
  CalcState S{*this, Ts};
  calc::setSlot(S, Slot, 0, std::move(V));
  ++NumFed;
  return true;
}

void Monitor::finish(std::optional<Time> Horizon) {
  if (Err.Failed || Finished)
    return;
  flushBefore(drainBound(Horizon));
  Finished = true;
}

/// The lane state behind extractState() and snapshotState(): std::move
/// moves out of a mutable monitor and copies out of a const one.
template <class Self>
void Monitor::laneState(Self &M, EngineLaneState &Out) {
  Out.PendingTs = M.PendingTs;
  Out.CalcDone = M.CalcDoneForPending;
  Out.Failed = M.Err.Failed;
  Out.Error = std::move(M.Err.Message);
  Out.NumFed = M.NumFed;
  Out.NumOutputs = M.NumOutputs;
  Out.NumCalcRuns = M.NumCalcRuns;
  Out.Cur = std::move(M.Cur); // O(1) per slot: handles share structure
  Out.Present = std::move(M.Present);
  Out.LastVal = std::move(M.LastVal);
  Out.LastInit = std::move(M.LastInit);
  Out.NextTs = std::move(M.NextTs);
  Out.NextTsSet = std::move(M.NextTsSet);
}

void Monitor::extractState(EngineLaneState &Out) {
  laneState(*this, Out);
  Out.InPlace = InPlaceStats;
}

void Monitor::snapshotState(EngineLaneState &Out) const {
  // In-place counters stay zero: they count this lane's updates, and a
  // snapshot has run none yet.
  laneState(*this, Out);
}

void Monitor::visitValues(
    const std::function<void(const Value &)> &Fn) const {
  for (const Value &V : Cur)
    Fn(V);
  for (const Value &V : LastVal)
    Fn(V);
}

void Monitor::restoreState(EngineLaneState &State) {
  assert(State.Cur.size() == Prog.numValueSlots() + 1u &&
         "lane snapshot from a different program");
  PendingTs = State.PendingTs;
  CalcDoneForPending = State.CalcDone;
  Err.Failed = State.Failed;
  Err.Message = std::move(State.Error);
  NumFed = State.NumFed;
  NumOutputs = State.NumOutputs;
  NumCalcRuns = State.NumCalcRuns;
  InPlaceStats = State.InPlace;
  Cur = std::move(State.Cur);
  Present = std::move(State.Present);
  LastVal = std::move(State.LastVal);
  LastInit = std::move(State.LastInit);
  NextTs = std::move(State.NextTs);
  NextTsSet = std::move(State.NextTsSet);
  // The reset order of current-value slots is unobservable; membership
  // is what matters, so Touched is rebuilt from presence.
  Touched.clear();
  for (size_t Slot = 0, E = Present.size(); Slot != E; ++Slot)
    if (Present[Slot])
      Touched.push_back(static_cast<SlotId>(Slot));
}

std::vector<OutputEvent> tessla::runMonitor(
    const Program &Prog,
    const std::vector<std::tuple<StreamId, Time, Value>> &Events,
    std::optional<Time> Horizon, std::string *ErrorOut) {
  Monitor M(Prog);
  std::vector<OutputEvent> Out;
  M.setOutputHandler([&Out](Time Ts, StreamId Id, const Value &V) {
    // Recording the borrowed value is an O(1) handle copy: the extra
    // handle makes a later in-place update of the aggregate see a sharer
    // and path-copy, so the recorded output keeps its value.
    Out.push_back({Ts, Id, V});
  });
  for (const auto &[Id, Ts, V] : Events) {
    if (!M.feed(Id, Ts, V))
      break;
  }
  M.finish(Horizon);
  if (ErrorOut)
    *ErrorOut = M.failed() ? M.errorMessage() : "";
  return Out;
}
