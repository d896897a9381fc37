//===- Runtime/Monitor.cpp --------------------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "tessla/Runtime/Monitor.h"

#include "tessla/Runtime/ExecutionEngine.h"
#include "tessla/Support/Format.h"

#include <cassert>
#include <limits>

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

void Monitor::failAt(Time Ts, StreamId Id, const std::string &Message) {
  Err.fail(formatString("at t=%lld, stream '%s': %s",
                        static_cast<long long>(Ts),
                        Prog.spec().stream(Id).Name.c_str(),
                        Message.c_str()));
}

void Monitor::setValue(SlotId Slot, Value V) {
  Cur[Slot] = std::move(V);
  if (!Present[Slot]) {
    Present[Slot] = 1;
    Touched.push_back(Slot);
  }
}

std::optional<Time> Monitor::minNextDelay() const {
  std::optional<Time> Min;
  for (size_t I = 0, E = NextTs.size(); I != E; ++I)
    if (NextTsSet[I] && (!Min || NextTs[I] < *Min))
      Min = NextTs[I];
  return Min;
}

void Monitor::runCalc(Time Ts) {
  ++NumCalcRuns;

  // --- Calculation section (§III-A), in translation order: one flat
  // dispatch per step over pre-resolved slots and function pointers. ---
  for (const ProgramStep &Step : Prog.steps()) {
    if (Err.Failed)
      return;
    switch (Step.Op) {
    case Opcode::Skip:
      break; // inputs were buffered by feed(); nil never fires
    case Opcode::Const:
      if (Ts == 0)
        setValue(Step.Dst, Step.ConstVal);
      break;
    case Opcode::Time:
      if (Present[Step.ArgSlot[0]])
        setValue(Step.Dst, Value::integer(Ts));
      break;
    case Opcode::Last:
      if (Present[Step.ArgSlot[1]] && LastInit[Step.Aux])
        setValue(Step.Dst, LastVal[Step.Aux]);
      break;
    case Opcode::Delay:
      if (NextTsSet[Step.Aux] && NextTs[Step.Aux] == Ts)
        setValue(Step.Dst, Value::unit());
      break;
    case Opcode::LiftAll: {
      const Value *Args[3];
      bool AllPresent = true;
      for (unsigned I = 0; I != Step.NumArgs; ++I) {
        if (!Present[Step.ArgSlot[I]]) {
          AllPresent = false;
          break;
        }
        Args[I] = &Cur[Step.ArgSlot[I]];
      }
      if (!AllPresent)
        break;
      Value Result = Step.InPlaceUpdates
                         ? updateInPlace(Step, Args)
                         : Step.Impl(Args, Step.InPlace, Err);
      if (Err.Failed) {
        failAt(Ts, Step.Id, Err.Message);
        return;
      }
      setValue(Step.Dst, std::move(Result));
      break;
    }
    case Opcode::LiftMerge:
      // merge: the first stream's event wins (f_merge, §II).
      for (unsigned I = 0; I != Step.NumArgs; ++I)
        if (Present[Step.ArgSlot[I]]) {
          setValue(Step.Dst, Cur[Step.ArgSlot[I]]);
          break;
        }
      break;
    case Opcode::LiftFirstRest: {
      if (!Present[Step.ArgSlot[0]])
        break;
      const Value *Args[3] = {nullptr, nullptr, nullptr};
      bool AnyRest = false;
      Args[0] = &Cur[Step.ArgSlot[0]];
      for (unsigned I = 1; I != Step.NumArgs; ++I)
        if (Present[Step.ArgSlot[I]]) {
          Args[I] = &Cur[Step.ArgSlot[I]];
          AnyRest = true;
        }
      if (!AnyRest)
        break;
      Value Result = Step.InPlaceUpdates
                         ? updateInPlace(Step, Args)
                         : Step.Impl(Args, Step.InPlace, Err);
      if (Err.Failed) {
        failAt(Ts, Step.Id, Err.Message);
        return;
      }
      setValue(Step.Dst, std::move(Result));
      break;
    }
    case Opcode::LiftFilter: {
      // filter(a, c): pass a's event iff c is currently true.
      if (!Present[Step.ArgSlot[0]] || !Present[Step.ArgSlot[1]])
        break;
      const Value &Cond = Cur[Step.ArgSlot[1]];
      if (Cond.kind() != Value::Kind::Bool) {
        failAt(Ts, Step.Id, "filter condition is not a Bool");
        return;
      }
      if (Cond.getBool())
        setValue(Step.Dst, Cur[Step.ArgSlot[0]]);
      break;
    }
    case Opcode::ConstTick:
      // Collapsed held constant: fires at timestamp 0 and with every
      // trigger event, always carrying the same scalar.
      if (Ts == 0 || Present[Step.ArgSlot[0]])
        setValue(Step.Dst, Step.ConstVal);
      break;
    case Opcode::FusedLastLift: {
      // Consumer lift with a fused last(v, r) as first argument: fires
      // when r fires, the last slot is initialized, and the remaining
      // arguments are present — byte-identical to the unfused pair.
      if (!Present[Step.ArgSlot[0]] || !LastInit[Step.Aux])
        break;
      const Value *Args[3];
      Args[0] = &LastVal[Step.Aux];
      bool AllPresent = true;
      for (unsigned I = 1; I != Step.NumArgs; ++I) {
        if (!Present[Step.ArgSlot[I]]) {
          AllPresent = false;
          break;
        }
        Args[I] = &Cur[Step.ArgSlot[I]];
      }
      if (!AllPresent)
        break;
      Value Result = Step.InPlaceUpdates
                         ? updateInPlace(Step, Args)
                         : Step.Impl(Args, Step.InPlace, Err);
      if (Err.Failed) {
        failAt(Ts, Step.Id, Err.Message);
        return;
      }
      setValue(Step.Dst, std::move(Result));
      break;
    }
    case Opcode::FusedLiftLift: {
      // Consumer lift with its single-consumer producer inlined. The
      // producer is evaluated whenever *its* arguments are present —
      // even if the consumer's rest is absent — so destructive updates
      // and error behavior match the unfused program exactly; the
      // temporary is simply discarded when the consumer cannot fire.
      const Value *Inner[3];
      bool InnerPresent = true;
      for (unsigned I = 0; I != Step.FusedArity; ++I) {
        if (!Present[Step.ArgSlot[I]]) {
          InnerPresent = false;
          break;
        }
        Inner[I] = &Cur[Step.ArgSlot[I]];
      }
      if (!InnerPresent)
        break;
      Value Tmp = Step.Impl2(Inner, Step.InPlace2, Err);
      if (Err.Failed) {
        failAt(Ts, Step.FusedId, Err.Message);
        return;
      }
      if (Step.InPlaceUpdates & InPlaceInner)
        InPlaceStats.count(Inner[0]->aggregateIdentity(), Tmp);
      const Value *Args[3];
      Args[0] = &Tmp;
      bool AllPresent = true;
      for (unsigned I = Step.FusedArity; I != Step.NumArgs; ++I) {
        if (!Present[Step.ArgSlot[I]]) {
          AllPresent = false;
          break;
        }
        Args[1 + I - Step.FusedArity] = &Cur[Step.ArgSlot[I]];
      }
      if (!AllPresent)
        break;
      Value Result = (Step.InPlaceUpdates & InPlaceOuter)
                         ? updateInPlace(Step, Args)
                         : Step.Impl(Args, Step.InPlace, Err);
      if (Err.Failed) {
        failAt(Ts, Step.Id, Err.Message);
        return;
      }
      setValue(Step.Dst, std::move(Result));
      break;
    }
    }
  }

  // --- Emit outputs. ---
  if (Handler) {
    for (const OutputSlot &Out : Prog.outputs())
      if (Present[Out.ValueSlot]) {
        ++NumOutputs;
        Handler(Ts, Out.Id, Cur[Out.ValueSlot]);
      }
  } else {
    for (const OutputSlot &Out : Prog.outputs())
      if (Present[Out.ValueSlot])
        ++NumOutputs;
  }

  // --- End of calculation: update *_last slots (§III-A). ---
  for (size_t I = 0, E = Prog.lastSlots().size(); I != E; ++I) {
    SlotId V = Prog.lastSlots()[I].ValueSlot;
    if (Present[V]) {
      LastVal[I] = Cur[V];
      LastInit[I] = 1;
    }
  }

  // --- Delay scheduling (§III-B): an event of the reset stream or the
  // delay itself is a reset; with a delays-value event it re-arms the
  // timer, without one it cancels it. ---
  for (size_t I = 0, E = Prog.delays().size(); I != E; ++I) {
    const DelaySlot &D = Prog.delays()[I];
    bool ResetEvent = Present[D.ResetSlot] || Present[D.ValueSlot];
    if (!ResetEvent)
      continue;
    if (Present[D.DelaysSlot]) {
      int64_t Amount = Cur[D.DelaysSlot].getInt();
      if (Amount <= 0) {
        failAt(Ts, D.Id, "delay amounts must be positive");
        return;
      }
      NextTs[I] = Ts + Amount;
      NextTsSet[I] = 1;
    } else {
      NextTsSet[I] = 0;
    }
  }

  // --- Reset current-value slots for the next timestamp. ---
  for (SlotId Slot : Touched) {
    Present[Slot] = 0;
    Cur[Slot] = Value(); // release aggregate handles promptly
  }
  Touched.clear();
}

void Monitor::flushBefore(Time T) {
  if (!CalcDoneForPending) {
    runCalc(PendingTs);
    CalcDoneForPending = true;
  }
  while (!Err.Failed) {
    std::optional<Time> Min = minNextDelay();
    if (!Min || *Min >= T)
      return;
    runCalc(*Min);
  }
}

bool Monitor::feed(StreamId Input, Time Ts, Value V) {
  if (Err.Failed)
    return false;
  if (Finished) {
    Err.fail("feed() after finish()");
    return false;
  }
  assert(Prog.spec().stream(Input).Kind == StreamKind::Input &&
         "feed() targets must be input streams");
  SlotId Slot = Prog.valueSlot(Input);
  if (Ts < 0) {
    failAt(Ts, Input, "timestamps must be non-negative");
    return false;
  }
  if (Ts < PendingTs || (CalcDoneForPending && Ts == PendingTs)) {
    failAt(Ts, Input, "input events must arrive in timestamp order");
    return false;
  }
  if (Ts > PendingTs) {
    flushBefore(Ts);
    if (Err.Failed)
      return false;
    PendingTs = Ts;
    CalcDoneForPending = false;
  } else if (Present[Slot]) {
    failAt(Ts, Input, "two events on one stream at the same timestamp");
    return false;
  }
  setValue(Slot, std::move(V));
  ++NumFed;
  return true;
}

void Monitor::finish(std::optional<Time> Horizon) {
  if (Err.Failed || Finished)
    return;
  Time Bound = Horizon ? (*Horizon == std::numeric_limits<Time>::max()
                              ? *Horizon
                              : *Horizon + 1)
                       : std::numeric_limits<Time>::max();
  flushBefore(Bound);
  Finished = true;
}

void Monitor::extractState(EngineLaneState &Out) {
  Out.PendingTs = PendingTs;
  Out.CalcDone = CalcDoneForPending;
  Out.Failed = Err.Failed;
  Out.Error = std::move(Err.Message);
  Out.NumFed = NumFed;
  Out.NumOutputs = NumOutputs;
  Out.NumCalcRuns = NumCalcRuns;
  Out.InPlace = InPlaceStats;
  Out.Cur = std::move(Cur);
  Out.Present = std::move(Present);
  Out.LastVal = std::move(LastVal);
  Out.LastInit = std::move(LastInit);
  Out.NextTs = std::move(NextTs);
  Out.NextTsSet = std::move(NextTsSet);
}

void Monitor::snapshotState(EngineLaneState &Out) const {
  Out.PendingTs = PendingTs;
  Out.CalcDone = CalcDoneForPending;
  Out.Failed = Err.Failed;
  Out.Error = Err.Message;
  Out.NumFed = NumFed;
  Out.NumOutputs = NumOutputs;
  Out.NumCalcRuns = NumCalcRuns;
  // In-place counters stay zero: they count this lane's updates, and a
  // snapshot has run none yet.
  Out.Cur = Cur; // O(1) per slot: aggregate handles share structure
  Out.Present = Present;
  Out.LastVal = LastVal;
  Out.LastInit = LastInit;
  Out.NextTs = NextTs;
  Out.NextTsSet = NextTsSet;
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
