//===- Runtime/CalcKernel.h - The calculation section ----------*- C++ -*-===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
// One timestamp of the translation scheme (§III-A) — the calculation
// section in translation order, output emission, the *_last refresh,
// delay re-arming and the slot reset — written once for both
// interpreting engines. The kernel is templated on the engine's state
// layout: every row (value slot, last slot, delay) of lane L lives at
// row(R) + L, and the lane loop sits inside each opcode case, so
// BatchedMonitor decodes each step once per sweep with its row offsets
// hoisted while Monitor's one-lane layout folds the loop away. Engines
// keep only their layout, lane bookkeeping and scheduling. Not
// installed; an implementation detail of Monitor.cpp and
// BatchedMonitor.cpp.
//
// A layout State provides:
//   lanes()                the lanes of this run;
//   failed(Lane)           whether the lane has failed (re-checked at
//                          every step, so a failure skips the rest);
//   row(R)                 offset of row R of lane 0;
//   cur(I), present(I), lastVal(I), lastInit(I), nextTs(I),
//   nextTsSet(I)           the rows, indexed row(R) + Lane;
//   touched(Lane)          the lane's present value slots, in order;
//   runTs(Lane)            the timestamp the lane calculates;
//   inPlace(Lane)          the lane's InPlaceCounts;
//   emit(Lane, Id, V)      one output event (V is borrowed);
//   fail(Lane, Ts, Id, M)  fails the lane with message M.
//
//===----------------------------------------------------------------------===//

#ifndef TESSLA_SRC_RUNTIME_CALCKERNEL_H
#define TESSLA_SRC_RUNTIME_CALCKERNEL_H

#include "tessla/Program/Program.h"

#include <optional>

namespace tessla {
namespace calc {

/// Sets value slot \p Slot of \p Lane and marks it present. Forced
/// inline, like gather(): as calls they cost the solo monitor about 10 %
/// per event.
template <class State>
[[gnu::always_inline]] inline void setSlot(State &S, SlotId Slot,
                                           uint32_t Lane, Value V) {
  size_t I = S.row(Slot) + Lane;
  S.cur(I) = std::move(V);
  if (!S.present(I)) {
    S.present(I) = 1;
    S.touched(Lane).push_back(Slot);
  }
}

/// The earliest armed delay timer of \p Lane, if any.
template <class State>
std::optional<Time> nextDelay(const Program &Prog, State S, uint32_t Lane) {
  std::optional<Time> Min;
  for (size_t R = 0, E = Prog.delays().size(); R != E; ++R) {
    size_t I = S.row(R) + Lane;
    if (S.nextTsSet(I) && (!Min || S.nextTs(I) < *Min))
      Min = S.nextTs(I);
  }
  return Min;
}

/// Points Out[0..) at the values of \p Step's argument slots
/// [From, To) in \p Lane; false when one of them is absent.
template <class State>
[[gnu::always_inline]] inline bool gather(State &S, const ProgramStep &Step,
                                          uint32_t Lane, unsigned From,
                                          unsigned To, const Value **Out) {
  for (unsigned I = From; I != To; ++I) {
    size_t A = S.row(Step.ArgSlot[I]) + Lane;
    if (!S.present(A))
      return false;
    Out[I - From] = &S.cur(A);
  }
  return true;
}

/// Fails \p Lane with the message a builtin left in \p Err, attributed
/// to stream \p Id, and clears \p Err for the next lane. Kept out of
/// line: no step fails on the hot path.
template <class State>
[[gnu::cold, gnu::noinline]] void failStep(State S, uint32_t Lane,
                                           StreamId Id, EvalError &Err) {
  S.fail(Lane, S.runTs(Lane), Id, Err.Message);
  Err = EvalError();
}

/// Runs \p Step's evaluator over \p Args and stores the result, or fails
/// the lane; \p Update says whether this is one of the step's in-place
/// updates (which first drop the handles the ownership plan proves dead
/// and are counted as hits or misses).
template <class State>
void evaluate(const Program &Prog, State &S, const ProgramStep &Step,
              uint32_t Lane, const Value *const *Args, bool Update,
              EvalError &Err) {
  Value Result =
      Update ? runInPlaceUpdate(
                   Prog.releases(), Step, Args, Err, S.inPlace(Lane),
                   [&](const HandleRelease &R) -> Value & {
                     size_t I = S.row(R.Slot) + Lane;
                     return R.K == HandleRelease::Kind::Value
                                ? S.cur(I)
                                : S.lastVal(I);
                   })
             : Step.Impl(Args, Step.InPlace, Err);
  if (Err.Failed)
    failStep(S, Lane, Step.Id, Err);
  else
    setSlot(S, Step.Dst, Lane, std::move(Result));
}

/// One calculation run of every lane \p S selects, each at its runTs().
/// A lane that fails is skipped by everything after the failure. A
/// layout is a small view of its engine, so it is passed by value.
template <class State> void runCalculation(const Program &Prog, State S) {
  EvalError Err;
  for (const ProgramStep &Step : Prog.steps()) {
    switch (Step.Op) {
    case Opcode::Skip:
      break; // inputs were applied by feed(); nil never fires
    case Opcode::Const:
      for (uint32_t L : S.lanes())
        if (!S.failed(L) && S.runTs(L) == 0)
          setSlot(S, Step.Dst, L, Step.ConstVal);
      break;
    case Opcode::Time: {
      const size_t Arg = S.row(Step.ArgSlot[0]);
      for (uint32_t L : S.lanes())
        if (!S.failed(L) && S.present(Arg + L))
          setSlot(S, Step.Dst, L, Value::integer(S.runTs(L)));
      break;
    }
    case Opcode::Last: {
      const size_t Trigger = S.row(Step.ArgSlot[1]);
      const size_t Last = S.row(Step.Aux);
      for (uint32_t L : S.lanes())
        if (!S.failed(L) && S.present(Trigger + L) && S.lastInit(Last + L))
          setSlot(S, Step.Dst, L, S.lastVal(Last + L));
      break;
    }
    case Opcode::Delay: {
      const size_t Timer = S.row(Step.Aux);
      for (uint32_t L : S.lanes())
        if (!S.failed(L) && S.nextTsSet(Timer + L) &&
            S.nextTs(Timer + L) == S.runTs(L))
          setSlot(S, Step.Dst, L, Value::unit());
      break;
    }
    case Opcode::LiftAll:
      for (uint32_t L : S.lanes()) {
        const Value *Args[3];
        if (!S.failed(L) && gather(S, Step, L, 0, Step.NumArgs, Args))
          evaluate(Prog, S, Step, L, Args, Step.InPlaceUpdates, Err);
      }
      break;
    case Opcode::LiftMerge:
      // merge: the first stream's event wins (f_merge, §II). An argument
      // read by nothing later is moved (ProgramStep::MoveArgs).
      for (uint32_t L : S.lanes()) {
        if (S.failed(L))
          continue;
        for (unsigned I = 0; I != Step.NumArgs; ++I) {
          size_t A = S.row(Step.ArgSlot[I]) + L;
          if (S.present(A)) {
            setSlot(S, Step.Dst, L,
                    Step.MoveArgs >> I & 1 ? std::move(S.cur(A)) : S.cur(A));
            break;
          }
        }
      }
      break;
    case Opcode::LiftFirstRest: {
      const size_t First = S.row(Step.ArgSlot[0]);
      for (uint32_t L : S.lanes()) {
        if (S.failed(L) || !S.present(First + L))
          continue;
        const Value *Args[3] = {&S.cur(First + L), nullptr, nullptr};
        bool AnyRest = false;
        for (unsigned I = 1; I != Step.NumArgs; ++I) {
          size_t A = S.row(Step.ArgSlot[I]) + L;
          if (S.present(A)) {
            Args[I] = &S.cur(A);
            AnyRest = true;
          }
        }
        if (AnyRest)
          evaluate(Prog, S, Step, L, Args, Step.InPlaceUpdates, Err);
      }
      break;
    }
    case Opcode::LiftFilter: {
      // filter(a, c): pass a's event iff c is currently true.
      const size_t Arg = S.row(Step.ArgSlot[0]);
      const size_t Cond = S.row(Step.ArgSlot[1]);
      for (uint32_t L : S.lanes()) {
        if (S.failed(L) || !S.present(Arg + L) || !S.present(Cond + L))
          continue;
        const Value &C = S.cur(Cond + L);
        if (C.kind() != Value::Kind::Bool)
          S.fail(L, S.runTs(L), Step.Id, "filter condition is not a Bool");
        else if (C.getBool())
          setSlot(S, Step.Dst, L,
                  Step.MoveArgs ? std::move(S.cur(Arg + L)) : S.cur(Arg + L));
      }
      break;
    }
    case Opcode::ConstTick: {
      // Collapsed held constant: fires at timestamp 0 and with every
      // trigger event, always carrying the same scalar.
      const size_t Trigger = S.row(Step.ArgSlot[0]);
      for (uint32_t L : S.lanes())
        if (!S.failed(L) && (S.runTs(L) == 0 || S.present(Trigger + L)))
          setSlot(S, Step.Dst, L, Step.ConstVal);
      break;
    }
    case Opcode::FusedLastLift: {
      // Consumer lift with a fused last(v, r) as first argument: fires
      // when r fires, the last slot is initialized, and the remaining
      // arguments are present — byte-identical to the unfused pair.
      const size_t Trigger = S.row(Step.ArgSlot[0]);
      const size_t Last = S.row(Step.Aux);
      for (uint32_t L : S.lanes()) {
        if (S.failed(L) || !S.present(Trigger + L) || !S.lastInit(Last + L))
          continue;
        const Value *Args[3] = {&S.lastVal(Last + L)};
        if (gather(S, Step, L, 1, Step.NumArgs, Args + 1))
          evaluate(Prog, S, Step, L, Args, Step.InPlaceUpdates, Err);
      }
      break;
    }
    case Opcode::FusedLiftLift:
      // Consumer lift with its single-consumer producer inlined. The
      // producer is evaluated whenever *its* arguments are present —
      // even if the consumer's rest is absent — so destructive updates
      // and error behavior match the unfused program exactly; the
      // temporary is simply discarded when the consumer cannot fire.
      for (uint32_t L : S.lanes()) {
        const Value *Inner[3];
        if (S.failed(L) || !gather(S, Step, L, 0, Step.FusedArity, Inner))
          continue;
        Value Tmp = Step.Impl2(Inner, Step.InPlace2, Err);
        if (Err.Failed) {
          failStep(S, L, Step.FusedId, Err);
          continue;
        }
        if (Step.InPlaceUpdates & InPlaceInner)
          S.inPlace(L).count(Inner[0]->aggregateIdentity(), Tmp);
        const Value *Args[3] = {&Tmp};
        if (gather(S, Step, L, Step.FusedArity, Step.NumArgs, Args + 1))
          evaluate(Prog, S, Step, L, Args, Step.InPlaceUpdates & InPlaceOuter,
                   Err);
      }
      break;
    }
  }

  // --- Emit outputs, per lane in stream definition order. ---
  for (uint32_t L : S.lanes()) {
    if (S.failed(L))
      continue;
    for (const OutputSlot &Out : Prog.outputs()) {
      size_t I = S.row(Out.ValueSlot) + L;
      if (S.present(I))
        S.emit(L, Out.Id, S.cur(I));
    }
  }

  // --- Delay scheduling (§III-B): an event of the reset stream or the
  // delay itself is a reset; with a delays-value event it re-arms the
  // timer, without one it cancels it. It runs before the last refresh,
  // which may move the amount slots it reads. ---
  for (size_t R = 0, E = Prog.delays().size(); R != E; ++R) {
    const DelaySlot &D = Prog.delays()[R];
    const size_t Reset = S.row(D.ResetSlot), Self = S.row(D.ValueSlot),
                 Amount = S.row(D.DelaysSlot), Timer = S.row(R);
    for (uint32_t L : S.lanes()) {
      if (S.failed(L) || (!S.present(Reset + L) && !S.present(Self + L)))
        continue;
      if (!S.present(Amount + L)) {
        S.nextTsSet(Timer + L) = 0;
        continue;
      }
      int64_t By = S.cur(Amount + L).getInt();
      if (By <= 0) {
        S.fail(L, S.runTs(L), D.Id, "delay amounts must be positive");
        continue;
      }
      S.nextTs(Timer + L) = S.runTs(L) + By;
      S.nextTsSet(Timer + L) = 1;
    }
  }

  // --- End of calculation: update *_last slots (§III-A), moving the
  // source when the ownership plan allows: only the reset reads it
  // after this. ---
  for (size_t R = 0, E = Prog.lastSlots().size(); R != E; ++R) {
    const LastSlot &LS = Prog.lastSlots()[R];
    const size_t Src = S.row(LS.ValueSlot);
    const size_t Last = S.row(R);
    for (uint32_t L : S.lanes())
      if (!S.failed(L) && S.present(Src + L)) {
        if (LS.MoveSource)
          S.lastVal(Last + L) = std::move(S.cur(Src + L));
        else
          S.lastVal(Last + L) = S.cur(Src + L);
        S.lastInit(Last + L) = 1;
      }
  }

  // --- Reset current-value slots for the lane's next timestamp. ---
  for (uint32_t L : S.lanes()) {
    if (S.failed(L))
      continue;
    for (SlotId Slot : S.touched(L)) {
      size_t I = S.row(Slot) + L;
      S.present(I) = 0;
      S.cur(I) = Value(); // release aggregate handles promptly
    }
    S.touched(L).clear();
  }
}

} // namespace calc
} // namespace tessla

#endif // TESSLA_SRC_RUNTIME_CALCKERNEL_H
