//===- Program/Ownership.cpp ------------------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// Program::planOwnership: which of a lane's own handles on an in-place
// family's payload each in-place update may drop before it runs.
//
// The aggregate update analysis (§IV) proves that once an in-place write
// fires, no later reader observes the family's previous value. The
// engines hold that value in more places than the paper's generated
// code: the argument slot, the copy a `last` step or a merge/filter
// pass-through made of it, and the family's *_last slot. Left alone,
// those handles make every payload look shared to the copy-on-write
// runtime, and each in-place update path-copies. This plan names the
// handles the translation order proves dead, once per Program, so the
// engines release them with a flat loop and the runtime's uniqueness
// test is left with detecting holders outside the lane.
//
// The same facts let a handle move at its last use instead of being
// copied and later dropped: a merge or filter passes its argument on by
// move when nothing after it reads the argument's slot, and the last
// refresh moves its source, which only the slot reset reads after it.
// Seen Set's in-place event then retains and releases its set once
// instead of three times each.
//
//===----------------------------------------------------------------------===//

#include "tessla/ADT/UnionFind.h"
#include "tessla/Program/Program.h"

#include <cassert>

using namespace tessla;

namespace {

bool retains(ArgAccess A) {
  return A == ArgAccess::Write || A == ArgAccess::Pass;
}

/// True when builtin \p Fn, applied to \p NumArgs arguments, updates
/// its first argument.
bool writesFirst(BuiltinId Fn, unsigned NumArgs) {
  return NumArgs != 0 && builtinInfo(Fn).Access[0] == ArgAccess::Write;
}

} // namespace

void Program::planOwnership() {
  Releases.clear();
  const uint32_t NumSlots = NumValueSlots;
  const uint32_t NumLasts = static_cast<uint32_t>(LastSlots.size());
  const int N = static_cast<int>(Steps.size());
  auto LastNode = [NumSlots](uint32_t I) { return NumSlots + I; };

  // --- Per slot: defining step, last reading step, and whether a reader
  // outside the step loop (outputs, last refresh, delays) pins it. ---
  std::vector<int> DefStep(NumSlots, N), LastUse(NumSlots, -1);
  std::vector<int> LastRead(NumLasts, -1);
  std::vector<char> Pinned(NumSlots, 0);
  auto Pin = [&](SlotId S) {
    if (S < NumSlots)
      Pinned[S] = 1;
  };
  for (const OutputSlot &O : Outputs)
    Pin(O.ValueSlot);
  for (const LastSlot &L : LastSlots)
    Pin(L.ValueSlot);
  for (const DelaySlot &D : Delays) {
    Pin(D.ValueSlot);
    Pin(D.DelaysSlot);
    Pin(D.ResetSlot);
  }

  // --- Families: value flow through Write/Pass arguments, last steps
  // and last refreshes (Def. 7's variable families, over slots). ---
  // Nodes: value slots, then last slots; the dead slot of nil streams
  // is no node.
  constexpr uint32_t NoNode = ~0u;
  auto Node = [NumSlots](SlotId S) { return S < NumSlots ? S : NoNode; };
  UnionFind Families(NumSlots + NumLasts);
  auto Unite = [&](uint32_t A, uint32_t B) {
    if (A != NoNode && B != NoNode)
      Families.unite(A, B);
  };
  for (uint32_t I = 0; I != NumLasts; ++I)
    Unite(LastNode(I), Node(LastSlots[I].ValueSlot));

  for (int K = 0; K != N; ++K) {
    ProgramStep &Step = Steps[K];
    Step.InPlaceUpdates = 0;
    Step.NumReleases = 0;
    Step.ReleaseBegin = 0;
    Step.MoveArgs = 0;
    if (Step.Op == Opcode::Skip)
      continue; // inputs hold the caller's values; nil never fires
    if (Step.Dst < NumSlots)
      DefStep[Step.Dst] = K;
    for (unsigned I = 0; I != Step.NumArgs; ++I)
      if (Step.ArgSlot[I] < NumSlots)
        LastUse[Step.ArgSlot[I]] = K;
    // Fn is meaningful for the lift opcodes only.
    const BuiltinInfo &Info = builtinInfo(Step.Fn);
    switch (Step.Op) {
    case Opcode::Last:
      LastRead[Step.Aux] = K;
      Unite(Node(Step.Dst), LastNode(Step.Aux));
      break;
    case Opcode::LiftMerge:
      for (unsigned I = 0; I != Step.NumArgs; ++I)
        Unite(Node(Step.Dst), Node(Step.ArgSlot[I]));
      break;
    case Opcode::LiftFilter:
      Unite(Node(Step.Dst), Node(Step.ArgSlot[0]));
      break;
    case Opcode::LiftAll:
    case Opcode::LiftFirstRest:
      for (unsigned I = 0; I != Step.NumArgs; ++I)
        if (retains(Info.Access[I]))
          Unite(Node(Step.Dst), Node(Step.ArgSlot[I]));
      if (Step.InPlace && writesFirst(Step.Fn, Step.NumArgs))
        Step.InPlaceUpdates = InPlaceOuter;
      break;
    case Opcode::FusedLastLift:
      // ArgSlot[0] is the fused last's trigger; the consumer's first
      // argument is the last slot itself.
      LastRead[Step.Aux] = K;
      if (retains(Info.Access[0]))
        Unite(Node(Step.Dst), LastNode(Step.Aux));
      for (unsigned I = 1; I != Step.NumArgs; ++I)
        if (retains(Info.Access[I]))
          Unite(Node(Step.Dst), Node(Step.ArgSlot[I]));
      if (Step.InPlace && writesFirst(Step.Fn, Step.NumArgs))
        Step.InPlaceUpdates = InPlaceOuter;
      break;
    case Opcode::FusedLiftLift: {
      const BuiltinInfo &Inner = builtinInfo(Step.Fn2);
      if (retains(Info.Access[0]))
        for (unsigned I = 0; I != Step.FusedArity; ++I)
          if (retains(Inner.Access[I]))
            Unite(Node(Step.Dst), Node(Step.ArgSlot[I]));
      for (unsigned I = Step.FusedArity; I != Step.NumArgs; ++I)
        if (retains(Info.Access[1 + I - Step.FusedArity]))
          Unite(Node(Step.Dst), Node(Step.ArgSlot[I]));
      // The consumer's arity is its rest plus the fused producer.
      if (Step.InPlace &&
          writesFirst(Step.Fn, 1u + Step.NumArgs - Step.FusedArity))
        Step.InPlaceUpdates |= InPlaceOuter;
      if (Step.InPlace2 && writesFirst(Step.Fn2, Step.FusedArity))
        Step.InPlaceUpdates |= InPlaceInner;
      break;
    }
    default:
      break;
    }
  }

  // --- Moves at last use: a pass-through's argument that no later step
  // reads and no reader outside the step loop pins, and each last
  // refresh's source, which only the slot reset reads after it (the
  // engines refresh after delay scheduling). ---
  auto MovableAt = [&](SlotId X, int K) {
    return X < NumSlots && !Pinned[X] && LastUse[X] == K;
  };
  for (int K = 0; K != N; ++K) {
    ProgramStep &Step = Steps[K];
    if (Step.Op == Opcode::LiftMerge) {
      for (unsigned I = 0; I != Step.NumArgs; ++I)
        if (MovableAt(Step.ArgSlot[I], K))
          Step.MoveArgs |= uint8_t(1u << I);
    } else if (Step.Op == Opcode::LiftFilter && MovableAt(Step.ArgSlot[0], K)) {
      Step.MoveArgs = 1;
    }
  }
  std::vector<uint8_t> LastSources(NumSlots, 0);
  for (const LastSlot &L : LastSlots)
    if (L.ValueSlot < NumSlots && LastSources[L.ValueSlot] < 2)
      ++LastSources[L.ValueSlot];
  for (LastSlot &L : LastSlots)
    L.MoveSource = L.ValueSlot < NumSlots && LastSources[L.ValueSlot] == 1;

  // --- Release sets of every outer in-place update. ---
  for (int K = 0; K != N; ++K) {
    ProgramStep &Step = Steps[K];
    if (!(Step.InPlaceUpdates & InPlaceOuter))
      continue;
    // The handle the update goes through stays: it is the one owner.
    uint32_t ArgNode = NoNode;
    if (Step.Op == Opcode::FusedLastLift)
      ArgNode = LastNode(Step.Aux);
    else if (Step.Op != Opcode::FusedLiftLift)
      ArgNode = Node(Step.ArgSlot[0]);
    // Slots the update itself still reads (a fused producer's operands
    // are consumed before the releases run).
    unsigned FirstRead =
        Step.Op == Opcode::FusedLiftLift ? Step.FusedArity : 0;
    auto ReadHere = [&](uint32_t X) {
      for (unsigned I = FirstRead; I != Step.NumArgs; ++I)
        if (Step.ArgSlot[I] == X)
          return true;
      return false;
    };
    const uint32_t Family = Families.find(Step.Dst);
    Step.ReleaseBegin = static_cast<uint32_t>(Releases.size());

    for (uint32_t X = 0; X != NumSlots; ++X) {
      if (X == ArgNode || X == Step.Dst || Families.find(X) != Family)
        continue;
      if (Pinned[X] || DefStep[X] >= K || LastUse[X] > K || ReadHere(X))
        continue;
      Releases.push_back({HandleRelease::Kind::Value, static_cast<SlotId>(X)});
    }
    // The mutability analysis keeps a family in place only when each of
    // its last sources fires whenever a write does, so the end-of-
    // timestamp refresh rewrites these slots.
    for (uint32_t I = 0; I != NumLasts; ++I) {
      if (LastNode(I) == ArgNode || Families.find(LastNode(I)) != Family)
        continue;
      if (LastRead[I] > K)
        continue; // a later step still reads the old value
      Releases.push_back({HandleRelease::Kind::Last, static_cast<SlotId>(I)});
    }
    size_t Count = Releases.size() - Step.ReleaseBegin;
    assert(Count <= UINT16_MAX && "release set too large");
    Step.NumReleases = static_cast<uint16_t>(Count);
  }
}
