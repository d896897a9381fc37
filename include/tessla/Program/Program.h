//===- tessla/Program/Program.h - Lowered program IR -----------*- C++ -*-===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fully lowered, backend-neutral form of a specification — the single
/// product of the paper's translation scheme (§III): the calculation
/// section's steps in translation order with the mutability set applied,
/// plus the bookkeeping the triggering section needs (last-value slots,
/// delay scheduling, outputs).
///
/// Both execution backends consume exactly this IR:
///
///   Analysis/Pipeline ──▶ Program::compile ──┬─▶ Runtime/Monitor
///                                            └─▶ CodeGen/CppEmitter
///
/// so the interpreter and the generated C++ agree by construction — there
/// is one lowering, not two.
///
/// Lowering resolves everything the per-event hot path would otherwise
/// re-derive:
///
///  * a **dense value-slot** per event-carrying stream (nil streams share
///    one dead slot), so engine state is indexed by slot, not StreamId;
///  * dense **last slots** for streams used as the first argument of a
///    last, and dense **delay slots** for delay streams — each referencing
///    step carries its slot index directly (no per-event search);
///  * a pre-resolved **opcode** merging the stream operator with its
///    builtin's event semantics, and for lift steps a pre-resolved
///    **function pointer** for the (BuiltinId, InPlace) combination — the
///    interpreter executes one flat dispatch per step instead of nested
///    switches.
///
//===----------------------------------------------------------------------===//

#ifndef TESSLA_PROGRAM_PROGRAM_H
#define TESSLA_PROGRAM_PROGRAM_H

#include "tessla/Runtime/BuiltinImpls.h"
#include "tessla/Runtime/Value.h"

#include <memory>

namespace tessla {

class AnalysisResult;

/// Engine state index. Slots are dense: 0..numValueSlots()-1 address the
/// current-timestamp value of one stream each; nil streams (which never
/// carry events) all map to the dead slot numValueSlots(), which no step
/// ever writes.
using SlotId = uint16_t;

/// Pre-resolved dispatch opcode of one program step: StreamKind and (for
/// lifts) EventSemantics folded into one flat enum so the interpreter's
/// per-step dispatch is a single switch.
///
/// The last three opcodes are never produced by Program::compile; they
/// are introduced by the optimization passes in tessla::opt (Opt/) and
/// executed by both backends.
enum class Opcode : uint8_t {
  Skip,          // Input (buffered by feed()) and Nil — no calculation
  Const,         // Const/Unit: one event at timestamp 0
  Time,          // time(s): s' timestamp as value
  Last,          // last(v, r): last-slot value when r fires
  Delay,         // delay(d, r): fire when the armed timer matches
  LiftAll,       // lift, EventSemantics::All — Impl over all arguments
  LiftMerge,     // lift, EventSemantics::Any — first present wins
  LiftFirstRest, // lift, EventSemantics::FirstAndAnyRest — Impl
  LiftFilter,    // lift, EventSemantics::Custom — pass iff condition
  // --- Opt-introduced opcodes ---
  ConstTick,     // ConstVal at timestamp 0 and whenever Args[0] fires
                 // (a collapsed held constant merge(c, last(c, t)))
  FusedLastLift, // last(v, r) fused into its LiftAll consumer: reads
                 // the last slot directly, no intermediate step/slot
  FusedLiftLift, // single-consumer LiftAll producer fused into its
                 // LiftAll consumer: Impl2 feeds Impl in one step
};

/// One lowered statement of the calculation section.
struct ProgramStep {
  Opcode Op = Opcode::Skip;
  /// Original operator (pretty-printing and code generation).
  StreamKind Kind = StreamKind::Nil;
  BuiltinId Fn = BuiltinId::Merge; // Lift only
  /// True when this stream's aggregate family is mutable: aggregate
  /// updates run destructively and fresh aggregates use the mutable
  /// representation.
  bool InPlace = false;
  uint8_t NumArgs = 0;
  /// Destination value slot.
  SlotId Dst = 0;
  /// Value slots of Args (gathered without a StreamId indirection).
  SlotId ArgSlot[3] = {0, 0, 0};
  /// Last steps: dense last-slot index of Args[0]. Delay steps: dense
  /// delay index into Program::delays(). Unused otherwise.
  SlotId Aux = 0;
  /// Pre-resolved evaluator for LiftAll/LiftFirstRest steps (and the
  /// consumer half of fused steps); null for every other opcode
  /// (merge/filter never reach an evaluator).
  BuiltinFn Impl = nullptr;
  /// The defined stream (diagnostics, printing, code generation).
  StreamId Id = 0;
  /// Stream-level operands (code generation, printing, and backward
  /// reachability in the optimizer). Per-opcode layout:
  ///  * ConstTick: {trigger} — NumArgs == 1;
  ///  * FusedLastLift: {v, r, rest...} of the fused last(v, r), so
  ///    Args.size() == NumArgs + 1 and ArgSlot[0] is r's slot followed
  ///    by the rest slots;
  ///  * FusedLiftLift: producer args then consumer rest args, aligned
  ///    with ArgSlot;
  ///  * everything else: the spec operands, aligned with ArgSlot.
  std::vector<StreamId> Args;
  Value ConstVal; // Const/ConstTick steps (always a scalar)

  // --- Fields used only by the opt-introduced opcodes. ---
  /// FusedLiftLift: evaluator/builtin/mutability of the fused producer.
  BuiltinFn Impl2 = nullptr;
  BuiltinId Fn2 = BuiltinId::Merge;
  bool InPlace2 = false;
  /// FusedLiftLift: arity of the fused producer (its argument slots are
  /// ArgSlot[0..FusedArity), the consumer's rest follows).
  uint8_t FusedArity = 0;
  /// Fused steps: the stream of the fused-away producer (printing, code
  /// generation, mutability lookups).
  StreamId FusedId = 0;
  /// True when ConstantFold rewrote this step (printing/statistics).
  bool Folded = false;

  // --- Ownership plan: derived by Program::planOwnership() from the
  // tables above, never serialized. ---
  /// In-place aggregate updates this step runs, as a mask: InPlaceOuter
  /// for Impl's first argument (the consumer half of fused steps),
  /// InPlaceInner for a FusedLiftLift's producer. Engines count each
  /// firing update as a hit (destructive tier) or a miss (path copy).
  uint8_t InPlaceUpdates = 0;
  /// Handles the engine drops right before the outer update (for
  /// FusedLiftLift: after the producer ran, once the consumer is known
  /// to fire): Program::releases()[ReleaseBegin, ReleaseBegin +
  /// NumReleases).
  uint16_t NumReleases = 0;
  uint32_t ReleaseBegin = 0;
  /// LiftMerge/LiftFilter: bit I is set when argument I's slot is read by
  /// nothing after this step — no later step, output, last refresh or
  /// delay — so the engine moves the value it passes on instead of
  /// copying it (an aggregate handle then costs no count traffic).
  uint8_t MoveArgs = 0;
};

/// ProgramStep::InPlaceUpdates bits.
constexpr uint8_t InPlaceOuter = 1;
constexpr uint8_t InPlaceInner = 2;

/// One lane-internal handle on an in-place family's payload that an
/// update drops before it runs, so that the payload's wrapper is unique
/// unless a holder outside the lane (a fork or snapshot, a handler-held
/// output, a checkpoint) shares it.
struct HandleRelease {
  enum class Kind : uint8_t {
    /// Value slot Slot: no later step, output, last refresh or delay
    /// reads it in this timestamp.
    Value,
    /// Last slot Slot: no later step reads it, and the end-of-timestamp
    /// refresh rewrites it whenever the update fires (the mutability
    /// analysis keeps no family in place where it might not).
    Last,
  };
  Kind K;
  SlotId Slot;
};

/// One lane's in-place update counters: updates that took the
/// destructive tier (hits) and that path-copied around another holder
/// of the payload (misses).
struct InPlaceCounts {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  /// Counts an update whose argument held payload \p Arg as a hit when
  /// its result \p After kept that payload.
  void count(const void *Arg, const Value &After) {
    ++(After.aggregateIdentity() == Arg ? Hits : Misses);
  }
};

/// Runs \p Step's outer in-place update over \p Args for one engine lane
/// and counts it in \p Counts. First drops the lane handles the ownership
/// plan proves dead; \p Handle maps each HandleRelease of \p Releases
/// (Program::releases()) to the lane's value or last slot.
template <typename HandleFn>
Value runInPlaceUpdate(const std::vector<HandleRelease> &Releases,
                       const ProgramStep &Step, const Value *const *Args,
                       EvalError &Err, InPlaceCounts &Counts,
                       HandleFn &&Handle) {
  const HandleRelease *R = Releases.data() + Step.ReleaseBegin;
  for (const HandleRelease *E = R + Step.NumReleases; R != E; ++R)
    Handle(*R) = Value();
  Value Result = Step.Impl(Args, Step.InPlace, Err);
  // The argument still holds its payload: the same one iff in place.
  if (!Err.Failed)
    Counts.count(Args[0]->aggregateIdentity(), Result);
  return Result;
}

/// One *_last slot: the most recent value of Source, updated at the end
/// of every timestamp where Source fired.
struct LastSlot {
  StreamId Source;
  SlotId ValueSlot; // Source's value slot
  /// Derived by Program::planOwnership(), never serialized: the refresh
  /// moves the source's value into the last slot, since nothing reads
  /// the value slot after it (no other last slot shares it).
  bool MoveSource = false;
};

/// One delay stream with pre-resolved operand slots.
struct DelaySlot {
  StreamId Id;
  StreamId DelaysArg;
  StreamId ResetArg;
  SlotId ValueSlot;  // the delay stream's own value slot
  SlotId DelaysSlot; // value slot of the delays argument
  SlotId ResetSlot;  // value slot of the reset argument
};

/// One output-marked stream.
struct OutputSlot {
  StreamId Id;
  SlotId ValueSlot;
};

/// The lowered program; shares ownership of the spec with the analysis
/// result. Compile once, execute from any backend.
class Program {
public:
  /// Lowers \p Analysis' spec using its translation order and mutability
  /// set. Pass a baseline AnalysisResult (Optimize=false) for the paper's
  /// all-persistent reference program. Defined in Program/Lower.cpp
  /// (library tessla_lower): the Program data structure itself, its
  /// verifier and its serialized form (Program/Serialize.h) are
  /// frontend-free, so shipped monitors link neither the parser nor the
  /// analyses.
  static Program compile(const AnalysisResult &Analysis);

  const Spec &spec() const { return *S; }
  /// Shared spec handle for consumers whose artifacts outlive the
  /// program object (the abstract-interpretation fact store keeps the
  /// spec alive for name rendering).
  std::shared_ptr<const Spec> sharedSpec() const { return S; }
  const std::vector<ProgramStep> &steps() const { return Steps; }
  /// Dense *_last slots (streams used as first argument of some last).
  const std::vector<LastSlot> &lastSlots() const { return LastSlots; }
  const std::vector<DelaySlot> &delays() const { return Delays; }
  const std::vector<OutputSlot> &outputs() const { return Outputs; }

  uint32_t numStreams() const { return S->numStreams(); }
  /// Number of live value slots. Engines must size their state to
  /// numValueSlots() + 1: the extra entry is the shared dead slot of nil
  /// streams, which stays never-present forever.
  SlotId numValueSlots() const { return NumValueSlots; }
  /// The value slot of \p Id (the dead slot numValueSlots() for nil).
  SlotId valueSlot(StreamId Id) const { return ValueSlots[Id]; }
  /// Whether \p Id's aggregate family is implemented destructively.
  bool isMutable(StreamId Id) const { return Mutable[Id]; }

  /// Number of steps executing destructive aggregate updates (stats).
  uint32_t inPlaceStepCount() const;

  /// The release table indexed by ProgramStep::ReleaseBegin.
  const std::vector<HandleRelease> &releases() const { return Releases; }

  /// Recomputes the ownership plan (the ProgramStep::InPlaceUpdates,
  /// release and MoveArgs fields, LastSlot::MoveSource, and releases())
  /// from the step and slot tables: for every in-place update, the
  /// translation order proves which of the lane's other handles on the
  /// family's payload are dead from that step on, and for every
  /// pass-through and last refresh, which handles it may move at their
  /// last use. Program::compile, the pass manager and
  /// the bundle loader call it; anything else that rewrites the tables
  /// through optView() must call it before the program runs.
  void planOwnership();

  /// Renders the lowered program, one step per line with its slot
  /// assignment and in-place/folded/fused markers, followed by the
  /// last/delay/output slot tables — the single human-readable form of
  /// what both backends execute.
  std::string str() const;

  /// Mutable access to the IR tables for the optimization passes in
  /// tessla::opt. Invariants (dense slot ranges, dispatch pointers,
  /// Args/ArgSlot agreement) are re-checked by opt::verifyProgram after
  /// every pass; all other code must treat Program as immutable.
  struct OptView {
    std::vector<ProgramStep> &Steps;
    std::vector<LastSlot> &LastSlots;
    std::vector<DelaySlot> &Delays;
    std::vector<OutputSlot> &Outputs;
    std::vector<SlotId> &ValueSlots;
    SlotId &NumValueSlots;
  };
  OptView optView() {
    return {Steps, LastSlots, Delays, Outputs, ValueSlots, NumValueSlots};
  }

private:
  /// The bundle reader/writer (Program/Serialize.cpp) reconstructs every
  /// table directly, including the spec handle and the mutability set
  /// that OptView deliberately does not expose.
  friend class ProgramSerializer;

  std::shared_ptr<const Spec> S;
  std::vector<ProgramStep> Steps;
  std::vector<LastSlot> LastSlots;
  std::vector<DelaySlot> Delays;
  std::vector<OutputSlot> Outputs;
  std::vector<SlotId> ValueSlots; // indexed by StreamId
  std::vector<bool> Mutable;      // indexed by StreamId
  SlotId NumValueSlots = 0;
  std::vector<HandleRelease> Releases; // derived: planOwnership()
};

} // namespace tessla

#endif // TESSLA_PROGRAM_PROGRAM_H
