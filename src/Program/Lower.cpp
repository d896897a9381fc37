//===- Program/Lower.cpp ----------------------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
// The analysis→IR lowering (Program::compile). This lives apart from the
// Program data structure on purpose: it is the only part of the IR layer
// that needs the frontend's analysis results, so it sits in its own
// library (tessla_lower) and deployment targets that execute serialized
// bundles (tools/tessla-run) never link it.
//
//===----------------------------------------------------------------------===//

#include "tessla/Analysis/Pipeline.h"
#include "tessla/Program/Program.h"

#include <cassert>
#include <limits>

using namespace tessla;

Program Program::compile(const AnalysisResult &Analysis) {
  Program P;
  P.S = Analysis.sharedSpec();
  const Spec &S = *P.S;

  const MutabilityResult &Mut = Analysis.mutability();
  assert(Mut.Order.size() == S.numStreams() &&
         "analysis order must cover all streams");
  assert(S.numStreams() <
             std::numeric_limits<SlotId>::max() &&
         "slot ids are 16-bit");
  P.Mutable.assign(Mut.Mutable.begin(), Mut.Mutable.end());

  // --- Dense value slots: every event-carrying stream gets one; all nil
  // streams share the dead slot NumValueSlots, which no step writes. ---
  P.ValueSlots.assign(S.numStreams(), 0);
  SlotId Next = 0;
  for (StreamId Id = 0; Id != S.numStreams(); ++Id)
    if (S.stream(Id).Kind != StreamKind::Nil)
      P.ValueSlots[Id] = Next++;
  P.NumValueSlots = Next;
  for (StreamId Id = 0; Id != S.numStreams(); ++Id)
    if (S.stream(Id).Kind == StreamKind::Nil)
      P.ValueSlots[Id] = P.NumValueSlots;

  // --- Dense last/delay slots and outputs, in definition order. ---
  std::vector<SlotId> LastIndex(S.numStreams(), 0);
  std::vector<SlotId> DelayIndex(S.numStreams(), 0);
  std::vector<bool> NeedsLast(S.numStreams(), false);
  for (StreamId Id = 0; Id != S.numStreams(); ++Id) {
    const StreamDef &D = S.stream(Id);
    if (D.Kind == StreamKind::Last)
      NeedsLast[D.Args[0]] = true;
    if (D.Kind == StreamKind::Delay) {
      DelayIndex[Id] = static_cast<SlotId>(P.Delays.size());
      P.Delays.push_back({Id, D.Args[0], D.Args[1], P.ValueSlots[Id],
                          P.ValueSlots[D.Args[0]],
                          P.ValueSlots[D.Args[1]]});
    }
    if (D.IsOutput)
      P.Outputs.push_back({Id, P.ValueSlots[Id]});
  }
  for (StreamId Id = 0; Id != S.numStreams(); ++Id)
    if (NeedsLast[Id]) {
      LastIndex[Id] = static_cast<SlotId>(P.LastSlots.size());
      P.LastSlots.push_back({Id, P.ValueSlots[Id]});
    }

  // --- Lowered steps in translation order, with dispatch pre-resolved. ---
  for (StreamId Id : Mut.Order) {
    const StreamDef &D = S.stream(Id);
    ProgramStep Step;
    Step.Id = Id;
    Step.Kind = D.Kind;
    Step.Args = D.Args;
    Step.InPlace = Mut.Mutable[Id];
    Step.Dst = P.ValueSlots[Id];
    assert(D.Args.size() <= 3 && "builtin arity is at most 3");
    Step.NumArgs = static_cast<uint8_t>(D.Args.size());
    for (unsigned I = 0; I != Step.NumArgs; ++I)
      Step.ArgSlot[I] = P.ValueSlots[D.Args[I]];
    switch (D.Kind) {
    case StreamKind::Input:
    case StreamKind::Nil:
      Step.Op = Opcode::Skip;
      break;
    case StreamKind::Unit:
      Step.Op = Opcode::Const;
      Step.ConstVal = Value::unit();
      break;
    case StreamKind::Const:
      Step.Op = Opcode::Const;
      Step.ConstVal = Value::fromLiteral(D.Literal);
      break;
    case StreamKind::Time:
      Step.Op = Opcode::Time;
      break;
    case StreamKind::Last:
      Step.Op = Opcode::Last;
      Step.Aux = LastIndex[D.Args[0]];
      break;
    case StreamKind::Delay:
      Step.Op = Opcode::Delay;
      Step.Aux = DelayIndex[Id];
      break;
    case StreamKind::Lift:
      Step.Fn = D.Fn;
      switch (builtinInfo(D.Fn).Events) {
      case EventSemantics::All:
        Step.Op = Opcode::LiftAll;
        Step.Impl = builtinImpl(D.Fn);
        break;
      case EventSemantics::Any:
        Step.Op = Opcode::LiftMerge;
        break;
      case EventSemantics::FirstAndAnyRest:
        Step.Op = Opcode::LiftFirstRest;
        Step.Impl = builtinImpl(D.Fn);
        break;
      case EventSemantics::Custom:
        Step.Op = Opcode::LiftFilter;
        break;
      }
      break;
    }
    P.Steps.push_back(std::move(Step));
  }
  P.planOwnership();
  return P;
}
