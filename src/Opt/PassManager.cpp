//===- Opt/PassManager.cpp --------------------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "tessla/Opt/PassManager.h"

using namespace tessla;
using namespace tessla::opt;

bool PassManager::run(Program &P, AnalysisResult &A, DiagnosticEngine &Diags,
                      OptStatistics *Stats, bool Verify) {
  for (std::unique_ptr<Pass> &Pass : Passes) {
    PassStatistics PS;
    PS.Pass = std::string(Pass->name());
    PS.StepsBefore = static_cast<uint32_t>(P.steps().size());
    PS.ValueSlotsBefore = P.numValueSlots();
    PS.LastSlotsBefore = static_cast<uint32_t>(P.lastSlots().size());
    PS.DelaySlotsBefore = static_cast<uint32_t>(P.delays().size());

    // Fresh facts at every pass boundary: a pass may strengthen what the
    // next one can prove (folded constants sharpen ranges, eliminated
    // steps sharpen tick sets).
    absint::AnalysisFacts Facts = absint::AnalysisFacts::compute(P);
    bool Ok = Pass->run(P, A, Facts, PS, Diags);

    PS.StepsAfter = static_cast<uint32_t>(P.steps().size());
    PS.ValueSlotsAfter = P.numValueSlots();
    PS.LastSlotsAfter = static_cast<uint32_t>(P.lastSlots().size());
    PS.DelaySlotsAfter = static_cast<uint32_t>(P.delays().size());
    if (Stats)
      Stats->Passes.push_back(PS);

    if (!Ok) {
      Diags.error("optimization pass '" + PS.Pass + "' failed");
      return false;
    }
    if (Verify && !verifyProgram(P, Diags)) {
      Diags.error("program verification failed after pass '" + PS.Pass +
                  "'");
      return false;
    }
  }
  // The passes rewrote the step and slot tables the plan derives from.
  P.planOwnership();
  return true;
}

bool opt::optimizeProgram(Program &P, AnalysisResult &A,
                          const OptOptions &Opts, DiagnosticEngine &Diags,
                          OptStatistics *Stats) {
  if (Opts.Level == 0)
    return true;
  PassManager PM;
  PM.add(createConstantFoldPass());
  PM.add(createStepFusionPass());
  PM.add(createDeadStepEliminationPass());
  return PM.run(P, A, Diags, Stats, Opts.Verify);
}
