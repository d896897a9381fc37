//===- Analysis/Mutability.cpp ----------------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "tessla/Analysis/Mutability.h"

#include "tessla/Analysis/TranslationOrder.h"
#include "tessla/Support/Format.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>

using namespace tessla;

namespace {

/// One candidate family for step 4's minimum-weight removal.
struct CandidateGroup {
  uint32_t Rep;       // family representative
  uint32_t Weight;    // family size
  std::vector<std::pair<StreamId, StreamId>> Edges; // its E' edges
};

/// Step-4 solver: choose the min-weight subset of candidate groups to drop
/// so that Base + remaining E' edges is acyclic.
class EdgeRemovalSolver {
public:
  EdgeRemovalSolver(const Adjacency &Base,
                    std::vector<CandidateGroup> Groups)
      : Base(Base), Groups(std::move(Groups)) {}

  /// Exact branch-and-bound. Candidate count must be <= 64.
  std::vector<uint32_t> solveExact() {
    assert(Groups.size() <= 64 && "too many candidates for exact search");
    BestMask = (Groups.size() == 64) ? ~uint64_t{0}
                                     : ((uint64_t{1} << Groups.size()) - 1);
    BestWeight = totalWeight(BestMask);
    search(0, 0);
    return maskToReps(BestMask);
  }

  /// Greedy: break cycles by always dropping the lightest family on the
  /// current cycle.
  std::vector<uint32_t> solveGreedy() {
    uint64_t Removed = 0;
    for (;;) {
      std::vector<uint32_t> Cycle = findCycle(buildAdj(Removed));
      if (Cycle.empty())
        return maskToReps(Removed);
      uint64_t OnCycle = candidatesOnCycle(Cycle, Removed);
      assert(OnCycle != 0 && "cycle without removable E' edge");
      uint32_t Lightest = 0;
      uint32_t LightestWeight = ~0u;
      for (uint32_t I = 0; I != Groups.size(); ++I)
        if ((OnCycle >> I) & 1)
          if (Groups[I].Weight < LightestWeight) {
            Lightest = I;
            LightestWeight = Groups[I].Weight;
          }
      Removed |= uint64_t{1} << Lightest;
    }
  }

private:
  const Adjacency &Base;
  std::vector<CandidateGroup> Groups;
  uint64_t BestMask = 0;
  uint32_t BestWeight = ~0u;

  uint32_t totalWeight(uint64_t Mask) const {
    uint32_t W = 0;
    for (uint32_t I = 0; I != Groups.size(); ++I)
      if ((Mask >> I) & 1)
        W += Groups[I].Weight;
    return W;
  }

  Adjacency buildAdj(uint64_t Removed) const {
    Adjacency Adj = Base;
    for (uint32_t I = 0; I != Groups.size(); ++I) {
      if ((Removed >> I) & 1)
        continue;
      for (auto [From, To] : Groups[I].Edges)
        Adj[From].push_back(To);
    }
    return Adj;
  }

  /// Bitmask of not-yet-removed groups with an edge on \p Cycle that is
  /// not shadowed by a base edge (removing a group only helps if the
  /// cycle edge disappears with it).
  uint64_t candidatesOnCycle(const std::vector<uint32_t> &Cycle,
                             uint64_t Removed) const {
    uint64_t Result = 0;
    auto OnCycle = [&](StreamId From, StreamId To) {
      for (size_t I = 0, E = Cycle.size(); I != E; ++I)
        if (Cycle[I] == From && Cycle[(I + 1) % E] == To)
          return true;
      return false;
    };
    for (size_t I = 0, E = Cycle.size(); I != E; ++I) {
      StreamId From = Cycle[I], To = Cycle[(I + 1) % E];
      bool InBase =
          std::find(Base[From].begin(), Base[From].end(), To) !=
          Base[From].end();
      if (InBase)
        continue;
      for (uint32_t GI = 0; GI != Groups.size(); ++GI) {
        if ((Removed >> GI) & 1)
          continue;
        for (auto [GFrom, GTo] : Groups[GI].Edges)
          if (GFrom == From && GTo == To && OnCycle(From, To))
            Result |= uint64_t{1} << GI;
      }
    }
    return Result;
  }

  void search(uint64_t Removed, uint32_t Weight) {
    if (Weight >= BestWeight)
      return;
    std::vector<uint32_t> Cycle = findCycle(buildAdj(Removed));
    if (Cycle.empty()) {
      BestWeight = Weight;
      BestMask = Removed;
      return;
    }
    uint64_t OnCycle = candidatesOnCycle(Cycle, Removed);
    // Every cycle must contain at least one removable E' edge (the base
    // graph is acyclic); if none remains this branch is infeasible.
    for (uint32_t I = 0; I != Groups.size(); ++I)
      if ((OnCycle >> I) & 1)
        search(Removed | (uint64_t{1} << I), Weight + Groups[I].Weight);
  }

  std::vector<uint32_t> maskToReps(uint64_t Mask) const {
    std::vector<uint32_t> Out;
    for (uint32_t I = 0; I != Groups.size(); ++I)
      if ((Mask >> I) & 1)
        Out.push_back(Groups[I].Rep);
    return Out;
  }
};

} // namespace

uint32_t MutabilityResult::mutableCount() const {
  uint32_t Count = 0;
  for (bool M : Mutable)
    Count += M ? 1 : 0;
  return Count;
}

MutabilityResult tessla::computeMutability(const UsageGraph &G,
                                           TriggerAnalysis &Triggers,
                                           AliasAnalysis &Aliases,
                                           const MutabilityOptions &Opts) {
  const Spec &S = G.spec();
  uint32_t N = G.numNodes();

  MutabilityResult R;
  R.Mutable.assign(N, false);

  // Step 1: variable families (consistent mutability, Def. 7 rule 3).
  UnionFind Families(N);
  for (const UsageEdge &E : G.edges())
    if (E.Kind == EdgeKind::Write || E.Kind == EdgeKind::Pass ||
        E.Kind == EdgeKind::Last)
      Families.unite(E.From, E.To);

  R.FamilyRep.resize(N);
  for (StreamId Id = 0; Id != N; ++Id)
    R.FamilyRep[Id] = Families.find(Id);

  if (!Opts.Optimize) {
    // Baseline: every aggregate persistent; plain Def. 2 order.
    auto Order = computeTranslationOrder(G);
    assert(Order && "validated specs always have a translation order");
    R.Order = std::move(*Order);
    return R;
  }

  // Steps 2 and 3: traverse write edges, inspect aliases.
  std::set<uint32_t> ForcedPersistent; // family reps (rule 1)
  std::set<std::pair<StreamId, StreamId>> ReadBeforeWrite;
  for (const UsageEdge &WriteEdge : G.edges()) {
    if (WriteEdge.Kind != EdgeKind::Write)
      continue;
    StreamId U = WriteEdge.From, V = WriteEdge.To;
    // A last of the family keeps its source's value until the source
    // fires again. Unless the source provably fires whenever the write
    // does (ev'(v) -> ev'(source), §IV-C), the last may still hold the
    // written structure at the next timestamp and read the update.
    for (const UsageEdge &LastEdge : G.edges())
      if (LastEdge.Kind == EdgeKind::Last &&
          Families.find(LastEdge.From) == Families.find(V) &&
          !Triggers.implies(V, LastEdge.From))
        ForcedPersistent.insert(Families.find(U));
    for (StreamId UAlias : Aliases.potentialAliases(U)) {
      // Outputs are read after the whole calculation section, so an
      // output alias of the written value is a read no translation order
      // can place before the write.
      if (S.stream(UAlias).IsOutput)
        ForcedPersistent.insert(Families.find(U));
      for (uint32_t EI : G.outEdges(UAlias)) {
        const UsageEdge &E = G.edge(EI);
        bool SameEdge = UAlias == U && E.To == V &&
                        E.Kind == EdgeKind::Write;
        if ((E.Kind == EdgeKind::Write || E.Kind == EdgeKind::Last) &&
            !SameEdge) {
          // Rule 1: the aliased structure is written or reproduced
          // elsewhere; no order can make the in-place write safe.
          ForcedPersistent.insert(Families.find(U));
        }
        if (E.Kind == EdgeKind::Read)
          ReadBeforeWrite.insert({E.To, V}); // Rule 2: read node first.
      }
    }
  }
  R.ReadBeforeWrite.assign(ReadBeforeWrite.begin(), ReadBeforeWrite.end());
  for (uint32_t Rep : ForcedPersistent)
    R.PersistentFamilies.push_back({Rep, PersistentReason::DoubleWrite});

  // Step 4: group remaining constraints by the written family and find
  // the cheapest set whose removal leaves the order constraints acyclic.
  std::map<uint32_t, CandidateGroup> ByFamily;
  Adjacency Base = G.nonSpecialAdjacency();
  for (auto [Reader, Writer] : ReadBeforeWrite) {
    uint32_t Rep = Families.find(Writer);
    if (ForcedPersistent.count(Rep))
      continue; // already persistent: constraint void
    auto &Group = ByFamily[Rep];
    Group.Rep = Rep;
    Group.Weight = Families.setSize(Writer);
    Group.Edges.push_back({Reader, Writer});
  }
  std::vector<CandidateGroup> Groups;
  for (auto &[Rep, Group] : ByFamily)
    Groups.push_back(std::move(Group));

  std::vector<uint32_t> Dropped;
  EdgeRemovalSolver Solver(Base, Groups);
  if (Opts.ExactEdgeRemoval && Groups.size() <= Opts.MaxExactCandidates &&
      Groups.size() <= 64) {
    Dropped = Solver.solveExact();
    R.UsedExactRemoval = true;
  } else {
    Dropped = Solver.solveGreedy();
    R.UsedExactRemoval = false;
  }
  std::set<uint32_t> DroppedSet(Dropped.begin(), Dropped.end());
  for (uint32_t Rep : Dropped)
    R.PersistentFamilies.push_back({Rep, PersistentReason::OrderConflict});

  // Mutability per stream and final order: keep the constraints of
  // families that stay mutable.
  std::vector<std::pair<StreamId, StreamId>> KeptEdges;
  for (auto [Reader, Writer] : ReadBeforeWrite) {
    uint32_t Rep = Families.find(Writer);
    if (!ForcedPersistent.count(Rep) && !DroppedSet.count(Rep))
      KeptEdges.push_back({Reader, Writer});
  }
  auto Order = computeTranslationOrder(G, KeptEdges);
  assert(Order && "step 4 guarantees an acyclic constraint graph");
  R.Order = std::move(*Order);

  for (StreamId Id = 0; Id != N; ++Id) {
    if (!S.stream(Id).Ty.isComplex())
      continue;
    uint32_t Rep = Families.find(Id);
    R.Mutable[Id] = !ForcedPersistent.count(Rep) && !DroppedSet.count(Rep);
  }
  return R;
}

std::string MutabilityResult::report(const Spec &S) const {
  std::string Out;
  Out += "mutability analysis report\n";
  Out += "==========================\n";

  // Families restricted to aggregate streams.
  std::map<uint32_t, std::vector<StreamId>> Families;
  for (StreamId Id = 0; Id != S.numStreams(); ++Id)
    if (S.stream(Id).Ty.isComplex())
      Families[FamilyRep[Id]].push_back(Id);

  for (auto &[Rep, Members] : Families) {
    std::vector<std::string> Names;
    for (StreamId Id : Members)
      Names.push_back(S.stream(Id).Name);
    bool IsMutable = Mutable[Members.front()];
    std::string Reason;
    for (auto [PRep, PReason] : PersistentFamilies)
      if (PRep == Rep)
        Reason = PReason == PersistentReason::DoubleWrite
                     ? " (double write/reproduction)"
                     : " (read-before-write conflict)";
    Out += formatString("  family {%s}: %s%s\n",
                        join(Names, ", ").c_str(),
                        IsMutable ? "mutable" : "persistent",
                        Reason.c_str());
  }

  std::vector<std::string> OrderNames;
  for (StreamId Id : Order)
    OrderNames.push_back(S.stream(Id).Name);
  Out += "  translation order: " + join(OrderNames, " < ") + "\n";

  if (!ReadBeforeWrite.empty()) {
    std::vector<std::string> Constraints;
    for (auto [Reader, Writer] : ReadBeforeWrite)
      Constraints.push_back(S.stream(Reader).Name + " < " +
                            S.stream(Writer).Name);
    Out += "  read-before-write constraints: " + join(Constraints, ", ") +
           "\n";
  }
  return Out;
}
