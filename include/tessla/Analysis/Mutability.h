//===- tessla/Analysis/Mutability.h - Mutability set (Def. 7) --*- C++ -*-===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's combined algorithm (§IV-E, Fig. 8): computes the optimal
/// mutability set of a specification and the translation order realizing
/// it.
///
///  1. Variable families: union all endpoints of Write/Pass/Last edges
///     (rule 3 of Def. 7, consistent mutability).
///  2. For every write edge u -W-> v and every potential alias u' of u,
///     another write or last edge from u' forces u's family persistent
///     (rule 1, no double write/reproduction). So does u' being an
///     output: outputs are read after the whole calculation section,
///     where no translation order can place them before the write. So
///     does a last of the family whose source may stay silent when v
///     fires (ev'(v) -> ev'(source) not a tautology, §IV-C): the last
///     would reproduce the written structure at the next timestamp.
///  3. A read edge u' -R-> v' from an alias records the read-before-write
///     constraint (v', v) (rule 2).
///  4. Minimum-weight removal: find the cheapest set of families (weight =
///     family size) whose constraints may be dropped (they become
///     persistent) so that the constraint graph is acyclic — exact
///     branch-and-bound (the problem is NP-complete, kin to Feedback Arc
///     Set) with a greedy fallback for large instances.
///
//===----------------------------------------------------------------------===//

#ifndef TESSLA_ANALYSIS_MUTABILITY_H
#define TESSLA_ANALYSIS_MUTABILITY_H

#include "tessla/ADT/UnionFind.h"
#include "tessla/Analysis/Aliasing.h"

namespace tessla {

/// Tuning knobs for computeMutability().
struct MutabilityOptions {
  /// false = paper's baseline: every aggregate persistent, plain
  /// translation order.
  bool Optimize = true;
  /// Use exact branch-and-bound in step 4 (falls back to greedy above
  /// MaxExactCandidates).
  bool ExactEdgeRemoval = true;
  /// Candidate-family limit for the exact search.
  uint32_t MaxExactCandidates = 24;
};

/// Why a family was forced persistent.
enum class PersistentReason : uint8_t {
  DoubleWrite,    // rule 1 violation
  OrderConflict,  // removed in step 4 (read-before-write cycle)
};

/// Output of the combined algorithm.
struct MutabilityResult {
  /// Per stream: true iff the stream has aggregate type and its family is
  /// in the mutability set M (implement with a mutable structure).
  std::vector<bool> Mutable;
  /// Per stream: union-find representative of its variable family.
  std::vector<uint32_t> FamilyRep;
  /// Translation order used by the generated monitor.
  std::vector<StreamId> Order;
  /// All discovered read-before-write constraints (reader, writer).
  std::vector<std::pair<StreamId, StreamId>> ReadBeforeWrite;
  /// Families forced persistent, by representative, with reasons.
  std::vector<std::pair<uint32_t, PersistentReason>> PersistentFamilies;
  /// Whether step 4 ran the exact search (vs. greedy).
  bool UsedExactRemoval = true;

  /// True iff stream \p Id carries an aggregate implemented persistently.
  bool isPersistentAggregate(const Spec &S, StreamId Id) const {
    return S.stream(Id).Ty.isComplex() && !Mutable[Id];
  }

  /// Number of mutable aggregate streams (|M| restricted to aggregates).
  uint32_t mutableCount() const;

  /// Human-readable analysis report (families, M, order).
  std::string report(const Spec &S) const;
};

/// Runs the combined algorithm over \p G.
MutabilityResult computeMutability(const UsageGraph &G,
                                   TriggerAnalysis &Triggers,
                                   AliasAnalysis &Aliases,
                                   const MutabilityOptions &Opts = {});

} // namespace tessla

#endif // TESSLA_ANALYSIS_MUTABILITY_H
