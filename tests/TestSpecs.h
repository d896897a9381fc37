//===- tests/TestSpecs.h - Shared specification fixtures --------*- C++ -*-===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Test-facing wrappers around the evaluation workload specifications
/// (tessla/Eval/Workloads.h) plus a gtest-flavored parse helper.
///
//===----------------------------------------------------------------------===//

#ifndef TESSLA_TESTS_TESTSPECS_H
#define TESSLA_TESTS_TESTSPECS_H

#include "tessla/Compiler/Compiler.h"
#include "tessla/Eval/Workloads.h"
#include "tessla/Lang/Builder.h"
#include "tessla/Lang/Parser.h"
#include "tessla/Lang/TypeCheck.h"

#include <gtest/gtest.h>

namespace tessla {
namespace testspecs {

/// Parses and type-checks \p Source, failing the test on any diagnostic.
inline Spec parseOrDie(std::string_view Source) {
  DiagnosticEngine Diags;
  auto S = parseSpec(Source, Diags);
  EXPECT_TRUE(S) << Diags.str();
  if (!S)
    return Spec();
  return std::move(*S);
}

/// Compiles through the embedding API (Compiler/Compiler.h), failing the
/// test on any diagnostic.
inline Program compileOrDie(const Spec &S, bool Optimize = true,
                            unsigned OptLevel = 0) {
  DiagnosticEngine Diags;
  CompileOptions Opts;
  Opts.Optimize = Optimize;
  Opts.OptLevel = OptLevel;
  auto P = compileSpec(S, Opts, Diags);
  EXPECT_TRUE(P) << Diags.str();
  return P ? std::move(*P) : Program();
}

/// Number of streams the mutability analysis decided to implement
/// destructively (reading the decision back from the compiled program).
inline uint32_t mutableStreamCount(const Program &P) {
  uint32_t Count = 0;
  for (StreamId Id = 0; Id != P.numStreams(); ++Id)
    Count += P.isMutable(Id) ? 1 : 0;
  return Count;
}

/// A spec whose Int input reaches a builtin accessor (queueTrim's
/// length), so a value of another kind on `x` must be stopped at the
/// record check, before the calculation runs.
inline constexpr const char *QueueTrimSpec =
    "in x: Int\n"
    "def q := queueTrim(queueEnq(last(merge(q, queueEmpty()), x), 1), x)\n"
    "out q\n";

using workloads::dbAccessConstraint;
using workloads::dbTimeConstraint;
using workloads::figure1;
using workloads::figure4Lower;
using workloads::figure4Upper;
using workloads::mapWindow;
using workloads::peakDetection;
using workloads::queueWindow;
using workloads::seenSet;
using workloads::spectrumCalculation;

} // namespace testspecs
} // namespace tessla

#endif // TESSLA_TESTS_TESTSPECS_H
