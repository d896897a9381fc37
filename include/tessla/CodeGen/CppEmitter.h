//===- tessla/CodeGen/CppEmitter.h - C++ monitor emission ------*- C++ -*-===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emits a lowered Program as a standalone C++ monitor class — the
/// paper's translation scheme (§III) with the aggregate update
/// optimization (§IV) applied: one typed variable per stream, the
/// calculation section in the program's step order, destructive container
/// updates for mutable families and persistent structures for the rest.
/// (The paper's implementation emits Scala; §I notes "the same scheme
/// could also be used for translation to other imperative languages".)
///
/// The emitter consumes the same Program IR the interpreter executes
/// (see tessla/Program/Program.h), so both backends follow one lowering.
///
/// Generated code depends only on tessla/CodeGen/RuntimeSupport.h (and
/// through it on the persistent containers).
///
//===----------------------------------------------------------------------===//

#ifndef TESSLA_CODEGEN_CPPEMITTER_H
#define TESSLA_CODEGEN_CPPEMITTER_H

#include "tessla/Program/Program.h"
#include "tessla/Support/Diagnostics.h"

#include <optional>
#include <string>

namespace tessla {

/// Options for emitCppMonitor().
struct CppEmitterOptions {
  std::string ClassName = "GeneratedMonitor";
  /// Also emit a main() that reads a textual trace from stdin and prints
  /// outputs — makes the generated file a complete tool.
  bool EmitMain = false;
  /// Instead of the stdin driver, emit a self-measuring benchmark main:
  /// `./monitor <count> <domain> <seed>` feeds uniform random Int events
  /// into the first input stream at timestamps 1..count, counts outputs,
  /// and prints the elapsed monitoring seconds — the compiled-monitor
  /// analogue of the paper's synthetic evaluation (trace "generated in
  /// memory during the benchmark's execution", artifact appendix).
  /// Requires exactly one Int-typed input. Overrides EmitMain.
  bool EmitBenchMain = false;
  /// Emit the `tessla_native_*` extern "C" entry points so the file can
  /// be compiled into a shared object and dlopen'd by the native
  /// execution engine (CodeGen/NativeCompile.h). The monitor then hands
  /// each output to a C callback as its index into Program::outputs()
  /// plus the value's bc::writeValue bytes, written into one reused
  /// buffer (no std::function, no text). Implies throwing
  /// failure handling (TESSLA_CGEN_FAIL_THROWS) so a monitor runtime
  /// error surfaces as a recoverable per-instance error string —
  /// rendered `at t=<ts>, stream '<name>': <msg>`, byte-identical to
  /// Monitor::failAt — instead of abort()ing the host process.
  /// Incompatible with EmitMain/EmitBenchMain (the shim is the driver).
  bool EmitNativeShim = false;
  /// Program checksum stamped into the shim (tessla_native_checksum());
  /// the loader rejects a cached .so whose stamp does not match the
  /// Program it is about to serve. Only read when EmitNativeShim.
  uint64_t ShimChecksum = 0;
};

/// ABI version of the emitted native shim; tessla_native_abi() returns
/// this and the loader refuses anything else. Bump on any change to the
/// extern "C" surface or to the bytes it passes. v2: outputs travel as
/// (output index, codec bytes) instead of (stream name, rendered text).
inline constexpr int64_t NativeShimAbiVersion = 2;

/// Emits \p P as a C++ translation unit, following the program's step
/// order and mutability set.
///
/// \returns the source text, or nullopt (with diagnostics) for the few
/// constructs the typed backend does not support (aggregate-typed inputs,
/// ordering/equality comparisons between aggregates).
std::optional<std::string> emitCppMonitor(const Program &P,
                                          const CppEmitterOptions &Opts,
                                          DiagnosticEngine &Diags);

} // namespace tessla

#endif // TESSLA_CODEGEN_CPPEMITTER_H
