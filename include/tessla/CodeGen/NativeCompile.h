//===- tessla/CodeGen/NativeCompile.h - compiled execution tier *- C++ -*-===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The native execution tier: drives CodeGen/CppEmitter output (with the
/// tessla_native_* extern "C" shim) through the system C++ compiler into
/// a shared object, dlopen()s it, and wraps the entry points in a
/// ShardEngine so the fleet and the sequential tools can run compiled
/// monitors interchangeably with the interpreter engines.
///
/// ## Build pipeline
///
/// compileNative() is hermetic and cached:
///
///   1. The Program is serialized (deterministic .tpb bytes) and
///      checksummed (FNV-1a-64). The cache key mixes that checksum with
///      the shim ABI version and the compiler + flags string, so a
///      toolchain change never resurrects a stale binary.
///   2. On a cache miss the shim translation unit is emitted into a
///      fresh mkdtemp() directory, compiled there (-fPIC -shared), and
///      the resulting .so is rename()d into the cache — concurrent
///      builders race benignly toward identical bytes.
///   3. The library is dlopen()ed and verified: tessla_native_abi()
///      must match NativeShimAbiVersion and tessla_native_checksum()
///      must match the Program's checksum. A cached file that fails
///      verification (corrupt, or copied from another program's slot)
///      is unlinked and rebuilt once.
///
/// Every failure — no compiler on PATH, compiler error, dlopen/verify
/// failure — is reported as a diagnostic string so callers can fall
/// back to the interpreter instead of dying.
///
/// ## Environment
///
///   TESSLA_NATIVE_CXX        compiler to invoke (default: the compiler
///                            that built this library, then `c++`)
///   TESSLA_NATIVE_CACHE_DIR  cache directory (default:
///                            $TMPDIR/tessla-native-cache)
///   TESSLA_NATIVE_INCLUDE    include root holding tessla/CodeGen/
///                            RuntimeSupport.h (default: baked in at
///                            build time)
///
/// ## Output contract (shim ABI v2)
///
/// The shim calls the host's OutputFn once per output event with the
/// event's timestamp, its index into Program::outputs() and the value
/// in bc::writeValue's encoding (CodeGen/RuntimeSupport.h writes it).
/// The host decodes the bytes with bc::readValue and accepts the event
/// only if the index is in range, the bytes are consumed exactly and
/// the value conforms to the output stream's declared type; anything
/// else fails that lane alone, with an `at t=<ts>, stream '<name>':`
/// error (the index stands in for the name when it is out of range).
///
/// ## Migration contract
///
/// The native engine does not implement extractLane()/insertLane():
/// monitor state lives inside the shared object behind an opaque
/// instance pointer, so supportsMigration() is false and the fleet's
/// work stealing is inert for native shards. Everything else of the
/// ShardEngine contract — feed validation order, error texts, output
/// values, output counting without a handler — matches Monitor; the
/// host side runs the engines' one record check (Runtime/RecordCheck.h)
/// before crossing the C boundary because the generated feed keeps only
/// a weaker ordering backstop.
///
//===----------------------------------------------------------------------===//

#ifndef TESSLA_CODEGEN_NATIVECOMPILE_H
#define TESSLA_CODEGEN_NATIVECOMPILE_H

#include "tessla/Program/Program.h"
#include "tessla/Runtime/ExecutionEngine.h"

#include <memory>
#include <string>

namespace tessla {

struct NativeCompileOptions {
  /// Compiler executable; empty means $TESSLA_NATIVE_CXX, then the
  /// build-time default, then "c++".
  std::string Compiler;
  /// Cache directory; empty means $TESSLA_NATIVE_CACHE_DIR, then
  /// $TMPDIR/tessla-native-cache.
  std::string CacheDir;
  /// Extra compiler flags, appended after the defaults (and salted into
  /// the cache key).
  std::string ExtraFlags;
  /// Rebuild even when the cache holds a verified binary.
  bool Force = false;
};

/// A dlopen()d native monitor library with its entry points resolved.
/// Engines share ownership so dlclose() cannot run while any live
/// session still executes code from the object.
class NativeMonitorLibrary {
public:
  ~NativeMonitorLibrary();
  NativeMonitorLibrary(const NativeMonitorLibrary &) = delete;
  NativeMonitorLibrary &operator=(const NativeMonitorLibrary &) = delete;

  /// Resolved tessla_native_* entry points (see the shim emitted by
  /// CppEmitterOptions::EmitNativeShim).
  using OutputFn = void (*)(void *Ctx, int64_t Ts, int32_t Output,
                            const uint8_t *Bytes, size_t Size);
  void *(*create)(OutputFn Fn, void *Ctx) = nullptr;
  int32_t (*feed)(void *Inst, int32_t Input, int64_t Ts, int64_t IntV,
                  double FloatV, const char *StrV, int32_t BoolV) = nullptr;
  int32_t (*finish)(void *Inst, int64_t Horizon, int32_t HasHorizon) = nullptr;
  const char *(*error)(void *Inst) = nullptr;
  uint64_t (*numOutputs)(void *Inst) = nullptr;
  void (*destroy)(void *Inst) = nullptr;
  int32_t (*numInputs)() = nullptr;
  const char *(*inputName)(int32_t Idx) = nullptr;

  /// The Program checksum the library was built from (== the stamp the
  /// loader verified).
  uint64_t checksum() const { return Checksum; }
  /// Path of the cached shared object.
  const std::string &path() const { return Path; }

  /// dlopen()s \p Path, resolves the entry points and verifies the ABI
  /// version and the \p WantChecksum stamp. Returns nullptr with a
  /// diagnostic on any failure. compileNative() treats a verification
  /// failure on a cached file as "stale: rebuild".
  static std::shared_ptr<NativeMonitorLibrary>
  open(const std::string &Path, uint64_t WantChecksum,
       std::string &ErrorOut);

private:
  NativeMonitorLibrary() = default;

  void *Handle = nullptr;
  uint64_t Checksum = 0;
  std::string Path;
};

/// The cache slot compileNative() would use for \p P under \p Opts —
/// exposed so tests can plant stale or corrupt binaries.
std::string nativeCachePathFor(const Program &P,
                               const NativeCompileOptions &Opts);

/// Emits, compiles, caches, loads and verifies the native monitor for
/// \p P. Returns nullptr with a one-line diagnostic in \p ErrorOut on
/// any failure (callers fall back to an interpreter engine).
std::shared_ptr<NativeMonitorLibrary>
compileNative(const Program &P, const NativeCompileOptions &Opts,
              std::string &ErrorOut);

/// Wraps a loaded library in an EngineFactory for FleetOptions::
/// NativeFactory or runEngineSingle(). The factory (and every engine it
/// makes) keeps the library alive.
EngineFactory makeNativeEngineFactory(std::shared_ptr<NativeMonitorLibrary> Lib);

/// Convenience: compileNative() + makeNativeEngineFactory(). Returns an
/// empty factory with a diagnostic when compilation fails.
EngineFactory makeNativeEngineFactory(const Program &P,
                                      const NativeCompileOptions &Opts,
                                      std::string &ErrorOut);

} // namespace tessla

#endif // TESSLA_CODEGEN_NATIVECOMPILE_H
