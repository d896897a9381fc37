//===- CodeGen/NativeCompile.cpp --------------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "tessla/CodeGen/NativeCompile.h"

#include "tessla/CodeGen/CppEmitter.h"
#include "tessla/Program/BinaryCodec.h"
#include "tessla/Program/Serialize.h"
#include "tessla/Runtime/RecordCheck.h"
#include "tessla/Support/Format.h"

#include <algorithm>
#include <cstdlib>
#include <dlfcn.h>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace tessla;
namespace fs = std::filesystem;

// Baked in by src/CMakeLists.txt so a freshly built tree can compile
// generated monitors without any environment setup.
#ifndef TESSLA_NATIVE_CXX_DEFAULT
#define TESSLA_NATIVE_CXX_DEFAULT "c++"
#endif
#ifndef TESSLA_NATIVE_INCLUDE_DIR
#define TESSLA_NATIVE_INCLUDE_DIR ""
#endif

namespace {

std::string envOr(const char *Name, std::string Fallback) {
  if (const char *V = std::getenv(Name); V && *V)
    return V;
  return Fallback;
}

std::string compilerFor(const NativeCompileOptions &Opts) {
  if (!Opts.Compiler.empty())
    return Opts.Compiler;
  return envOr("TESSLA_NATIVE_CXX", TESSLA_NATIVE_CXX_DEFAULT);
}

std::string includeDirFor() {
  return envOr("TESSLA_NATIVE_INCLUDE", TESSLA_NATIVE_INCLUDE_DIR);
}

/// Where programs' libraries go by default, and where the precompiled
/// runtime header always goes: it depends on no program.
std::string cacheRoot() {
  std::string Tmp = envOr("TMPDIR", "/tmp");
  return envOr("TESSLA_NATIVE_CACHE_DIR", Tmp + "/tessla-native-cache");
}

std::string cacheDirFor(const NativeCompileOptions &Opts) {
  return Opts.CacheDir.empty() ? cacheRoot() : Opts.CacheDir;
}

/// Flags of every monitor build. The PCH is built with the same ones:
/// g++ rejects a PCH whose -O/-f options differ from the build's.
constexpr const char *BaseFlags = "-std=c++20 -O2 -fPIC";
/// The shim TU #defines this ahead of its first #include, and g++ uses a
/// PCH only if it saw the same definition.
constexpr const char *ShimDefine = "-DTESSLA_CGEN_FAIL_THROWS=1";
/// The header every generated monitor includes first, under the include
/// root (and under a PCH directory, with ".gch" appended).
constexpr const char *RuntimeHeader = "tessla/CodeGen/RuntimeSupport.h";

uint64_t hashText(std::string_view Text) {
  return tpbChecksum(reinterpret_cast<const uint8_t *>(Text.data()),
                     Text.size());
}

std::string readWholeFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// The header a `#include "tessla/..."` line names, or "".
std::string_view quotedTesslaInclude(std::string_view Line) {
  constexpr std::string_view Directive = "#include \"";
  size_t At = Line.find_first_not_of(" \t");
  if (At == std::string_view::npos ||
      Line.substr(At, Directive.size()) != Directive)
    return {};
  std::string_view Name = Line.substr(At + Directive.size());
  Name = Name.substr(0, Name.find('"'));
  return Name.starts_with("tessla/") ? Name : std::string_view();
}

/// FNV-1a-64 over the bytes of RuntimeSupport.h and of every header it
/// reaches through quoted `tessla/` includes, each salted with its name.
/// False if one of them cannot be read.
bool hashHeaderClosure(const std::string &Inc, uint64_t &HashOut) {
  std::vector<std::string> Names{RuntimeHeader};
  std::string All;
  std::error_code Ec;
  for (size_t I = 0; I != Names.size(); ++I) {
    std::string Path = Inc + "/" + Names[I];
    if (!fs::is_regular_file(Path, Ec))
      return false;
    std::string Text = readWholeFile(Path);
    All += formatString("%s|%zu|", Names[I].c_str(), Text.size()) + Text;
    std::istringstream Lines(Text);
    for (std::string Line; std::getline(Lines, Line);) {
      std::string Name(quotedTesslaInclude(Line));
      if (!Name.empty() &&
          std::find(Names.begin(), Names.end(), Name) == Names.end())
        Names.push_back(std::move(Name));
    }
  }
  HashOut = hashText(All);
  return true;
}

/// The Program checksum: FNV-1a-64 over the deterministic .tpb bytes —
/// the same stamp the shim bakes into tessla_native_checksum().
uint64_t programChecksum(const Program &P) {
  std::vector<uint8_t> Bytes = serializeProgram(P);
  return tpbChecksum(Bytes.data(), Bytes.size());
}

/// What one native build consumes, worked out once per compileNative():
/// the cache key and the build read the same bytes.
struct BuildInputs {
  uint64_t Checksum = 0;   // the Program's, stamped into the shim
  std::string Source;      // the emitted shim translation unit
  std::string Inc;         // include root holding RuntimeHeader
  uint64_t HeaderHash = 0; // hashHeaderClosure(Inc)
};

bool prepareBuild(const Program &P, BuildInputs &In, std::string &ErrorOut) {
  In.Inc = includeDirFor();
  if (In.Inc.empty() || !hashHeaderClosure(In.Inc, In.HeaderHash)) {
    ErrorOut = formatString(
        "runtime-support headers not found under '%s' (set "
        "TESSLA_NATIVE_INCLUDE to the repository's include/ directory)",
        In.Inc.c_str());
    return false;
  }
  In.Checksum = programChecksum(P);
  CppEmitterOptions EmitOpts;
  EmitOpts.ClassName = "TesslaNativeMonitor";
  EmitOpts.EmitNativeShim = true;
  EmitOpts.ShimChecksum = In.Checksum;
  DiagnosticEngine Diags;
  std::optional<std::string> Source = emitCppMonitor(P, EmitOpts, Diags);
  if (!Source) {
    ErrorOut = "the C++ backend does not support this program";
    for (const Diagnostic &D : Diags.diagnostics())
      ErrorOut += "; " + D.Message;
    return false;
  }
  In.Source = std::move(*Source);
  return true;
}

/// The cache key salts in everything that goes into the produced binary:
/// the Program, the ABI, the compiler and flags, the emitted source and
/// the runtime headers it includes.
uint64_t cacheKey(const BuildInputs &In, const NativeCompileOptions &Opts) {
  std::string Salt = formatString(
      "%llu|abi%lld|%s|%s|%016llx|%016llx",
      static_cast<unsigned long long>(In.Checksum),
      static_cast<long long>(NativeShimAbiVersion), compilerFor(Opts).c_str(),
      Opts.ExtraFlags.c_str(),
      static_cast<unsigned long long>(hashText(In.Source)),
      static_cast<unsigned long long>(In.HeaderHash));
  return hashText(Salt);
}

std::string cachePath(const BuildInputs &In,
                      const NativeCompileOptions &Opts) {
  return cacheDirFor(Opts) +
         formatString("/tessla-native-%016llx.so",
                      static_cast<unsigned long long>(cacheKey(In, Opts)));
}

} // namespace

std::shared_ptr<NativeMonitorLibrary>
NativeMonitorLibrary::open(const std::string &Path, uint64_t WantChecksum,
                           std::string &ErrorOut) {
  void *H = dlopen(Path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!H) {
    ErrorOut = formatString("dlopen failed: %s", dlerror());
    return nullptr;
  }
  // Deleter-based shared_ptr so every early-return path dlcloses.
  auto Lib = std::shared_ptr<NativeMonitorLibrary>(
      new NativeMonitorLibrary(), [](NativeMonitorLibrary *L) { delete L; });
  Lib->Handle = H;
  Lib->Path = Path;

  auto Resolve = [&](const char *Sym) -> void * {
    return dlsym(H, Sym);
  };
  auto *AbiFn =
      reinterpret_cast<int64_t (*)()>(Resolve("tessla_native_abi"));
  auto *ChecksumFn =
      reinterpret_cast<uint64_t (*)()>(Resolve("tessla_native_checksum"));
  Lib->create = reinterpret_cast<decltype(Lib->create)>(
      Resolve("tessla_native_create"));
  Lib->feed =
      reinterpret_cast<decltype(Lib->feed)>(Resolve("tessla_native_feed"));
  Lib->finish = reinterpret_cast<decltype(Lib->finish)>(
      Resolve("tessla_native_finish"));
  Lib->error = reinterpret_cast<decltype(Lib->error)>(
      Resolve("tessla_native_error"));
  Lib->numOutputs = reinterpret_cast<decltype(Lib->numOutputs)>(
      Resolve("tessla_native_num_outputs"));
  Lib->destroy = reinterpret_cast<decltype(Lib->destroy)>(
      Resolve("tessla_native_destroy"));
  Lib->numInputs = reinterpret_cast<decltype(Lib->numInputs)>(
      Resolve("tessla_native_num_inputs"));
  Lib->inputName = reinterpret_cast<decltype(Lib->inputName)>(
      Resolve("tessla_native_input_name"));

  if (!AbiFn || !ChecksumFn || !Lib->create || !Lib->feed || !Lib->finish ||
      !Lib->error || !Lib->numOutputs || !Lib->destroy || !Lib->numInputs ||
      !Lib->inputName) {
    ErrorOut = "missing tessla_native_* entry points";
    return nullptr;
  }
  if (AbiFn() != NativeShimAbiVersion) {
    ErrorOut = formatString("shim ABI mismatch: library has v%lld, "
                            "loader wants v%lld",
                            static_cast<long long>(AbiFn()),
                            static_cast<long long>(NativeShimAbiVersion));
    return nullptr;
  }
  if (ChecksumFn() != WantChecksum) {
    ErrorOut = formatString(
        "program checksum mismatch: library stamped %016llx, "
        "program is %016llx",
        static_cast<unsigned long long>(ChecksumFn()),
        static_cast<unsigned long long>(WantChecksum));
    return nullptr;
  }
  Lib->Checksum = WantChecksum;
  return Lib;
}

namespace {

/// mkdtemp() on \p Template (ending in XXXXXX); "" on failure.
std::string makeTempDir(const std::string &Template) {
  std::vector<char> Dir(Template.begin(), Template.end());
  Dir.push_back('\0');
  return mkdtemp(Dir.data()) ? std::string(Dir.data()) : std::string();
}

/// Runs \p Cmd through the shell: its exit code, 127 when the command
/// was not found, -1 when it did not exit normally.
int runCommand(const std::string &Cmd) {
  int Rc = std::system(Cmd.c_str());
  return (Rc >= 0 && WIFEXITED(Rc)) ? WEXITSTATUS(Rc) : -1;
}

std::string extraFlags(const NativeCompileOptions &Opts) {
  return Opts.ExtraFlags.empty() ? "" : " " + Opts.ExtraFlags;
}

/// The directory that holds the precompiled RuntimeHeader for this
/// compiler, these flags and these header bytes, built and published on
/// first use; "" when it cannot be built, and the monitor then compiles
/// from the plain header. Put ahead of the include root, it makes the
/// compiler read RuntimeHeader's ".gch" instead of the header closure.
std::string ensurePch(const BuildInputs &In,
                      const NativeCompileOptions &Opts) {
  std::string Cxx = compilerFor(Opts);
  std::string Root = cacheRoot();
  uint64_t Key = hashText(formatString(
      "%s|%s %s|%s|%016llx", Cxx.c_str(), BaseFlags, ShimDefine,
      Opts.ExtraFlags.c_str(), static_cast<unsigned long long>(In.HeaderHash)));
  std::string Dir =
      Root + formatString("/pch-%016llx", static_cast<unsigned long long>(Key));
  std::string Gch = Dir + "/" + RuntimeHeader + ".gch";
  std::error_code Ec;
  if (fs::exists(Gch, Ec))
    return Dir;

  // Built in a scratch directory under the root and published by
  // rename(), like the libraries; of two concurrent builders, the one
  // that comes second keeps the copy already there.
  fs::create_directories(Root, Ec);
  std::string Work = makeTempDir(Root + "/pch-build-XXXXXX");
  if (Work.empty())
    return "";
  std::string Built = Work + "/RuntimeSupport.h.gch";
  std::string Cmd = Cxx + " " + BaseFlags + " " + ShimDefine +
                    " -x c++-header -I'" + In.Inc + "' '" + In.Inc + "/" +
                    RuntimeHeader + "' -o '" + Built + "'" + extraFlags(Opts) +
                    " >/dev/null 2>&1";
  if (runCommand(Cmd) == 0 && fs::exists(Built, Ec)) {
    fs::create_directories(fs::path(Gch).parent_path(), Ec);
    if (!Ec && !fs::exists(Gch, Ec))
      fs::rename(Built, Gch, Ec);
  }
  fs::remove_all(Work, Ec);
  return fs::exists(Gch, Ec) ? Dir : "";
}

/// Compiles the emitted source into the cache slot. Returns true on
/// success.
bool buildInto(const BuildInputs &In, const NativeCompileOptions &Opts,
               const std::string &Target, std::string &ErrorOut) {
  std::error_code Ec;
  fs::create_directories(fs::path(Target).parent_path(), Ec);
  if (Ec) {
    ErrorOut = "cannot create cache directory: " + Ec.message();
    return false;
  }

  // Hermetic scratch directory next to the cache slot so the final
  // rename() stays on one filesystem (atomic publish).
  std::string Work =
      makeTempDir((fs::path(Target).parent_path() / "build-XXXXXX").string());
  if (Work.empty()) {
    ErrorOut = "mkdtemp failed for the native build directory";
    return false;
  }
  auto Cleanup = [&] { fs::remove_all(Work, Ec); };

  std::string Src = Work + "/monitor.cpp";
  std::string Obj = Work + "/monitor.so";
  std::string ErrFile = Work + "/compile.err";
  {
    std::ofstream Out(Src);
    Out << In.Source;
    if (!Out) {
      ErrorOut = "cannot write the generated source";
      Cleanup();
      return false;
    }
  }

  std::string Cxx = compilerFor(Opts);
  auto Compile = [&](const std::string &PchDir) {
    return runCommand(Cxx + " " + BaseFlags + " -shared" +
                      (PchDir.empty() ? "" : " -I'" + PchDir + "'") +
                      " -I'" + In.Inc + "' '" + Src + "' -o '" + Obj + "'" +
                      extraFlags(Opts) + " 2>'" + ErrFile + "'");
  };
  std::string Pch = ensurePch(In, Opts);
  int Exit = Compile(Pch);
  if (Exit != 0 && !Pch.empty()) {
    // g++ skips a PCH it finds invalid but fails on one it cannot read
    // (a truncated .gch: "cannot read PCH file"). Retry from the plain
    // header, and drop the PCH only if that build passes, so a broken
    // compiler or monitor never costs it.
    Exit = Compile("");
    if (Exit == 0)
      fs::remove(Pch + "/" + RuntimeHeader + ".gch", Ec);
  }
  if (Exit != 0) {
    std::string Stderr = readWholeFile(ErrFile);
    if (Stderr.size() > 800)
      Stderr = Stderr.substr(0, 800) + "...";
    if (Exit == 127)
      ErrorOut = formatString("native compiler '%s' not found", Cxx.c_str());
    else
      ErrorOut = formatString("native compiler '%s' failed (exit %d): %s",
                              Cxx.c_str(), Exit, Stderr.c_str());
    Cleanup();
    return false;
  }

  fs::rename(Obj, Target, Ec);
  if (Ec) {
    ErrorOut = "cannot publish the native library: " + Ec.message();
    Cleanup();
    return false;
  }
  Cleanup();
  return true;
}

/// The native ShardEngine: one shim instance per lane, the engines' one
/// record check (Runtime/RecordCheck.h) run host-side (the generated feed
/// keeps only a weak ordering backstop), outputs decoded from their codec
/// bytes and checked against the output's declared type, so downstream
/// comparison and printing are engine-agnostic.
class NativeShardEngine final : public ShardEngine {
public:
  NativeShardEngine(std::shared_ptr<NativeMonitorLibrary> Lib,
                    const Program &Prog, bool CollectOutputs)
      : Lib(std::move(Lib)), Prog(Prog), CollectOutputs(CollectOutputs),
        InputIndex(Prog.spec().numStreams(), -1) {
    const std::vector<StreamId> &Inputs = Prog.spec().inputs();
    for (size_t I = 0; I != Inputs.size(); ++I)
      InputIndex[Inputs[I]] = static_cast<int32_t>(I);
  }

  ~NativeShardEngine() override {
    // Instances must die before the library (shared_ptr member order
    // alone is not enough: destroy() lives inside the .so).
    for (auto &Lane : Lanes)
      if (Lane->Inst)
        Lib->destroy(Lane->Inst);
    Lanes.clear();
  }

  unsigned addLane(SessionId Session) override {
    unsigned L;
    if (!FreeLanes.empty()) {
      L = FreeLanes.back();
      FreeLanes.pop_back();
      *Lanes[L] = LaneData();
    } else {
      L = static_cast<unsigned>(Lanes.size());
      Lanes.push_back(std::make_unique<LaneData>());
    }
    LaneData &D = *Lanes[L];
    D.Owner = this;
    D.Session = Session;
    D.Present.assign(Prog.numValueSlots() + 1, 0);
    D.Inst = Lib->create(CollectOutputs ? &NativeShardEngine::onOutput
                                        : nullptr,
                         &D);
    D.Live = true;
    ++NumLive;
    return L;
  }

  bool feed(unsigned Lane, StreamId Input, Time Ts, Value V) override {
    LaneData &D = *Lanes[Lane];
    // The engines' one record check runs host-side; the shared object
    // only flushes and applies.
    if (D.Failed)
      return false;
    SlotId Slot = Prog.valueSlot(Input);
    if (RecordFault F = checkRecord(Prog, EngineFinished, Input, Ts, V,
                                    D.PendingTs, D.CalcDone, D.Present[Slot]);
        F != RecordFault::None)
      return fail(D, describeRecordFault(Prog, F, Input, Ts, V));
    bool Advance = Ts > D.PendingTs;
    if (!callFeed(D, Input, Ts, V))
      return false;
    if (Advance) {
      D.PendingTs = Ts;
      D.CalcDone = false;
      std::fill(D.Present.begin(), D.Present.end(), 0);
    }
    D.Present[Slot] = 1;
    ++D.NumFed;
    return true;
  }

  void pump() override {} // eager: the shim applies records at feed()

  void finishAll(std::optional<Time> Horizon) override {
    for (auto &LanePtr : Lanes) {
      LaneData &D = *LanePtr;
      if (!D.Live || D.Failed)
        continue;
      int32_t Ok = Lib->finish(D.Inst, Horizon ? *Horizon : 0,
                               Horizon ? 1 : 0);
      if (!Ok)
        takeNativeError(D);
      else
        checkCallback(D);
    }
    EngineFinished = true;
  }

  SessionId laneSession(unsigned Lane) const override {
    return Lanes[Lane]->Session;
  }
  bool laneFailed(unsigned Lane) const override {
    return Lanes[Lane]->Failed;
  }
  const std::string &laneError(unsigned Lane) const override {
    return Lanes[Lane]->Error;
  }
  uint64_t laneInputEvents(unsigned Lane) const override {
    return Lanes[Lane]->NumFed;
  }
  uint64_t laneOutputEvents(unsigned Lane) const override {
    return Lib->numOutputs(Lanes[Lane]->Inst);
  }
  bool laneIdle(unsigned) const override { return true; }

  std::vector<OutputEvent> takeLaneOutputs(unsigned Lane) override {
    return std::move(Lanes[Lane]->Outputs);
  }

  size_t laneCount() const override { return NumLive; }
  const char *name() const override { return "native"; }

private:
  struct LaneData {
    NativeShardEngine *Owner = nullptr;
    void *Inst = nullptr;
    SessionId Session = 0;
    Time PendingTs = 0;
    bool CalcDone = false;
    bool Failed = false;
    bool Live = false;
    std::string Error;
    std::string CallbackError;
    uint64_t NumFed = 0;
    std::vector<char> Present; // duplicate-event mirror, per value slot
    std::vector<OutputEvent> Outputs;
  };

  // Destruction order: Lanes (and their instances) are torn down in the
  // destructor body above, strictly before this handle can drop the
  // shared object.
  std::shared_ptr<NativeMonitorLibrary> Lib;
  const Program &Prog;
  const bool CollectOutputs;
  std::vector<int32_t> InputIndex; // by StreamId; -1 for non-inputs
  std::vector<std::unique_ptr<LaneData>> Lanes;
  std::vector<unsigned> FreeLanes;
  size_t NumLive = 0;
  bool EngineFinished = false;

  static void onOutput(void *Ctx, int64_t Ts, int32_t Output,
                       const uint8_t *Bytes, size_t Size) {
    auto *D = static_cast<LaneData *>(Ctx);
    if (!D->CallbackError.empty())
      return; // the lane fails when the native call returns
    const Program &Prog = D->Owner->Prog;
    if (Output < 0 || static_cast<size_t>(Output) >= Prog.outputs().size()) {
      D->CallbackError = formatString(
          "at t=%lld: native output index %d is out of range (the program "
          "has %zu outputs)",
          static_cast<long long>(Ts), Output, Prog.outputs().size());
      return;
    }
    StreamId Id = Prog.outputs()[Output].Id;
    bc::ByteReader R(Bytes, Size);
    DiagnosticEngine Diags;
    bc::DecodeContext Dc{Diags, "native output"};
    Value V = bc::readValue(R, Dc);
    const Type &Ty = Prog.spec().stream(Id).Ty;
    if (Dc.Ok && !R.failed() && R.atEnd() && conformsTo(Ty, V)) {
      D->Outputs.push_back({Ts, Id, std::move(V)});
      return;
    }
    std::string Why;
    if (!Dc.Ok)
      Why = Diags.diagnostics().front().Message;
    else if (R.failed())
      Why = "native output: truncated value";
    else if (!R.atEnd())
      Why = formatString("native output: %zu trailing bytes after the value",
                         R.remaining());
    else
      Why = "native output: " + mistypedMessage(Ty, V);
    D->CallbackError = failureAt(Prog.spec(), Ts, Id, Why);
  }

  bool fail(LaneData &D, std::string Message) {
    D.Failed = true;
    D.Error = std::move(Message);
    return false;
  }
  void takeNativeError(LaneData &D) {
    const char *Err = Lib->error(D.Inst);
    D.Failed = true;
    D.Error = Err ? Err : "native monitor failed without a message";
  }
  /// Output lifting runs inside the native call; surface its failure
  /// only after the call returns.
  bool checkCallback(LaneData &D) {
    if (D.CallbackError.empty())
      return true;
    return fail(D, std::move(D.CallbackError));
  }

  bool callFeed(LaneData &D, StreamId Input, Time Ts, const Value &V) {
    int64_t IntV = 0;
    double FloatV = 0;
    const char *StrV = nullptr;
    int32_t BoolV = 0;
    switch (V.kind()) {
    case Value::Kind::Int:
      IntV = V.getInt();
      break;
    case Value::Kind::Float:
      FloatV = V.getFloat();
      break;
    case Value::Kind::Bool:
      BoolV = V.getBool() ? 1 : 0;
      break;
    case Value::Kind::String:
      StrV = V.getString().c_str();
      break;
    default:
      break; // Unit carries no payload; aggregates fail emission
    }
    int32_t Ok = Lib->feed(D.Inst, InputIndex[Input], Ts, IntV, FloatV,
                           StrV, BoolV);
    if (!Ok) {
      takeNativeError(D);
      return false;
    }
    return checkCallback(D);
  }
};

} // namespace

NativeMonitorLibrary::~NativeMonitorLibrary() {
  if (Handle)
    dlclose(Handle);
}

std::string tessla::nativeCachePathFor(const Program &P,
                                       const NativeCompileOptions &Opts) {
  BuildInputs In;
  std::string Error;
  return prepareBuild(P, In, Error) ? cachePath(In, Opts) : std::string();
}

std::shared_ptr<NativeMonitorLibrary>
tessla::compileNative(const Program &P, const NativeCompileOptions &Opts,
                      std::string &ErrorOut) {
  ErrorOut.clear();
  BuildInputs In;
  if (!prepareBuild(P, In, ErrorOut))
    return nullptr;
  std::string Target = cachePath(In, Opts);

  if (!Opts.Force && fs::exists(Target)) {
    std::string CacheErr;
    if (auto Lib = NativeMonitorLibrary::open(Target, In.Checksum, CacheErr))
      return Lib;
    // Stale or corrupt cache entry (failed dlopen, wrong stamp): drop
    // it and rebuild once.
    std::error_code Ec;
    fs::remove(Target, Ec);
  }

  if (!buildInto(In, Opts, Target, ErrorOut))
    return nullptr;
  auto Lib = NativeMonitorLibrary::open(Target, In.Checksum, ErrorOut);
  if (!Lib)
    ErrorOut = "freshly built native library is unusable: " + ErrorOut;
  return Lib;
}

EngineFactory
tessla::makeNativeEngineFactory(std::shared_ptr<NativeMonitorLibrary> Lib) {
  if (!Lib)
    return nullptr;
  return [Lib](const Program &Prog, bool CollectOutputs) {
    return std::unique_ptr<ShardEngine>(
        new NativeShardEngine(Lib, Prog, CollectOutputs));
  };
}

EngineFactory
tessla::makeNativeEngineFactory(const Program &P,
                                const NativeCompileOptions &Opts,
                                std::string &ErrorOut) {
  return makeNativeEngineFactory(compileNative(P, Opts, ErrorOut));
}
