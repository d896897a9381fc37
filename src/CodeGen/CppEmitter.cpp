//===- CodeGen/CppEmitter.cpp -----------------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "tessla/CodeGen/CppEmitter.h"

#include "tessla/Support/Format.h"

#include <cassert>

using namespace tessla;

namespace {

/// One argument of an emitted lift body: the stream it stands for (type
/// and mutability queries) plus the C++ expression that reads it — the
/// stream's variable normally, a last-slot or a fused-producer local for
/// the fused opcodes.
struct ArgRef {
  StreamId Id;
  std::string Expr;
};

/// Stateful emitter for one lowered program. Emission is driven by the
/// program's *steps* (opcodes), not the spec's stream kinds, so optimized
/// programs — folded constants, fused steps, compacted slot tables —
/// emit exactly what the interpreter executes.
class Emitter {
public:
  Emitter(const Program &P, const CppEmitterOptions &Opts,
          DiagnosticEngine &Diags)
      : P(P), S(P.spec()), Opts(Opts), Diags(Diags) {}

  std::optional<std::string> run();

private:
  const Program &P;
  const Spec &S;
  const CppEmitterOptions &Opts;
  DiagnosticEngine &Diags;
  std::string Out;
  bool Failed = false;

  void line(const std::string &Text = "") {
    Out += Text;
    Out += '\n';
  }
  void unsupported(StreamId Id, const std::string &What) {
    Diags.error(S.stream(Id).Loc,
                formatString("C++ backend: %s (stream '%s')", What.c_str(),
                             S.stream(Id).Name.c_str()));
    Failed = true;
  }

  bool isMut(StreamId Id) const { return P.isMutable(Id); }
  /// A stream without a value slot never carries an event (nil, or
  /// optimized away); it gets no variable and every read of it folds to
  /// "absent".
  bool dead(StreamId Id) const {
    return P.valueSlot(Id) == P.numValueSlots();
  }
  std::string var(StreamId Id) const { return "v_" + S.stream(Id).Name; }
  std::string has(StreamId Id) const { return var(Id) + "_has"; }

  std::string hashFor(const Type &Elem) const {
    if (Elem.kind() == TypeKind::Unit)
      return "tessla::cgen::UnitHash";
    return "std::hash<" + scalarType(Elem) + ">";
  }

  std::string scalarType(const Type &T) const {
    switch (T.kind()) {
    case TypeKind::Unit:
      return "tessla::cgen::UnitV";
    case TypeKind::Bool:
      return "bool";
    case TypeKind::Int:
      return "int64_t";
    case TypeKind::Float:
      return "double";
    case TypeKind::String:
      return "std::string";
    default:
      return "/*unsupported*/void";
    }
  }

  /// C++ type of a stream variable.
  std::string cppType(StreamId Id) const {
    const Type &T = S.stream(Id).Ty;
    bool Mut = isMut(Id);
    switch (T.kind()) {
    case TypeKind::Set: {
      std::string E = scalarType(T.params()[0]);
      std::string H = hashFor(T.params()[0]);
      if (Mut)
        return "std::shared_ptr<std::unordered_set<" + E + ", " + H + ">>";
      return "tessla::HamtSet<" + E + ", " + H + ">";
    }
    case TypeKind::Map: {
      std::string K = scalarType(T.params()[0]);
      std::string V = scalarType(T.params()[1]);
      std::string H = hashFor(T.params()[0]);
      if (Mut)
        return "std::shared_ptr<std::unordered_map<" + K + ", " + V + ", " +
               H + ">>";
      return "tessla::HamtMap<" + K + ", " + V + ", " + H + ">";
    }
    case TypeKind::Queue: {
      std::string E = scalarType(T.params()[0]);
      if (Mut)
        return "std::shared_ptr<std::deque<" + E + ">>";
      return "tessla::PQueue<" + E + ">";
    }
    default:
      return scalarType(T);
    }
  }

  /// The element type inside an aggregate variable (for make_shared).
  std::string innerType(StreamId Id) const {
    std::string Full = cppType(Id);
    assert(Full.substr(0, 16) == "std::shared_ptr<" && "not a mutable agg");
    return Full.substr(16, Full.size() - 17);
  }

  std::string literal(const ConstantLit &Lit) const {
    struct Renderer {
      std::string operator()(std::monostate) const {
        return "tessla::cgen::UnitV{}";
      }
      std::string operator()(bool B) const { return B ? "true" : "false"; }
      std::string operator()(int64_t I) const {
        return "int64_t{" + std::to_string(I) + "}";
      }
      std::string operator()(double D) const {
        std::string Text = formatDouble(D);
        if (Text.find_first_of(".eE") == std::string::npos)
          Text += ".0";
        return Text;
      }
      std::string operator()(const std::string &Str) const {
        return "std::string(\"" + escapeString(Str) + "\")";
      }
    };
    return std::visit(Renderer{}, Lit.V);
  }

  /// Renders a folded scalar constant (Const/ConstTick payloads).
  std::string valueLiteral(StreamId Id, const Value &V) {
    switch (V.kind()) {
    case Value::Kind::Unit:
      return "tessla::cgen::UnitV{}";
    case Value::Kind::Bool:
      return V.getBool() ? "true" : "false";
    case Value::Kind::Int:
      return "int64_t{" + std::to_string(V.getInt()) + "}";
    case Value::Kind::Float: {
      std::string Text = formatDouble(V.getFloat());
      if (Text.find_first_of(".eE") == std::string::npos)
        Text += ".0";
      return Text;
    }
    case Value::Kind::String:
      return "std::string(\"" + escapeString(V.getString()) + "\")";
    default:
      unsupported(Id, "aggregate-valued constant step");
      return "{}";
    }
  }

  /// Builtins whose emitted body can call tessla::cgen::fail(). (Div on
  /// Float cannot, but an extra context store is a harmless dead write.)
  static bool fallibleBuiltin(BuiltinId Fn) {
    switch (Fn) {
    case BuiltinId::Div:
    case BuiltinId::Mod:
    case BuiltinId::MapGet:
    case BuiltinId::QueueFront:
    case BuiltinId::QueueDeq:
      return true;
    default:
      return false;
    }
  }

  /// In shim mode, records which stream's step body is about to run so a
  /// thrown cgen::fail() renders with that stream's name, exactly like
  /// Monitor::failAt attributes the failure. No-op otherwise.
  void emitFailContext(const std::string &Indent, BuiltinId Fn,
                       StreamId At) {
    if (Opts.EmitNativeShim && fallibleBuiltin(Fn))
      line(Indent + "CgenCtx = \"" + S.stream(At).Name + "\";");
  }

  void emitHeader();
  void emitVariables();
  void emitFeeds();
  void emitTriggering();
  void emitCalc();
  void emitStep(const ProgramStep &Step);
  std::vector<std::string> liftBodyStmts(BuiltinId Fn, StreamId DstId,
                                         const std::string &Dst, bool Mut,
                                         const std::vector<ArgRef> &Args);
  void emitMain();
  void emitBenchMain();
  void emitNativeShim();
};

std::optional<std::string> Emitter::run() {
  // Pre-flight checks for unsupported constructs, against the *steps*
  // actually emitted (after optimization the spec may mention lifts that
  // no longer exist, and fused steps carry two builtins each).
  for (StreamId Id : S.inputs())
    if (S.stream(Id).Ty.isComplex())
      unsupported(Id, "aggregate-typed input streams");
  auto CheckCmp = [&](StreamId At, BuiltinId Fn,
                      const std::vector<StreamId> &Args) {
    bool Comparison =
        Fn == BuiltinId::Eq || Fn == BuiltinId::Neq ||
        Fn == BuiltinId::Lt || Fn == BuiltinId::Leq ||
        Fn == BuiltinId::Gt || Fn == BuiltinId::Geq ||
        Fn == BuiltinId::Min || Fn == BuiltinId::Max;
    if (!Comparison)
      return;
    for (StreamId A : Args)
      if (S.stream(A).Ty.isComplex())
        unsupported(At, "comparisons between aggregates");
  };
  for (const ProgramStep &Step : P.steps()) {
    switch (Step.Op) {
    case Opcode::LiftAll:
    case Opcode::LiftFirstRest:
      CheckCmp(Step.Id, Step.Fn, Step.Args);
      break;
    case Opcode::FusedLastLift: {
      std::vector<StreamId> Args{Step.Args[0]};
      Args.insert(Args.end(), Step.Args.begin() + 2, Step.Args.end());
      CheckCmp(Step.Id, Step.Fn, Args);
      break;
    }
    case Opcode::FusedLiftLift: {
      std::vector<StreamId> Inner(Step.Args.begin(),
                                  Step.Args.begin() + Step.FusedArity);
      CheckCmp(Step.Id, Step.Fn2, Inner);
      std::vector<StreamId> Outer{Step.FusedId};
      Outer.insert(Outer.end(), Step.Args.begin() + Step.FusedArity,
                   Step.Args.end());
      CheckCmp(Step.Id, Step.Fn, Outer);
      break;
    }
    default:
      break;
    }
  }
  if (Failed)
    return std::nullopt;

  emitHeader();
  line("class " + Opts.ClassName + " {");
  line("public:");
  if (Opts.EmitNativeShim) {
    line("  void setOutput(tessla_native_output_fn Fn, void *Ctx) {");
    line("    OutFn = Fn;");
    line("    OutCtx = Ctx;");
    line("  }");
    line("  // Native-shim introspection: the failure context for");
    line("  // rendering interpreter-identical error messages, and the");
    line("  // output count (maintained even without a handler, like");
    line("  // Monitor::outputEvents).");
    line("  int64_t cgenTs() const { return CgenTs; }");
    line("  const char *cgenCtx() const { return CgenCtx; }");
    line("  void cgenClearContext() { CgenCtx = nullptr; }");
    line("  uint64_t cgenNumOutputs() const { return NumOutputs; }");
  } else {
    line("  using OutputFn =");
    line("      std::function<void(int64_t, const char *, const "
         "std::string &)>;");
    line("  void setOutputHandler(OutputFn Fn) { Out = std::move(Fn); }");
  }
  line();
  emitFeeds();
  line("  void finish(int64_t Horizon = "
       "std::numeric_limits<int64_t>::max()) {");
  line("    flushBefore(Horizon == std::numeric_limits<int64_t>::max()");
  line("                    ? Horizon");
  line("                    : Horizon + 1);");
  line("    Finished = true;");
  line("  }");
  line();
  line("private:");
  if (Opts.EmitNativeShim) {
    line("  tessla_native_output_fn OutFn = nullptr;");
    line("  void *OutCtx = nullptr;");
    line("  tessla::cgen::ValueWriter OutBytes; // reused by every output");
  } else {
    line("  OutputFn Out;");
  }
  line("  int64_t PendingTs = 0;");
  line("  bool CalcDone = false;");
  line("  bool Finished = false;");
  if (Opts.EmitNativeShim) {
    line("  int64_t CgenTs = 0;");
    line("  const char *CgenCtx = nullptr;");
    line("  uint64_t NumOutputs = 0;");
    line();
    line("  // Hands output number Index (of the program's outputs) to the");
    line("  // host as tessla::bc::writeValue bytes.");
    line("  template <typename T>");
    line("  void emitOutput(int64_t Ts, int32_t Index, const T &V) {");
    line("    OutBytes.clear();");
    line("    tessla::cgen::writeValue(OutBytes, V);");
    line("    OutFn(OutCtx, Ts, Index, OutBytes.data(), OutBytes.size());");
    line("  }");
  }
  line();
  emitVariables();
  emitTriggering();
  emitCalc();
  line("};");
  if (Opts.EmitNativeShim)
    emitNativeShim(); // the shim is the driver; mains do not apply
  else if (Opts.EmitBenchMain)
    emitBenchMain();
  else if (Opts.EmitMain)
    emitMain();
  if (Failed)
    return std::nullopt;
  return Out;
}

void Emitter::emitHeader() {
  line("// Monitor generated by the tessla-aggregate-update C++ backend.");
  line("//");
  line("// Flat specification:");
  std::string SpecText = S.str();
  size_t Pos = 0;
  while (Pos < SpecText.size()) {
    size_t End = SpecText.find('\n', Pos);
    if (End == std::string::npos)
      End = SpecText.size();
    line("//   " + SpecText.substr(Pos, End - Pos));
    Pos = End + 1;
  }
  line("//");
  line("// Mutable aggregate streams:");
  std::string Muts;
  for (StreamId Id = 0; Id != S.numStreams(); ++Id)
    if (P.isMutable(Id))
      Muts += " " + S.stream(Id).Name;
  line("//  " + (Muts.empty() ? " (none)" : Muts));
  line();
  if (Opts.EmitNativeShim) {
    line("// Embedded in a host process: failures must surface as");
    line("// per-instance error strings, not abort().");
    line("#define TESSLA_CGEN_FAIL_THROWS 1");
  }
  line("#include \"tessla/CodeGen/RuntimeSupport.h\"");
  line();
  line("#include <cmath>");
  line("#include <cstddef>");
  line("#include <cstdint>");
  if (!Opts.EmitNativeShim)
    line("#include <functional>");
  line("#include <limits>");
  line("#include <string>");
  line();
  if (Opts.EmitNativeShim) {
    line("// The host's output callback (ABI v" +
         std::to_string(NativeShimAbiVersion) + "): the event's timestamp,");
    line("// its index into the program's outputs, and its value as");
    line("// tessla::bc::writeValue bytes, valid only during the call.");
    line("extern \"C\" typedef void (*tessla_native_output_fn)(");
    line("    void *Ctx, int64_t Ts, int32_t Output, const uint8_t *Bytes,");
    line("    size_t Size);");
    line();
  }
}

void Emitter::emitVariables() {
  line("  // Stream variables (current timestamp), one per live value");
  line("  // slot of the program.");
  for (StreamId Id = 0; Id != S.numStreams(); ++Id) {
    if (dead(Id))
      continue; // no slot: nil or optimized away, never carries events
    line("  bool " + has(Id) + " = false;");
    line("  " + cppType(Id) + " " + var(Id) + "{};");
  }
  line();
  // *_last slots, straight from the program's slot table.
  if (!P.lastSlots().empty()) {
    line("  // *_last slots (value of the most recent event).");
    for (const LastSlot &L : P.lastSlots()) {
      if (dead(L.Source))
        continue; // the source never fires; the slot stays empty
      line("  bool " + var(L.Source) + "_last_init = false;");
      line("  " + cppType(L.Source) + " " + var(L.Source) + "_last{};");
    }
    line();
  }
  // *_nextTs slots, one per program delay slot.
  if (!P.delays().empty()) {
    line("  // *_nextTs slots (next potential delay event).");
    for (const DelaySlot &D : P.delays()) {
      line("  bool " + var(D.Id) + "_nextTs_set = false;");
      line("  int64_t " + var(D.Id) + "_nextTs = 0;");
    }
    line();
  }
}

void Emitter::emitFeeds() {
  for (StreamId Id : S.inputs()) {
    const StreamDef &D = S.stream(Id);
    line("  void feed_" + D.Name + "(int64_t Ts, " + cppType(Id) +
         " Value) {");
    line("    if (Finished || Ts < PendingTs ||");
    line("        (Ts == PendingTs && CalcDone))");
    line("      tessla::cgen::fail(\"input events out of order\");");
    line("    if (Ts > PendingTs) {");
    line("      flushBefore(Ts);");
    line("      PendingTs = Ts;");
    line("      CalcDone = false;");
    line("    }");
    line("    " + var(Id) + " = std::move(Value);");
    line("    " + has(Id) + " = true;");
    line("  }");
  }
  line();
}

void Emitter::emitTriggering() {
  line("  // --- Triggering section (paper, section III-B). ---");
  line("  int64_t minNextDelay() const {");
  line("    int64_t Min = std::numeric_limits<int64_t>::max();");
  for (const DelaySlot &D : P.delays()) {
    line("    if (" + var(D.Id) + "_nextTs_set && " + var(D.Id) +
         "_nextTs < Min)");
    line("      Min = " + var(D.Id) + "_nextTs;");
  }
  line("    return Min;");
  line("  }");
  line();
  line("  void flushBefore(int64_t T) {");
  line("    if (!CalcDone) {");
  line("      calc(PendingTs);");
  line("      CalcDone = true;");
  line("    }");
  line("    for (;;) {");
  line("      int64_t M = minNextDelay();");
  line("      if (M >= T)");
  line("        return;");
  line("      calc(M);");
  line("    }");
  line("  }");
  line();
}

std::vector<std::string>
Emitter::liftBodyStmts(BuiltinId Fn, StreamId DstId, const std::string &Dst,
                       bool Mut, const std::vector<ArgRef> &Args) {
  auto A = [&](unsigned I) { return Args[I].Expr; };
  // Mutable aggregates are accessed through the shared_ptr; helpers take
  // the pointee.
  auto Deref = [&](unsigned I) {
    return isMut(Args[I].Id) ? "*" + A(I) : A(I);
  };
  auto ArgTy = [&](unsigned I) { return S.stream(Args[I].Id).Ty.kind(); };
  const std::string &R = Dst;
  std::vector<std::string> Body; // statements (without guard/indent)

  auto Assign = [&](const std::string &Expr) {
    Body.push_back(R + " = " + Expr + ";");
  };

  switch (Fn) {
  case BuiltinId::Merge:
  case BuiltinId::Filter:
  case BuiltinId::SetUpdate:
    assert(false && "handled by the caller's presence logic");
    break;
  case BuiltinId::Ite:
    Assign(A(0) + " ? " + A(1) + " : " + A(2));
    break;
  case BuiltinId::Add:
    Assign(A(0) + " + " + A(1));
    break;
  case BuiltinId::Sub:
    Assign(A(0) + " - " + A(1));
    break;
  case BuiltinId::Mul:
    Assign(A(0) + " * " + A(1));
    break;
  case BuiltinId::Div:
    if (ArgTy(0) == TypeKind::Int)
      Assign("tessla::cgen::checkedDiv(" + A(0) + ", " + A(1) + ")");
    else
      Assign(A(0) + " / " + A(1));
    break;
  case BuiltinId::Mod:
    if (ArgTy(0) == TypeKind::Int)
      Assign("tessla::cgen::checkedMod(" + A(0) + ", " + A(1) + ")");
    else
      Assign("std::fmod(" + A(0) + ", " + A(1) + ")");
    break;
  case BuiltinId::Neg:
    Assign("-" + A(0));
    break;
  case BuiltinId::Abs:
    if (ArgTy(0) == TypeKind::Int)
      Assign(A(0) + " < 0 ? -" + A(0) + " : " + A(0));
    else
      Assign("std::fabs(" + A(0) + ")");
    break;
  case BuiltinId::Min:
    Assign("std::min(" + A(0) + ", " + A(1) + ")");
    break;
  case BuiltinId::Max:
    Assign("std::max(" + A(0) + ", " + A(1) + ")");
    break;
  case BuiltinId::Eq:
    Assign(A(0) + " == " + A(1));
    break;
  case BuiltinId::Neq:
    Assign(A(0) + " != " + A(1));
    break;
  case BuiltinId::Lt:
    Assign(A(0) + " < " + A(1));
    break;
  case BuiltinId::Leq:
    Assign(A(0) + " <= " + A(1));
    break;
  case BuiltinId::Gt:
    Assign(A(0) + " > " + A(1));
    break;
  case BuiltinId::Geq:
    Assign(A(0) + " >= " + A(1));
    break;
  case BuiltinId::LAnd:
    Assign(A(0) + " && " + A(1));
    break;
  case BuiltinId::LOr:
    Assign(A(0) + " || " + A(1));
    break;
  case BuiltinId::LNot:
    Assign("!" + A(0));
    break;
  case BuiltinId::ToFloat:
    Assign("static_cast<double>(" + A(0) + ")");
    break;
  case BuiltinId::ToInt:
    Assign("static_cast<int64_t>(" + A(0) + ")");
    break;

  case BuiltinId::SetEmpty:
  case BuiltinId::MapEmpty:
  case BuiltinId::QueueEmpty:
    if (Mut)
      Assign("std::make_shared<" + innerType(DstId) + ">()");
    else
      Assign(cppType(DstId) + "{}");
    break;

  case BuiltinId::SetAdd:
    if (Mut) {
      Assign(A(0));
      Body.push_back(R + "->insert(" + A(1) + ");");
    } else {
      Assign(A(0) + ".insert(" + A(1) + ")");
    }
    break;
  case BuiltinId::SetRemove:
    if (Mut) {
      Assign(A(0));
      Body.push_back(R + "->erase(" + A(1) + ");");
    } else {
      Assign(A(0) + ".erase(" + A(1) + ")");
    }
    break;
  case BuiltinId::SetToggle:
    if (Mut) {
      Assign(A(0));
      Body.push_back("if (" + R + "->count(" + A(1) + "))");
      Body.push_back("  " + R + "->erase(" + A(1) + ");");
      Body.push_back("else");
      Body.push_back("  " + R + "->insert(" + A(1) + ");");
    } else {
      Assign(A(0) + ".contains(" + A(1) + ") ? " + A(0) + ".erase(" + A(1) +
             ") : " + A(0) + ".insert(" + A(1) + ")");
    }
    break;
  case BuiltinId::SetUnion:
  case BuiltinId::SetDiff: {
    const char *IntoFn = Fn == BuiltinId::SetUnion
                             ? "tessla::cgen::setUnionInto"
                             : "tessla::cgen::setDiffInto";
    const char *OfFn = Fn == BuiltinId::SetUnion
                           ? "tessla::cgen::setUnionOf"
                           : "tessla::cgen::setDiffOf";
    if (Mut) {
      Assign(A(0));
      Body.push_back(std::string(IntoFn) + "(*" + R + ", " + Deref(1) +
                     ");");
    } else {
      Assign(std::string(OfFn) + "(" + A(0) + ", " + Deref(1) + ")");
    }
    break;
  }
  case BuiltinId::StrConcat:
    Assign(A(0) + " + " + A(1));
    break;
  case BuiltinId::StrLen:
    Assign("static_cast<int64_t>(" + A(0) + ".size())");
    break;
  case BuiltinId::SetContains:
    Assign(isMut(Args[0].Id) ? A(0) + "->count(" + A(1) + ") != 0"
                             : A(0) + ".contains(" + A(1) + ")");
    break;
  case BuiltinId::SetSize:
  case BuiltinId::MapSize:
  case BuiltinId::QueueSize:
    Assign("static_cast<int64_t>(" +
           (isMut(Args[0].Id) ? A(0) + "->size()" : A(0) + ".size()") + ")");
    break;

  case BuiltinId::MapPut:
    if (Mut) {
      Assign(A(0));
      Body.push_back("(*" + R + ")[" + A(1) + "] = " + A(2) + ";");
    } else {
      Assign(A(0) + ".set(" + A(1) + ", " + A(2) + ")");
    }
    break;
  case BuiltinId::MapRemove:
    if (Mut) {
      Assign(A(0));
      Body.push_back(R + "->erase(" + A(1) + ");");
    } else {
      Assign(A(0) + ".erase(" + A(1) + ")");
    }
    break;
  case BuiltinId::MapGet:
    Assign("tessla::cgen::mapGet(" + Deref(0) + ", " + A(1) + ")");
    break;
  case BuiltinId::MapGetOrElse:
    Assign("tessla::cgen::getOrElse(" + Deref(0) + ", " + A(1) + ", " +
           A(2) + ")");
    break;
  case BuiltinId::MapContains:
    Assign(isMut(Args[0].Id) ? A(0) + "->count(" + A(1) + ") != 0"
                             : A(0) + ".find(" + A(1) + ") != nullptr");
    break;

  case BuiltinId::QueueEnq:
    if (Mut) {
      Assign(A(0));
      Body.push_back(R + "->push_back(" + A(1) + ");");
    } else {
      Assign(A(0) + ".enqueue(" + A(1) + ")");
    }
    break;
  case BuiltinId::QueueDeq:
    if (Mut) {
      Assign(A(0));
      Body.push_back("tessla::cgen::queuePop(*" + R + ");");
    } else {
      Assign("tessla::cgen::queuePopped(" + A(0) + ")");
    }
    break;
  case BuiltinId::QueueFront:
    Assign("tessla::cgen::queueFront(" + Deref(0) + ")");
    break;
  case BuiltinId::QueueTrim:
    if (Mut) {
      Assign(A(0));
      Body.push_back("tessla::cgen::queueTrim(*" + R + ", " + A(1) + ");");
    } else {
      Assign("tessla::cgen::queueTrimmed(" + A(0) + ", " + A(1) + ")");
    }
    break;
  }
  return Body;
}

void Emitter::emitStep(const ProgramStep &Step) {
  StreamId Id = Step.Id;
  std::string Name = S.stream(Id).Name;

  // A guard over the presence flags of live streams; any dead stream
  // makes the whole conjunction statically false.
  auto AllPresent = [&](const std::vector<StreamId> &Ids,
                        std::string &Guard) {
    Guard.clear();
    for (StreamId A : Ids) {
      if (dead(A))
        return false;
      if (!Guard.empty())
        Guard += " && ";
      Guard += has(A);
    }
    return true;
  };
  auto Never = [&](const std::string &Why) {
    line("    // " + Name + ": never fires (" + Why + ")");
  };

  switch (Step.Op) {
  case Opcode::Skip:
    if (Step.Kind == StreamKind::Input)
      line("    // " + Name + ": input (buffered by feed_" + Name + ")");
    else if (Step.Kind == StreamKind::Nil)
      line("    // " + Name + ": nil");
    else
      Never("folded");
    break;

  case Opcode::Const:
    line("    // " + Name + " = const " + Step.ConstVal.str() +
         (Step.Folded ? "   [folded]" : ""));
    line("    if (ts == 0) {");
    line("      " + var(Id) + " = " + valueLiteral(Id, Step.ConstVal) +
         ";");
    line("      " + has(Id) + " = true;");
    line("    }");
    break;

  case Opcode::ConstTick: {
    line("    // " + Name + " = const " + Step.ConstVal.str() + " on " +
         S.stream(Step.Args[0]).Name + "   [folded]");
    std::string Cond = "ts == 0";
    if (!dead(Step.Args[0]))
      Cond += " || " + has(Step.Args[0]);
    line("    if (" + Cond + ") {");
    line("      " + var(Id) + " = " + valueLiteral(Id, Step.ConstVal) +
         ";");
    line("      " + has(Id) + " = true;");
    line("    }");
    break;
  }

  case Opcode::Time: {
    line("    // " + Name + " = time(" + S.stream(Step.Args[0]).Name +
         ")");
    if (dead(Step.Args[0])) {
      Never("silent operand");
      break;
    }
    line("    if (" + has(Step.Args[0]) + ") {");
    line("      " + var(Id) + " = ts;");
    line("      " + has(Id) + " = true;");
    line("    }");
    break;
  }

  case Opcode::Last: {
    StreamId V = Step.Args[0], R = Step.Args[1];
    line("    // " + Name + " = last(" + S.stream(V).Name + ", " +
         S.stream(R).Name + ")");
    if (dead(V) || dead(R)) {
      Never("silent operand");
      break;
    }
    line("    if (" + has(R) + " && " + var(V) + "_last_init) {");
    line("      " + var(Id) + " = " + var(V) + "_last;");
    line("      " + has(Id) + " = true;");
    line("    }");
    break;
  }

  case Opcode::Delay:
    line("    // " + Name + " = delay(" + S.stream(Step.Args[0]).Name +
         ", " + S.stream(Step.Args[1]).Name + ")");
    line("    if (" + var(Id) + "_nextTs_set && " + var(Id) +
         "_nextTs == ts) {");
    line("      " + var(Id) + " = tessla::cgen::UnitV{};");
    line("      " + has(Id) + " = true;");
    line("    }");
    break;

  case Opcode::LiftMerge: {
    line("    // " + Name + " = merge(...)");
    bool Any = false;
    for (StreamId A : Step.Args) {
      if (dead(A))
        continue;
      line(std::string(Any ? "    } else if (" : "    if (") + has(A) +
           ") {");
      line("      " + var(Id) + " = " + var(A) + ";");
      line("      " + has(Id) + " = true;");
      Any = true;
    }
    if (Any)
      line("    }");
    else
      Never("all operands silent");
    break;
  }

  case Opcode::LiftFilter: {
    StreamId A0 = Step.Args[0], C = Step.Args[1];
    line("    // " + Name + " = filter(" + S.stream(A0).Name + ", " +
         S.stream(C).Name + ")");
    if (dead(A0) || dead(C)) {
      Never("silent operand");
      break;
    }
    line("    if (" + has(A0) + " && " + has(C) + " && " + var(C) + ") {");
    line("      " + var(Id) + " = " + var(A0) + ";");
    line("      " + has(Id) + " = true;");
    line("    }");
    break;
  }

  case Opcode::LiftFirstRest: {
    if (Step.Fn != BuiltinId::SetUpdate) {
      unsupported(Id, "unknown first-and-any-rest builtin");
      break;
    }
    StreamId Base = Step.Args[0];
    line("    // " + Name + " = setUpdate(...)");
    std::vector<StreamId> Rest;
    for (size_t I = 1; I != Step.Args.size(); ++I)
      if (!dead(Step.Args[I]))
        Rest.push_back(Step.Args[I]);
    if (dead(Base) || Rest.empty()) {
      Never("silent operand");
      break;
    }
    std::string Or;
    for (StreamId A : Rest)
      Or += (Or.empty() ? "" : " || ") + has(A);
    line("    if (" + has(Base) + " && (" + Or + ")) {");
    line("      " + var(Id) + " = " + var(Base) + ";");
    bool Mut = isMut(Id);
    auto Update = [&](size_t ArgIndex, const char *MutOp,
                      const char *PersistOp) {
      if (ArgIndex >= Step.Args.size() || dead(Step.Args[ArgIndex]))
        return;
      StreamId A = Step.Args[ArgIndex];
      line("      if (" + has(A) + ")");
      if (Mut)
        line("        " + var(Id) + "->" + MutOp + "(" + var(A) + ");");
      else
        line("        " + var(Id) + " = " + var(Id) + "." + PersistOp +
             "(" + var(A) + ");");
    };
    Update(1, "insert", "insert");
    Update(2, "erase", "erase");
    line("      " + has(Id) + " = true;");
    line("    }");
    break;
  }

  case Opcode::LiftAll: {
    line("    // " + Name + " = " +
         std::string(builtinInfo(Step.Fn).Name) + "(...)");
    std::string Guard;
    if (!AllPresent(Step.Args, Guard)) {
      Never("silent operand");
      break;
    }
    std::vector<ArgRef> Args;
    for (StreamId A : Step.Args)
      Args.push_back({A, var(A)});
    line("    if (" + Guard + ") {");
    emitFailContext("      ", Step.Fn, Id);
    for (const std::string &Stmt :
         liftBodyStmts(Step.Fn, Id, var(Id), isMut(Id), Args))
      line("      " + Stmt);
    line("      " + has(Id) + " = true;");
    line("    }");
    break;
  }

  case Opcode::FusedLastLift: {
    // Consumer lift reading the fused last(v, r) straight from the last
    // slot: fires when r fires, the slot is initialized and the rest is
    // present — the unfused pair's guards verbatim.
    StreamId V = Step.Args[0], R = Step.Args[1];
    line("    // " + Name + " = " +
         std::string(builtinInfo(Step.Fn).Name) + "(last(" +
         S.stream(V).Name + ", " + S.stream(R).Name + "), ...)   [fused]");
    std::vector<StreamId> Rest(Step.Args.begin() + 2, Step.Args.end());
    std::string RestGuard;
    if (dead(V) || dead(R) || !AllPresent(Rest, RestGuard)) {
      Never("silent operand");
      break;
    }
    std::string Guard = has(R) + " && " + var(V) + "_last_init";
    if (!RestGuard.empty())
      Guard += " && " + RestGuard;
    std::vector<ArgRef> Args;
    Args.push_back({V, var(V) + "_last"});
    for (StreamId A : Rest)
      Args.push_back({A, var(A)});
    line("    if (" + Guard + ") {");
    emitFailContext("      ", Step.Fn, Id);
    for (const std::string &Stmt :
         liftBodyStmts(Step.Fn, Id, var(Id), isMut(Id), Args))
      line("      " + Stmt);
    line("      " + has(Id) + " = true;");
    line("    }");
    break;
  }

  case Opcode::FusedLiftLift: {
    // The fused-away producer evaluates into a scoped local whenever its
    // own arguments are present (destructive updates and failures happen
    // exactly as unfused), and the consumer fires only when its rest is
    // present too.
    std::vector<StreamId> Inner(Step.Args.begin(),
                                Step.Args.begin() + Step.FusedArity);
    std::vector<StreamId> Rest(Step.Args.begin() + Step.FusedArity,
                               Step.Args.end());
    line("    // " + Name + " = " +
         std::string(builtinInfo(Step.Fn).Name) + "(" +
         std::string(builtinInfo(Step.Fn2).Name) + "(...), ...)   "
         "[fused]");
    std::string InnerGuard;
    if (!AllPresent(Inner, InnerGuard)) {
      Never("silent operand");
      break;
    }
    std::string RestGuard;
    bool RestLive = AllPresent(Rest, RestGuard);
    std::vector<ArgRef> InnerArgs;
    for (StreamId A : Inner)
      InnerArgs.push_back({A, var(A)});
    std::string Tmp = var(Step.FusedId);
    line("    if (" + InnerGuard + ") {");
    line("      " + cppType(Step.FusedId) + " " + Tmp + "{};");
    // A failure in the fused-away producer's body is attributed to the
    // producer stream (Monitor::runCalc fails at Step.FusedId there).
    emitFailContext("      ", Step.Fn2, Step.FusedId);
    for (const std::string &Stmt :
         liftBodyStmts(Step.Fn2, Step.FusedId, Tmp, isMut(Step.FusedId),
                       InnerArgs))
      line("      " + Stmt);
    if (RestLive) {
      std::string Indent = "      ";
      if (!RestGuard.empty()) {
        line("      if (" + RestGuard + ") {");
        Indent = "        ";
      }
      std::vector<ArgRef> OuterArgs;
      OuterArgs.push_back({Step.FusedId, Tmp});
      for (StreamId A : Rest)
        OuterArgs.push_back({A, var(A)});
      emitFailContext(Indent, Step.Fn, Id);
      for (const std::string &Stmt :
           liftBodyStmts(Step.Fn, Id, var(Id), isMut(Id), OuterArgs))
        line(Indent + Stmt);
      line(Indent + has(Id) + " = true;");
      if (!RestGuard.empty())
        line("      }");
    }
    line("    }");
    break;
  }
  }
}

void Emitter::emitCalc() {
  line("  // --- Calculation section (paper, section III-A), in the");
  line("  // program's step order. ---");
  line("  void calc(int64_t ts) {");
  if (Opts.EmitNativeShim) {
    line("    CgenTs = ts;");
    line("    CgenCtx = nullptr;");
  }
  for (const ProgramStep &Step : P.steps())
    emitStep(Step);

  line();
  line("    // --- Emit outputs. ---");
  for (size_t Index = 0; Index != P.outputs().size(); ++Index) {
    const OutputSlot &O = P.outputs()[Index];
    if (dead(O.Id)) {
      line("    // output " + S.stream(O.Id).Name + ": never fires");
      continue;
    }
    if (Opts.EmitNativeShim) {
      // Count outputs even without a handler, like Monitor.
      line("    if (" + has(O.Id) + ") {");
      line("      ++NumOutputs;");
      line("      if (OutFn)");
      line("        emitOutput(ts, " + std::to_string(Index) + ", " +
           var(O.Id) + "); // " + S.stream(O.Id).Name);
      line("    }");
    } else {
      line("    if (" + has(O.Id) + " && Out)");
      line("      Out(ts, \"" + S.stream(O.Id).Name +
           "\", tessla::cgen::str(" + var(O.Id) + "));");
    }
  }

  line();
  line("    // --- Update *_last slots. ---");
  for (const LastSlot &L : P.lastSlots()) {
    if (dead(L.Source))
      continue;
    line("    if (" + has(L.Source) + ") {");
    line("      " + var(L.Source) + "_last = " + var(L.Source) + ";");
    line("      " + var(L.Source) + "_last_init = true;");
    line("    }");
  }

  if (!P.delays().empty()) {
    line();
    line("    // --- Delay scheduling. ---");
    for (const DelaySlot &D : P.delays()) {
      std::string Reset = has(D.Id);
      if (!dead(D.ResetArg))
        Reset = has(D.ResetArg) + " || " + Reset;
      line("    if (" + Reset + ") {");
      if (dead(D.DelaysArg)) {
        line("      " + var(D.Id) + "_nextTs_set = false;");
      } else {
        line("      if (" + has(D.DelaysArg) + ") {");
        if (Opts.EmitNativeShim)
          line("        CgenCtx = \"" + S.stream(D.Id).Name + "\";");
        line("        if (" + var(D.DelaysArg) + " <= 0)");
        line("          tessla::cgen::fail(\"delay amounts must be "
             "positive\");");
        line("        " + var(D.Id) + "_nextTs = ts + " + var(D.DelaysArg) +
             ";");
        line("        " + var(D.Id) + "_nextTs_set = true;");
        line("      } else {");
        line("        " + var(D.Id) + "_nextTs_set = false;");
        line("      }");
      }
      line("    }");
    }
  }

  line();
  line("    // --- Reset current-value slots. ---");
  for (StreamId Id = 0; Id != S.numStreams(); ++Id) {
    if (dead(Id))
      continue;
    line("    " + has(Id) + " = false;");
  }
  line("  }");
}

void Emitter::emitMain() {
  line();
  line("// Reads 'ts: name = value' lines from stdin, prints outputs.");
  line("#include <iostream>");
  line("#include <sstream>");
  line();
  line("int main() {");
  line("  " + Opts.ClassName + " M;");
  line("  M.setOutputHandler([](int64_t Ts, const char *Name,");
  line("                        const std::string &V) {");
  line("    std::cout << Ts << \": \" << Name << \" = \" << V << \"\\n\";");
  line("  });");
  line("  std::string Line;");
  line("  while (std::getline(std::cin, Line)) {");
  line("    if (Line.empty() || Line[0] == '#')");
  line("      continue;");
  line("    std::istringstream In(Line);");
  line("    int64_t Ts;");
  line("    std::string Name, Eq, Val;");
  line("    char Colon;");
  line("    if (!(In >> Ts >> Colon >> Name >> Eq >> Val))");
  line("      continue;");
  for (StreamId Id : S.inputs()) {
    const StreamDef &D = S.stream(Id);
    std::string Conv;
    switch (D.Ty.kind()) {
    case TypeKind::Int:
      Conv = "std::stoll(Val)";
      break;
    case TypeKind::Float:
      Conv = "std::stod(Val)";
      break;
    case TypeKind::Bool:
      Conv = "Val == \"true\"";
      break;
    case TypeKind::String:
      Conv = "Val";
      break;
    case TypeKind::Unit:
      Conv = "tessla::cgen::UnitV{}";
      break;
    default:
      Conv = "{}";
      break;
    }
    line("    if (Name == \"" + D.Name + "\")");
    line("      M.feed_" + D.Name + "(Ts, " + Conv + ");");
  }
  line("  }");
  line("  M.finish();");
  line("  return 0;");
  line("}");
}

void Emitter::emitBenchMain() {
  std::vector<StreamId> Inputs = S.inputs();
  if (Inputs.size() != 1 ||
      S.stream(Inputs[0]).Ty.kind() != TypeKind::Int) {
    unsupported(Inputs.empty() ? 0 : Inputs[0],
                "benchmark driver needs exactly one Int input");
    return;
  }
  const std::string Feed = "feed_" + S.stream(Inputs[0]).Name;
  line();
  line("// Self-measuring synthetic benchmark driver:");
  line("//   ./monitor <count> <domain> <seed>");
  line("// prints \"<outputs> <seconds>\".");
  line("#include <chrono>");
  line("#include <cinttypes>");
  line("#include <random>");
  line();
  line("int main(int argc, char **argv) {");
  line("  uint64_t Count = argc > 1 ? std::strtoull(argv[1], nullptr, "
       "10) : 1000000;");
  line("  int64_t Domain = argc > 2 ? std::strtoll(argv[2], nullptr, 10) "
       ": 1000;");
  line("  uint64_t Seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) "
       ": 1;");
  line("  " + Opts.ClassName + " M;");
  line("  uint64_t Outputs = 0;");
  line("  M.setOutputHandler([&Outputs](int64_t, const char *,");
  line("                                const std::string &) {");
  line("    ++Outputs;");
  line("  });");
  line("  std::mt19937_64 Rng(Seed);");
  line("  std::uniform_int_distribution<int64_t> Dist(0, Domain - 1);");
  line("  auto Start = std::chrono::steady_clock::now();");
  line("  for (uint64_t I = 0; I != Count; ++I)");
  line("    M." + Feed + "(static_cast<int64_t>(I + 1), Dist(Rng));");
  line("  M.finish();");
  line("  auto End = std::chrono::steady_clock::now();");
  line("  double Seconds =");
  line("      std::chrono::duration<double>(End - Start).count();");
  line("  std::printf(\"%\" PRIu64 \" %.6f\\n\", Outputs, Seconds);");
  line("  return 0;");
  line("}");
}

void Emitter::emitNativeShim() {
  const std::vector<StreamId> Inputs = S.inputs();
  line();
  line("// --- tessla_native_* extern \"C\" shim (ABI v" +
       std::to_string(NativeShimAbiVersion) + "). ---");
  line("//");
  line("// Loaded via dlopen by the native execution engine; see");
  line("// tessla/CodeGen/NativeCompile.h for the loader contract. The");
  line("// host pre-validates feed ordering exactly like Monitor::feed,");
  line("// so the weaker in-class checks are unreachable backstops.");
  line();
  line("namespace {");
  line();
  line("struct TesslaNativeInstance {");
  line("  " + Opts.ClassName + " M;");
  line("  std::string Error;");
  line("  bool Failed = false;");
  line("};");
  line();
  line("void tesslaNativeRecordError(TesslaNativeInstance *I,");
  line("                             const char *Message) {");
  line("  I->Failed = true;");
  line("  // Render exactly like Monitor::failAt when a step context is");
  line("  // recorded; feed/finish backstops surface the raw message.");
  line("  if (const char *Stream = I->M.cgenCtx())");
  line("    I->Error = \"at t=\" + std::to_string(I->M.cgenTs()) +");
  line("               \", stream '\" + Stream + \"': \" + Message;");
  line("  else");
  line("    I->Error = Message;");
  line("}");
  line();
  line("} // namespace");
  line();
  line("extern \"C\" {");
  line();
  line("int64_t tessla_native_abi(void) { return " +
       std::to_string(NativeShimAbiVersion) + "; }");
  line();
  line("uint64_t tessla_native_checksum(void) {");
  line("  return " + std::to_string(Opts.ShimChecksum) + "ULL;");
  line("}");
  line();
  line("int32_t tessla_native_num_inputs(void) { return " +
       std::to_string(Inputs.size()) + "; }");
  line();
  line("const char *tessla_native_input_name(int32_t Idx) {");
  line("  switch (Idx) {");
  for (size_t I = 0; I != Inputs.size(); ++I)
    line("  case " + std::to_string(I) + ":\n    return \"" +
         S.stream(Inputs[I]).Name + "\";");
  line("  default:");
  line("    return nullptr;");
  line("  }");
  line("}");
  line();
  line("void *tessla_native_create(tessla_native_output_fn Fn, void *Ctx) {");
  line("  auto *I = new TesslaNativeInstance();");
  line("  I->M.setOutput(Fn, Ctx);");
  line("  return I;");
  line("}");
  line();
  line("int32_t tessla_native_feed(void *Inst, int32_t Input, int64_t Ts,");
  line("                           int64_t IntV, double FloatV,");
  line("                           const char *StrV, int32_t BoolV) {");
  line("  (void)IntV;");
  line("  (void)FloatV;");
  line("  (void)StrV;");
  line("  (void)BoolV;");
  line("  auto *I = static_cast<TesslaNativeInstance *>(Inst);");
  line("  if (I->Failed)");
  line("    return 0;");
  line("  I->M.cgenClearContext();");
  line("  try {");
  line("    switch (Input) {");
  for (size_t Idx = 0; Idx != Inputs.size(); ++Idx) {
    const StreamDef &D = S.stream(Inputs[Idx]);
    std::string Conv;
    switch (D.Ty.kind()) {
    case TypeKind::Int:
      Conv = "IntV";
      break;
    case TypeKind::Float:
      Conv = "FloatV";
      break;
    case TypeKind::Bool:
      Conv = "BoolV != 0";
      break;
    case TypeKind::String:
      Conv = "std::string(StrV ? StrV : \"\")";
      break;
    case TypeKind::Unit:
      Conv = "tessla::cgen::UnitV{}";
      break;
    default:
      Conv = "{}"; // unreachable: aggregate inputs fail preflight
      break;
    }
    line("    case " + std::to_string(Idx) + ":");
    line("      I->M.feed_" + D.Name + "(Ts, " + Conv + ");");
    line("      break;");
  }
  line("    default:");
  line("      tesslaNativeRecordError(I, \"unknown input index\");");
  line("      return 0;");
  line("    }");
  line("  } catch (const tessla::cgen::FailError &E) {");
  line("    tesslaNativeRecordError(I, E.Message);");
  line("    return 0;");
  line("  }");
  line("  return 1;");
  line("}");
  line();
  line("int32_t tessla_native_finish(void *Inst, int64_t Horizon,");
  line("                             int32_t HasHorizon) {");
  line("  auto *I = static_cast<TesslaNativeInstance *>(Inst);");
  line("  if (I->Failed)");
  line("    return 0;");
  line("  I->M.cgenClearContext();");
  line("  try {");
  line("    if (HasHorizon)");
  line("      I->M.finish(Horizon);");
  line("    else");
  line("      I->M.finish();");
  line("  } catch (const tessla::cgen::FailError &E) {");
  line("    tesslaNativeRecordError(I, E.Message);");
  line("    return 0;");
  line("  }");
  line("  return 1;");
  line("}");
  line();
  line("const char *tessla_native_error(void *Inst) {");
  line("  auto *I = static_cast<TesslaNativeInstance *>(Inst);");
  line("  return I->Failed ? I->Error.c_str() : nullptr;");
  line("}");
  line();
  line("uint64_t tessla_native_num_outputs(void *Inst) {");
  line("  return static_cast<TesslaNativeInstance *>(Inst)");
  line("      ->M.cgenNumOutputs();");
  line("}");
  line();
  line("void tessla_native_destroy(void *Inst) {");
  line("  delete static_cast<TesslaNativeInstance *>(Inst);");
  line("}");
  line();
  line("} // extern \"C\"");
}

} // namespace

std::optional<std::string>
tessla::emitCppMonitor(const Program &P, const CppEmitterOptions &Opts,
                       DiagnosticEngine &Diags) {
  return Emitter(P, Opts, Diags).run();
}
