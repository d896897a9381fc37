//===- Program/Serialize.cpp ------------------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
// The .tpb bundle writer and loader. See Program/Serialize.h for the
// format layout and the versioning policy. The writer is deterministic
// (aggregates in canonical order, tables in insertion order); the loader
// treats the input as hostile: every read is bounds-checked, every index
// validated, and the result must pass Spec::validate plus the full IR
// verifier before it is handed to a backend.
//
//===----------------------------------------------------------------------===//

#include "tessla/Program/Serialize.h"

#include "tessla/Program/BinaryCodec.h"
#include "tessla/Program/Verify.h"
#include "tessla/Runtime/BuiltinImpls.h"
#include "tessla/Runtime/Containers.h"
#include "tessla/Support/Format.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <unordered_map>

using namespace tessla;
using bc::ByteReader;
using bc::ByteWriter;
using bc::DecodeContext;

uint64_t tessla::tpbChecksum(const uint8_t *Data, size_t Size) {
  uint64_t H = 14695981039346656037ULL; // FNV-1a-64 offset basis
  for (size_t I = 0; I != Size; ++I) {
    H ^= Data[I];
    H *= 1099511628211ULL; // FNV-1a-64 prime
  }
  return H;
}

namespace {

constexpr uint32_t TagBuiltins = bc::fourCC('B', 'L', 'T', 'N');
constexpr uint32_t TagPool = bc::fourCC('P', 'O', 'O', 'L');
constexpr uint32_t TagSpec = bc::fourCC('S', 'P', 'E', 'C');
constexpr uint32_t TagSlots = bc::fourCC('S', 'L', 'O', 'T');
constexpr uint32_t TagSteps = bc::fourCC('S', 'T', 'E', 'P');
constexpr uint32_t TagLasts = bc::fourCC('L', 'A', 'S', 'T');
constexpr uint32_t TagDelays = bc::fourCC('D', 'E', 'L', 'Y');
constexpr uint32_t TagOutputs = bc::fourCC('O', 'U', 'T', 'S');
constexpr uint32_t TagMutability = bc::fourCC('M', 'U', 'T', 'A');

// The byte-level primitives (ByteWriter/ByteReader), the canonical Value
// encoding and the nesting bound all live in Program/BinaryCodec.h now —
// shared with the checkpoint and wire formats. This file keeps only the
// .tpb-specific encodings: types, literals, and the program tables.
using bc::MaxNesting;

void writeType(ByteWriter &W, const Type &T) {
  W.u8(static_cast<uint8_t>(T.kind()));
  if (T.kind() == TypeKind::Var)
    W.u32(T.varId());
  for (const Type &P : T.params())
    writeType(W, P);
}

void writeLiteral(ByteWriter &W, const ConstantLit &Lit) {
  W.u8(static_cast<uint8_t>(Lit.V.index()));
  struct Payload {
    ByteWriter &W;
    void operator()(std::monostate) const {}
    void operator()(bool B) const { W.u8(B ? 1 : 0); }
    void operator()(int64_t I) const { W.u64(static_cast<uint64_t>(I)); }
    void operator()(double D) const {
      uint64_t Bits;
      std::memcpy(&Bits, &D, sizeof(Bits));
      W.u64(Bits);
    }
    void operator()(const std::string &S) const { W.str(S); }
  };
  std::visit(Payload{W}, Lit.V);
}

// --- Reader ---------------------------------------------------------------

Type readType(ByteReader &R, DecodeContext &Ctx, unsigned Depth) {
  if (Depth > MaxNesting) {
    Ctx.fail("type nesting exceeds the format limit");
    return Type();
  }
  uint8_t Kind = R.u8();
  if (R.failed() || !Ctx.Ok)
    return Type();
  switch (static_cast<TypeKind>(Kind)) {
  case TypeKind::Unit:
    return Type::unit();
  case TypeKind::Bool:
    return Type::boolean();
  case TypeKind::Int:
    return Type::integer();
  case TypeKind::Float:
    return Type::floating();
  case TypeKind::String:
    return Type::string();
  case TypeKind::Set:
    return Type::set(readType(R, Ctx, Depth + 1));
  case TypeKind::Queue:
    return Type::queue(readType(R, Ctx, Depth + 1));
  case TypeKind::Map: {
    Type K = readType(R, Ctx, Depth + 1);
    Type V = readType(R, Ctx, Depth + 1);
    return Type::map(std::move(K), std::move(V));
  }
  case TypeKind::Var:
    return Type::var(R.u32());
  }
  Ctx.fail(formatString("unknown type kind %u", Kind));
  return Type();
}

ConstantLit readLiteral(ByteReader &R, DecodeContext &Ctx) {
  ConstantLit Lit;
  uint8_t Tag = R.u8();
  switch (Tag) {
  case 0:
    Lit.V = std::monostate{};
    break;
  case 1:
    Lit.V = R.u8() != 0;
    break;
  case 2:
    Lit.V = static_cast<int64_t>(R.u64());
    break;
  case 3: {
    uint64_t Bits = R.u64();
    double D;
    std::memcpy(&D, &Bits, sizeof(D));
    Lit.V = D;
    break;
  }
  case 4:
    Lit.V = R.str();
    break;
  default:
    Ctx.fail(formatString("unknown literal tag %u", Tag));
    break;
  }
  return Lit;
}

} // namespace

// --- The serializer proper ------------------------------------------------

namespace tessla {

/// Friend of Program: encodes/decodes the private tables directly.
class ProgramSerializer {
public:
  static std::vector<uint8_t> encode(const Program &P);
  static std::optional<Program> decode(const uint8_t *Data, size_t Size,
                                       DiagnosticEngine &Diags);
};

} // namespace tessla

std::vector<uint8_t> ProgramSerializer::encode(const Program &P) {
  const Spec &S = P.spec();

  // Interning tables. Builtins are referenced by *name* so a loader
  // re-resolves evaluators against its own registry; constants live in
  // one deduplicated pool keyed by their canonical encoding.
  std::vector<std::string_view> BuiltinNames;
  std::unordered_map<std::string_view, uint16_t> BuiltinIndex;
  auto internBuiltin = [&](BuiltinId Fn) -> uint16_t {
    std::string_view Name = builtinInfo(Fn).Name;
    auto [It, Inserted] = BuiltinIndex.emplace(
        Name, static_cast<uint16_t>(BuiltinNames.size()));
    if (Inserted)
      BuiltinNames.push_back(Name);
    return It->second;
  };

  std::vector<const Value *> Pool;
  std::map<std::vector<uint8_t>, uint32_t> PoolIndex;
  auto internValue = [&](const Value &V) -> uint32_t {
    ByteWriter Enc;
    writeValue(Enc, V);
    auto [It, Inserted] =
        PoolIndex.emplace(Enc.data(), static_cast<uint32_t>(Pool.size()));
    if (Inserted)
      Pool.push_back(&V);
    return It->second;
  };

  // SPEC: the full stream table — names, kinds, types, literals,
  // arguments, output marks — so a loaded program can parse traces,
  // format events and render itself without any frontend.
  ByteWriter SpecW;
  SpecW.u32(S.numStreams());
  for (StreamId Id = 0; Id != S.numStreams(); ++Id) {
    const StreamDef &D = S.stream(Id);
    SpecW.str(D.Name);
    SpecW.u8(static_cast<uint8_t>(D.Kind));
    SpecW.u16(internBuiltin(D.Fn));
    writeLiteral(SpecW, D.Literal);
    writeType(SpecW, D.Ty);
    SpecW.u8(static_cast<uint8_t>(D.Args.size()));
    for (StreamId A : D.Args)
      SpecW.u32(A);
    SpecW.u8(D.IsOutput ? 1 : 0);
  }

  // SLOT: the dense value-slot assignment.
  ByteWriter SlotW;
  SlotW.u16(P.numValueSlots());
  SlotW.u32(S.numStreams());
  for (StreamId Id = 0; Id != S.numStreams(); ++Id)
    SlotW.u16(P.valueSlot(Id));

  // STEP: the calculation section, optimizer opcodes included.
  ByteWriter StepW;
  StepW.u32(static_cast<uint32_t>(P.steps().size()));
  for (const ProgramStep &Step : P.steps()) {
    StepW.u8(static_cast<uint8_t>(Step.Op));
    StepW.u8(static_cast<uint8_t>(Step.Kind));
    StepW.u16(internBuiltin(Step.Fn));
    StepW.u8(Step.InPlace ? 1 : 0);
    StepW.u8(Step.NumArgs);
    StepW.u16(Step.Dst);
    // Only ArgSlot[0..NumArgs) carry meaning; optimizer rewrites leave
    // stale slot numbers in the tail entries, which may exceed the
    // compacted slot table. Canonicalize them to zero so equal programs
    // encode identically and the loader's range check stays strict.
    for (unsigned AI = 0; AI != 3; ++AI)
      StepW.u16(AI < Step.NumArgs ? Step.ArgSlot[AI] : 0);
    StepW.u16(Step.Aux);
    StepW.u32(Step.Id);
    StepW.u8(static_cast<uint8_t>(Step.Args.size()));
    for (StreamId A : Step.Args)
      StepW.u32(A);
    StepW.u32(internValue(Step.ConstVal));
    StepW.u16(internBuiltin(Step.Fn2));
    StepW.u8(Step.InPlace2 ? 1 : 0);
    StepW.u8(Step.FusedArity);
    StepW.u32(Step.FusedId);
    StepW.u8(Step.Folded ? 1 : 0);
  }

  ByteWriter LastW;
  LastW.u32(static_cast<uint32_t>(P.lastSlots().size()));
  for (const LastSlot &L : P.lastSlots()) {
    LastW.u32(L.Source);
    LastW.u16(L.ValueSlot);
  }

  ByteWriter DelayW;
  DelayW.u32(static_cast<uint32_t>(P.delays().size()));
  for (const DelaySlot &D : P.delays()) {
    DelayW.u32(D.Id);
    DelayW.u32(D.DelaysArg);
    DelayW.u32(D.ResetArg);
    DelayW.u16(D.ValueSlot);
    DelayW.u16(D.DelaysSlot);
    DelayW.u16(D.ResetSlot);
  }

  ByteWriter OutW;
  OutW.u32(static_cast<uint32_t>(P.outputs().size()));
  for (const OutputSlot &O : P.outputs()) {
    OutW.u32(O.Id);
    OutW.u16(O.ValueSlot);
  }

  ByteWriter MutW;
  MutW.u32(S.numStreams());
  for (StreamId Id = 0; Id < S.numStreams(); Id += 8) {
    uint8_t Byte = 0;
    for (unsigned Bit = 0; Bit != 8 && Id + Bit < S.numStreams(); ++Bit)
      if (P.Mutable[Id + Bit])
        Byte |= static_cast<uint8_t>(1u << Bit);
    MutW.u8(Byte);
  }

  // BLTN/POOL are written last (interning happens above) but placed
  // first in the file so the loader resolves them before the tables
  // that reference them.
  ByteWriter BltnW;
  BltnW.u32(static_cast<uint32_t>(BuiltinNames.size()));
  for (std::string_view Name : BuiltinNames)
    BltnW.str(Name);

  ByteWriter PoolW;
  PoolW.u32(static_cast<uint32_t>(Pool.size()));
  for (const Value *V : Pool)
    writeValue(PoolW, *V);

  // --- Assemble: header, section table inline with payloads. ---
  const std::pair<uint32_t, const ByteWriter *> Sections[] = {
      {TagBuiltins, &BltnW}, {TagPool, &PoolW},   {TagSpec, &SpecW},
      {TagSlots, &SlotW},    {TagSteps, &StepW},  {TagLasts, &LastW},
      {TagDelays, &DelayW},  {TagOutputs, &OutW}, {TagMutability, &MutW},
  };

  ByteWriter Body;
  Body.u32(static_cast<uint32_t>(std::size(Sections)));
  for (const auto &[Tag, W] : Sections) {
    Body.u32(Tag);
    Body.u64(W->data().size());
    Body.bytes(*W);
  }

  ByteWriter Out;
  for (uint8_t M : TPBMagic)
    Out.u8(M);
  Out.u32(TPBFormatVersion);
  Out.u64(tpbChecksum(Body.data().data(), Body.data().size()));
  Out.bytes(Body);
  return Out.take();
}

std::optional<Program>
ProgramSerializer::decode(const uint8_t *Data, size_t Size,
                          DiagnosticEngine &Diags) {
  DecodeContext Ctx{Diags};
  auto fail = [&](std::string Msg) {
    Ctx.fail(std::move(Msg));
    return std::nullopt;
  };

  // --- Header. ---
  if (Size < TPBChecksumStart + 4)
    return fail("bundle truncated (smaller than the fixed header)");
  if (std::memcmp(Data, TPBMagic, sizeof(TPBMagic)) != 0)
    return fail("not a TeSSLa program bundle (bad magic)");
  ByteReader Header(Data + 4, 12);
  uint32_t Version = Header.u32();
  uint64_t Checksum = Header.u64();
  if (Version != TPBFormatVersion)
    return fail(formatString(
        "unsupported bundle format version %u (this build reads %u)",
        Version, TPBFormatVersion));
  if (tpbChecksum(Data + TPBChecksumStart, Size - TPBChecksumStart) !=
      Checksum)
    return fail("content checksum mismatch (truncated or corrupted "
                "bundle)");

  // --- Section table: one linear walk with absolute offsets. ---
  struct SectionRef {
    size_t Off = 0;
    size_t Len = 0;
    bool Present = false;
  };
  std::map<uint32_t, SectionRef> Sections;
  {
    ByteReader T(Data + TPBChecksumStart, 4);
    uint32_t N = T.u32();
    if (T.failed() || N > 1024)
      return fail("malformed section table");
    size_t Cursor = TPBChecksumStart + 4;
    for (uint32_t I = 0; I != N; ++I) {
      if (Size - Cursor < 12)
        return fail("section table entry overruns the bundle");
      ByteReader E(Data + Cursor, 12);
      uint32_t Tag = E.u32();
      uint64_t Len = E.u64();
      Cursor += 12;
      if (Len > Size - Cursor)
        return fail("section '" + bc::fourCCName(Tag) + "' overruns the bundle");
      SectionRef &Ref = Sections[Tag];
      if (Ref.Present)
        return fail("duplicate section '" + bc::fourCCName(Tag) + "'");
      Ref = {Cursor, static_cast<size_t>(Len), true};
      Cursor += static_cast<size_t>(Len);
    }
    if (Cursor != Size)
      return fail("trailing bytes after the last section");
  }

  auto section = [&](uint32_t Tag) -> std::optional<ByteReader> {
    auto It = Sections.find(Tag);
    if (It == Sections.end() || !It->second.Present) {
      Ctx.fail("missing required section '" + bc::fourCCName(Tag) + "'");
      return std::nullopt;
    }
    return ByteReader(Data + It->second.Off, It->second.Len);
  };

  // --- BLTN: resolve builtin names against this build's registry. ---
  auto BltnR = section(TagBuiltins);
  if (!BltnR)
    return std::nullopt;
  uint32_t NumBuiltinNames = BltnR->u32();
  if (static_cast<uint64_t>(NumBuiltinNames) * 4 > BltnR->remaining())
    return fail("builtin name count exceeds the section payload");
  struct ResolvedBuiltin {
    BuiltinId Id;
    BuiltinFn Impl;
  };
  std::vector<ResolvedBuiltin> Builtins;
  for (uint32_t I = 0; I != NumBuiltinNames; ++I) {
    std::string Name = BltnR->str();
    if (BltnR->failed())
      return fail("truncated builtin name table");
    std::optional<BuiltinId> Id = builtinByName(Name);
    if (!Id)
      return fail("bundle references unknown builtin '" + Name +
                  "' (not registered in this build)");
    BuiltinFn Impl = builtinImpl(*Id);
    if (!Impl)
      return fail("builtin '" + Name +
                  "' has no registered evaluator in this build");
    Builtins.push_back({*Id, Impl});
  }
  if (!BltnR->atEnd())
    return fail("trailing bytes in section 'BLTN'");

  // --- POOL: the constant pool. ---
  auto PoolR = section(TagPool);
  if (!PoolR)
    return std::nullopt;
  uint32_t NumPool = PoolR->u32();
  if (NumPool > PoolR->remaining())
    return fail("constant pool count exceeds the section payload");
  std::vector<Value> Pool;
  for (uint32_t I = 0; I != NumPool && Ctx.Ok; ++I) {
    Pool.push_back(readValue(*PoolR, Ctx, 0));
    if (PoolR->failed())
      return fail("truncated constant pool");
  }
  if (!Ctx.Ok)
    return std::nullopt;
  if (!PoolR->atEnd())
    return fail("trailing bytes in section 'POOL'");

  // --- SPEC: the stream table. ---
  auto SpecR = section(TagSpec);
  if (!SpecR)
    return std::nullopt;
  uint32_t NumStreams = SpecR->u32();
  if (NumStreams >= 65535)
    return fail("stream count exceeds the 16-bit slot id space");
  if (static_cast<uint64_t>(NumStreams) * 11 > SpecR->remaining())
    return fail("stream count exceeds the section payload");
  std::vector<StreamDef> Defs;
  Defs.reserve(NumStreams);
  for (uint32_t Id = 0; Id != NumStreams && Ctx.Ok; ++Id) {
    StreamDef D;
    D.Name = SpecR->str();
    uint8_t Kind = SpecR->u8();
    if (Kind > static_cast<uint8_t>(StreamKind::Delay))
      return fail(formatString("stream #%u has unknown kind %u", Id,
                               Kind));
    D.Kind = static_cast<StreamKind>(Kind);
    uint16_t FnIdx = SpecR->u16();
    if (FnIdx >= Builtins.size())
      return fail(formatString("stream #%u references builtin index %u "
                               "out of range",
                               Id, FnIdx));
    D.Fn = Builtins[FnIdx].Id;
    D.Literal = readLiteral(*SpecR, Ctx);
    D.Ty = readType(*SpecR, Ctx, 0);
    uint8_t NumArgs = SpecR->u8();
    if (NumArgs > 3)
      return fail(formatString("stream #%u has %u arguments (max 3)",
                               Id, NumArgs));
    for (uint8_t A = 0; A != NumArgs; ++A)
      D.Args.push_back(SpecR->u32());
    D.IsOutput = SpecR->u8() != 0;
    if (SpecR->failed())
      return fail("truncated stream table");
    Defs.push_back(std::move(D));
  }
  if (!Ctx.Ok)
    return std::nullopt;
  if (!SpecR->atEnd())
    return fail("trailing bytes in section 'SPEC'");

  // Rebuild and re-validate the spec: name uniqueness, arities,
  // argument ranges and the acyclicity rule all come for free.
  std::optional<Spec> SpecOpt = Spec::fromDefs(std::move(Defs), Diags);
  if (!SpecOpt) {
    Ctx.fail("bundle stream table failed validation");
    return std::nullopt;
  }

  Program P;
  P.S = std::make_shared<const Spec>(std::move(*SpecOpt));

  // --- SLOT: dense value-slot assignment. ---
  auto SlotR = section(TagSlots);
  if (!SlotR)
    return std::nullopt;
  P.NumValueSlots = SlotR->u16();
  if (SlotR->u32() != NumStreams)
    return fail("slot table disagrees with the stream count");
  for (uint32_t Id = 0; Id != NumStreams; ++Id) {
    uint16_t Slot = SlotR->u16();
    if (Slot > P.NumValueSlots)
      return fail(formatString("value slot of stream #%u out of range",
                               Id));
    P.ValueSlots.push_back(Slot);
  }
  if (SlotR->failed() || !SlotR->atEnd())
    return fail("malformed section 'SLOT'");

  // --- LAST / DELY / OUTS: the slot tables. ---
  auto LastR = section(TagLasts);
  if (!LastR)
    return std::nullopt;
  uint32_t NumLasts = LastR->u32();
  if (static_cast<uint64_t>(NumLasts) * 6 > LastR->remaining())
    return fail("last-slot count exceeds the section payload");
  for (uint32_t I = 0; I != NumLasts; ++I) {
    LastSlot L{LastR->u32(), LastR->u16()};
    if (L.Source >= NumStreams || L.ValueSlot > P.NumValueSlots)
      return fail(formatString("last slot #%u out of range", I));
    P.LastSlots.push_back(L);
  }
  if (LastR->failed() || !LastR->atEnd())
    return fail("malformed section 'LAST'");

  auto DelayR = section(TagDelays);
  if (!DelayR)
    return std::nullopt;
  uint32_t NumDelays = DelayR->u32();
  if (static_cast<uint64_t>(NumDelays) * 18 > DelayR->remaining())
    return fail("delay-slot count exceeds the section payload");
  for (uint32_t I = 0; I != NumDelays; ++I) {
    DelaySlot D;
    D.Id = DelayR->u32();
    D.DelaysArg = DelayR->u32();
    D.ResetArg = DelayR->u32();
    D.ValueSlot = DelayR->u16();
    D.DelaysSlot = DelayR->u16();
    D.ResetSlot = DelayR->u16();
    if (D.Id >= NumStreams || D.DelaysArg >= NumStreams ||
        D.ResetArg >= NumStreams || D.ValueSlot > P.NumValueSlots ||
        D.DelaysSlot > P.NumValueSlots || D.ResetSlot > P.NumValueSlots)
      return fail(formatString("delay slot #%u out of range", I));
    P.Delays.push_back(D);
  }
  if (DelayR->failed() || !DelayR->atEnd())
    return fail("malformed section 'DELY'");

  auto OutR = section(TagOutputs);
  if (!OutR)
    return std::nullopt;
  uint32_t NumOuts = OutR->u32();
  if (static_cast<uint64_t>(NumOuts) * 6 > OutR->remaining())
    return fail("output count exceeds the section payload");
  for (uint32_t I = 0; I != NumOuts; ++I) {
    OutputSlot O{OutR->u32(), OutR->u16()};
    if (O.Id >= NumStreams || O.ValueSlot > P.NumValueSlots)
      return fail(formatString("output slot #%u out of range", I));
    P.Outputs.push_back(O);
  }
  if (OutR->failed() || !OutR->atEnd())
    return fail("malformed section 'OUTS'");

  // --- MUTA: per-stream mutability decisions. ---
  auto MutR = section(TagMutability);
  if (!MutR)
    return std::nullopt;
  if (MutR->u32() != NumStreams)
    return fail("mutability table disagrees with the stream count");
  P.Mutable.assign(NumStreams, false);
  for (uint32_t Id = 0; Id < NumStreams; Id += 8) {
    uint8_t Byte = MutR->u8();
    for (unsigned Bit = 0; Bit != 8 && Id + Bit < NumStreams; ++Bit)
      P.Mutable[Id + Bit] = (Byte >> Bit) & 1;
  }
  if (MutR->failed() || !MutR->atEnd())
    return fail("malformed section 'MUTA'");

  // --- STEP: the calculation section, dispatch re-resolved by name. ---
  auto StepR = section(TagSteps);
  if (!StepR)
    return std::nullopt;
  uint32_t NumSteps = StepR->u32();
  if (static_cast<uint64_t>(NumSteps) * 34 > StepR->remaining())
    return fail("step count exceeds the section payload");
  for (uint32_t I = 0; I != NumSteps; ++I) {
    ProgramStep Step;
    uint8_t Op = StepR->u8();
    if (Op > static_cast<uint8_t>(Opcode::FusedLiftLift))
      return fail(formatString("step #%u has unknown opcode %u", I, Op));
    Step.Op = static_cast<Opcode>(Op);
    uint8_t Kind = StepR->u8();
    if (Kind > static_cast<uint8_t>(StreamKind::Delay))
      return fail(formatString("step #%u has unknown stream kind %u", I,
                               Kind));
    Step.Kind = static_cast<StreamKind>(Kind);
    uint16_t FnIdx = StepR->u16();
    uint8_t InPlace = StepR->u8();
    Step.NumArgs = StepR->u8();
    if (Step.NumArgs > 3)
      return fail(formatString("step #%u has %u argument slots (max 3)",
                               I, Step.NumArgs));
    Step.Dst = StepR->u16();
    for (SlotId &A : Step.ArgSlot)
      A = StepR->u16();
    Step.Aux = StepR->u16();
    Step.Id = StepR->u32();
    uint8_t NumArgIds = StepR->u8();
    if (NumArgIds > 8)
      return fail(formatString("step #%u has oversized argument list",
                               I));
    for (uint8_t A = 0; A != NumArgIds; ++A)
      Step.Args.push_back(StepR->u32());
    uint32_t PoolIdx = StepR->u32();
    uint16_t Fn2Idx = StepR->u16();
    uint8_t InPlace2 = StepR->u8();
    Step.FusedArity = StepR->u8();
    Step.FusedId = StepR->u32();
    Step.Folded = StepR->u8() != 0;
    if (StepR->failed())
      return fail("truncated step table");
    if (FnIdx >= Builtins.size() || Fn2Idx >= Builtins.size())
      return fail(formatString("step #%u references builtin index out "
                               "of range",
                               I));
    if (Step.Dst > P.NumValueSlots)
      return fail(formatString("step #%u destination slot out of range",
                               I));
    for (unsigned AI = 0; AI != Step.NumArgs; ++AI)
      if (Step.ArgSlot[AI] > P.NumValueSlots)
        return fail(formatString("step #%u argument slot out of range",
                                 I));
    if (PoolIdx >= Pool.size())
      return fail(formatString("step #%u constant index out of range",
                               I));
    if (Step.Id >= NumStreams)
      return fail(formatString("step #%u stream id out of range", I));
    if (Step.FusedId >= NumStreams && Step.FusedId != 0)
      return fail(formatString("step #%u fused stream id out of range",
                               I));
    Step.Fn = Builtins[FnIdx].Id;
    Step.Fn2 = Builtins[Fn2Idx].Id;
    Step.InPlace = InPlace != 0;
    Step.InPlace2 = InPlace2 != 0;
    // Each step owns its constant: mutable aggregate payloads must not
    // be shared across steps (a destructive in-place family would
    // update both), which deepCopy() restores exactly as compile() did.
    Step.ConstVal = Pool[PoolIdx].deepCopy();
    // Re-resolve the evaluators by name — never from stored pointers.
    switch (Step.Op) {
    case Opcode::LiftAll:
    case Opcode::LiftFirstRest:
    case Opcode::FusedLastLift:
      Step.Impl = Builtins[FnIdx].Impl;
      break;
    case Opcode::FusedLiftLift:
      Step.Impl = Builtins[FnIdx].Impl;
      Step.Impl2 = Builtins[Fn2Idx].Impl;
      break;
    default:
      break;
    }
    P.Steps.push_back(std::move(Step));
  }
  if (!StepR->atEnd())
    return fail("trailing bytes in section 'STEP'");

  // --- Final gate: the full IR verifier over the decoded program. ---
  if (!opt::verifyProgram(P, Diags)) {
    Ctx.fail("bundle failed program verification");
    return std::nullopt;
  }
  P.planOwnership(); // derived, so never part of the bundle
  return P;
}

// --- Public API -----------------------------------------------------------

std::vector<uint8_t> tessla::serializeProgram(const Program &P) {
  return ProgramSerializer::encode(P);
}

std::optional<Program> tessla::loadProgram(const uint8_t *Data, size_t Size,
                                           DiagnosticEngine &Diags) {
  return ProgramSerializer::decode(Data, Size, Diags);
}

std::optional<Program>
tessla::loadProgram(const std::vector<uint8_t> &Bytes,
                    DiagnosticEngine &Diags) {
  return ProgramSerializer::decode(Bytes.data(), Bytes.size(), Diags);
}

bool tessla::writeProgramFile(const Program &P, const std::string &Path,
                              DiagnosticEngine &Diags) {
  std::vector<uint8_t> Bytes = serializeProgram(P);
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F) {
    Diags.error("tpb: cannot open '" + Path + "' for writing");
    return false;
  }
  size_t Written = std::fwrite(Bytes.data(), 1, Bytes.size(), F);
  bool Ok = std::fclose(F) == 0 && Written == Bytes.size();
  if (!Ok)
    Diags.error("tpb: short write to '" + Path + "'");
  return Ok;
}

std::optional<Program> tessla::loadProgramFile(const std::string &Path,
                                               DiagnosticEngine &Diags) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    Diags.error("tpb: cannot open '" + Path + "'");
    return std::nullopt;
  }
  std::vector<uint8_t> Bytes;
  uint8_t Buf[1 << 16];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Bytes.insert(Bytes.end(), Buf, Buf + N);
  std::fclose(F);
  return loadProgram(Bytes, Diags);
}
