//===- Runtime/Checkpoint.cpp -----------------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
// The .tcp checkpoint writer and loader. See Runtime/Checkpoint.h for
// the layout. Mirrors the .tpb discipline: deterministic writer,
// hostile-input loader — every read bounds-checked, every array length
// validated against the Program the caller loaded.
//
//===----------------------------------------------------------------------===//

#include "tessla/Runtime/Checkpoint.h"

#include "tessla/Program/BinaryCodec.h"
#include "tessla/Program/Serialize.h"
#include "tessla/Runtime/MonitorFleet.h"
#include "tessla/Support/Format.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <unistd.h>

using namespace tessla;
using bc::ByteReader;
using bc::ByteWriter;
using bc::DecodeContext;

namespace {

constexpr uint32_t TagMeta = bc::fourCC('M', 'E', 'T', 'A');
constexpr uint32_t TagLanes = bc::fourCC('L', 'A', 'N', 'E');

void writeLane(ByteWriter &W, const EngineLaneState &L,
               bc::ValueEncodeShare &Share) {
  W.u64(L.Session);
  W.i64(L.PendingTs);
  uint8_t Flags = 0;
  if (L.CalcDone)
    Flags |= 1;
  if (L.Failed)
    Flags |= 2;
  W.u8(Flags);
  W.str(L.Error);
  W.u64(L.NumFed);
  W.u64(L.NumOutputs);
  W.u64(L.NumCalcRuns);

  W.u32(static_cast<uint32_t>(L.Cur.size()));
  for (const Value &V : L.Cur)
    bc::writeValue(W, V, &Share);
  for (char P : L.Present)
    W.u8(P ? 1 : 0);

  W.u32(static_cast<uint32_t>(L.LastVal.size()));
  for (const Value &V : L.LastVal)
    bc::writeValue(W, V, &Share);
  for (char P : L.LastInit)
    W.u8(P ? 1 : 0);

  W.u32(static_cast<uint32_t>(L.NextTs.size()));
  for (Time T : L.NextTs)
    W.i64(T);
  for (char P : L.NextTsSet)
    W.u8(P ? 1 : 0);

  W.u32(static_cast<uint32_t>(L.Queue.size()));
  for (const EnginePendingRecord &R : L.Queue) {
    W.u32(R.Input);
    W.i64(R.Ts);
    bc::writeValue(W, R.V, &Share);
  }

  W.u32(static_cast<uint32_t>(L.Outputs.size()));
  for (const OutputEvent &E : L.Outputs) {
    W.i64(E.Ts);
    W.u32(E.Id);
    bc::writeValue(W, E.V, &Share);
  }
}

bool readLane(ByteReader &R, DecodeContext &Ctx, const Program &P,
              size_t LaneIdx, EngineLaneState &L,
              bc::ValueDecodeShare &Share) {
  auto fail = [&](const char *What) {
    return Ctx.fail(formatString("lane #%zu: %s", LaneIdx, What));
  };
  const uint32_t NumStreams = P.spec().numStreams();
  const size_t SlotCount = static_cast<size_t>(P.numValueSlots()) + 1;

  L.Session = R.u64();
  L.PendingTs = R.i64();
  uint8_t Flags = R.u8();
  if (Flags & ~uint8_t(3))
    return fail("unknown flag bits");
  L.CalcDone = (Flags & 1) != 0;
  L.Failed = (Flags & 2) != 0;
  L.Error = R.str();
  L.NumFed = R.u64();
  L.NumOutputs = R.u64();
  L.NumCalcRuns = R.u64();
  if (R.failed())
    return fail("truncated header");

  uint32_t NCur = R.u32();
  if (NCur != SlotCount)
    return fail("slot table size disagrees with the program");
  if (NCur > R.remaining())
    return fail("slot count exceeds the remaining payload");
  L.Cur.reserve(NCur);
  for (uint32_t I = 0; I != NCur && Ctx.Ok && !R.failed(); ++I)
    L.Cur.push_back(bc::readValue(R, Ctx, 0, &Share));
  L.Present.resize(NCur, 0);
  for (uint32_t I = 0; I != NCur; ++I)
    L.Present[I] = R.u8() ? 1 : 0;
  if (!Ctx.Ok || R.failed())
    return fail("truncated slot table");

  uint32_t NLast = R.u32();
  if (NLast != P.lastSlots().size())
    return fail("last-slot table size disagrees with the program");
  if (NLast > R.remaining())
    return fail("last-slot count exceeds the remaining payload");
  L.LastVal.reserve(NLast);
  for (uint32_t I = 0; I != NLast && Ctx.Ok && !R.failed(); ++I)
    L.LastVal.push_back(bc::readValue(R, Ctx, 0, &Share));
  L.LastInit.resize(NLast, 0);
  for (uint32_t I = 0; I != NLast; ++I)
    L.LastInit[I] = R.u8() ? 1 : 0;
  if (!Ctx.Ok || R.failed())
    return fail("truncated last-slot table");

  uint32_t NDelay = R.u32();
  if (NDelay != P.delays().size())
    return fail("delay table size disagrees with the program");
  if (static_cast<uint64_t>(NDelay) * 9 > R.remaining())
    return fail("delay count exceeds the remaining payload");
  L.NextTs.reserve(NDelay);
  for (uint32_t I = 0; I != NDelay; ++I)
    L.NextTs.push_back(R.i64());
  L.NextTsSet.resize(NDelay, 0);
  for (uint32_t I = 0; I != NDelay; ++I)
    L.NextTsSet[I] = R.u8() ? 1 : 0;
  if (R.failed())
    return fail("truncated delay table");

  uint32_t NQueue = R.u32();
  if (R.failed() || NQueue > R.remaining())
    return fail("queued-record count exceeds the remaining payload");
  L.Queue.reserve(NQueue);
  for (uint32_t I = 0; I != NQueue && Ctx.Ok && !R.failed(); ++I) {
    EnginePendingRecord Rec;
    Rec.Input = R.u32();
    Rec.Ts = R.i64();
    Rec.V = bc::readValue(R, Ctx, 0, &Share);
    if (Rec.Input >= NumStreams)
      return fail("queued record references a stream out of range");
    L.Queue.push_back(std::move(Rec));
  }
  if (!Ctx.Ok || R.failed())
    return fail("truncated queued records");

  uint32_t NOut = R.u32();
  if (R.failed() || NOut > R.remaining())
    return fail("output count exceeds the remaining payload");
  L.Outputs.reserve(NOut);
  for (uint32_t I = 0; I != NOut && Ctx.Ok && !R.failed(); ++I) {
    OutputEvent E;
    E.Ts = R.i64();
    E.Id = R.u32();
    E.V = bc::readValue(R, Ctx, 0, &Share);
    if (E.Id >= NumStreams)
      return fail("output event references a stream out of range");
    L.Outputs.push_back(std::move(E));
  }
  if (!Ctx.Ok || R.failed())
    return fail("truncated outputs");
  return true;
}

} // namespace

uint64_t tessla::programChecksum(const Program &P) {
  std::vector<uint8_t> Bytes = serializeProgram(P);
  return tpbChecksum(Bytes.data(), Bytes.size());
}

std::vector<uint8_t> tessla::serializeCheckpoint(const FleetCheckpoint &C) {
  ByteWriter MetaW;
  MetaW.u64(C.ProgramChecksum);
  MetaW.u32(C.SourceShards);
  MetaW.u64(C.Lanes.size());

  ByteWriter LaneW;
  LaneW.u64(C.Lanes.size());
  // One share context across every lane: aggregates structurally shared
  // between lanes (e.g. a forked session's state) encode once.
  bc::ValueEncodeShare Share;
  for (const EngineLaneState &L : C.Lanes)
    writeLane(LaneW, L, Share);

  const std::pair<uint32_t, const ByteWriter *> Sections[] = {
      {TagMeta, &MetaW},
      {TagLanes, &LaneW},
  };
  ByteWriter Body;
  Body.u32(static_cast<uint32_t>(std::size(Sections)));
  for (const auto &[Tag, W] : Sections) {
    Body.u32(Tag);
    Body.u64(W->data().size());
    Body.bytes(*W);
  }

  ByteWriter Out;
  for (uint8_t M : TCPMagic)
    Out.u8(M);
  Out.u32(TCPFormatVersion);
  Out.u64(tpbChecksum(Body.data().data(), Body.data().size()));
  Out.bytes(Body);
  return Out.take();
}

std::optional<FleetCheckpoint>
tessla::loadCheckpoint(const uint8_t *Data, size_t Size, const Program &P,
                       DiagnosticEngine &Diags) {
  DecodeContext Ctx{Diags, "tcp"};
  auto fail = [&](std::string Msg) {
    Ctx.fail(std::move(Msg));
    return std::nullopt;
  };

  // --- Header. ---
  if (Size < TCPChecksumStart + 4)
    return fail("checkpoint truncated (smaller than the fixed header)");
  if (std::memcmp(Data, TCPMagic, sizeof(TCPMagic)) != 0)
    return fail("not a TeSSLa checkpoint (bad magic)");
  ByteReader Header(Data + 4, 12);
  uint32_t Version = Header.u32();
  uint64_t Checksum = Header.u64();
  if (Version != TCPFormatVersion)
    return fail(formatString(
        "unsupported checkpoint format version %u (this build reads %u)",
        Version, TCPFormatVersion));
  if (tpbChecksum(Data + TCPChecksumStart, Size - TCPChecksumStart) !=
      Checksum)
    return fail("content checksum mismatch (truncated or corrupted "
                "checkpoint)");

  // --- Section table: one linear walk with absolute offsets. ---
  struct SectionRef {
    size_t Off = 0;
    size_t Len = 0;
    bool Present = false;
  };
  SectionRef Meta, Lanes;
  {
    ByteReader T(Data + TCPChecksumStart, 4);
    uint32_t N = T.u32();
    if (T.failed() || N > 64)
      return fail("malformed section table");
    size_t Cursor = TCPChecksumStart + 4;
    for (uint32_t I = 0; I != N; ++I) {
      if (Size - Cursor < 12)
        return fail("section table entry overruns the checkpoint");
      ByteReader E(Data + Cursor, 12);
      uint32_t Tag = E.u32();
      uint64_t Len = E.u64();
      Cursor += 12;
      if (Len > Size - Cursor)
        return fail("section '" + bc::fourCCName(Tag) +
                    "' overruns the checkpoint");
      SectionRef *Ref = Tag == TagMeta    ? &Meta
                        : Tag == TagLanes ? &Lanes
                                          : nullptr;
      if (Ref) {
        if (Ref->Present)
          return fail("duplicate section '" + bc::fourCCName(Tag) + "'");
        *Ref = {Cursor, static_cast<size_t>(Len), true};
      } // unknown tags are skipped (forward compatibility)
      Cursor += static_cast<size_t>(Len);
    }
    if (Cursor != Size)
      return fail("trailing bytes after the last section");
  }
  if (!Meta.Present)
    return fail("missing required section 'META'");
  if (!Lanes.Present)
    return fail("missing required section 'LANE'");

  FleetCheckpoint C;

  // --- META: the program binding. ---
  {
    ByteReader R(Data + Meta.Off, Meta.Len);
    C.ProgramChecksum = R.u64();
    C.SourceShards = R.u32();
    uint64_t NumLanes = R.u64();
    if (R.failed() || !R.atEnd())
      return fail("malformed section 'META'");
    uint64_t Expected = programChecksum(P);
    if (C.ProgramChecksum != Expected)
      return fail(formatString(
          "checkpoint was taken from a different program (checkpoint "
          "%016llx, loaded program %016llx)",
          static_cast<unsigned long long>(C.ProgramChecksum),
          static_cast<unsigned long long>(Expected)));
    (void)NumLanes; // cross-checked against the LANE section below
  }

  // --- LANE: the lane snapshots. ---
  {
    ByteReader R(Data + Lanes.Off, Lanes.Len);
    uint64_t N = R.u64();
    if (R.failed() || N > R.remaining())
      return fail("lane count exceeds the section payload");
    C.Lanes.reserve(N);
    uint64_t PrevSession = 0;
    bc::ValueDecodeShare Share; // restores cross-lane structural sharing
    for (uint64_t I = 0; I != N; ++I) {
      EngineLaneState L;
      if (!readLane(R, Ctx, P, static_cast<size_t>(I), L, Share))
        return std::nullopt;
      if (I != 0 && L.Session <= PrevSession)
        return fail("lane sessions not strictly ascending");
      PrevSession = L.Session;
      C.Lanes.push_back(std::move(L));
    }
    if (!R.atEnd())
      return fail("trailing bytes in section 'LANE'");
  }
  return C;
}

std::optional<FleetCheckpoint>
tessla::loadCheckpoint(const std::vector<uint8_t> &Bytes, const Program &P,
                       DiagnosticEngine &Diags) {
  return loadCheckpoint(Bytes.data(), Bytes.size(), P, Diags);
}

namespace {

/// write(2) until done, retrying partial writes and EINTR.
bool writeAll(int Fd, const uint8_t *Data, size_t Size) {
  while (Size != 0) {
    ssize_t N = ::write(Fd, Data, Size);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Data += N;
    Size -= static_cast<size_t>(N);
  }
  return true;
}

/// fsyncs the directory holding \p Path so a completed rename survives a
/// crash. Best effort: the rename has already replaced the file.
void syncParentDir(const std::string &Path) {
  std::string::size_type Slash = Path.rfind('/');
  std::string Dir = Slash == std::string::npos  ? std::string(".")
                    : Slash == 0                ? std::string("/")
                                                : Path.substr(0, Slash);
  int Fd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (Fd < 0)
    return;
  (void)::fsync(Fd);
  ::close(Fd);
}

} // namespace

bool tessla::writeCheckpointFile(const std::vector<uint8_t> &Bytes,
                                 const std::string &Path,
                                 DiagnosticEngine &Diags) {
  // The temporary lives next to the target so the rename stays within
  // one file system; O_EXCL keeps concurrent writers off each other's
  // temporaries, and the creation mode lets the umask apply as for any
  // newly created file.
  static std::atomic<unsigned> Counter{0};
  std::string Tmp;
  int Fd = -1;
  for (unsigned Attempt = 0; Fd < 0 && Attempt != 16; ++Attempt) {
    Tmp = formatString("%s.tmp.%ld.%u", Path.c_str(),
                       static_cast<long>(::getpid()), Counter++);
    Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
    if (Fd < 0 && errno != EEXIST)
      break;
  }
  if (Fd < 0) {
    Diags.error("tcp: cannot create a temporary file next to '" + Path +
                "': " + std::strerror(errno));
    return false;
  }
  const char *Failed = nullptr;
  if (!writeAll(Fd, Bytes.data(), Bytes.size()))
    Failed = "write";
  else if (::fsync(Fd) != 0)
    Failed = "fsync";
  int Err = errno;
  if (::close(Fd) != 0 && !Failed) {
    Failed = "close";
    Err = errno;
  }
  if (!Failed && ::rename(Tmp.c_str(), Path.c_str()) != 0) {
    Failed = "rename";
    Err = errno;
  }
  if (Failed) {
    ::unlink(Tmp.c_str());
    Diags.error(formatString("tcp: %s of '%s' failed: %s; the previous "
                             "file is unchanged",
                             Failed, Path.c_str(), std::strerror(Err)));
    return false;
  }
  syncParentDir(Path);
  return true;
}

bool tessla::writeCheckpointFile(const FleetCheckpoint &C,
                                 const std::string &Path,
                                 DiagnosticEngine &Diags) {
  return writeCheckpointFile(serializeCheckpoint(C), Path, Diags);
}

std::optional<FleetCheckpoint>
tessla::loadCheckpointFile(const std::string &Path, const Program &P,
                           DiagnosticEngine &Diags) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    Diags.error("tcp: cannot open '" + Path + "'");
    return std::nullopt;
  }
  std::vector<uint8_t> Bytes;
  uint8_t Buf[1 << 16];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Bytes.insert(Bytes.end(), Buf, Buf + N);
  std::fclose(F);
  return loadCheckpoint(Bytes, P, Diags);
}

std::optional<std::vector<uint8_t>>
tessla::checkpointFleet(MonitorFleet &Fleet, const Program &P,
                        std::string *ErrorOut) {
  std::string Err;
  FleetCheckpoint C;
  C.SourceShards = Fleet.shardCount();
  C.Lanes = Fleet.suspend(&Err);
  if (!Err.empty()) {
    if (ErrorOut)
      *ErrorOut = std::move(Err);
    return std::nullopt;
  }
  C.ProgramChecksum = programChecksum(P);
  return serializeCheckpoint(C);
}
