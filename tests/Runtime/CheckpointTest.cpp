//===- tests/Runtime/CheckpointTest.cpp -------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// The `.tcp` checkpoint format (Runtime/Checkpoint.h): suspend a live
/// fleet, serialize, load, restore — into a different shard count, in
/// the middle of an armed delay — and the resumed run is byte-identical
/// to an uninterrupted one. The corruption half mirrors the `.tpb`
/// SerializeTest suite name for name: every truncation and bit flip must
/// fail with a diagnostic, the structural validators behind the checksum
/// must hold on re-stamped payload smashes, a checkpoint from a
/// different program (or format version) is rejected, and the encoding
/// is deterministic. The randomized-corpus byte-identity sweep lives in
/// Integration/CheckpointDifferentialTest.
///
//===----------------------------------------------------------------------===//

#include "tessla/Runtime/Checkpoint.h"
#include "tessla/Program/Serialize.h"
#include "tessla/Runtime/MonitorFleet.h"
#include "tessla/Runtime/TraceIO.h"

#include "../TestSpecs.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace tessla;
using namespace tessla::testspecs;

namespace {

void patchU64(std::vector<uint8_t> &Bytes, size_t Off, uint64_t V) {
  for (unsigned I = 0; I != 8; ++I)
    Bytes[Off + I] = static_cast<uint8_t>(V >> (8 * I));
}

void patchU32(std::vector<uint8_t> &Bytes, size_t Off, uint32_t V) {
  for (unsigned I = 0; I != 4; ++I)
    Bytes[Off + I] = static_cast<uint8_t>(V >> (8 * I));
}

/// Re-stamps the content checksum after a deliberate payload patch, so
/// tests reach the validation layer *behind* the checksum.
void restamp(std::vector<uint8_t> &Bytes) {
  patchU64(Bytes, 8,
           tpbChecksum(Bytes.data() + TCPChecksumStart,
                       Bytes.size() - TCPChecksumStart));
}

std::string expectLoadFails(const std::vector<uint8_t> &Bytes,
                            const Program &P) {
  DiagnosticEngine Diags;
  auto C = loadCheckpoint(Bytes, P, Diags);
  EXPECT_FALSE(C);
  EXPECT_FALSE(Diags.str().empty());
  return Diags.str();
}

/// One record of the workload trace: (session, ts, value).
struct Rec {
  SessionId Session;
  Time Ts;
  int64_t V;
};

/// The stateful workload for the corruption suites and the round trips:
/// the seen-set spec at -O1 (aggregate state, last slots, pool values)
/// fed by four sessions.
Program workloadProgram() {
  return compileOrDie(seenSet(), /*Optimize=*/true, /*OptLevel=*/1);
}

std::vector<Rec> workloadTrace() {
  std::vector<Rec> Recs;
  for (int64_t I = 1; I <= 24; ++I)
    for (SessionId S = 1; S <= 4; ++S)
      Recs.push_back({S, I, (I * 7 + static_cast<int64_t>(S)) % 13});
  return Recs;
}

std::string renderOutputs(const Spec &S,
                          std::vector<SessionOutputEvent> Outputs) {
  std::string Out;
  for (const SessionOutputEvent &E : Outputs)
    Out += "s" + std::to_string(E.Session) + "| " +
           formatEvent(S, E.Event) + "\n";
  return Out;
}

/// Runs the whole trace straight through a fleet: the reference.
std::string uninterruptedRun(const Program &P, const std::vector<Rec> &Recs,
                             unsigned Shards, StreamId Input,
                             std::optional<Time> Horizon = std::nullopt) {
  FleetOptions Opts;
  Opts.Shards = Shards;
  Opts.Horizon = Horizon;
  MonitorFleet Fleet(P, Opts);
  ProducerHandle Prod = Fleet.producer();
  for (const Rec &R : Recs)
    EXPECT_TRUE(Prod.feed(R.Session, Input, R.Ts, Value::integer(R.V)));
  Prod.close();
  Fleet.finish();
  EXPECT_FALSE(Fleet.failed());
  return renderOutputs(P.spec(), Fleet.takeOutputs());
}

/// Feeds records with Ts <= SplitTs into a fleet of \p ShardsA shards,
/// suspends, serializes; returns the bytes.
std::vector<uint8_t> checkpointAt(const Program &P,
                                  const std::vector<Rec> &Recs,
                                  Time SplitTs, unsigned ShardsA,
                                  StreamId Input) {
  FleetOptions Opts;
  Opts.Shards = ShardsA;
  MonitorFleet Fleet(P, Opts);
  ProducerHandle Prod = Fleet.producer();
  for (const Rec &R : Recs) {
    if (R.Ts > SplitTs)
      continue;
    EXPECT_TRUE(Prod.feed(R.Session, Input, R.Ts, Value::integer(R.V)));
  }
  Prod.close();
  std::string Err;
  FleetCheckpoint C;
  C.ProgramChecksum = programChecksum(P);
  C.SourceShards = ShardsA;
  C.Lanes = Fleet.suspend(&Err);
  EXPECT_EQ(Err, "");
  EXPECT_FALSE(C.Lanes.empty());
  return serializeCheckpoint(C);
}

/// Loads \p Bytes, restores into a fresh fleet of \p ShardsB shards,
/// feeds the records with Ts > SplitTs and renders the full output
/// trace (pre-suspend outputs travel inside the lane snapshots).
std::string resumeRun(const Program &P, const std::vector<uint8_t> &Bytes,
                      const std::vector<Rec> &Recs, Time SplitTs,
                      unsigned ShardsB, StreamId Input,
                      std::optional<Time> Horizon = std::nullopt) {
  DiagnosticEngine Diags;
  auto C = loadCheckpoint(Bytes, P, Diags);
  EXPECT_TRUE(C) << Diags.str();
  if (!C)
    return std::string();
  FleetOptions Opts;
  Opts.Shards = ShardsB;
  Opts.Horizon = Horizon;
  MonitorFleet Fleet(P, Opts);
  EXPECT_TRUE(Fleet.restore(std::move(C->Lanes)));
  ProducerHandle Prod = Fleet.producer();
  for (const Rec &R : Recs) {
    if (R.Ts <= SplitTs)
      continue;
    EXPECT_TRUE(Prod.feed(R.Session, Input, R.Ts, Value::integer(R.V)));
  }
  Prod.close();
  Fleet.finish();
  EXPECT_FALSE(Fleet.failed());
  return renderOutputs(P.spec(), Fleet.takeOutputs());
}

/// A fixed checkpoint for the corruption suites.
std::vector<uint8_t> workloadCheckpoint(const Program &P) {
  return checkpointAt(P, workloadTrace(), 12, 2,
                      *P.spec().lookup("x"));
}

} // namespace

// --- Round trips ------------------------------------------------------------

TEST(CheckpointTest, RestoreIntoDifferentShardCounts) {
  Program P = workloadProgram();
  StreamId X = *P.spec().lookup("x");
  std::vector<Rec> Recs = workloadTrace();
  std::string Reference = uninterruptedRun(P, Recs, 2, X);
  ASSERT_FALSE(Reference.empty());

  // 2 shards -> {1, 2, 4} shards: the lane snapshots re-home by session
  // hash, and the resumed trace is byte-identical either way.
  std::vector<uint8_t> Bytes = checkpointAt(P, Recs, 12, 2, X);
  for (unsigned ShardsB : {1u, 2u, 4u})
    EXPECT_EQ(resumeRun(P, Bytes, Recs, 12, ShardsB, X), Reference)
        << "restore into " << ShardsB << " shard(s) diverged";

  // And up from one shard.
  std::vector<uint8_t> From1 = checkpointAt(P, Recs, 12, 1, X);
  EXPECT_EQ(resumeRun(P, From1, Recs, 12, 3, X), Reference);
}

TEST(CheckpointTest, MidDelayArmingSurvivesTheCheckpoint) {
  // Suspend while a delay timer is armed but has not fired: x=5 at t=10
  // arms the timer for t=15; the checkpoint is cut at t=12, so the
  // firing happens in the *resumed* fleet. The armed-timer table must
  // travel in the lane snapshot or the t=15 event is silently lost.
  Program P = compileOrDie(parseOrDie(R"(
    in x: Int
    def fire := delay(x, x)
    out fire
  )"));
  StreamId X = *P.spec().lookup("x");
  std::vector<Rec> Recs = {{1, 10, 5}, {2, 10, 4}, {1, 20, 3}, {2, 21, 2}};
  std::string Reference = uninterruptedRun(P, Recs, 2, X, /*Horizon=*/100);
  ASSERT_NE(Reference.find("15: fire"), std::string::npos) << Reference;

  std::vector<uint8_t> Bytes = checkpointAt(P, Recs, 12, 2, X);
  std::string Resumed =
      resumeRun(P, Bytes, Recs, 12, 3, X, /*Horizon=*/100);
  EXPECT_EQ(Resumed, Reference);
}

TEST(CheckpointTest, DeterministicEncoding) {
  Program P = workloadProgram();
  StreamId X = *P.spec().lookup("x");
  std::vector<Rec> Recs = workloadTrace();
  // Two identical suspended fleets serialize to identical bytes, and a
  // load/serialize round trip reproduces them exactly.
  std::vector<uint8_t> A = checkpointAt(P, Recs, 12, 2, X);
  std::vector<uint8_t> B = checkpointAt(P, Recs, 12, 2, X);
  EXPECT_EQ(A, B) << "checkpoint encoding is not canonical";

  DiagnosticEngine Diags;
  auto C = loadCheckpoint(A, P, Diags);
  ASSERT_TRUE(C) << Diags.str();
  EXPECT_EQ(serializeCheckpoint(*C), A)
      << "re-serialization diverged from the original bytes";
}

TEST(CheckpointTest, RestoreRejectsDuplicateAndLiveSessions) {
  Program P = workloadProgram();
  StreamId X = *P.spec().lookup("x");
  std::vector<Rec> Recs = workloadTrace();
  std::vector<uint8_t> Bytes = checkpointAt(P, Recs, 12, 2, X);
  DiagnosticEngine Diags;
  auto C = loadCheckpoint(Bytes, P, Diags);
  ASSERT_TRUE(C) << Diags.str();

  // Duplicate session ids in one restore batch are rejected outright.
  {
    auto Dup = C->Lanes;
    Dup.push_back(Dup.front());
    FleetOptions Opts;
    Opts.Shards = 2;
    MonitorFleet Fleet(P, Opts);
    EXPECT_FALSE(Fleet.restore(std::move(Dup)));
    Fleet.finish();
  }

  // A finished fleet accepts no restore.
  {
    FleetOptions Opts;
    Opts.Shards = 2;
    MonitorFleet Fleet(P, Opts);
    Fleet.finish();
    EXPECT_FALSE(Fleet.restore(std::move(C->Lanes)));
  }
}

// --- Robust loading: truncation and corruption ------------------------------

TEST(CheckpointTest, EveryTruncationFailsCleanly) {
  Program P = workloadProgram();
  std::vector<uint8_t> Bytes = workloadCheckpoint(P);
  ASSERT_GT(Bytes.size(), 64u);
  for (size_t Len = 0; Len != Bytes.size(); ++Len) {
    std::vector<uint8_t> Prefix(Bytes.begin(), Bytes.begin() + Len);
    DiagnosticEngine Diags;
    auto C = loadCheckpoint(Prefix, P, Diags);
    EXPECT_FALSE(C) << "truncation to " << Len << " bytes loaded";
    EXPECT_FALSE(Diags.str().empty()) << "silent failure at " << Len;
  }
}

TEST(CheckpointTest, EveryBitFlipFailsCleanly) {
  // The checksum covers every byte past offset 16 and the header fields
  // are validated individually, so no single-bit corruption anywhere in
  // the checkpoint may load — and none may crash.
  Program P = workloadProgram();
  std::vector<uint8_t> Bytes = workloadCheckpoint(P);
  for (size_t Off = 0; Off != Bytes.size(); ++Off) {
    for (unsigned Bit = 0; Bit < 8; Bit += 3) { // bits 0, 3, 6
      std::vector<uint8_t> Flipped = Bytes;
      Flipped[Off] ^= static_cast<uint8_t>(1u << Bit);
      DiagnosticEngine Diags;
      auto C = loadCheckpoint(Flipped, P, Diags);
      EXPECT_FALSE(C) << "bit " << Bit << " at offset " << Off;
      EXPECT_FALSE(Diags.str().empty());
    }
  }
}

TEST(CheckpointTest, PostChecksumValidationStillFires) {
  // Corrupt a payload byte *and* re-stamp the checksum: the structural
  // validators behind the checksum must catch it, or the checkpoint must
  // still verify (a benign smash inside a value payload) — never crash.
  Program P = workloadProgram();
  std::vector<uint8_t> Bytes = workloadCheckpoint(P);
  size_t Rejected = 0;
  for (size_t Off = TCPChecksumStart; Off != Bytes.size(); ++Off) {
    std::vector<uint8_t> Patched = Bytes;
    Patched[Off] ^= 0xFF;
    restamp(Patched);
    DiagnosticEngine Diags;
    auto C = loadCheckpoint(Patched, P, Diags);
    if (!C) {
      ++Rejected;
      EXPECT_FALSE(Diags.str().empty()) << "silent failure at " << Off;
    }
  }
  // Lane payloads are value-dense, so single-byte smashes can decode to
  // different-but-valid state; the structural layer must still reject a
  // solid share (section table, sizes, stream ids, program binding).
  EXPECT_GT(Rejected, (Bytes.size() - TCPChecksumStart) / 4)
      << "validators are too permissive";
}

TEST(CheckpointTest, EmptyAndGarbageInputs) {
  Program P = workloadProgram();
  EXPECT_NE(expectLoadFails({}, P).find("truncated"), std::string::npos);
  std::vector<uint8_t> Garbage(256, 0xAB);
  EXPECT_NE(expectLoadFails(Garbage, P).find("magic"), std::string::npos);
}

TEST(CheckpointTest, VersionMismatchIsRejected) {
  Program P = workloadProgram();
  std::vector<uint8_t> Bytes = workloadCheckpoint(P);
  patchU32(Bytes, 4, TCPFormatVersion + 1);
  EXPECT_NE(expectLoadFails(Bytes, P).find("version"), std::string::npos);
}

TEST(CheckpointTest, ProgramChecksumMismatchIsRejected) {
  // A checkpoint restores only against the exact program it was taken
  // from: same spec at a different optimization level is already a
  // different program.
  Program P = workloadProgram();
  std::vector<uint8_t> Bytes = workloadCheckpoint(P);
  Program Other = compileOrDie(seenSet(), /*Optimize=*/false,
                               /*OptLevel=*/0);
  ASSERT_NE(programChecksum(Other), programChecksum(P));
  EXPECT_NE(expectLoadFails(Bytes, Other).find("different program"),
            std::string::npos);
}

TEST(CheckpointTest, ChecksumDetectsPayloadCorruption) {
  Program P = workloadProgram();
  std::vector<uint8_t> Bytes = workloadCheckpoint(P);
  Bytes[Bytes.size() / 2] ^= 0x40;
  EXPECT_NE(expectLoadFails(Bytes, P).find("checksum"), std::string::npos);
}

TEST(CheckpointTest, FileRoundTripAndMissingFile) {
  Program P = workloadProgram();
  StreamId X = *P.spec().lookup("x");
  std::vector<Rec> Recs = workloadTrace();
  std::vector<uint8_t> Bytes = checkpointAt(P, Recs, 12, 2, X);
  DiagnosticEngine LDiags;
  auto C = loadCheckpoint(Bytes, P, LDiags);
  ASSERT_TRUE(C) << LDiags.str();

  std::string Path = ::testing::TempDir() + "tessla_ck_" +
                     std::to_string(::getpid()) + ".tcp";
  DiagnosticEngine WDiags;
  ASSERT_TRUE(writeCheckpointFile(*C, Path, WDiags)) << WDiags.str();
  DiagnosticEngine RDiags;
  auto Loaded = loadCheckpointFile(Path, P, RDiags);
  ASSERT_TRUE(Loaded) << RDiags.str();
  EXPECT_EQ(serializeCheckpoint(*Loaded), Bytes);
  std::remove(Path.c_str());

  DiagnosticEngine MDiags;
  EXPECT_FALSE(loadCheckpointFile(Path + ".missing", P, MDiags));
  EXPECT_FALSE(MDiags.str().empty());
}

TEST(CheckpointTest, FailedWriteKeepsThePreviousCheckpoint) {
  // A write that dies part-way (here: the file-size limit, standing in
  // for a full disk) must leave the previous checkpoint intact. Writing
  // in place would truncate it to the prefix that made it to disk.
  constexpr rlim_t Limit = 1000;
  Program P = workloadProgram();
  StreamId X = *P.spec().lookup("x");
  std::vector<Rec> Recs = workloadTrace();
  std::vector<uint8_t> Old = checkpointAt(P, Recs, 12, 2, X);
  std::vector<uint8_t> New = checkpointAt(P, Recs, 24, 2, X);
  ASSERT_GT(New.size(), Limit) << "the new checkpoint must hit the limit";
  ASSERT_NE(Old, New);
  DiagnosticEngine LDiags;
  auto OldC = loadCheckpoint(Old, P, LDiags);
  auto NewC = loadCheckpoint(New, P, LDiags);
  ASSERT_TRUE(OldC && NewC) << LDiags.str();

  std::string Dir = ::testing::TempDir() + "tessla_ck_fail_" +
                    std::to_string(::getpid());
  std::filesystem::remove_all(Dir);
  ASSERT_TRUE(std::filesystem::create_directory(Dir));
  std::string Path = Dir + "/fleet.tcp";
  DiagnosticEngine WDiags;
  ASSERT_TRUE(writeCheckpointFile(*OldC, Path, WDiags)) << WDiags.str();

  pid_t Child = ::fork();
  ASSERT_GE(Child, 0);
  if (Child == 0) {
    // Over the limit, write(2) fails with EFBIG instead of raising
    // SIGXFSZ. Exit 0 only if the writer reported the failure.
    struct rlimit RL = {Limit, Limit};
    ::signal(SIGXFSZ, SIG_IGN);
    if (::setrlimit(RLIMIT_FSIZE, &RL) != 0)
      ::_exit(2);
    DiagnosticEngine Diags;
    bool Ok = writeCheckpointFile(*NewC, Path, Diags);
    ::_exit(!Ok && Diags.hasErrors() ? 0 : 1);
  }
  int Status = 0;
  ASSERT_EQ(::waitpid(Child, &Status, 0), Child);
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 0) << "the write must fail and say so";

  std::ifstream In(Path, std::ios::binary);
  std::vector<uint8_t> OnDisk{std::istreambuf_iterator<char>(In),
                              std::istreambuf_iterator<char>()};
  EXPECT_EQ(OnDisk, Old) << "the previous checkpoint was damaged";
  DiagnosticEngine RDiags;
  EXPECT_TRUE(loadCheckpointFile(Path, P, RDiags)) << RDiags.str();

  std::vector<std::string> Left;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    Left.push_back(Entry.path().filename().string());
  EXPECT_EQ(Left, std::vector<std::string>{"fleet.tcp"})
      << "a temporary file was left behind";
  std::filesystem::remove_all(Dir);
}

// --- Structural sharing across the round trip -------------------------------

TEST(CheckpointTest, ForkedSessionsShareStructureAcrossRoundTrip) {
  // forkSession() shares every aggregate handle between the two lanes;
  // the checkpoint codec must encode the shared payload once (back-refs)
  // and the decoder must restore the *same* sharing, not two equal
  // copies — that property is what keeps a checkpoint of N forks O(1)
  // in N on the aggregate bytes.
  Program P = workloadProgram();
  StreamId X = *P.spec().lookup("x");
  FleetOptions Opts;
  Opts.Shards = 2;
  MonitorFleet Fleet(P, Opts);
  {
    ProducerHandle Prod = Fleet.producer();
    for (int64_t I = 1; I <= 64; ++I)
      ASSERT_TRUE(Prod.feed(1, X, I, Value::integer((I * 11) % 50)));
    Prod.close();
  }
  std::string Err;
  ASSERT_TRUE(Fleet.forkSession(1, 2, &Err)) << Err;

  FleetCheckpoint C;
  C.ProgramChecksum = programChecksum(P);
  C.SourceShards = 2;
  C.Lanes = Fleet.suspend(&Err);
  ASSERT_EQ(Err, "");
  ASSERT_EQ(C.Lanes.size(), 2u);

  auto laneOf = [](std::vector<EngineLaneState> &Lanes, SessionId S)
      -> EngineLaneState & {
    for (EngineLaneState &L : Lanes)
      if (L.Session == S)
        return L;
    ADD_FAILURE() << "session " << S << " missing";
    return Lanes.front();
  };
  auto aggIdentities = [](const EngineLaneState &L) {
    std::vector<const void *> Ids;
    for (const Value &V : L.Cur)
      if (V.isAggregate())
        Ids.push_back(V.aggregateIdentity());
    for (const Value &V : L.LastVal)
      if (V.isAggregate())
        Ids.push_back(V.aggregateIdentity());
    return Ids;
  };

  auto IdsA = aggIdentities(laneOf(C.Lanes, 1));
  auto IdsB = aggIdentities(laneOf(C.Lanes, 2));
  ASSERT_FALSE(IdsA.empty()) << "workload carries no aggregate state";
  EXPECT_EQ(IdsA, IdsB) << "fork did not share the aggregate handles";

  std::vector<uint8_t> Shared = serializeCheckpoint(C);

  DiagnosticEngine Diags;
  auto Loaded = loadCheckpoint(Shared, P, Diags);
  ASSERT_TRUE(Loaded) << Diags.str();
  ASSERT_EQ(Loaded->Lanes.size(), 2u);
  auto ReIdsA = aggIdentities(laneOf(Loaded->Lanes, 1));
  auto ReIdsB = aggIdentities(laneOf(Loaded->Lanes, 2));
  ASSERT_FALSE(ReIdsA.empty());
  EXPECT_EQ(ReIdsA, ReIdsB)
      << "decode produced equal copies instead of shared structure";
  EXPECT_EQ(serializeCheckpoint(*Loaded), Shared)
      << "re-serialization with back-references is not canonical";

  // Same monitor content built as two *independent* sessions encodes
  // every aggregate twice — strictly larger than the shared encoding.
  MonitorFleet Indep(P, Opts);
  {
    ProducerHandle Prod = Indep.producer();
    for (int64_t I = 1; I <= 64; ++I)
      for (SessionId S = 1; S <= 2; ++S)
        ASSERT_TRUE(Prod.feed(S, X, I, Value::integer((I * 11) % 50)));
    Prod.close();
  }
  FleetCheckpoint CI;
  CI.ProgramChecksum = programChecksum(P);
  CI.SourceShards = 2;
  CI.Lanes = Indep.suspend(&Err);
  ASSERT_EQ(Err, "");
  EXPECT_LT(Shared.size(), serializeCheckpoint(CI).size())
      << "shared aggregates were not deduplicated on the wire";

  Fleet.finish();
  Indep.finish();
}
