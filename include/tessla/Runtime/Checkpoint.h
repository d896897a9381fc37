//===- tessla/Runtime/Checkpoint.h - Fleet checkpoints (.tcp) --*- C++ -*-===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The TeSSLa Checkpoint (".tcp") format: a versioned, little-endian
/// binary serialization of live monitor state — the EngineLaneState
/// snapshots MonitorFleet::suspend() extracts through the engine
/// migration contract — so sessions survive their process. A checkpoint
/// restores into a fresh fleet of *any* shard count over the same
/// Program (MonitorFleet::restore), in this process or another, and the
/// resumed run is byte-identical to an uninterrupted one.
///
/// Layout mirrors the `.tpb` bundle (Program/Serialize.h), built on the
/// same Program/BinaryCodec.h primitives:
///
///   offset 0   4  magic bytes 'T' 'C' 'P' 0x1A
///   offset 4   4  u32 format version (TCPFormatVersion)
///   offset 8   8  u64 FNV-1a-64 checksum of every byte from offset 16
///                 to the end of the checkpoint
///   offset 16  4  u32 section count
///   then per section: u32 tag, u64 payload size, payload
///
/// Sections:
///   META  u64 program checksum (tpbChecksum over the serialized
///         Program — a checkpoint is only valid against the exact
///         program it was taken from), u32 source shard count
///         (informational), u64 lane count
///   LANE  the lane snapshots: per lane the full EngineLaneState —
///         session id, cursor/flags/counters, slot values and presence,
///         last slots, armed delay timers, unconsumed buffered records,
///         and the outputs recorded before the suspend
///
/// Loading is untrusting, exactly like the `.tpb` loader: every read is
/// bounds-checked, every array length is validated against the Program
/// the caller loaded (slot counts, last/delay table sizes, stream ids),
/// the program checksum must match, and truncated/bit-flipped inputs
/// produce diagnostics, never undefined behavior. Any layout change
/// bumps TCPFormatVersion.
///
//===----------------------------------------------------------------------===//

#ifndef TESSLA_RUNTIME_CHECKPOINT_H
#define TESSLA_RUNTIME_CHECKPOINT_H

#include "tessla/Program/Program.h"
#include "tessla/Runtime/ExecutionEngine.h"
#include "tessla/Support/Diagnostics.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace tessla {

class MonitorFleet;

/// Current checkpoint format version. Bump on any layout change.
constexpr uint32_t TCPFormatVersion = 2;

/// The four magic bytes opening every checkpoint.
constexpr uint8_t TCPMagic[4] = {'T', 'C', 'P', 0x1A};

/// Byte offset of the checksum field; the checksum covers every byte
/// from TCPChecksumStart to the end of the checkpoint.
constexpr size_t TCPChecksumStart = 16;

/// One suspended fleet: the program it ran (by checksum), the shard
/// count it ran with (informational — restore may pick any) and every
/// live session's lane snapshot, sorted by session id.
struct FleetCheckpoint {
  uint64_t ProgramChecksum = 0;
  uint32_t SourceShards = 0;
  std::vector<EngineLaneState> Lanes;
};

/// The identity a checkpoint binds to: the FNV-1a-64 checksum of \p P's
/// canonical `.tpb` serialization. Deterministic encoding makes this a
/// stable program fingerprint.
uint64_t programChecksum(const Program &P);

/// Serializes \p C into a self-contained checkpoint. Deterministic:
/// equal checkpoints yield equal bytes.
std::vector<uint8_t> serializeCheckpoint(const FleetCheckpoint &C);

/// Loads a checkpoint and validates it against \p P: magic, version,
/// content checksum, program checksum, and every lane's array sizes and
/// stream ids. Reports through \p Diags and returns nullopt on any
/// problem; never exhibits undefined behavior on malformed input.
std::optional<FleetCheckpoint> loadCheckpoint(const uint8_t *Data,
                                              size_t Size, const Program &P,
                                              DiagnosticEngine &Diags);
std::optional<FleetCheckpoint> loadCheckpoint(
    const std::vector<uint8_t> &Bytes, const Program &P,
    DiagnosticEngine &Diags);

/// Writes serialized checkpoint bytes to \p Path crash-safely: the bytes
/// go to a temporary file next to \p Path, which is fsynced and renamed
/// over it. On failure the temporary is removed, any previous file at
/// \p Path is left byte-for-byte intact, and a "tcp:" error naming the
/// failed step is reported through \p Diags.
bool writeCheckpointFile(const std::vector<uint8_t> &Bytes,
                         const std::string &Path, DiagnosticEngine &Diags);
/// File convenience wrappers ("fleet.tcp" in/out); the writer serializes
/// \p C and calls the one above.
bool writeCheckpointFile(const FleetCheckpoint &C, const std::string &Path,
                         DiagnosticEngine &Diags);
std::optional<FleetCheckpoint> loadCheckpointFile(const std::string &Path,
                                                  const Program &P,
                                                  DiagnosticEngine &Diags);

/// Convenience: suspends \p Fleet (terminal — see MonitorFleet::suspend)
/// and serializes the result against \p P. Returns nullopt with
/// \p ErrorOut set when the fleet cannot be checkpointed (e.g. native
/// engine).
std::optional<std::vector<uint8_t>>
checkpointFleet(MonitorFleet &Fleet, const Program &P,
                std::string *ErrorOut = nullptr);

} // namespace tessla

#endif // TESSLA_RUNTIME_CHECKPOINT_H
