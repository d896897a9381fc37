//===- tests/Runtime/WireTest.cpp -------------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// The service wire format (Runtime/Wire.h): frame round-trips through
/// the incremental FrameDecoder (whole-buffer and byte-at-a-time),
/// hard poisoning on every malformed header, the bit-flip invariant (no
/// corrupted payload ever reaches a caller), and the payload codecs'
/// round-trip fidelity plus their rejection of truncated and hostile
/// inputs. Mirrors the untrusting-loader discipline of
/// Program/SerializeTest.
///
//===----------------------------------------------------------------------===//

#include "tessla/Runtime/Wire.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>

using namespace tessla;

namespace {

/// A batch exercising every scalar value kind plus an empty-ish record.
EventBatch sampleBatch() {
  EventBatch B;
  B.Records.push_back({7, 0, -5, Value::integer(42)});
  B.Records.push_back({7, 1, 0, Value::unit()});
  B.Records.push_back({123456789012345ull, 2, 9, Value::boolean(true)});
  B.Records.push_back({0, 3, 17, Value::floating(2.5)});
  B.Records.push_back({1, 4, 17, Value::string("hello wire")});
  B.Records.push_back({1, 5, 18, Value::string(std::string("\0x\xff", 3))});
  return B;
}

void expectBatchEq(const EventBatch &A, const EventBatch &B) {
  ASSERT_EQ(A.Records.size(), B.Records.size());
  for (size_t I = 0; I != A.Records.size(); ++I) {
    EXPECT_EQ(A.Records[I].Session, B.Records[I].Session) << I;
    EXPECT_EQ(A.Records[I].Input, B.Records[I].Input) << I;
    EXPECT_EQ(A.Records[I].Ts, B.Records[I].Ts) << I;
    EXPECT_EQ(compareValues(A.Records[I].V, B.Records[I].V), 0) << I;
  }
}

/// Decodes exactly one frame from \p Bytes fed in one append.
std::optional<WireFrame> decodeOne(const std::vector<uint8_t> &Bytes) {
  FrameDecoder D;
  D.append(Bytes.data(), Bytes.size());
  auto F = D.next();
  EXPECT_FALSE(D.failed()) << D.error();
  return F;
}

} // namespace

// --- Framing ----------------------------------------------------------------

TEST(WireTest, FrameRoundTrip) {
  std::vector<uint8_t> Payload = encodeEventBatch(sampleBatch());
  std::vector<uint8_t> Bytes = encodeFrame(FrameType::Batch, Payload);
  ASSERT_EQ(Bytes.size(), WireHeaderSize + Payload.size());
  EXPECT_EQ(std::memcmp(Bytes.data(), WireMagic, 4), 0);

  auto F = decodeOne(Bytes);
  ASSERT_TRUE(F);
  EXPECT_EQ(F->Type, FrameType::Batch);
  EXPECT_EQ(F->Payload, Payload);
}

TEST(WireTest, EmptyPayloadFrames) {
  for (FrameType T : {FrameType::Snapshot, FrameType::Stats,
                      FrameType::Shutdown, FrameType::ShutdownAck}) {
    auto F = decodeOne(encodeFrame(T, {}));
    ASSERT_TRUE(F) << frameTypeName(T);
    EXPECT_EQ(F->Type, T);
    EXPECT_TRUE(F->Payload.empty());
  }
}

TEST(WireTest, ByteAtATimeDecoding) {
  // Three back-to-back frames dribbled in one byte at a time: each frame
  // must pop out exactly when its last byte arrives, never earlier.
  std::vector<uint8_t> Stream;
  auto AppendFrame = [&](FrameType T, const std::vector<uint8_t> &P) {
    std::vector<uint8_t> F = encodeFrame(T, P);
    Stream.insert(Stream.end(), F.begin(), F.end());
  };
  AppendFrame(FrameType::Hello, encodeHello());
  AppendFrame(FrameType::Batch, encodeEventBatch(sampleBatch()));
  AppendFrame(FrameType::Busy, encodeU64(99));

  FrameDecoder D;
  std::vector<WireFrame> Frames;
  for (uint8_t Byte : Stream) {
    D.append(&Byte, 1);
    while (auto F = D.next())
      Frames.push_back(std::move(*F));
    ASSERT_FALSE(D.failed()) << D.error();
  }
  ASSERT_EQ(Frames.size(), 3u);
  EXPECT_EQ(Frames[0].Type, FrameType::Hello);
  EXPECT_EQ(Frames[1].Type, FrameType::Batch);
  EXPECT_EQ(Frames[2].Type, FrameType::Busy);
  std::string Err;
  auto Busy = decodeU64(Frames[2].Payload.data(), Frames[2].Payload.size(),
                        Err);
  ASSERT_TRUE(Busy) << Err;
  EXPECT_EQ(*Busy, 99u);
}

TEST(WireTest, MultipleFramesOneAppend) {
  std::vector<uint8_t> Stream;
  for (unsigned I = 0; I != 10; ++I) {
    std::vector<uint8_t> F = encodeFrame(FrameType::Busy, encodeU64(I));
    Stream.insert(Stream.end(), F.begin(), F.end());
  }
  FrameDecoder D;
  D.append(Stream.data(), Stream.size());
  for (unsigned I = 0; I != 10; ++I) {
    auto F = D.next();
    ASSERT_TRUE(F) << I;
    EXPECT_EQ(F->Type, FrameType::Busy);
  }
  EXPECT_FALSE(D.next());
  EXPECT_FALSE(D.failed());
}

TEST(WireTest, TruncatedFrameJustWaits) {
  // A prefix of a valid frame is not an error at the stream layer — the
  // rest of the bytes may simply not have arrived yet.
  std::vector<uint8_t> Bytes =
      encodeFrame(FrameType::Batch, encodeEventBatch(sampleBatch()));
  for (size_t Len = 0; Len != Bytes.size(); ++Len) {
    FrameDecoder D;
    D.append(Bytes.data(), Len);
    EXPECT_FALSE(D.next()) << "frame from a " << Len << "-byte prefix";
    EXPECT_FALSE(D.failed()) << "poisoned by a " << Len << "-byte prefix";
  }
}

TEST(WireTest, BadMagicPoisonsForever) {
  std::vector<uint8_t> Bytes = encodeFrame(FrameType::Stats, {});
  Bytes[0] ^= 0x01;
  FrameDecoder D;
  D.append(Bytes.data(), Bytes.size());
  EXPECT_FALSE(D.next());
  EXPECT_TRUE(D.failed());
  EXPECT_NE(D.error().find("magic"), std::string::npos) << D.error();

  // The decoder never resynchronizes: a pristine frame appended after
  // the poison must not come out.
  std::vector<uint8_t> Good = encodeFrame(FrameType::Stats, {});
  D.append(Good.data(), Good.size());
  EXPECT_FALSE(D.next());
  EXPECT_TRUE(D.failed());
}

TEST(WireTest, UnknownFrameTypePoisons) {
  for (uint8_t Type : {uint8_t{0}, uint8_t{19}, uint8_t{200}}) {
    std::vector<uint8_t> Bytes = encodeFrame(FrameType::Stats, {});
    Bytes[4] = Type;
    FrameDecoder D;
    D.append(Bytes.data(), Bytes.size());
    EXPECT_FALSE(D.next());
    EXPECT_TRUE(D.failed()) << unsigned(Type);
    EXPECT_NE(D.error().find("unknown frame type"), std::string::npos)
        << D.error();
  }
}

TEST(WireTest, OversizedPayloadPoisons) {
  // A hostile header advertising a payload beyond the cap must poison
  // immediately — before any allocation of that size.
  std::vector<uint8_t> Bytes = encodeFrame(FrameType::Stats, {});
  uint32_t Huge = WireMaxPayload + 1;
  for (unsigned I = 0; I != 4; ++I)
    Bytes[5 + I] = static_cast<uint8_t>(Huge >> (8 * I));
  FrameDecoder D;
  D.append(Bytes.data(), Bytes.size());
  EXPECT_FALSE(D.next());
  EXPECT_TRUE(D.failed());
  EXPECT_NE(D.error().find("cap"), std::string::npos) << D.error();
}

TEST(WireTest, PayloadChecksumMismatchPoisons) {
  std::vector<uint8_t> Bytes =
      encodeFrame(FrameType::Busy, encodeU64(12345));
  Bytes.back() ^= 0xFF; // payload byte; checksum in the header now lies
  FrameDecoder D;
  D.append(Bytes.data(), Bytes.size());
  EXPECT_FALSE(D.next());
  EXPECT_TRUE(D.failed());
  EXPECT_NE(D.error().find("checksum"), std::string::npos) << D.error();
}

TEST(WireTest, EveryBitFlipIsContained) {
  // The invariant over single-bit corruption anywhere in a frame: the
  // decoder either poisons, keeps waiting (a size-field flip asking for
  // more bytes), or — when the flip lands in the type byte and happens
  // to name another valid type — emits a frame whose payload is still
  // the *original*, checksum-verified bytes. A corrupted payload never
  // reaches the caller, and nothing crashes.
  std::vector<uint8_t> Original = encodeEventBatch(sampleBatch());
  std::vector<uint8_t> Bytes = encodeFrame(FrameType::Batch, Original);
  for (size_t Off = 0; Off != Bytes.size(); ++Off) {
    for (unsigned Bit = 0; Bit < 8; Bit += 3) { // bits 0, 3, 6
      std::vector<uint8_t> Flipped = Bytes;
      Flipped[Off] ^= static_cast<uint8_t>(1u << Bit);
      FrameDecoder D;
      D.append(Flipped.data(), Flipped.size());
      auto F = D.next();
      if (F) {
        EXPECT_EQ(F->Payload, Original)
            << "bit " << Bit << " at offset " << Off
            << " let a corrupted payload through";
      } else if (D.failed()) {
        EXPECT_FALSE(D.error().empty()) << "silent poison at " << Off;
      }
    }
  }
}

TEST(WireTest, FrameTypeNamesAreDistinct) {
  std::set<std::string> Names;
  for (uint8_t T = 1; T <= 16; ++T)
    Names.insert(frameTypeName(static_cast<FrameType>(T)));
  EXPECT_EQ(Names.size(), 16u);
}

// --- Payload codecs ---------------------------------------------------------

TEST(WireTest, EventBatchRoundTrip) {
  EventBatch B = sampleBatch();
  std::vector<uint8_t> Bytes = encodeEventBatch(B);
  std::string Err;
  auto Decoded = decodeEventBatch(Bytes.data(), Bytes.size(), Err);
  ASSERT_TRUE(Decoded) << Err;
  expectBatchEq(B, *Decoded);

  // Deterministic: equal batches encode to equal bytes.
  EXPECT_EQ(encodeEventBatch(B), Bytes);

  EventBatch Empty;
  std::vector<uint8_t> EmptyBytes = encodeEventBatch(Empty);
  auto DecodedEmpty =
      decodeEventBatch(EmptyBytes.data(), EmptyBytes.size(), Err);
  ASSERT_TRUE(DecodedEmpty) << Err;
  EXPECT_TRUE(DecodedEmpty->empty());
}

TEST(WireTest, EventBatchEveryTruncationFailsCleanly) {
  std::vector<uint8_t> Bytes = encodeEventBatch(sampleBatch());
  for (size_t Len = 0; Len != Bytes.size(); ++Len) {
    std::string Err;
    auto Decoded = decodeEventBatch(Bytes.data(), Len, Err);
    EXPECT_FALSE(Decoded) << "decoded from a " << Len << "-byte prefix";
    EXPECT_FALSE(Err.empty()) << "silent failure at " << Len;
  }
}

TEST(WireTest, EventBatchHostileCountRejected) {
  // A count field promising more records than the payload can hold must
  // fail on the count, not by over-reading.
  std::vector<uint8_t> Bytes = encodeEventBatch(sampleBatch());
  uint32_t Huge = 0x7FFFFFFF;
  for (unsigned I = 0; I != 4; ++I)
    Bytes[I] = static_cast<uint8_t>(Huge >> (8 * I));
  std::string Err;
  EXPECT_FALSE(decodeEventBatch(Bytes.data(), Bytes.size(), Err));
  EXPECT_NE(Err.find("record count"), std::string::npos) << Err;
}

TEST(WireTest, EventBatchTrailingBytesRejected) {
  std::vector<uint8_t> Bytes = encodeEventBatch(sampleBatch());
  Bytes.push_back(0xAB);
  std::string Err;
  EXPECT_FALSE(decodeEventBatch(Bytes.data(), Bytes.size(), Err));
  EXPECT_NE(Err.find("trailing"), std::string::npos) << Err;
}

TEST(WireTest, OutputsRoundTrip) {
  std::vector<WireOutputRecord> Events;
  Events.push_back({1, -3, 0, Value::integer(7)});
  Events.push_back({99, 0, 5, Value::string("out")});
  Events.push_back({99, 12, 1, Value::boolean(false)});
  std::vector<uint8_t> Bytes = encodeOutputs(Events);
  std::string Err;
  auto Decoded = decodeOutputs(Bytes.data(), Bytes.size(), Err);
  ASSERT_TRUE(Decoded) << Err;
  ASSERT_EQ(Decoded->size(), Events.size());
  for (size_t I = 0; I != Events.size(); ++I) {
    EXPECT_EQ((*Decoded)[I].Session, Events[I].Session);
    EXPECT_EQ((*Decoded)[I].Ts, Events[I].Ts);
    EXPECT_EQ((*Decoded)[I].Stream, Events[I].Stream);
    EXPECT_EQ(compareValues((*Decoded)[I].V, Events[I].V), 0);
  }

  for (size_t Len = 0; Len != Bytes.size(); ++Len) {
    auto D = decodeOutputs(Bytes.data(), Len, Err);
    EXPECT_FALSE(D) << Len;
    EXPECT_FALSE(Err.empty()) << Len;
  }
}

TEST(WireTest, HandshakeCodecsRoundTrip) {
  std::vector<uint8_t> Hello = encodeHello();
  uint32_t Version = 0;
  std::string Err;
  ASSERT_TRUE(decodeHello(Hello.data(), Hello.size(), Version, Err)) << Err;
  EXPECT_EQ(Version, WireFormatVersion);

  WireHelloAck Ack;
  Ack.Version = WireFormatVersion;
  Ack.ProgramChecksum = 0xDEADBEEFCAFEF00Dull;
  Ack.Shards = 12;
  std::vector<uint8_t> AckBytes = encodeHelloAck(Ack);
  auto DecodedAck = decodeHelloAck(AckBytes.data(), AckBytes.size(), Err);
  ASSERT_TRUE(DecodedAck) << Err;
  EXPECT_EQ(DecodedAck->Version, Ack.Version);
  EXPECT_EQ(DecodedAck->ProgramChecksum, Ack.ProgramChecksum);
  EXPECT_EQ(DecodedAck->Shards, Ack.Shards);

  WireFinishAck Fin{3, 1234567};
  std::vector<uint8_t> FinBytes = encodeFinishAck(Fin);
  auto DecodedFin = decodeFinishAck(FinBytes.data(), FinBytes.size(), Err);
  ASSERT_TRUE(DecodedFin) << Err;
  EXPECT_EQ(DecodedFin->FailedSessions, 3u);
  EXPECT_EQ(DecodedFin->TotalOutputs, 1234567u);

  std::vector<uint8_t> U = encodeU64(~0ull);
  auto DecodedU = decodeU64(U.data(), U.size(), Err);
  ASSERT_TRUE(DecodedU) << Err;
  EXPECT_EQ(*DecodedU, ~0ull);

  std::string Text = "shard 0: sessions=4\nwith \0 byte";
  std::vector<uint8_t> S = encodeString(Text);
  auto DecodedS = decodeString(S.data(), S.size(), Err);
  ASSERT_TRUE(DecodedS) << Err;
  EXPECT_EQ(*DecodedS, Text);
}

TEST(WireTest, ControlCodecsRejectTruncation) {
  std::string Err;
  for (const std::vector<uint8_t> &Bytes :
       {encodeHelloAck({1, 2, 3}), encodeFinishAck({1, 2}), encodeU64(7),
        encodeString("stats text")}) {
    for (size_t Len = 0; Len != Bytes.size(); ++Len) {
      bool AnyOk = decodeHelloAck(Bytes.data(), Len, Err).has_value() ||
                   decodeFinishAck(Bytes.data(), Len, Err).has_value() ||
                   decodeU64(Bytes.data(), Len, Err).has_value() ||
                   decodeString(Bytes.data(), Len, Err).has_value();
      // A prefix may still parse under a *smaller* codec (a u64 is a
      // prefix of a HelloAck) — what matters is that the matching codec
      // rejects its own truncations, checked below.
      (void)AnyOk;
    }
  }

  std::vector<uint8_t> Ack = encodeHelloAck({1, 2, 3});
  for (size_t Len = 0; Len != Ack.size(); ++Len)
    EXPECT_FALSE(decodeHelloAck(Ack.data(), Len, Err)) << Len;
  std::vector<uint8_t> Fin = encodeFinishAck({1, 2});
  for (size_t Len = 0; Len != Fin.size(); ++Len)
    EXPECT_FALSE(decodeFinishAck(Fin.data(), Len, Err)) << Len;
  std::vector<uint8_t> U = encodeU64(7);
  for (size_t Len = 0; Len != U.size(); ++Len)
    EXPECT_FALSE(decodeU64(U.data(), Len, Err)) << Len;
}

TEST(WireTest, FormatChangeForcesVersionBump) {
  // Golden bytes for an empty-batch frame: any layout change must show
  // up here and force a WireFormatVersion bump (see Wire.h). v2 added
  // aggregate back-references inside value payloads; the empty-batch
  // frame itself is unchanged.
  ASSERT_EQ(WireFormatVersion, 2u)
      << "wire format changed; re-derive the golden bytes below";
  std::vector<uint8_t> Bytes =
      encodeFrame(FrameType::Batch, encodeEventBatch(EventBatch()));
  // Header: magic, type 3, size 4, FNV-1a-64 of the 4 zero count bytes,
  // then the u32 record count 0.
  const std::vector<uint8_t> Golden = {
      'T',  'W',  'F',  0x1A, // magic
      3,                      // FrameType::Batch
      4,    0,    0,    0,    // payload size
      0xF5, 0x13, 0xCE, 0x9D, 0x7F, 0x76, 0x25, 0x4D, // payload checksum
      0,    0,    0,    0,                            // record count
  };
  if (Bytes != Golden) {
    // Render the actual bytes so the test is self-updating on purposeful
    // format changes.
    std::string Hex;
    for (uint8_t B : Bytes) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "%02X ", B);
      Hex += Buf;
    }
    FAIL() << "frame layout changed — bump WireFormatVersion and update "
              "the golden bytes. Actual: "
           << Hex;
  }
}
