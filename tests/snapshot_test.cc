// Unit coverage of the snapshot envelope (src/smr/snapshot.h), the
// CRC-32 it shares with the WAL and the TCP framing (common/crc32.h), and
// the full-state serialization it carries: round-trips, exhaustive
// corruption detection (every single-bit flip, every truncation),
// slice-by-8 CRC against a bitwise reference, and install-then-lossy-
// restart consistency of the KvStateMachine payload including the
// per-client dedup windows.
#include "smr/snapshot.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "common/codec.h"
#include "common/random.h"
#include "common/status.h"
#include "smr/kv_store.h"
#include "txn/transaction.h"

namespace dpaxos {
namespace {

std::string PutValue(uint64_t id, const std::string& key,
                     const std::string& val, uint64_t client_id = 0,
                     uint64_t seq = 0) {
  Transaction txn;
  txn.id = id;
  txn.client_id = client_id;
  txn.seq = seq;
  txn.ops = {Operation::Put(key, val)};
  return EncodeBatch({txn});
}

TEST(SnapshotEnvelopeTest, RoundTrip) {
  const std::string payload = "opaque state machine bytes \x00\x01\xff";
  const std::string bytes = EncodeSnapshot(1234, payload);
  Result<Snapshot> decoded = DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().through_slot, 1234u);
  EXPECT_EQ(decoded.value().payload, payload);
}

TEST(SnapshotEnvelopeTest, EmptyPayloadRoundTrip) {
  const std::string bytes = EncodeSnapshot(0, "");
  Result<Snapshot> decoded = DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().through_slot, 0u);
  EXPECT_TRUE(decoded.value().payload.empty());
}

// Every single-bit flip anywhere in the envelope — header, payload, or
// the checksum itself — must surface as Corruption, never as a decoded
// snapshot with wrong contents.
TEST(SnapshotEnvelopeTest, CrcDetectsEverySingleBitFlip) {
  const std::string bytes = EncodeSnapshot(42, "some payload worth guarding");
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      Result<Snapshot> decoded = DecodeSnapshot(flipped);
      ASSERT_FALSE(decoded.ok())
          << "bit flip at byte " << byte << " bit " << bit
          << " decoded successfully";
      EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
    }
  }
}

// Every proper prefix must be rejected — a torn write or truncated
// chunk reassembly can cut the envelope at any byte.
TEST(SnapshotEnvelopeTest, EveryTruncationRejected) {
  const std::string bytes = EncodeSnapshot(7, std::string(100, 'p'));
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    Result<Snapshot> decoded = DecodeSnapshot(bytes.substr(0, cut));
    ASSERT_FALSE(decoded.ok()) << "prefix of length " << cut << " decoded";
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  }
}

TEST(SnapshotEnvelopeTest, TrailingGarbageRejected) {
  std::string bytes = EncodeSnapshot(7, "payload");
  bytes += '\0';
  EXPECT_FALSE(DecodeSnapshot(bytes).ok());
  bytes += "more garbage";
  EXPECT_FALSE(DecodeSnapshot(bytes).ok());
}

TEST(SnapshotEnvelopeTest, BadMagicAndVersionRejected) {
  std::string bad_magic = EncodeSnapshot(1, "x");
  bad_magic[0] = 'X';
  EXPECT_EQ(DecodeSnapshot(bad_magic).status().code(),
            StatusCode::kCorruption);

  // Byte 4 is the low byte of the version field; bumping it simulates a
  // snapshot written by a future incompatible format.
  std::string bad_version = EncodeSnapshot(1, "x");
  bad_version[4] = static_cast<char>(kSnapshotVersion + 1);
  EXPECT_EQ(DecodeSnapshot(bad_version).status().code(),
            StatusCode::kCorruption);
}

TEST(SnapshotEnvelopeTest, Crc32KnownVector) {
  // The IEEE 802.3 check value: CRC-32("123456789") = 0xCBF43926.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

// Bitwise CRC-32 straight from the polynomial: the reference every
// table-driven variant must reproduce.
uint32_t ReferenceCrc32(std::string_view bytes) {
  uint32_t crc = 0xFFFFFFFFu;
  for (char ch : bytes) {
    crc ^= static_cast<uint8_t>(ch);
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng.Next());
  return out;
}

// Slice-by-8 consumes eight bytes per step from wherever the view
// starts: every length around the block boundaries, at every alignment,
// must agree with the reference.
TEST(Crc32Test, MatchesReferenceAtEveryLengthAndOffset) {
  const std::string buf = RandomBytes(256 + 8, 1);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 256; ++len) {
      const std::string_view view(buf.data() + offset, len);
      ASSERT_EQ(Crc32(view), ReferenceCrc32(view))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32Test, MatchesReferenceOnOneMebibyte) {
  const std::string buf = RandomBytes(1 << 20, 2);
  EXPECT_EQ(Crc32(buf), ReferenceCrc32(buf));
  EXPECT_EQ(Crc32(std::string_view(buf).substr(3)),
            ReferenceCrc32(std::string_view(buf).substr(3)));
}

TEST(KvSnapshotTest, SerializeFullRoundTripPreservesStateAndCounters) {
  KvStateMachine kv;
  kv.Apply(0, PutValue(1, "alpha", "1", /*client_id=*/7, /*seq=*/1));
  kv.Apply(1, PutValue(2, "beta", "2", /*client_id=*/7, /*seq=*/2));
  // Out-of-order seq leaves a sparse entry in client 9's dedup window.
  kv.Apply(2, PutValue(3, "gamma", "3", /*client_id=*/9, /*seq=*/5));
  // Duplicate: must bump duplicates_skipped and not re-apply.
  kv.Apply(3, PutValue(4, "alpha", "dup", /*client_id=*/7, /*seq=*/1));

  KvStateMachine restored;
  ASSERT_TRUE(restored.RestoreFull(kv.SerializeFull()).ok());
  // The one-buffer envelope sizes the sparse window from set sizes.
  EXPECT_EQ(kv.SnapshotEnvelope(4), EncodeSnapshot(4, kv.SerializeFull()));

  EXPECT_EQ(restored.Checksum(), kv.Checksum());
  EXPECT_EQ(restored.Get("alpha"), "1");
  EXPECT_EQ(restored.applied_commands(), kv.applied_commands());
  EXPECT_EQ(restored.applied_writes(), kv.applied_writes());
  EXPECT_EQ(restored.duplicates_skipped(), kv.duplicates_skipped());
  EXPECT_TRUE(restored.WasApplied(7, 1));
  EXPECT_TRUE(restored.WasApplied(7, 2));
  EXPECT_TRUE(restored.WasApplied(9, 5));
  EXPECT_FALSE(restored.WasApplied(9, 4));
}

// The reason SerializeFull exists: a client retry that straddles the
// snapshot point must still dedup after install + residual replay.
TEST(KvSnapshotTest, DedupWindowSurvivesInstall) {
  KvStateMachine kv;
  kv.Apply(0, PutValue(1, "k", "committed", /*client_id=*/3, /*seq=*/1));

  KvStateMachine restored;
  ASSERT_TRUE(restored.RestoreFull(kv.SerializeFull()).ok());

  // Residual replay re-delivers the same tagged transaction.
  restored.Apply(1, PutValue(9, "k", "retry", /*client_id=*/3, /*seq=*/1));
  EXPECT_EQ(restored.Get("k"), "committed");
  EXPECT_EQ(restored.duplicates_skipped(), 1u);
}

TEST(KvSnapshotTest, RestoreFullRejectsEveryTruncation) {
  KvStateMachine kv;
  kv.Apply(0, PutValue(1, "key", "value", 5, 1));
  const std::string full = kv.SerializeFull();
  for (size_t cut = 0; cut < full.size(); ++cut) {
    KvStateMachine victim;
    victim.Apply(0, PutValue(2, "pre", "existing"));
    const uint64_t before = victim.Checksum();
    Status st = victim.RestoreFull(full.substr(0, cut));
    ASSERT_FALSE(st.ok()) << "prefix of length " << cut << " restored";
    EXPECT_EQ(st.code(), StatusCode::kCorruption);
    // Failed restore must leave the state untouched.
    EXPECT_EQ(victim.Checksum(), before);
  }
}

// Full pipeline a lossy restart exercises: state -> SerializeFull ->
// envelope -> (storage) -> decode -> RestoreFull, then residual replay
// converging with a replica that never restarted.
TEST(KvSnapshotTest, InstallThenResidualReplayConverges) {
  KvStateMachine primary;
  for (uint64_t i = 0; i < 20; ++i) {
    primary.Apply(i, PutValue(i + 1, "key" + std::to_string(i % 5),
                              "v" + std::to_string(i), /*client_id=*/1,
                              /*seq=*/i + 1));
  }
  const std::string envelope =
      EncodeSnapshot(/*through_slot=*/20, primary.SerializeFull());

  // Keep applying on the primary after the snapshot point.
  for (uint64_t i = 20; i < 30; ++i) {
    primary.Apply(i, PutValue(i + 1, "key" + std::to_string(i % 5),
                              "v" + std::to_string(i), 1, i + 1));
  }

  // Restarted replica: install the snapshot, then replay the residual
  // tail [20, 30).
  Result<Snapshot> snap = DecodeSnapshot(envelope);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap.value().through_slot, 20u);
  KvStateMachine restarted;
  ASSERT_TRUE(restarted.RestoreFull(snap.value().payload).ok());
  for (uint64_t i = 20; i < 30; ++i) {
    restarted.Apply(i, PutValue(i + 1, "key" + std::to_string(i % 5),
                                "v" + std::to_string(i), 1, i + 1));
  }

  EXPECT_EQ(restarted.Checksum(), primary.Checksum());
  EXPECT_EQ(restarted.applied_commands(), primary.applied_commands());
}

// Pairs are written in hash-map order, so equal states built in
// different orders may serialize to different bytes — but always to the
// same size, and always restore to the same state.
TEST(KvSnapshotTest, InsertionOrderDoesNotChangeTheRestoredState) {
  std::vector<std::string> batches;
  for (uint64_t i = 0; i < 200; ++i) {
    batches.push_back(PutValue(i + 1, "key" + std::to_string(i),
                               "value" + std::to_string(i * 7),
                               /*client_id=*/1 + i % 3, /*seq=*/i / 3 + 1));
  }
  KvStateMachine forward, backward;
  for (size_t i = 0; i < batches.size(); ++i) {
    forward.Apply(i, batches[i]);
    backward.Apply(i, batches[batches.size() - 1 - i]);
  }
  ASSERT_EQ(forward.Checksum(), backward.Checksum());

  const std::string a = forward.SerializeFull();
  const std::string b = backward.SerializeFull();
  EXPECT_EQ(a.size(), b.size());
  KvStateMachine ra, rb;
  ASSERT_TRUE(ra.RestoreFull(a).ok());
  ASSERT_TRUE(rb.RestoreFull(b).ok());
  EXPECT_EQ(ra.Checksum(), forward.Checksum());
  EXPECT_EQ(rb.Checksum(), forward.Checksum());
  EXPECT_EQ(ra.size(), 200u);
  EXPECT_EQ(rb.size(), 200u);
  for (uint64_t client = 1; client <= 3; ++client) {
    for (uint64_t seq = 1; seq <= 67; ++seq) {
      EXPECT_EQ(ra.WasApplied(client, seq), forward.WasApplied(client, seq));
      EXPECT_EQ(rb.WasApplied(client, seq), forward.WasApplied(client, seq));
    }
  }
  // Re-serializing a restored state keeps the size too.
  EXPECT_EQ(ra.SerializeFull().size(), a.size());
}

// The serving path's image: 100k keys through the one-buffer envelope,
// decoded and restored, plus equality with the two-step encoding.
TEST(KvSnapshotTest, HundredThousandKeyEnvelopeRoundTrip) {
  KvStateMachine kv;
  Transaction txn;
  txn.id = 1;
  for (uint64_t i = 0; i < 100000; ++i) {
    txn.ops.push_back(Operation::Put("user" + std::to_string(i * 7919),
                                     std::string(50, 'a' + i % 26)));
  }
  kv.Apply(0, EncodeBatch({txn}));
  // Overwrites that shrink and grow values move the tracked pair bytes
  // both ways; the envelope checks its payload length against them.
  Transaction rewrite;
  rewrite.id = 2;
  for (uint64_t i = 0; i < 1000; ++i) {
    rewrite.ops.push_back(Operation::Put("user" + std::to_string(i * 7919),
                                         std::string(i % 2 ? 5 : 90, 'z')));
  }
  kv.Apply(1, EncodeBatch({rewrite}));
  ASSERT_EQ(kv.size(), 100000u);

  const std::string envelope = kv.SnapshotEnvelope(/*through=*/12345);
  EXPECT_EQ(envelope, EncodeSnapshot(12345, kv.SerializeFull()));
  Result<Snapshot> snap = DecodeSnapshot(envelope);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(snap.value().through_slot, 12345u);
  KvStateMachine restored;
  ASSERT_TRUE(restored.RestoreFull(snap.value().payload).ok());
  EXPECT_EQ(restored.size(), 100000u);
  EXPECT_EQ(restored.Checksum(), kv.Checksum());
  EXPECT_EQ(restored.Get("user7919"), std::string(5, 'z'));
  EXPECT_EQ(restored.Get("user7919000"), std::string(50, 'm'));
  EXPECT_EQ(restored.applied_writes(), kv.applied_writes());
  EXPECT_EQ(restored.SerializeFull().size(), snap.value().payload.size());
}

TEST(KvSnapshotTest, RestoreFullRejectsARepeatedKey) {
  std::string image;
  ByteWriter w(&image);
  w.PutU64(2);
  for (const char* value : {"1", "2"}) {
    w.PutString("k");
    w.PutString(value);
  }
  for (int i = 0; i < 4; ++i) w.PutU64(0);  // no clients, zero counters
  KvStateMachine kv;
  kv.Apply(0, PutValue(1, "pre", "existing"));
  const Status st = kv.RestoreFull(image);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  EXPECT_EQ(kv.Get("pre"), "existing");
}

}  // namespace
}  // namespace dpaxos
