#include "smr/snapshot.h"

#include <cstring>

#include "common/check.h"
#include "common/codec.h"

namespace dpaxos {

namespace {

// magic + version + through + payload length.
constexpr size_t kHeaderBytes = 4 + 4 + 8 + 4;

}  // namespace

std::string BeginSnapshot(SlotId through_slot, size_t payload_size) {
  std::string out;
  out.reserve(kHeaderBytes + payload_size + 4);
  ByteWriter w(&out);
  w.PutU32(kSnapshotMagic);
  w.PutU32(kSnapshotVersion);
  w.PutU64(through_slot);
  w.PutU32(static_cast<uint32_t>(payload_size));
  return out;
}

void SealSnapshot(std::string* envelope) {
  uint32_t payload_size = 0;
  std::memcpy(&payload_size, envelope->data() + kHeaderBytes - 4, 4);
  DPAXOS_CHECK_MSG(envelope->size() == kHeaderBytes + payload_size,
                   "snapshot payload is " << envelope->size() - kHeaderBytes
                                          << " bytes, header declares "
                                          << payload_size);
  ByteWriter(envelope).PutU32(Crc32(*envelope));
}

std::string EncodeSnapshot(SlotId through_slot, std::string_view payload) {
  std::string out = BeginSnapshot(through_slot, payload.size());
  out.append(payload);
  SealSnapshot(&out);
  return out;
}

Result<Snapshot> DecodeSnapshot(std::string_view bytes) {
  // The CRC trails the envelope: everything before it is covered.
  if (bytes.size() < kHeaderBytes + 4) {
    return Status::Corruption("snapshot envelope truncated");
  }
  ByteReader r(bytes);
  uint32_t magic = 0, version = 0;
  Snapshot snap;
  if (!r.ReadU32(&magic) || magic != kSnapshotMagic) {
    return Status::Corruption("bad snapshot magic");
  }
  if (!r.ReadU32(&version) || version != kSnapshotVersion) {
    return Status::Corruption("unsupported snapshot version");
  }
  uint64_t through = 0;
  std::string_view payload;
  if (!r.ReadU64(&through) || !r.ReadStringView(&payload)) {
    return Status::Corruption("snapshot envelope truncated");
  }
  uint32_t stored_crc = 0;
  if (!r.ReadU32(&stored_crc) || !r.AtEnd()) {
    return Status::Corruption("snapshot envelope truncated");
  }
  const uint32_t actual = Crc32(bytes.substr(0, bytes.size() - 4));
  if (actual != stored_crc) {
    return Status::Corruption("snapshot checksum mismatch");
  }
  snap.through_slot = through;
  snap.payload.assign(payload);
  return snap;
}

}  // namespace dpaxos
