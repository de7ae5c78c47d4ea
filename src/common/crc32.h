// CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF).
//
// Shared by every integrity envelope in the tree: the snapshot envelope
// (smr/snapshot.h), the WAL record frame (storage/wal.h) and the TCP
// frame header (net/tcp/framing.h). Lives in common/ so net does not
// have to link smr just for a checksum. Computed slice-by-8 (eight
// table lookups per eight input bytes); the values are those of the
// classic bytewise algorithm.
#ifndef DPAXOS_COMMON_CRC32_H_
#define DPAXOS_COMMON_CRC32_H_

#include <cstdint>
#include <string_view>

namespace dpaxos {

uint32_t Crc32(std::string_view bytes);

}  // namespace dpaxos

#endif  // DPAXOS_COMMON_CRC32_H_
