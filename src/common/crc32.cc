#include "common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace dpaxos {

namespace {

static_assert(std::endian::native == std::endian::little,
              "slice-by-8 CRC-32 folds the running CRC into little-endian "
              "words, like the rest of the codec");

// Slice-by-8 tables for CRC-32 (IEEE 802.3 polynomial 0xEDB88320,
// reflected). kTables[0] is the classic bytewise table; kTables[k][b] is
// the CRC of byte b followed by k zero bytes, so eight table lookups
// advance the CRC over eight input bytes at once.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables BuildCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr CrcTables kTables = BuildCrcTables();

}  // namespace

uint32_t Crc32(std::string_view bytes) {
  const char* p = bytes.data();
  size_t n = bytes.size();
  uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    // memcpy: the input carries no alignment guarantee.
    uint32_t lo, hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
          kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
          kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = kTables[0][(crc ^ static_cast<uint8_t>(*p)) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace dpaxos
