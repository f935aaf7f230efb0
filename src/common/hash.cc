#include "common/hash.h"

#include <cstring>

namespace eon {

namespace {

constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

inline uint64_t Rotl64(uint64_t x, int r) {
  return (x << r) | (x >> (64 - r));
}

inline uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  memcpy(&v, p, sizeof(v));
  return v;
}

inline uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  memcpy(&v, p, sizeof(v));
  return v;
}

inline uint64_t Round(uint64_t acc, uint64_t input) {
  acc += input * kPrime2;
  acc = Rotl64(acc, 31);
  acc *= kPrime1;
  return acc;
}

inline uint64_t MergeRound(uint64_t acc, uint64_t val) {
  val = Round(0, val);
  acc ^= val;
  acc = acc * kPrime1 + kPrime4;
  return acc;
}

}  // namespace

uint64_t Hash64(const void* data, size_t len, uint64_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  const uint8_t* const end = p + len;
  uint64_t h;

  if (len >= 32) {
    uint64_t v1 = seed + kPrime1 + kPrime2;
    uint64_t v2 = seed + kPrime2;
    uint64_t v3 = seed;
    uint64_t v4 = seed - kPrime1;
    const uint8_t* const limit = end - 32;
    do {
      v1 = Round(v1, Load64(p));
      v2 = Round(v2, Load64(p + 8));
      v3 = Round(v3, Load64(p + 16));
      v4 = Round(v4, Load64(p + 24));
      p += 32;
    } while (p <= limit);
    h = Rotl64(v1, 1) + Rotl64(v2, 7) + Rotl64(v3, 12) + Rotl64(v4, 18);
    h = MergeRound(h, v1);
    h = MergeRound(h, v2);
    h = MergeRound(h, v3);
    h = MergeRound(h, v4);
  } else {
    h = seed + kPrime5;
  }

  h += static_cast<uint64_t>(len);

  while (p + 8 <= end) {
    h ^= Round(0, Load64(p));
    h = Rotl64(h, 27) * kPrime1 + kPrime4;
    p += 8;
  }
  if (p + 4 <= end) {
    h ^= static_cast<uint64_t>(Load32(p)) * kPrime1;
    h = Rotl64(h, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  while (p < end) {
    h ^= (*p) * kPrime5;
    h = Rotl64(h, 11) * kPrime1;
    ++p;
  }

  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= kPrime2;
  x ^= x >> 29;
  x *= kPrime3;
  x ^= x >> 32;
  return x;
}

uint32_t SegmentationHash(const void* data, size_t len) {
  return static_cast<uint32_t>(Hash64(data, len, /*seed=*/0x5e47) >> 32);
}

uint32_t SegmentationHashInt(int64_t v) {
  return static_cast<uint32_t>(Mix64(static_cast<uint64_t>(v) + 0x5e47) >> 32);
}

uint32_t SegmentationHashCombine(uint32_t a, uint32_t b) {
  uint64_t x = (static_cast<uint64_t>(a) << 32) | b;
  return static_cast<uint32_t>(Mix64(x) >> 32);
}

namespace {

/// Slicing-by-8 tables: t[0] is the classic bytewise table, and t[k][b]
/// is the CRC contribution of byte b followed by k zero bytes, so eight
/// input bytes fold in with eight independent lookups per step.
struct Crc32cTable {
  uint32_t t[8][256];
  Crc32cTable() {
    constexpr uint32_t kPoly = 0x82F63B78u;  // Castagnoli, reflected.
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
      }
    }
  }
};

const Crc32cTable& GetCrcTable() {
  static const Crc32cTable* table = new Crc32cTable();
  return *table;
}

}  // namespace

uint32_t Crc32c(const void* data, size_t len, uint32_t init) {
  const Crc32cTable& table = GetCrcTable();
  const auto& t = table.t;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = init ^ 0xFFFFFFFFu;
  // Eight bytes per step. The low word is assembled byte by byte, so the
  // result does not depend on host endianness or alignment.
  for (; len >= 8; p += 8, len -= 8) {
    c ^= static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
    c = t[7][c & 0xFF] ^ t[6][(c >> 8) & 0xFF] ^ t[5][(c >> 16) & 0xFF] ^
        t[4][c >> 24] ^ t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; len > 0; ++p, --len) {
    c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace eon
