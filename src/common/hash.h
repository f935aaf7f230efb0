#ifndef EON_COMMON_HASH_H_
#define EON_COMMON_HASH_H_

#include <cstdint>
#include <cstddef>

#include "common/slice.h"

namespace eon {

/// 64-bit non-cryptographic hash (xxHash64-style avalanche mixing).
/// Deterministic across platforms; used for hash tables and SID spreading.
uint64_t Hash64(const void* data, size_t len, uint64_t seed = 0);

inline uint64_t Hash64(const Slice& s, uint64_t seed = 0) {
  return Hash64(s.data(), s.size(), seed);
}

/// Mix a 64-bit value to a well-distributed 64-bit value (finalizer only).
uint64_t Mix64(uint64_t x);

/// Segmentation hash: Vertica's sharding operates over a 32-bit hash space
/// (Figure 3 in the paper). Tuples map to shards by the upper bits of this.
uint32_t SegmentationHash(const void* data, size_t len);

inline uint32_t SegmentationHash(const Slice& s) {
  return SegmentationHash(s.data(), s.size());
}

/// Segmentation hash of an integer key (common case: HASH(id) clauses).
uint32_t SegmentationHashInt(int64_t v);

/// Combine two segmentation hashes (multi-column segmentation clauses).
uint32_t SegmentationHashCombine(uint32_t a, uint32_t b);

/// CRC32 (Castagnoli polynomial, portable slicing-by-8). Used as the
/// block/footer checksum in the ROS container format. `init` chains: the
/// CRC of a||b is Crc32c(b, len_b, Crc32c(a, len_a)).
uint32_t Crc32c(const void* data, size_t len, uint32_t init = 0);

inline uint32_t Crc32c(const Slice& s, uint32_t init = 0) {
  return Crc32c(s.data(), s.size(), init);
}

}  // namespace eon

#endif  // EON_COMMON_HASH_H_
