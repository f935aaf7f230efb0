#ifndef EON_COLUMNAR_ENCODING_H_
#define EON_COLUMNAR_ENCODING_H_

#include <string>
#include <vector>

#include "columnar/batch.h"
#include "columnar/expression.h"
#include "columnar/types.h"
#include "common/result.h"
#include "common/slice.h"

namespace eon {

/// Column chunk encodings. Vertica sorts data and operates directly on
/// encoded values; here we implement the four classic column encodings plus
/// SIMD-BP128-style bit packing and pick automatically per block (sorted
/// data usually compresses well — paper Section 2.1).
enum class Encoding : uint8_t {
  kPlain = 0,        ///< Values back to back.
  kRle = 1,          ///< (run length, value) pairs; great for sorted columns.
  kDict = 2,         ///< Distinct-value dictionary + per-row codes.
  kDeltaVarint = 3,  ///< Zigzag deltas; great for sorted non-null int64.
  /// SIMD-BP128-style: non-null int64 values in 128-value blocks, each
  /// frame-of-reference shifted by the block min and packed at the block's
  /// max bit width (0..64, LSB-first). Nulls are suppressed — they occupy
  /// no packed bits; a leading validity bitmap (present only when the
  /// chunk has nulls) maps packed positions back to rows. Payload:
  ///   [n_valid varint][validity bitmap ceil(count/8)B if n_valid < count]
  ///   per block: [min zigzag-varint][width 1B][packed ceil(len*width/8)B]
  kBitPacked = 4,
};

const char* EncodingName(Encoding e);

/// Encode `values` (all of type `type`) with the given encoding.
/// Format: [encoding:1][count:varint][payload]. Nulls are supported by
/// every encoding. Returns InvalidArgument if the encoding cannot represent
/// the data (kDeltaVarint with nulls or non-int64).
Result<std::string> EncodeChunk(const std::vector<Value>& values,
                                DataType type, Encoding encoding);

/// Decode a chunk produced by EncodeChunk. Appends to `out`.
Status DecodeChunk(Slice data, DataType type, std::vector<Value>* out);

/// Parsed header of an encoded chunk: the encoding tag and row count, with
/// `payload` positioned at the start of the encoding-specific body. Lets
/// the scan inspect a block's representation without decoding it.
struct ChunkView {
  Encoding encoding = Encoding::kPlain;
  uint64_t count = 0;
  Slice payload;
};
Result<ChunkView> ParseChunk(Slice chunk);

/// Selective decode (late materialization): append to `out` (a batch of
/// `type`) only the rows with sel[i] != 0, densely, preserving block
/// order. `sel` must cover
/// `chunk.count` rows; nullptr selects everything. Skipped rows are parsed
/// past (SkipValue — no string allocation) rather than materialized; RLE
/// materializes only the selected copies of each run. `values_decoded`
/// (optional) accumulates the number of Values parsed or materialized —
/// the scan's measure of decode work. Bit-packed chunks skip whole
/// 128-value blocks no selected row maps into (their packed size is
/// computable from the header); `values_unpacked` (optional) accumulates
/// the packed values actually unpacked.
Status DecodeChunkSelected(const ChunkView& chunk, DataType type,
                           const uint8_t* sel, ColumnBatch* out,
                           uint64_t* values_decoded = nullptr,
                           uint64_t* values_unpacked = nullptr);

/// Decode a full chunk straight into columnar layout (DecodeChunkSelected
/// with every row selected). The batch is reset to `type` first.
Status DecodeChunkToBatch(const ChunkView& chunk, DataType type,
                          ColumnBatch* out,
                          uint64_t* values_unpacked = nullptr);

/// Encoded predicate evaluation: fill sel[0..chunk.count) with the
/// verdicts of `value <op> literal`, evaluating the comparison once per
/// RLE run (verdict fanned across the run length) or once per dictionary
/// entry (translated through the code stream; code 0 = NULL never
/// matches). Bit-packed chunks are screened per 128-value block against
/// the conservative value range [min, min + 2^width - 1] — an all-match
/// or none-match block costs one evaluation and is never unpacked; mixed
/// blocks unpack and run the SIMD compare kernel. Returns false — sel
/// untouched — for encodings without an encoded-eval path (plain, delta,
/// bit-packed over a non-int64 comparison); the caller decodes and
/// evaluates value-wise instead. `values_evaluated` (optional) accumulates
/// the number of comparisons performed; `values_unpacked` the bit-packed
/// values unpacked; `kernel_calls` the SIMD kernel invocations.
Result<bool> EvalChunkCmp(const ChunkView& chunk, DataType type, CmpOp op,
                          const Value& literal, uint8_t* sel,
                          uint64_t* values_evaluated = nullptr,
                          uint64_t* values_unpacked = nullptr,
                          uint64_t* kernel_calls = nullptr);

/// Heuristic auto-selection: delta for sorted non-null ints, RLE for long
/// runs, bit-packing for int64 chunks whose exact per-128-block packed
/// cost (max bit width per block over the sample) is at most half the
/// plain cost, dictionary for low cardinality, otherwise plain. Chunks
/// larger
/// than an exact-scan threshold are sampled (evenly spaced contiguous
/// windows) so write-time statistics cost is bounded per chunk; the
/// writer falls back to kPlain if a sampled choice proves inadmissible
/// (e.g. delta over a null the sample missed).
Encoding ChooseEncoding(const std::vector<Value>& values, DataType type);

}  // namespace eon

#endif  // EON_COLUMNAR_ENCODING_H_
