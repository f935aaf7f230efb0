// Unit tests for the columnar substrate: encodings, ROS container format,
// pruning, delete vectors, sorting.

#include <gtest/gtest.h>

#include "columnar/delete_vector.h"
#include "columnar/encoding.h"
#include "columnar/ros.h"
#include "columnar/sort.h"
#include "columnar/value_codec.h"
#include "common/codec.h"
#include "common/hash.h"
#include "common/random.h"
#include "storage/object_store.h"

namespace eon {
namespace {

/// The scan's chunk as rows, so assertions index (row, column).
Result<std::vector<Row>> ScanRows(const Schema& schema,
                                  const std::string& base_key,
                                  FileFetcher* fetcher,
                                  const RosScanOptions& options,
                                  RosScanStats* stats = nullptr) {
  EON_ASSIGN_OR_RETURN(
      ColumnChunk chunk,
      ScanRosContainer(schema, base_key, fetcher, options, stats));
  return ChunkToRows(chunk);
}

/// DecodeChunkSelected into a batch, returned as Values.
Status DecodeSelectedValues(const ChunkView& chunk, DataType type,
                            const uint8_t* sel, std::vector<Value>* out,
                            uint64_t* values_decoded = nullptr,
                            uint64_t* values_unpacked = nullptr) {
  ColumnBatch batch(type);
  EON_RETURN_IF_ERROR(DecodeChunkSelected(chunk, type, sel, &batch,
                                          values_decoded, values_unpacked));
  for (size_t i = 0; i < batch.size(); ++i) out->push_back(batch.GetValue(i));
  return Status::OK();
}

// ---------------------------------------------------------------- Values

TEST(ValueTest, CompareTotalOrderWithNulls) {
  EXPECT_EQ(Value::Int(1).Compare(Value::Int(1)), 0);
  EXPECT_LT(Value::Int(1).Compare(Value::Int(2)), 0);
  EXPECT_LT(Value::Null(DataType::kInt64).Compare(Value::Int(-100)), 0);
  EXPECT_EQ(Value::Null(DataType::kInt64).Compare(Value::Null(DataType::kInt64)),
            0);
  EXPECT_LT(Value::Str("a").Compare(Value::Str("b")), 0);
  EXPECT_LT(Value::Dbl(1.5).Compare(Value::Dbl(2.5)), 0);
}

TEST(ValueTest, SegHashEqualValuesEqualHashes) {
  EXPECT_EQ(Value::Int(42).SegHash(), Value::Int(42).SegHash());
  EXPECT_EQ(Value::Str("abc").SegHash(), Value::Str("abc").SegHash());
  EXPECT_NE(Value::Int(42).SegHash(), Value::Int(43).SegHash());
}

TEST(ValueCodecTest, RoundTripAllTypes) {
  for (const Value& v :
       {Value::Int(-12345), Value::Dbl(2.718), Value::Str("hello"),
        Value::Null(DataType::kString), Value::Int(0)}) {
    std::string buf;
    PutValue(&buf, v);
    Slice in(buf);
    Value out;
    ASSERT_TRUE(GetValue(&in, v.type(), &out).ok());
    EXPECT_EQ(out.Compare(v), 0);
    EXPECT_EQ(out.is_null(), v.is_null());
  }
}

// ------------------------------------------------------------- Encodings

struct EncodingCase {
  const char* name;
  DataType type;
  int pattern;  // 0=sorted ints, 1=runs, 2=low card, 3=random, 4=nulls.
  Encoding encoding;
};

std::vector<Value> MakePattern(DataType type, int pattern, size_t n) {
  Random rng(17);
  std::vector<Value> out;
  for (size_t i = 0; i < n; ++i) {
    switch (pattern) {
      case 0:  // Sorted.
        out.push_back(type == DataType::kInt64
                          ? Value::Int(static_cast<int64_t>(i * 3))
                          : Value::Dbl(static_cast<double>(i)));
        break;
      case 1:  // Long runs.
        out.push_back(type == DataType::kString
                          ? Value::Str(i / 50 % 2 ? "AAA" : "BBB")
                          : Value::Int(static_cast<int64_t>(i / 64)));
        break;
      case 2:  // Low cardinality.
        out.push_back(type == DataType::kString
                          ? Value::Str("v" + std::to_string(rng.Uniform(8)))
                          : Value::Int(static_cast<int64_t>(rng.Uniform(8))));
        break;
      case 3:  // Random.
        out.push_back(
            type == DataType::kInt64
                ? Value::Int(static_cast<int64_t>(rng.Next()))
                : (type == DataType::kDouble
                       ? Value::Dbl(rng.NextDouble() * 1e6)
                       : Value::Str(std::to_string(rng.Next()))));
        break;
      case 4:  // Sprinkled nulls.
        out.push_back(rng.Bernoulli(0.2)
                          ? Value::Null(type)
                          : Value::Int(static_cast<int64_t>(rng.Uniform(99))));
        break;
    }
  }
  return out;
}

class EncodingRoundTrip : public ::testing::TestWithParam<EncodingCase> {};

TEST_P(EncodingRoundTrip, Lossless) {
  const EncodingCase& c = GetParam();
  std::vector<Value> values = MakePattern(c.type, c.pattern, 500);
  auto encoded = EncodeChunk(values, c.type, c.encoding);
  ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
  std::vector<Value> decoded;
  ASSERT_TRUE(DecodeChunk(*encoded, c.type, &decoded).ok());
  ASSERT_EQ(decoded.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(decoded[i].Compare(values[i]), 0) << c.name << " row " << i;
    EXPECT_EQ(decoded[i].is_null(), values[i].is_null());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEncodings, EncodingRoundTrip,
    ::testing::Values(
        EncodingCase{"plain_int", DataType::kInt64, 3, Encoding::kPlain},
        EncodingCase{"plain_str", DataType::kString, 3, Encoding::kPlain},
        EncodingCase{"plain_dbl", DataType::kDouble, 3, Encoding::kPlain},
        EncodingCase{"plain_nulls", DataType::kInt64, 4, Encoding::kPlain},
        EncodingCase{"rle_runs_int", DataType::kInt64, 1, Encoding::kRle},
        EncodingCase{"rle_runs_str", DataType::kString, 1, Encoding::kRle},
        EncodingCase{"rle_nulls", DataType::kInt64, 4, Encoding::kRle},
        EncodingCase{"dict_lowcard_str", DataType::kString, 2,
                     Encoding::kDict},
        EncodingCase{"dict_lowcard_int", DataType::kInt64, 2, Encoding::kDict},
        EncodingCase{"dict_nulls", DataType::kInt64, 4, Encoding::kDict},
        EncodingCase{"delta_sorted", DataType::kInt64, 0,
                     Encoding::kDeltaVarint},
        EncodingCase{"bp_sorted", DataType::kInt64, 0, Encoding::kBitPacked},
        EncodingCase{"bp_lowcard", DataType::kInt64, 2, Encoding::kBitPacked},
        EncodingCase{"bp_random", DataType::kInt64, 3, Encoding::kBitPacked},
        EncodingCase{"bp_nulls", DataType::kInt64, 4, Encoding::kBitPacked}),
    [](const ::testing::TestParamInfo<EncodingCase>& info) {
      return info.param.name;
    });

TEST(EncodingTest, DeltaRejectsNullsAndNonInt) {
  std::vector<Value> with_null = {Value::Int(1), Value::Null(DataType::kInt64)};
  EXPECT_TRUE(EncodeChunk(with_null, DataType::kInt64, Encoding::kDeltaVarint)
                  .status()
                  .IsInvalidArgument());
  std::vector<Value> dbl = {Value::Dbl(1.0)};
  EXPECT_TRUE(EncodeChunk(dbl, DataType::kDouble, Encoding::kDeltaVarint)
                  .status()
                  .IsInvalidArgument());
}

TEST(EncodingTest, ChooseEncodingHeuristics) {
  EXPECT_EQ(ChooseEncoding(MakePattern(DataType::kInt64, 0, 500),
                           DataType::kInt64),
            Encoding::kDeltaVarint);
  EXPECT_EQ(ChooseEncoding(MakePattern(DataType::kInt64, 1, 500),
                           DataType::kInt64),
            Encoding::kRle);
  EXPECT_EQ(ChooseEncoding(MakePattern(DataType::kString, 2, 500),
                           DataType::kString),
            Encoding::kDict);
  EXPECT_EQ(ChooseEncoding(MakePattern(DataType::kString, 3, 500),
                           DataType::kString),
            Encoding::kPlain);
}

TEST(EncodingTest, ChooseEncodingSampledLargeChunks) {
  // Past the exact-scan threshold the heuristic samples contiguous
  // windows; the same corpora must still pin the same choices.
  const size_t n = 10000;
  EXPECT_EQ(ChooseEncoding(MakePattern(DataType::kInt64, 0, n),
                           DataType::kInt64),
            Encoding::kDeltaVarint);
  EXPECT_EQ(ChooseEncoding(MakePattern(DataType::kInt64, 1, n),
                           DataType::kInt64),
            Encoding::kRle);
  EXPECT_EQ(ChooseEncoding(MakePattern(DataType::kString, 2, n),
                           DataType::kString),
            Encoding::kDict);
  EXPECT_EQ(ChooseEncoding(MakePattern(DataType::kString, 3, n),
                           DataType::kString),
            Encoding::kPlain);
}

TEST(EncodingTest, WriterFallsBackToPlainWhenSampleMissesNull) {
  // Sorted int64 with one null between sample windows: the sampled
  // heuristic picks delta, EncodeChunk rejects it, and the writer must
  // fall back to plain rather than fail the load.
  std::vector<Value> values;
  for (size_t i = 0; i < 10000; ++i) {
    values.push_back(i == 3000 ? Value::Null(DataType::kInt64)
                               : Value::Int(static_cast<int64_t>(i)));
  }
  ASSERT_EQ(ChooseEncoding(values, DataType::kInt64), Encoding::kDeltaVarint);

  Schema schema({{"v", DataType::kInt64}});
  std::vector<Row> rows;
  for (const Value& v : values) rows.push_back(Row{v});
  RosWriteOptions opts;
  opts.rows_per_block = values.size();
  auto built = RosContainerWriter::Build(schema, rows, opts);
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  MemObjectStore store;
  ASSERT_TRUE(store.Put("data/fallback", built->data).ok());
  DirectFetcher fetcher(&store);
  RosScanOptions scan;
  scan.output_columns = {0};
  auto out = ScanRows(schema, "data/fallback", &fetcher, scan);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), values.size());
  EXPECT_TRUE((*out)[3000][0].is_null());
  EXPECT_EQ((*out)[9999][0].int_value(), 9999);
}

TEST(EncodingTest, SortedDataCompressesWell) {
  // "Sorted data usually results in better compression" (Section 2.1).
  std::vector<Value> sorted = MakePattern(DataType::kInt64, 0, 4096);
  std::vector<Value> random = MakePattern(DataType::kInt64, 3, 4096);
  auto s = EncodeChunk(sorted, DataType::kInt64,
                       ChooseEncoding(sorted, DataType::kInt64));
  auto r = EncodeChunk(random, DataType::kInt64,
                       ChooseEncoding(random, DataType::kInt64));
  ASSERT_TRUE(s.ok() && r.ok());
  EXPECT_LT(s->size() * 3, r->size());
}

TEST(EncodingTest, DecodeRejectsGarbage) {
  std::vector<Value> out;
  EXPECT_TRUE(DecodeChunk(Slice("", 0), DataType::kInt64, &out).IsCorruption());
  std::string bad = "\xFFgarbage";
  EXPECT_TRUE(DecodeChunk(bad, DataType::kInt64, &out).IsCorruption());
}

// ------------------------------------------------- SIMD-BP128 bit packing

TEST(EncodingTest, ChooseEncodingPicksBitPackedForLowCardinalityInts) {
  // Small-domain unsorted int64 (no long runs, no sorted order): the exact
  // per-128-block packed cost beats plain by far more than the 2x margin.
  // Pinned at both the exact-scan size and the sampled size so the cost
  // model stays put for existing fixtures.
  EXPECT_EQ(ChooseEncoding(MakePattern(DataType::kInt64, 2, 500),
                           DataType::kInt64),
            Encoding::kBitPacked);
  EXPECT_EQ(ChooseEncoding(MakePattern(DataType::kInt64, 2, 10000),
                           DataType::kInt64),
            Encoding::kBitPacked);
  // Full-width random int64 packs at width 64 — no win; plain stays.
  EXPECT_EQ(ChooseEncoding(MakePattern(DataType::kInt64, 3, 500),
                           DataType::kInt64),
            Encoding::kPlain);
}

TEST(EncodingTest, BitPackedRejectsNonInt64) {
  std::vector<Value> dbl = {Value::Dbl(1.0)};
  EXPECT_TRUE(EncodeChunk(dbl, DataType::kDouble, Encoding::kBitPacked)
                  .status()
                  .IsInvalidArgument());
  std::vector<Value> str = {Value::Str("x")};
  EXPECT_TRUE(EncodeChunk(str, DataType::kString, Encoding::kBitPacked)
                  .status()
                  .IsInvalidArgument());
}

/// Property: bit-packed round-trips exactly at every bit width 0..64,
/// including sign boundaries, nulls interleaved at random positions, and
/// chunk sizes that are not multiples of the 128-value block.
TEST(EncodingTest, BitPackedRoundTripAllWidths) {
  Random rng(7);
  for (int width = 0; width <= 64; ++width) {
    for (size_t n : {size_t{1}, size_t{127}, size_t{128}, size_t{129},
                     size_t{500}}) {
      for (double null_rate : {0.0, 0.15}) {
        std::vector<Value> values;
        for (size_t i = 0; i < n; ++i) {
          if (null_rate > 0 && rng.Bernoulli(null_rate)) {
            values.push_back(Value::Null(DataType::kInt64));
            continue;
          }
          // `width` random bits, re-centered so roughly half the values are
          // negative (exercises the signed frame-of-reference min).
          uint64_t bits = rng.Next();
          if (width < 64) bits &= (width == 0 ? 0 : (~0ULL >> (64 - width)));
          int64_t v = static_cast<int64_t>(bits);
          if (width < 63) v -= static_cast<int64_t>(1) << width >> 1;
          values.push_back(Value::Int(v));
        }
        auto encoded =
            EncodeChunk(values, DataType::kInt64, Encoding::kBitPacked);
        ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
        std::vector<Value> decoded;
        ASSERT_TRUE(DecodeChunk(*encoded, DataType::kInt64, &decoded).ok())
            << "width=" << width << " n=" << n;
        ASSERT_EQ(decoded.size(), values.size());
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(decoded[i].is_null(), values[i].is_null())
              << "width=" << width << " n=" << n << " row " << i;
          ASSERT_EQ(decoded[i].Compare(values[i]), 0)
              << "width=" << width << " n=" << n << " row " << i;
        }
      }
    }
  }
}

TEST(EncodingTest, BitPackedExtremeValuesAndDegenerateChunks) {
  // INT64_MIN/MAX in one block forces width 64 with a wrapping
  // frame-of-reference delta.
  std::vector<Value> extremes = {Value::Int(INT64_MIN), Value::Int(INT64_MAX),
                                 Value::Int(0), Value::Int(-1)};
  auto enc = EncodeChunk(extremes, DataType::kInt64, Encoding::kBitPacked);
  ASSERT_TRUE(enc.ok());
  std::vector<Value> dec;
  ASSERT_TRUE(DecodeChunk(*enc, DataType::kInt64, &dec).ok());
  for (size_t i = 0; i < extremes.size(); ++i) {
    EXPECT_EQ(dec[i].Compare(extremes[i]), 0);
  }

  // Single repeated value: width-0 blocks, payload is headers only.
  std::vector<Value> constant(500, Value::Int(42));
  enc = EncodeChunk(constant, DataType::kInt64, Encoding::kBitPacked);
  ASSERT_TRUE(enc.ok());
  EXPECT_LT(enc->size(), 40u);  // 4 blocks of header, no packed bits.
  dec.clear();
  ASSERT_TRUE(DecodeChunk(*enc, DataType::kInt64, &dec).ok());
  ASSERT_EQ(dec.size(), constant.size());
  for (const Value& v : dec) EXPECT_EQ(v.int_value(), 42);

  // All-null chunk: zero packed blocks, bitmap only.
  std::vector<Value> nulls(130, Value::Null(DataType::kInt64));
  enc = EncodeChunk(nulls, DataType::kInt64, Encoding::kBitPacked);
  ASSERT_TRUE(enc.ok());
  dec.clear();
  ASSERT_TRUE(DecodeChunk(*enc, DataType::kInt64, &dec).ok());
  ASSERT_EQ(dec.size(), nulls.size());
  for (const Value& v : dec) EXPECT_TRUE(v.is_null());
}

/// Acceptance gate: bit packing must shrink low-cardinality int64 chunks
/// at least 3x vs plain, and still round-trip exactly under DecodeSelected
/// with sparse selections (whole 128-value blocks outside the selection
/// are never unpacked).
TEST(EncodingTest, BitPackedCompressesLowCardinalityThreefold) {
  std::vector<Value> values = MakePattern(DataType::kInt64, 2, 4096);
  auto plain = EncodeChunk(values, DataType::kInt64, Encoding::kPlain);
  auto packed = EncodeChunk(values, DataType::kInt64, Encoding::kBitPacked);
  ASSERT_TRUE(plain.ok() && packed.ok());
  EXPECT_GE(plain->size(), packed->size() * 3)
      << "plain=" << plain->size() << " packed=" << packed->size();

  auto view = ParseChunk(*packed);
  ASSERT_TRUE(view.ok());
  SelectionVector sel(values.size(), 0);
  for (size_t i = 0; i < values.size(); i += 997) sel[i] = 1;  // sparse
  std::vector<Value> got;
  uint64_t values_decoded = 0, values_unpacked = 0;
  ASSERT_TRUE(DecodeSelectedValues(*view, DataType::kInt64, sel.data(), &got,
                                  &values_decoded, &values_unpacked)
                  .ok());
  size_t k = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    if (!sel[i]) continue;
    ASSERT_EQ(got[k].Compare(values[i]), 0) << "row " << i;
    ++k;
  }
  EXPECT_EQ(got.size(), k);
  // 5 selected rows land in 5 distinct 128-value blocks: at most 5 blocks
  // (640 values) may be unpacked out of 4096.
  EXPECT_LE(values_unpacked, 5u * 128u);
  EXPECT_GT(values_unpacked, 0u);
}

TEST(EncodedEvalTest, BitPackedScreeningSkipsDisjointBlocks) {
  // Sorted values: every 128-value block's [min, min+2^width-1] interval is
  // tight, so a literal below the whole chunk screens every block as
  // none-match and nothing is unpacked.
  std::vector<Value> values = MakePattern(DataType::kInt64, 0, 512);
  auto enc = EncodeChunk(values, DataType::kInt64, Encoding::kBitPacked);
  ASSERT_TRUE(enc.ok());
  auto view = ParseChunk(*enc);
  ASSERT_TRUE(view.ok());

  SelectionVector sel(values.size(), 2);
  uint64_t evals = 0, unpacked = 0, kernels = 0;
  auto handled = EvalChunkCmp(*view, DataType::kInt64, CmpOp::kLt,
                              Value::Int(-5), sel.data(), &evals, &unpacked,
                              &kernels);
  ASSERT_TRUE(handled.ok());
  ASSERT_TRUE(handled.value());
  EXPECT_EQ(unpacked, 0u);   // All four blocks screened, none unpacked.
  EXPECT_EQ(kernels, 0u);
  EXPECT_EQ(evals, 4u);      // One verdict per 128-value block.
  for (size_t i = 0; i < values.size(); ++i) EXPECT_EQ(sel[i], 0);

  // A mid-chunk literal splits blocks into screened and mixed: only the
  // straddling block unpacks.
  std::fill(sel.begin(), sel.end(), uint8_t{2});
  evals = unpacked = kernels = 0;
  handled = EvalChunkCmp(*view, DataType::kInt64, CmpOp::kLt, Value::Int(700),
                         sel.data(), &evals, &unpacked, &kernels);
  ASSERT_TRUE(handled.ok());
  ASSERT_TRUE(handled.value());
  EXPECT_LE(unpacked, 128u);
  EXPECT_EQ(kernels, 1u);
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(sel[i] != 0, static_cast<int64_t>(i * 3) < 700) << "row " << i;
  }
}

TEST(EncodedEvalTest, BitPackedNonIntLiteralHasNoEncodedPath) {
  std::vector<Value> values = MakePattern(DataType::kInt64, 2, 64);
  auto enc = EncodeChunk(values, DataType::kInt64, Encoding::kBitPacked);
  ASSERT_TRUE(enc.ok());
  auto view = ParseChunk(*enc);
  ASSERT_TRUE(view.ok());
  SelectionVector sel(values.size(), 2);
  auto handled = EvalChunkCmp(*view, DataType::kInt64, CmpOp::kEq,
                              Value::Str("x"), sel.data());
  ASSERT_TRUE(handled.ok());
  EXPECT_FALSE(handled.value());  // Caller decodes and evaluates value-wise.
}

// ------------------------------------------- Selective decode (late mat)

struct SelectedCase {
  const char* name;
  DataType type;
  int pattern;  // MakePattern index.
  Encoding encoding;
};

class SelectedDecode : public ::testing::TestWithParam<SelectedCase> {};

/// Property: DecodeChunkSelected(sel) == filter(DecodeChunk, sel) for
/// every encoding, including nulls, long runs, high cardinality, and
/// single-row chunks, under random selection vectors of varying density.
TEST_P(SelectedDecode, MatchesFilteredFullDecode) {
  const SelectedCase& c = GetParam();
  Random rng(99);
  for (size_t n : {size_t{1}, size_t{7}, size_t{500}}) {
    std::vector<Value> values = MakePattern(c.type, c.pattern, n);
    auto encoded = EncodeChunk(values, c.type, c.encoding);
    ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
    auto view = ParseChunk(*encoded);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    ASSERT_EQ(view->count, n);
    ASSERT_EQ(view->encoding, c.encoding);

    std::vector<Value> full;
    ASSERT_TRUE(DecodeChunk(*encoded, c.type, &full).ok());

    for (double density : {0.0, 0.01, 0.5, 1.0}) {
      SelectionVector sel(n);
      uint64_t selected = 0;
      for (size_t i = 0; i < n; ++i) {
        sel[i] = density >= 1.0 ? 1 : (rng.Bernoulli(density) ? 1 : 0);
        selected += sel[i];
      }
      std::vector<Value> got;
      uint64_t values_decoded = 0;
      ASSERT_TRUE(DecodeSelectedValues(*view, c.type, sel.data(), &got,
                                      &values_decoded)
                      .ok());
      ASSERT_EQ(got.size(), selected) << c.name << " n=" << n;
      size_t k = 0;
      for (size_t i = 0; i < n; ++i) {
        if (!sel[i]) continue;
        EXPECT_EQ(got[k].Compare(full[i]), 0) << c.name << " row " << i;
        EXPECT_EQ(got[k].is_null(), full[i].is_null());
        ++k;
      }
      if (selected > 0) EXPECT_GT(values_decoded, 0u);
    }

    // nullptr selection = full decode.
    std::vector<Value> all;
    ASSERT_TRUE(DecodeSelectedValues(*view, c.type, nullptr, &all).ok());
    ASSERT_EQ(all.size(), full.size());
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(all[i].Compare(full[i]), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEncodings, SelectedDecode,
    ::testing::Values(
        SelectedCase{"plain_highcard_str", DataType::kString, 3,
                     Encoding::kPlain},
        SelectedCase{"plain_nulls", DataType::kInt64, 4, Encoding::kPlain},
        SelectedCase{"plain_runs", DataType::kInt64, 1, Encoding::kPlain},
        SelectedCase{"rle_runs_int", DataType::kInt64, 1, Encoding::kRle},
        SelectedCase{"rle_runs_str", DataType::kString, 1, Encoding::kRle},
        SelectedCase{"rle_nulls", DataType::kInt64, 4, Encoding::kRle},
        SelectedCase{"dict_lowcard_str", DataType::kString, 2,
                     Encoding::kDict},
        SelectedCase{"dict_nulls", DataType::kInt64, 4, Encoding::kDict},
        SelectedCase{"dict_highcard_int", DataType::kInt64, 3,
                     Encoding::kDict},
        SelectedCase{"delta_sorted", DataType::kInt64, 0,
                     Encoding::kDeltaVarint},
        SelectedCase{"bp_lowcard", DataType::kInt64, 2, Encoding::kBitPacked},
        SelectedCase{"bp_random", DataType::kInt64, 3, Encoding::kBitPacked},
        SelectedCase{"bp_nulls", DataType::kInt64, 4, Encoding::kBitPacked}),
    [](const ::testing::TestParamInfo<SelectedCase>& info) {
      return info.param.name;
    });

/// Property: EvalChunkCmp (per-run / per-dictionary-entry evaluation)
/// produces exactly the verdicts of row-wise CmpMatches; plain and delta
/// report "no encoded path".
TEST(EncodedEvalTest, EvalChunkCmpMatchesRowWise) {
  struct Case {
    DataType type;
    int pattern;
    Encoding encoding;
    Value literal;
  };
  const std::vector<Case> cases = {
      {DataType::kInt64, 1, Encoding::kRle, Value::Int(3)},
      {DataType::kInt64, 4, Encoding::kRle, Value::Int(50)},
      {DataType::kString, 1, Encoding::kRle, Value::Str("AAA")},
      {DataType::kString, 2, Encoding::kDict, Value::Str("v3")},
      {DataType::kInt64, 4, Encoding::kDict, Value::Int(42)},
      {DataType::kInt64, 2, Encoding::kDict, Value::Int(5)},
      {DataType::kInt64, 2, Encoding::kBitPacked, Value::Int(5)},
      {DataType::kInt64, 0, Encoding::kBitPacked, Value::Int(300)},
      {DataType::kInt64, 4, Encoding::kBitPacked, Value::Int(50)},
  };
  const CmpOp ops[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                       CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};
  for (const Case& c : cases) {
    for (size_t n : {size_t{1}, size_t{256}}) {
      std::vector<Value> values = MakePattern(c.type, c.pattern, n);
      auto encoded = EncodeChunk(values, c.type, c.encoding);
      ASSERT_TRUE(encoded.ok());
      auto view = ParseChunk(*encoded);
      ASSERT_TRUE(view.ok());
      for (CmpOp op : ops) {
        SelectionVector sel(n, 2);  // Poisoned; must be fully overwritten.
        uint64_t evals = 0;
        auto handled =
            EvalChunkCmp(*view, c.type, op, c.literal, sel.data(), &evals);
        ASSERT_TRUE(handled.ok()) << handled.status().ToString();
        ASSERT_TRUE(handled.value());
        // One comparison per run / dictionary entry, never more than one
        // per row.
        EXPECT_GT(evals, 0u);
        EXPECT_LE(evals, n);
        for (size_t i = 0; i < n; ++i) {
          EXPECT_EQ(sel[i] != 0, CmpMatches(values[i], op, c.literal))
              << "op " << CmpOpName(op) << " row " << i;
        }
      }
    }
  }

  // Plain and delta have no encoded-eval path.
  for (Encoding enc : {Encoding::kPlain, Encoding::kDeltaVarint}) {
    std::vector<Value> values = MakePattern(DataType::kInt64, 0, 64);
    auto encoded = EncodeChunk(values, DataType::kInt64, enc);
    ASSERT_TRUE(encoded.ok());
    auto view = ParseChunk(*encoded);
    ASSERT_TRUE(view.ok());
    SelectionVector sel(64, 0);
    auto handled = EvalChunkCmp(*view, DataType::kInt64, CmpOp::kGt,
                                Value::Int(10), sel.data());
    ASSERT_TRUE(handled.ok());
    EXPECT_FALSE(handled.value());
  }
}

// ------------------------------------------------------------ Predicates

TEST(PredicateTest, EvalComparisons) {
  Row row = {Value::Int(5), Value::Str("x")};
  EXPECT_TRUE(Predicate::Cmp(0, CmpOp::kEq, Value::Int(5))->Eval(row));
  EXPECT_FALSE(Predicate::Cmp(0, CmpOp::kNe, Value::Int(5))->Eval(row));
  EXPECT_TRUE(Predicate::Cmp(0, CmpOp::kLt, Value::Int(6))->Eval(row));
  EXPECT_TRUE(Predicate::Cmp(0, CmpOp::kGe, Value::Int(5))->Eval(row));
  EXPECT_TRUE(Predicate::Cmp(1, CmpOp::kEq, Value::Str("x"))->Eval(row));
}

TEST(PredicateTest, NullNeverMatches) {
  Row row = {Value::Null(DataType::kInt64)};
  EXPECT_FALSE(Predicate::Cmp(0, CmpOp::kEq, Value::Int(5))->Eval(row));
  EXPECT_FALSE(Predicate::Cmp(0, CmpOp::kNe, Value::Int(5))->Eval(row));
  EXPECT_FALSE(Predicate::Cmp(0, CmpOp::kLt, Value::Int(5))->Eval(row));
}

TEST(PredicateTest, BooleanComposition) {
  Row row = {Value::Int(5)};
  auto lt10 = Predicate::Cmp(0, CmpOp::kLt, Value::Int(10));
  auto gt7 = Predicate::Cmp(0, CmpOp::kGt, Value::Int(7));
  EXPECT_FALSE(Predicate::And(lt10, gt7)->Eval(row));
  EXPECT_TRUE(Predicate::Or(lt10, gt7)->Eval(row));
  EXPECT_TRUE(Predicate::Not(gt7)->Eval(row));
  EXPECT_TRUE(Predicate::True()->Eval(row));
}

TEST(PredicateTest, CouldMatchPrunes) {
  // Block with col0 in [10, 20].
  std::vector<ValueRange> ranges(1);
  ranges[0].valid = true;
  ranges[0].min = Value::Int(10);
  ranges[0].max = Value::Int(20);

  EXPECT_FALSE(Predicate::Cmp(0, CmpOp::kEq, Value::Int(5))->CouldMatch(ranges));
  EXPECT_TRUE(Predicate::Cmp(0, CmpOp::kEq, Value::Int(15))->CouldMatch(ranges));
  EXPECT_FALSE(Predicate::Cmp(0, CmpOp::kLt, Value::Int(10))->CouldMatch(ranges));
  EXPECT_TRUE(Predicate::Cmp(0, CmpOp::kLe, Value::Int(10))->CouldMatch(ranges));
  EXPECT_FALSE(Predicate::Cmp(0, CmpOp::kGt, Value::Int(20))->CouldMatch(ranges));
  EXPECT_TRUE(Predicate::Cmp(0, CmpOp::kGe, Value::Int(20))->CouldMatch(ranges));
}

TEST(PredicateTest, CouldMatchConservativeOnInvalidRange) {
  std::vector<ValueRange> ranges(1);  // Invalid: no stats.
  EXPECT_TRUE(Predicate::Cmp(0, CmpOp::kEq, Value::Int(5))->CouldMatch(ranges));
  // NOT is never used for pruning (no interval complement logic).
  std::vector<ValueRange> valid(1);
  valid[0].valid = true;
  valid[0].min = Value::Int(1);
  valid[0].max = Value::Int(1);
  EXPECT_TRUE(Predicate::Not(Predicate::Cmp(0, CmpOp::kEq, Value::Int(1)))
                  ->CouldMatch(valid));
}

TEST(PredicateTest, AndOrRangeAnalysis) {
  std::vector<ValueRange> ranges(2);
  ranges[0].valid = true;
  ranges[0].min = Value::Int(10);
  ranges[0].max = Value::Int(20);
  ranges[1].valid = true;
  ranges[1].min = Value::Int(0);
  ranges[1].max = Value::Int(5);

  auto a = Predicate::Cmp(0, CmpOp::kGe, Value::Int(15));  // Possible.
  auto b = Predicate::Cmp(1, CmpOp::kGt, Value::Int(9));   // Impossible.
  EXPECT_FALSE(Predicate::And(a, b)->CouldMatch(ranges));
  EXPECT_TRUE(Predicate::Or(a, b)->CouldMatch(ranges));
}

TEST(PredicateTest, CollectColumns) {
  auto p = Predicate::And(Predicate::Cmp(2, CmpOp::kEq, Value::Int(1)),
                          Predicate::Or(Predicate::Cmp(5, CmpOp::kLt,
                                                       Value::Int(9)),
                                        Predicate::True()));
  std::set<size_t> cols;
  p->CollectColumns(&cols);
  EXPECT_EQ(cols, (std::set<size_t>{2, 5}));
}

// --------------------------------------------------------- Delete vector

TEST(DeleteVectorTest, NormalizesAndQueries) {
  DeleteVector dv({5, 1, 5, 3});
  EXPECT_EQ(dv.count(), 3u);
  EXPECT_TRUE(dv.IsDeleted(1));
  EXPECT_TRUE(dv.IsDeleted(3));
  EXPECT_TRUE(dv.IsDeleted(5));
  EXPECT_FALSE(dv.IsDeleted(2));
}

TEST(DeleteVectorTest, SerializeRoundTrip) {
  DeleteVector dv({1, 100, 100000, 1ULL << 40});
  auto parsed = DeleteVector::Deserialize(dv.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->positions(), dv.positions());
}

TEST(DeleteVectorTest, DetectsCorruption) {
  std::string data = DeleteVector({1, 2, 3}).Serialize();
  data[data.size() / 2] ^= 0x10;
  EXPECT_TRUE(DeleteVector::Deserialize(data).status().IsCorruption());
}

TEST(DeleteVectorTest, UnionMerges) {
  DeleteVector a({1, 3}), b({3, 7});
  a.Union(b);
  EXPECT_EQ(a.positions(), (std::vector<uint64_t>{1, 3, 7}));
}

// ------------------------------------------------------------------ Sort

TEST(SortTest, SortAndCheck) {
  std::vector<Row> rows = {{Value::Int(3), Value::Str("c")},
                           {Value::Int(1), Value::Str("a")},
                           {Value::Int(2), Value::Str("b")}};
  EXPECT_FALSE(IsSortedBy(rows, {0}));
  SortRowsBy(&rows, {0});
  EXPECT_TRUE(IsSortedBy(rows, {0}));
  EXPECT_EQ(rows[0][1].str_value(), "a");
}

TEST(SortTest, MergeSortedRuns) {
  std::vector<std::vector<Row>> runs = {
      {{Value::Int(1)}, {Value::Int(4)}, {Value::Int(9)}},
      {{Value::Int(2)}, {Value::Int(3)}},
      {},
      {{Value::Int(0)}}};
  std::vector<Row> merged = MergeSortedRuns(std::move(runs), {0});
  ASSERT_EQ(merged.size(), 6u);
  EXPECT_TRUE(IsSortedBy(merged, {0}));
  EXPECT_EQ(merged.front()[0].int_value(), 0);
  EXPECT_EQ(merged.back()[0].int_value(), 9);
}

// ------------------------------------------------------------------- ROS

class RosTest : public ::testing::Test {
 protected:
  RosTest()
      : schema_({{"id", DataType::kInt64},
                 {"price", DataType::kDouble},
                 {"tag", DataType::kString}}),
        fetcher_(&store_) {}

  std::vector<Row> MakeRows(size_t n) {
    std::vector<Row> rows;
    for (size_t i = 0; i < n; ++i) {
      rows.push_back(Row{Value::Int(static_cast<int64_t>(i)),
                         Value::Dbl(i * 1.5),
                         Value::Str("t" + std::to_string(i % 7))});
    }
    return rows;
  }

  void WriteContainer(const std::vector<Row>& rows, uint64_t rows_per_block) {
    RosWriteOptions opts;
    opts.rows_per_block = rows_per_block;
    auto built = RosContainerWriter::Build(schema_, rows, opts);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    build_ = std::move(built).value();
    ASSERT_TRUE(store_.Put("data/test", build_.data).ok());
  }

  Schema schema_;
  MemObjectStore store_;
  DirectFetcher fetcher_;
  RosBuildResult build_;
};

TEST_F(RosTest, RoundTripAllColumns) {
  std::vector<Row> rows = MakeRows(1000);
  WriteContainer(rows, 128);
  EXPECT_EQ(build_.row_count, 1000u);
  EXPECT_EQ(build_.total_bytes, build_.data.size());
  // One object per container: nothing but the base key is stored.
  auto listed = store_.List("data/");
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 1u);
  EXPECT_EQ((*listed)[0].key, "data/test");

  RosScanOptions scan;
  scan.output_columns = {0, 1, 2};
  auto out = ScanRows(schema_, "data/test", &fetcher_, scan);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 1000u);
  for (size_t i = 0; i < 1000; ++i) {
    EXPECT_EQ((*out)[i][0].int_value(), static_cast<int64_t>(i));
    EXPECT_DOUBLE_EQ((*out)[i][1].dbl_value(), i * 1.5);
  }
}

TEST_F(RosTest, ColumnStoreDecodesOnlyNeededColumns) {
  WriteContainer(MakeRows(500), 100);
  RosScanOptions scan;
  scan.output_columns = {1};  // Only "price".
  RosScanStats stats;
  auto out = ScanRows(schema_, "data/test", &fetcher_, scan, &stats);
  ASSERT_TRUE(out.ok());
  // One whole-object fetch per container; only the price section is
  // decoded (true column store, Section 2.3).
  EXPECT_EQ(stats.files_fetched, 1u);
  EXPECT_EQ(stats.bytes_fetched, build_.total_bytes);
  EXPECT_EQ(stats.values_decoded, 500u);
}

TEST_F(RosTest, BlockPruningViaMinMax) {
  WriteContainer(MakeRows(1000), 100);  // 10 blocks, ids 0..999 sorted.
  RosScanOptions scan;
  scan.output_columns = {0};
  scan.predicate = Predicate::Cmp(0, CmpOp::kGe, Value::Int(950));
  RosScanStats stats;
  auto out = ScanRows(schema_, "data/test", &fetcher_, scan, &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 50u);
  EXPECT_EQ(stats.blocks_total, 10u);
  EXPECT_EQ(stats.blocks_pruned, 9u);  // Only the last block can match.
}

TEST_F(RosTest, DeleteVectorFiltersRows) {
  WriteContainer(MakeRows(100), 50);
  DeleteVector dv({0, 1, 2, 99});
  RosScanOptions scan;
  scan.output_columns = {0};
  scan.deletes = &dv;
  auto out = ScanRows(schema_, "data/test", &fetcher_, scan);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 96u);
  EXPECT_EQ((*out)[0][0].int_value(), 3);
}

TEST_F(RosTest, RowRangeRestriction) {
  WriteContainer(MakeRows(100), 10);
  RosScanOptions scan;
  scan.output_columns = {0};
  scan.row_begin = 25;
  scan.row_end = 75;
  auto out = ScanRows(schema_, "data/test", &fetcher_, scan);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 50u);
  EXPECT_EQ((*out)[0][0].int_value(), 25);
  EXPECT_EQ(out->back()[0].int_value(), 74);
}

TEST_F(RosTest, ContainerRangesCoverData) {
  WriteContainer(MakeRows(100), 64);
  ASSERT_EQ(build_.column_ranges.size(), 3u);
  EXPECT_EQ(build_.column_ranges[0].min.int_value(), 0);
  EXPECT_EQ(build_.column_ranges[0].max.int_value(), 99);
}

// Every single-bit flip and every truncation of a container object must
// surface as Corruption, from a scan that decodes every column and from
// the DELETE path's position search over every column: never OK, never an
// out-of-bounds read. The bytes come from shared storage, outside the
// program.
TEST_F(RosTest, EveryBitFlipAndTruncationIsCorruption) {
  WriteContainer(MakeRows(20), 10);  // 3 columns x 2 blocks.
  const std::string good = build_.data;
  RosScanOptions scan;
  scan.output_columns = {0, 1, 2};
  // Reads every column and admits every block's min/max.
  const PredicatePtr all_columns = Predicate::Or(
      Predicate::Or(Predicate::Cmp(0, CmpOp::kGe, Value::Int(0)),
                    Predicate::Cmp(1, CmpOp::kGe, Value::Dbl(0.0))),
      Predicate::Cmp(2, CmpOp::kGe, Value::Str("")));

  size_t cases = 0;
  size_t failures = 0;
  auto expect_corruption = [&](const std::string& bad,
                               const std::string& what) {
    ++cases;
    MemObjectStore store;
    ASSERT_TRUE(store.Put("data/bad", bad).ok());
    DirectFetcher fetcher(&store);
    auto rows = ScanRows(schema_, "data/bad", &fetcher, scan);
    auto positions =
        FindMatchingPositions(schema_, "data/bad", &fetcher, all_columns);
    if (!rows.status().IsCorruption() || !positions.status().IsCorruption()) {
      if (++failures <= 10) {
        ADD_FAILURE() << what << ": scan " << rows.status().ToString()
                      << ", positions " << positions.status().ToString();
      }
    }
  };

  // The intact object reads back whole.
  {
    auto rows = ScanRows(schema_, "data/test", &fetcher_, scan);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows->size(), 20u);
    auto positions =
        FindMatchingPositions(schema_, "data/test", &fetcher_, all_columns);
    ASSERT_TRUE(positions.ok()) << positions.status().ToString();
    EXPECT_EQ(positions->size(), 20u);
  }
  for (size_t i = 0; i < good.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = good;
      bad[i] = static_cast<char>(bad[i] ^ (1 << bit));
      expect_corruption(bad, "flip byte " + std::to_string(i) + " bit " +
                                 std::to_string(bit));
    }
  }
  for (size_t len = 0; len < good.size(); ++len) {
    expect_corruption(good.substr(0, len),
                      "truncate to " + std::to_string(len));
  }
  EXPECT_EQ(failures, 0u);
  printf("corruption cases tried: %zu (%zu-byte object)\n", cases,
         good.size());
}

// Directories whose checksum is intact but whose contents do not fit the
// object or the schema: a single bit flip cannot produce these, so they
// are built by rewriting the directory and its CRC.
TEST_F(RosTest, MalformedDirectoryIsCorruption) {
  WriteContainer(MakeRows(20), 10);
  const std::string& good = build_.data;
  Slice tail(good.data() + good.size() - 12, 12);
  uint64_t dir_len = 0;
  ASSERT_TRUE(GetFixed64(&tail, &dir_len).ok());
  const size_t data_end = good.size() - 12 - dir_len;
  Slice dir(good.data() + data_end, dir_len - 4);
  uint64_t count = 0;
  ASSERT_TRUE(GetVarint64(&dir, &count).ok());
  ASSERT_EQ(count, 3u);
  std::vector<std::pair<uint64_t, uint64_t>> sections(count);
  for (auto& [offset, length] : sections) {
    ASSERT_TRUE(GetVarint64(&dir, &offset).ok());
    ASSERT_TRUE(GetVarint64(&dir, &length).ok());
  }
  auto with_directory =
      [&](uint64_t n, const std::vector<std::pair<uint64_t, uint64_t>>& secs) {
        std::string obj = good.substr(0, data_end);
        std::string d;
        PutVarint64(&d, n);
        for (const auto& [offset, length] : secs) {
          PutVarint64(&d, offset);
          PutVarint64(&d, length);
        }
        PutFixed32(&d, Crc32c(d.data(), d.size()));
        obj += d;
        PutFixed64(&obj, d.size());
        obj += good.substr(good.size() - 4);  // Container magic.
        return obj;
      };
  RosScanOptions scan;
  scan.output_columns = {0, 1, 2};
  auto scan_status = [&](const std::string& obj) {
    MemObjectStore store;
    EXPECT_TRUE(store.Put("data/bad", obj).ok());
    DirectFetcher fetcher(&store);
    return ScanRows(schema_, "data/bad", &fetcher, scan).status();
  };

  // The rewrite itself is faithful.
  EXPECT_TRUE(scan_status(with_directory(count, sections)).ok());
  // Column count disagrees with the schema.
  EXPECT_TRUE(scan_status(with_directory(2, {sections[0], sections[1]}))
                  .IsCorruption());
  // A section runs past the data region, or starts beyond it, or its
  // offset + length wraps around.
  auto moved = sections;
  moved[2].second += 1;
  EXPECT_TRUE(scan_status(with_directory(count, moved)).IsCorruption());
  moved = sections;
  moved[1].first = data_end + 1;
  EXPECT_TRUE(scan_status(with_directory(count, moved)).IsCorruption());
  moved = sections;
  moved[1].second = UINT64_MAX - moved[1].first + 2;
  EXPECT_TRUE(scan_status(with_directory(count, moved)).IsCorruption());
  // An empty section has no trailer.
  moved = sections;
  moved[0] = {0, 0};
  EXPECT_TRUE(scan_status(with_directory(count, moved)).IsCorruption());
}

TEST_F(RosTest, FindMatchingPositions) {
  WriteContainer(MakeRows(100), 25);
  auto pred = Predicate::Cmp(0, CmpOp::kLt, Value::Int(10));
  auto positions =
      FindMatchingPositions(schema_, "data/test", &fetcher_, pred);
  ASSERT_TRUE(positions.ok());
  ASSERT_EQ(positions->size(), 10u);
  EXPECT_EQ((*positions)[9], 9u);

  DeleteVector dv({0, 5});
  auto remaining =
      FindMatchingPositions(schema_, "data/test", &fetcher_, pred, &dv);
  ASSERT_TRUE(remaining.ok());
  EXPECT_EQ(remaining->size(), 8u);
}

// Rows exercising every encoding in one container: id sorted (delta),
// price with nulls (plain), tag low-cardinality (dict).
std::vector<Row> MakeMixedRows(size_t n) {
  Random rng(123);
  std::vector<Row> rows;
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(
        Row{Value::Int(static_cast<int64_t>(i)),
            rng.Bernoulli(0.1) ? Value::Null(DataType::kDouble)
                               : Value::Dbl(rng.NextDouble() * 100),
            Value::Str("t" + std::to_string(i * 7919 % 5))});
  }
  return rows;
}

// The scan against a row-at-a-time oracle computed from the source rows:
// Predicate::Eval, the delete vector and the [row_begin, row_end) range.
TEST_F(RosTest, ScanMatchesRowOracle) {
  std::vector<Row> rows = MakeMixedRows(1000);
  WriteContainer(rows, 128);
  DeleteVector dv({3, 128, 129, 777});
  constexpr uint64_t kBegin = 5;
  constexpr uint64_t kEnd = 990;
  const std::vector<size_t> out_cols = {2, 0, 1};

  const std::vector<PredicatePtr> predicates = {
      Predicate::Cmp(2, CmpOp::kEq, Value::Str("t3")),
      Predicate::And(Predicate::Cmp(2, CmpOp::kNe, Value::Str("t1")),
                     Predicate::Cmp(0, CmpOp::kLt, Value::Int(700))),
      Predicate::Or(Predicate::Cmp(1, CmpOp::kLt, Value::Dbl(10.0)),
                    Predicate::Cmp(0, CmpOp::kGe, Value::Int(950))),
      Predicate::Not(Predicate::Cmp(2, CmpOp::kEq, Value::Str("t2"))),
      Predicate::True(),
      // Column-free and false: the full-decode loop must still apply it.
      Predicate::Not(Predicate::True()),
  };
  for (size_t p = 0; p < predicates.size(); ++p) {
    std::vector<Row> expect;
    for (uint64_t i = kBegin; i < kEnd; ++i) {
      if (dv.IsDeleted(i) || !predicates[p]->Eval(rows[i])) continue;
      Row row;
      for (size_t c : out_cols) row.push_back(rows[i][c]);
      expect.push_back(std::move(row));
    }

    RosScanOptions scan;
    scan.output_columns = out_cols;
    scan.predicate = predicates[p];
    scan.deletes = &dv;
    scan.row_begin = kBegin;
    scan.row_end = kEnd;
    RosScanStats stats;
    auto out = ScanRows(schema_, "data/test", &fetcher_, scan, &stats);
    ASSERT_TRUE(out.ok()) << "predicate " << p << ": "
                          << out.status().ToString();
    ASSERT_EQ(out->size(), expect.size()) << "predicate " << p;
    for (size_t r = 0; r < expect.size(); ++r) {
      ASSERT_EQ((*out)[r].size(), expect[r].size());
      for (size_t c = 0; c < expect[r].size(); ++c) {
        ASSERT_EQ((*out)[r][c].is_null(), expect[r][c].is_null())
            << "predicate " << p << " row " << r << " col " << c;
        ASSERT_EQ((*out)[r][c].Compare(expect[r][c]), 0)
            << "predicate " << p << " row " << r << " col " << c;
      }
    }
    EXPECT_EQ(stats.rows_output, expect.size()) << "predicate " << p;
  }
}

TEST_F(RosTest, LateMatDecodesFewerValuesOnSelectivePredicate) {
  const std::vector<Row> rows = MakeMixedRows(2000);
  WriteContainer(rows, 256);
  RosScanOptions scan;
  scan.output_columns = {0, 1};
  scan.predicate = Predicate::Cmp(2, CmpOp::kEq, Value::Str("t4"));  // 1/5.

  RosScanStats stats;
  ASSERT_TRUE(
      ScanRows(schema_, "data/test", &fetcher_, scan, &stats).ok());
  EXPECT_EQ(stats.rows_output, rows.size() / 5);
  // Decoding every output value of every row is the full-decode count.
  const uint64_t full_decode = rows.size() * scan.output_columns.size();
  EXPECT_GT(stats.values_decoded, 0u);
  EXPECT_LT(stats.values_decoded, full_decode);
}

TEST_F(RosTest, NothingSurvivingDecodesNoOutputColumn) {
  WriteContainer(MakeRows(500), 100);
  RosScanOptions scan;
  scan.output_columns = {1, 2};
  // Passes min/max analysis on every block but matches no row.
  scan.predicate =
      Predicate::And(Predicate::Cmp(0, CmpOp::kGe, Value::Int(10)),
                     Predicate::Cmp(0, CmpOp::kLt, Value::Int(10)));
  RosScanStats stats;
  auto out = ScanRows(schema_, "data/test", &fetcher_, scan, &stats);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(out->empty());
  // Blocks 1..4 are refuted by min/max (id >= 100 > 10); block 0's range
  // [0,99] admits both halves, so only evaluation can empty it.
  EXPECT_EQ(stats.blocks_pruned, 4u);
  EXPECT_EQ(stats.files_fetched, 1u);

  // All decode work is phase 1's: outputting only the predicate column
  // costs exactly the same.
  RosScanOptions pred_only = scan;
  pred_only.output_columns = {0};
  RosScanStats base;
  ASSERT_TRUE(
      ScanRows(schema_, "data/test", &fetcher_, pred_only, &base)
          .ok());
  EXPECT_EQ(stats.values_decoded, base.values_decoded);
  EXPECT_EQ(stats.values_unpacked, base.values_unpacked);

  // A matching predicate decodes the output columns of its survivors from
  // the same one object.
  scan.predicate = Predicate::Cmp(0, CmpOp::kLt, Value::Int(10));
  RosScanStats hit;
  ASSERT_TRUE(
      ScanRows(schema_, "data/test", &fetcher_, scan, &hit).ok());
  EXPECT_EQ(hit.files_fetched, 1u);
  EXPECT_EQ(hit.rows_output, 10u);
}

TEST_F(RosTest, FindMatchingPositionsMatchesRowWiseScan) {
  std::vector<Row> rows = MakeMixedRows(800);
  WriteContainer(rows, 64);
  DeleteVector dv({10, 11, 500});
  const auto pred =
      Predicate::Or(Predicate::Cmp(2, CmpOp::kEq, Value::Str("t0")),
                    Predicate::Cmp(1, CmpOp::kGt, Value::Dbl(95.0)));
  auto positions =
      FindMatchingPositions(schema_, "data/test", &fetcher_, pred, &dv);
  ASSERT_TRUE(positions.ok());
  std::vector<uint64_t> expect;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (dv.IsDeleted(i)) continue;
    if (pred->Eval(rows[i])) expect.push_back(i);
  }
  EXPECT_EQ(*positions, expect);
}

TEST_F(RosTest, EmptyContainer) {
  WriteContainer({}, 10);
  EXPECT_EQ(build_.row_count, 0u);
  RosScanOptions scan;
  scan.output_columns = {0, 1, 2};
  auto out = ScanRows(schema_, "data/test", &fetcher_, scan);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

TEST_F(RosTest, RejectsMismatchedRows) {
  std::vector<Row> bad = {{Value::Int(1)}};  // Wrong arity.
  EXPECT_TRUE(RosContainerWriter::Build(schema_, bad)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace eon
