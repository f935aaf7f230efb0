#include "columnar/encoding.h"

#include <algorithm>
#include <map>

#include "columnar/kernels.h"
#include "columnar/value_codec.h"
#include "common/codec.h"

namespace eon {

const char* EncodingName(Encoding e) {
  switch (e) {
    case Encoding::kPlain: return "plain";
    case Encoding::kRle: return "rle";
    case Encoding::kDict: return "dict";
    case Encoding::kDeltaVarint: return "delta";
    case Encoding::kBitPacked: return "bitpacked";
  }
  return "?";
}

namespace {

// ---- SIMD-BP128-style bit packing ----------------------------------------

constexpr size_t kBpBlockLen = 128;

/// Bits needed to store `range` (0 for a constant block).
inline int BitWidth64(uint64_t range) {
  return range == 0 ? 0 : 64 - __builtin_clzll(range);
}

inline uint64_t WidthMask(int width) {
  return width >= 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
}

/// Appends ceil(len*width/8) bytes: each value's low `width` bits,
/// LSB-first across the byte stream. The 128-bit accumulator keeps the
/// width-64 case shift-safe.
void PackBits(const uint64_t* vals, size_t len, int width, std::string* out) {
  if (width == 0) return;
  unsigned __int128 acc = 0;
  int nbits = 0;
  for (size_t i = 0; i < len; ++i) {
    acc |= static_cast<unsigned __int128>(vals[i]) << nbits;
    nbits += width;
    while (nbits >= 8) {
      out->push_back(static_cast<char>(static_cast<uint8_t>(acc)));
      acc >>= 8;
      nbits -= 8;
    }
  }
  if (nbits > 0) out->push_back(static_cast<char>(static_cast<uint8_t>(acc)));
}

/// Reads ceil(len*width/8) bytes from `in` and reconstructs
/// out[i] = min + packed[i] (wraparound add, mirroring the encoder's
/// wraparound subtract).
Status UnpackBits(Slice* in, size_t len, int width, int64_t min,
                  int64_t* out) {
  if (width == 0) {
    std::fill(out, out + len, min);
    return Status::OK();
  }
  const size_t nbytes = (len * static_cast<size_t>(width) + 7) / 8;
  if (in->size() < nbytes) {
    return Status::Corruption("bit-packed block truncated");
  }
  const uint8_t* p = reinterpret_cast<const uint8_t*>(in->data());
  const uint64_t mask = WidthMask(width);
  unsigned __int128 acc = 0;
  int navail = 0;
  size_t consumed = 0;
  for (size_t i = 0; i < len; ++i) {
    while (navail < width) {
      acc |= static_cast<unsigned __int128>(p[consumed++]) << navail;
      navail += 8;
    }
    const uint64_t d = static_cast<uint64_t>(acc) & mask;
    acc >>= width;
    navail -= width;
    out[i] = static_cast<int64_t>(static_cast<uint64_t>(min) + d);
  }
  in->remove_prefix(nbytes);
  return Status::OK();
}

Status EncodeBitPacked(const std::vector<Value>& values, std::string* out) {
  std::vector<int64_t> nonnull;
  nonnull.reserve(values.size());
  bool any_null = false;
  for (const Value& v : values) {
    if (v.is_null()) {
      any_null = true;
      continue;
    }
    if (v.type() != DataType::kInt64) {
      return Status::InvalidArgument("bit-packed encoding needs int64");
    }
    nonnull.push_back(v.int_value());
  }
  PutVarint64(out, nonnull.size());
  if (any_null) {
    std::string bitmap((values.size() + 7) / 8, '\0');
    for (size_t i = 0; i < values.size(); ++i) {
      if (!values[i].is_null()) {
        bitmap[i >> 3] = static_cast<char>(
            static_cast<uint8_t>(bitmap[i >> 3]) | (1u << (i & 7)));
      }
    }
    out->append(bitmap);
  }
  uint64_t deltas[kBpBlockLen];
  for (size_t b = 0; b < nonnull.size(); b += kBpBlockLen) {
    const size_t len = std::min(kBpBlockLen, nonnull.size() - b);
    int64_t mn = nonnull[b];
    int64_t mx = nonnull[b];
    for (size_t j = 1; j < len; ++j) {
      mn = std::min(mn, nonnull[b + j]);
      mx = std::max(mx, nonnull[b + j]);
    }
    const int width =
        BitWidth64(static_cast<uint64_t>(mx) - static_cast<uint64_t>(mn));
    PutVarint64Signed(out, mn);
    out->push_back(static_cast<char>(width));
    for (size_t j = 0; j < len; ++j) {
      deltas[j] =
          static_cast<uint64_t>(nonnull[b + j]) - static_cast<uint64_t>(mn);
    }
    PackBits(deltas, len, width, out);
  }
  return Status::OK();
}

/// Parses the [n_valid][bitmap] prefix. `validbyte` comes back empty when
/// the chunk has no nulls (n_valid == count).
Status ParseBitPackedPrefix(Slice* in, uint64_t count, uint64_t* n_valid,
                            std::vector<uint8_t>* validbyte) {
  EON_RETURN_IF_ERROR(GetVarint64(in, n_valid));
  if (*n_valid > count) {
    return Status::Corruption("bit-packed valid count overflow");
  }
  if (*n_valid == count) return Status::OK();
  const size_t nbytes = (count + 7) / 8;
  if (in->size() < nbytes) {
    return Status::Corruption("bit-packed bitmap truncated");
  }
  const uint8_t* bm = reinterpret_cast<const uint8_t*>(in->data());
  validbyte->resize(count);
  uint64_t seen = 0;
  for (uint64_t i = 0; i < count; ++i) {
    (*validbyte)[i] = (bm[i >> 3] >> (i & 7)) & 1;
    seen += (*validbyte)[i];
  }
  if (seen != *n_valid) {
    return Status::Corruption("bit-packed bitmap mismatch");
  }
  in->remove_prefix(nbytes);
  return Status::OK();
}

Status DecodeBitPackedSelected(Slice* in, DataType type, uint64_t count,
                               const uint8_t* sel, ColumnBatch* out,
                               uint64_t* decoded, uint64_t* unpacked) {
  if (type != DataType::kInt64) {
    return Status::Corruption("bit-packed chunk on non-int64 column");
  }
  uint64_t n_valid = 0;
  std::vector<uint8_t> validbyte;
  EON_RETURN_IF_ERROR(ParseBitPackedPrefix(in, count, &n_valid, &validbyte));
  auto is_valid = [&](uint64_t i) {
    return validbyte.empty() || validbyte[i] != 0;
  };
  int64_t buf[kBpBlockLen];
  uint64_t row = 0;
  for (uint64_t block = 0; block < n_valid; block += kBpBlockLen) {
    const size_t len = static_cast<size_t>(
        std::min<uint64_t>(kBpBlockLen, n_valid - block));
    // The rows whose packed values live in this block form a contiguous
    // span; walk it once to learn whether any selected row needs the
    // block's values.
    const uint64_t span_begin = row;
    size_t consumed = 0;
    bool demand = false;
    while (row < count && consumed < len) {
      if (is_valid(row)) {
        ++consumed;
        if (sel == nullptr || sel[row]) demand = true;
      }
      ++row;
    }
    if (consumed < len) {
      return Status::Corruption("bit-packed bitmap short");
    }
    int64_t mn;
    EON_RETURN_IF_ERROR(GetVarint64Signed(in, &mn));
    if (in->empty()) return Status::Corruption("bit-packed width truncated");
    const int width = static_cast<uint8_t>((*in)[0]);
    in->remove_prefix(1);
    if (width > 64) return Status::Corruption("bit-packed width out of range");
    if (demand) {
      EON_RETURN_IF_ERROR(UnpackBits(in, len, width, mn, buf));
      if (unpacked != nullptr) *unpacked += len;
      size_t j = 0;
      for (uint64_t r = span_begin; r < row; ++r) {
        if (is_valid(r)) {
          if (sel == nullptr || sel[r]) {
            out->AppendInt(buf[j]);
            ++*decoded;
          }
          ++j;
        } else if (sel == nullptr || sel[r]) {
          out->AppendNull();
          ++*decoded;
        }
      }
    } else {
      // Nothing selected maps into this block: skip its packed bytes
      // without unpacking. Selected null rows in the span still emit.
      const size_t nbytes = (len * static_cast<size_t>(width) + 7) / 8;
      if (in->size() < nbytes) {
        return Status::Corruption("bit-packed block truncated");
      }
      in->remove_prefix(nbytes);
      for (uint64_t r = span_begin; r < row; ++r) {
        if (!is_valid(r) && (sel == nullptr || sel[r])) {
          out->AppendNull();
          ++*decoded;
        }
      }
    }
  }
  // Any remaining rows are all null (their packed stream is exhausted).
  for (; row < count; ++row) {
    if (is_valid(row)) {
      return Status::Corruption("bit-packed value without block");
    }
    if (sel == nullptr || sel[row]) {
      out->AppendNull();
      ++*decoded;
    }
  }
  return Status::OK();
}

/// Interval screen for one bit-packed block: every value lies in
/// [min, hi]. Returns 1 when the whole interval satisfies the comparison,
/// -1 when no point of it can, 0 when mixed.
int BitPackedBlockVerdict(CmpOp op, int64_t mn, int64_t hi, int64_t lit) {
  switch (op) {
    case CmpOp::kEq:
      if (mn == lit && hi == lit) return 1;
      if (lit < mn || lit > hi) return -1;
      return 0;
    case CmpOp::kNe:
      if (lit < mn || lit > hi) return 1;
      if (mn == lit && hi == lit) return -1;
      return 0;
    case CmpOp::kLt:
      if (hi < lit) return 1;
      if (mn >= lit) return -1;
      return 0;
    case CmpOp::kLe:
      if (hi <= lit) return 1;
      if (mn > lit) return -1;
      return 0;
    case CmpOp::kGt:
      if (mn > lit) return 1;
      if (hi <= lit) return -1;
      return 0;
    case CmpOp::kGe:
      if (mn >= lit) return 1;
      if (hi < lit) return -1;
      return 0;
  }
  return 0;
}

void EncodePlain(const std::vector<Value>& values, std::string* out) {
  for (const Value& v : values) PutValue(out, v);
}

Status DecodePlain(Slice* in, DataType type, uint64_t count,
                   std::vector<Value>* out) {
  for (uint64_t i = 0; i < count; ++i) {
    Value v;
    EON_RETURN_IF_ERROR(GetValue(in, type, &v));
    out->push_back(std::move(v));
  }
  return Status::OK();
}

void EncodeRle(const std::vector<Value>& values, std::string* out) {
  size_t i = 0;
  while (i < values.size()) {
    size_t j = i + 1;
    while (j < values.size() && values[j] == values[i]) ++j;
    PutVarint64(out, j - i);
    PutValue(out, values[i]);
    i = j;
  }
}

Status DecodeRle(Slice* in, DataType type, uint64_t count,
                 std::vector<Value>* out) {
  uint64_t produced = 0;
  while (produced < count) {
    uint64_t run;
    EON_RETURN_IF_ERROR(GetVarint64(in, &run));
    if (run == 0 || produced + run > count) {
      return Status::Corruption("RLE run overflow");
    }
    Value v;
    EON_RETURN_IF_ERROR(GetValue(in, type, &v));
    for (uint64_t k = 0; k < run; ++k) out->push_back(v);
    produced += run;
  }
  return Status::OK();
}

void EncodeDict(const std::vector<Value>& values, std::string* out) {
  // Codes: 0 = NULL, k>0 = dictionary entry k-1.
  std::map<Value, uint32_t> dict;  // Value has operator<.
  std::vector<Value> entries;
  std::vector<uint32_t> codes;
  codes.reserve(values.size());
  for (const Value& v : values) {
    if (v.is_null()) {
      codes.push_back(0);
      continue;
    }
    auto [it, inserted] =
        dict.emplace(v, static_cast<uint32_t>(entries.size() + 1));
    if (inserted) entries.push_back(v);
    codes.push_back(it->second);
  }
  PutVarint64(out, entries.size());
  for (const Value& v : entries) PutValue(out, v);
  for (uint32_t c : codes) PutVarint32(out, c);
}

Status DecodeDict(Slice* in, DataType type, uint64_t count,
                  std::vector<Value>* out) {
  uint64_t dict_size;
  EON_RETURN_IF_ERROR(GetVarint64(in, &dict_size));
  std::vector<Value> entries;
  entries.reserve(dict_size);
  for (uint64_t i = 0; i < dict_size; ++i) {
    Value v;
    EON_RETURN_IF_ERROR(GetValue(in, type, &v));
    entries.push_back(std::move(v));
  }
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t code;
    EON_RETURN_IF_ERROR(GetVarint32(in, &code));
    if (code == 0) {
      out->push_back(Value::Null(type));
    } else if (code <= entries.size()) {
      out->push_back(entries[code - 1]);
    } else {
      return Status::Corruption("dictionary code out of range");
    }
  }
  return Status::OK();
}

Status EncodeDelta(const std::vector<Value>& values, std::string* out) {
  int64_t prev = 0;
  for (const Value& v : values) {
    if (v.is_null() || v.type() != DataType::kInt64) {
      return Status::InvalidArgument("delta encoding needs non-null int64");
    }
    PutVarint64Signed(out, v.int_value() - prev);
    prev = v.int_value();
  }
  return Status::OK();
}

Status DecodeDelta(Slice* in, uint64_t count, std::vector<Value>* out) {
  int64_t prev = 0;
  for (uint64_t i = 0; i < count; ++i) {
    int64_t delta;
    EON_RETURN_IF_ERROR(GetVarint64Signed(in, &delta));
    prev += delta;
    out->push_back(Value::Int(prev));
  }
  return Status::OK();
}

/// Decodes one serialized Value straight into `out` (no Value built).
Status DecodeValueInto(Slice* in, DataType type, ColumnBatch* out) {
  if (in->empty()) return Status::Corruption("value underflow");
  const uint8_t flag = static_cast<uint8_t>((*in)[0]);
  in->remove_prefix(1);
  if (flag == 0) {
    out->AppendNull();
    return Status::OK();
  }
  switch (type) {
    case DataType::kInt64: {
      int64_t i;
      EON_RETURN_IF_ERROR(GetVarint64Signed(in, &i));
      out->AppendInt(i);
      return Status::OK();
    }
    case DataType::kDouble: {
      double d;
      EON_RETURN_IF_ERROR(GetDouble(in, &d));
      out->AppendDouble(d);
      return Status::OK();
    }
    case DataType::kString: {
      Slice str;
      EON_RETURN_IF_ERROR(GetLengthPrefixed(in, &str));
      out->AppendString(str.ToString());
      return Status::OK();
    }
  }
  return Status::Corruption("unknown data type");
}

Status DecodePlainSelected(Slice* in, DataType type, uint64_t count,
                           const uint8_t* sel, ColumnBatch* out,
                           uint64_t* decoded) {
  for (uint64_t i = 0; i < count; ++i) {
    if (sel != nullptr && !sel[i]) {
      EON_RETURN_IF_ERROR(SkipValue(in, type));
      continue;
    }
    EON_RETURN_IF_ERROR(DecodeValueInto(in, type, out));
    ++*decoded;
  }
  return Status::OK();
}

Status DecodeRleSelected(Slice* in, DataType type, uint64_t count,
                         const uint8_t* sel, ColumnBatch* out,
                         uint64_t* decoded) {
  uint64_t produced = 0;
  while (produced < count) {
    uint64_t run;
    EON_RETURN_IF_ERROR(GetVarint64(in, &run));
    if (run == 0 || produced + run > count) {
      return Status::Corruption("RLE run overflow");
    }
    Value v;
    EON_RETURN_IF_ERROR(GetValue(in, type, &v));
    ++*decoded;  // One parse per run, however long the run is.
    for (uint64_t k = 0; k < run; ++k) {
      if (sel == nullptr || sel[produced + k]) {
        out->AppendValue(v);
        ++*decoded;
      }
    }
    produced += run;
  }
  return Status::OK();
}

Status DecodeDictSelected(Slice* in, DataType type, uint64_t count,
                          const uint8_t* sel, ColumnBatch* out,
                          uint64_t* decoded) {
  uint64_t dict_size;
  EON_RETURN_IF_ERROR(GetVarint64(in, &dict_size));
  std::vector<Value> entries;
  entries.reserve(dict_size);
  for (uint64_t i = 0; i < dict_size; ++i) {
    Value v;
    EON_RETURN_IF_ERROR(GetValue(in, type, &v));
    entries.push_back(std::move(v));
    ++*decoded;
  }
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t code;
    EON_RETURN_IF_ERROR(GetVarint32(in, &code));
    if (sel != nullptr && !sel[i]) continue;
    if (code == 0) {
      out->AppendNull();
    } else if (code <= entries.size()) {
      out->AppendValue(entries[code - 1]);
    } else {
      return Status::Corruption("dictionary code out of range");
    }
    ++*decoded;
  }
  return Status::OK();
}

Status DecodeDeltaSelected(Slice* in, DataType type, uint64_t count,
                           const uint8_t* sel, ColumnBatch* out,
                           uint64_t* decoded) {
  if (type != DataType::kInt64) {
    return Status::Corruption("delta chunk on non-int64 column");
  }
  // Deltas chain, so every varint is read; only selected rows materialize.
  int64_t prev = 0;
  for (uint64_t i = 0; i < count; ++i) {
    int64_t delta;
    EON_RETURN_IF_ERROR(GetVarint64Signed(in, &delta));
    prev += delta;
    if (sel == nullptr || sel[i]) {
      out->AppendInt(prev);
      ++*decoded;
    }
  }
  return Status::OK();
}

}  // namespace

Result<ChunkView> ParseChunk(Slice chunk) {
  if (chunk.empty()) return Status::Corruption("empty chunk");
  const uint8_t enc_byte = static_cast<uint8_t>(chunk[0]);
  chunk.remove_prefix(1);
  if (enc_byte > static_cast<uint8_t>(Encoding::kBitPacked)) {
    return Status::Corruption("unknown encoding byte");
  }
  ChunkView view;
  view.encoding = static_cast<Encoding>(enc_byte);
  EON_RETURN_IF_ERROR(GetVarint64(&chunk, &view.count));
  view.payload = chunk;
  return view;
}

Status DecodeChunkSelected(const ChunkView& chunk, DataType type,
                           const uint8_t* sel, ColumnBatch* out,
                           uint64_t* values_decoded,
                           uint64_t* values_unpacked) {
  EON_CHECK(out->type() == type);
  uint64_t decoded = 0;
  if (sel == nullptr) out->Reserve(out->size() + chunk.count);
  Slice in = chunk.payload;
  Status s;
  switch (chunk.encoding) {
    case Encoding::kPlain:
      s = DecodePlainSelected(&in, type, chunk.count, sel, out, &decoded);
      break;
    case Encoding::kRle:
      s = DecodeRleSelected(&in, type, chunk.count, sel, out, &decoded);
      break;
    case Encoding::kDict:
      s = DecodeDictSelected(&in, type, chunk.count, sel, out, &decoded);
      break;
    case Encoding::kDeltaVarint:
      s = DecodeDeltaSelected(&in, type, chunk.count, sel, out, &decoded);
      break;
    case Encoding::kBitPacked:
      s = DecodeBitPackedSelected(&in, type, chunk.count, sel, out, &decoded,
                                  values_unpacked);
      break;
  }
  if (values_decoded != nullptr) *values_decoded += decoded;
  return s;
}

Status DecodeChunkToBatch(const ChunkView& chunk, DataType type,
                          ColumnBatch* out, uint64_t* values_unpacked) {
  out->Reset(type);
  return DecodeChunkSelected(chunk, type, nullptr, out, nullptr,
                             values_unpacked);
}

Result<bool> EvalChunkCmp(const ChunkView& chunk, DataType type, CmpOp op,
                          const Value& literal, uint8_t* sel,
                          uint64_t* values_evaluated,
                          uint64_t* values_unpacked, uint64_t* kernel_calls) {
  Slice in = chunk.payload;
  uint64_t evals = 0;
  switch (chunk.encoding) {
    case Encoding::kRle: {
      // One comparison per run; the verdict fans across the run length.
      uint64_t produced = 0;
      while (produced < chunk.count) {
        uint64_t run;
        EON_RETURN_IF_ERROR(GetVarint64(&in, &run));
        if (run == 0 || produced + run > chunk.count) {
          return Status::Corruption("RLE run overflow");
        }
        Value v;
        EON_RETURN_IF_ERROR(GetValue(&in, type, &v));
        const uint8_t verdict = CmpMatches(v, op, literal) ? 1 : 0;
        ++evals;
        std::fill(sel + produced, sel + produced + run, verdict);
        produced += run;
      }
      if (values_evaluated != nullptr) *values_evaluated += evals;
      return true;
    }
    case Encoding::kDict: {
      // One comparison per distinct entry, translated into a code-set and
      // applied to the code stream. Code 0 (NULL) never matches.
      uint64_t dict_size;
      EON_RETURN_IF_ERROR(GetVarint64(&in, &dict_size));
      std::vector<uint8_t> match(dict_size + 1, 0);
      for (uint64_t k = 0; k < dict_size; ++k) {
        Value v;
        EON_RETURN_IF_ERROR(GetValue(&in, type, &v));
        match[k + 1] = CmpMatches(v, op, literal) ? 1 : 0;
        ++evals;
      }
      for (uint64_t i = 0; i < chunk.count; ++i) {
        uint32_t code;
        EON_RETURN_IF_ERROR(GetVarint32(&in, &code));
        if (code > dict_size) {
          return Status::Corruption("dictionary code out of range");
        }
        sel[i] = match[code];
      }
      if (values_evaluated != nullptr) *values_evaluated += evals;
      return true;
    }
    case Encoding::kBitPacked: {
      // Block screening on the frame-of-reference headers: an all- or
      // none-match block costs one evaluation and its packed bytes are
      // skipped; mixed blocks unpack and run the SIMD compare kernel, with
      // verdicts scattered back to row positions through the validity
      // bitmap. NULL rows never match.
      if (type != DataType::kInt64 || literal.is_null() ||
          literal.type() != DataType::kInt64) {
        return false;  // Caller decodes and evaluates value-wise.
      }
      const int64_t lit = literal.int_value();
      uint64_t n_valid = 0;
      std::vector<uint8_t> validbyte;
      EON_RETURN_IF_ERROR(
          ParseBitPackedPrefix(&in, chunk.count, &n_valid, &validbyte));
      auto is_valid = [&](uint64_t i) {
        return validbyte.empty() || validbyte[i] != 0;
      };
      std::fill(sel, sel + chunk.count, uint8_t{0});
      int64_t buf[kBpBlockLen];
      uint8_t verdict[kBpBlockLen];
      uint64_t row = 0;
      for (uint64_t block = 0; block < n_valid; block += kBpBlockLen) {
        const size_t len = static_cast<size_t>(
            std::min<uint64_t>(kBpBlockLen, n_valid - block));
        const uint64_t span_begin = row;
        size_t consumed = 0;
        while (row < chunk.count && consumed < len) {
          if (is_valid(row)) ++consumed;
          ++row;
        }
        if (consumed < len) {
          return Status::Corruption("bit-packed bitmap short");
        }
        int64_t mn;
        EON_RETURN_IF_ERROR(GetVarint64Signed(&in, &mn));
        if (in.empty()) {
          return Status::Corruption("bit-packed width truncated");
        }
        const int width = static_cast<uint8_t>(in[0]);
        in.remove_prefix(1);
        if (width > 64) {
          return Status::Corruption("bit-packed width out of range");
        }
        // Conservative block range: [mn, mn + 2^width - 1], saturated at
        // INT64_MAX (the true max never exceeds it; the mask only widens
        // the interval).
        const uint64_t uhi = static_cast<uint64_t>(mn) + WidthMask(width);
        const int64_t hi =
            static_cast<int64_t>(uhi) < mn ? INT64_MAX
                                           : static_cast<int64_t>(uhi);
        const int screen = BitPackedBlockVerdict(op, mn, hi, lit);
        if (screen != 0) {
          ++evals;
          const size_t nbytes = (len * static_cast<size_t>(width) + 7) / 8;
          if (in.size() < nbytes) {
            return Status::Corruption("bit-packed block truncated");
          }
          in.remove_prefix(nbytes);
          if (screen > 0) {
            for (uint64_t r = span_begin; r < row; ++r) {
              if (is_valid(r)) sel[r] = 1;
            }
          }
          continue;
        }
        EON_RETURN_IF_ERROR(UnpackBits(&in, len, width, mn, buf));
        if (values_unpacked != nullptr) *values_unpacked += len;
        evals += len;
        simd::CompareInt64(buf, len, op, lit, nullptr, verdict);
        if (kernel_calls != nullptr) ++*kernel_calls;
        size_t j = 0;
        for (uint64_t r = span_begin; r < row; ++r) {
          if (is_valid(r)) sel[r] = verdict[j++];
        }
      }
      if (values_evaluated != nullptr) *values_evaluated += evals;
      return true;
    }
    case Encoding::kPlain:
    case Encoding::kDeltaVarint:
      return false;  // No encoded-eval path; caller decodes.
  }
  return Status::Corruption("unknown encoding");
}

Result<std::string> EncodeChunk(const std::vector<Value>& values,
                                DataType type, Encoding encoding) {
  (void)type;  // Part of the API contract; encoders read value tags.
  std::string out;
  out.push_back(static_cast<char>(encoding));
  PutVarint64(&out, values.size());
  switch (encoding) {
    case Encoding::kPlain:
      EncodePlain(values, &out);
      break;
    case Encoding::kRle:
      EncodeRle(values, &out);
      break;
    case Encoding::kDict:
      EncodeDict(values, &out);
      break;
    case Encoding::kDeltaVarint:
      EON_RETURN_IF_ERROR(EncodeDelta(values, &out));
      break;
    case Encoding::kBitPacked:
      EON_RETURN_IF_ERROR(EncodeBitPacked(values, &out));
      break;
  }
  return out;
}

Status DecodeChunk(Slice data, DataType type, std::vector<Value>* out) {
  if (data.empty()) return Status::Corruption("empty chunk");
  uint8_t enc_byte = static_cast<uint8_t>(data[0]);
  data.remove_prefix(1);
  if (enc_byte > static_cast<uint8_t>(Encoding::kBitPacked)) {
    return Status::Corruption("unknown encoding byte");
  }
  Encoding encoding = static_cast<Encoding>(enc_byte);
  uint64_t count;
  EON_RETURN_IF_ERROR(GetVarint64(&data, &count));
  out->reserve(out->size() + count);
  switch (encoding) {
    case Encoding::kPlain:
      return DecodePlain(&data, type, count, out);
    case Encoding::kRle:
      return DecodeRle(&data, type, count, out);
    case Encoding::kDict:
      return DecodeDict(&data, type, count, out);
    case Encoding::kDeltaVarint:
      return DecodeDelta(&data, count, out);
    case Encoding::kBitPacked: {
      ColumnBatch batch(type);
      uint64_t decoded = 0;
      EON_RETURN_IF_ERROR(DecodeBitPackedSelected(&data, type, count, nullptr,
                                                  &batch, &decoded, nullptr));
      for (size_t i = 0; i < batch.size(); ++i) {
        out->push_back(batch.GetValue(i));
      }
      return Status::OK();
    }
  }
  return Status::Corruption("unknown encoding");
}

Encoding ChooseEncoding(const std::vector<Value>& values, DataType type) {
  if (values.empty()) return Encoding::kPlain;
  const size_t n = values.size();

  // Statistics cost is bounded: exact single pass up to kExactThreshold,
  // larger chunks examine kSampleWindows evenly spaced contiguous windows.
  // Windows (not stride-picked elements) because run length and sortedness
  // are adjacency properties — they need consecutive pairs.
  constexpr size_t kExactThreshold = 2048;
  constexpr size_t kSampleWindows = 16;
  constexpr size_t kWindowSize = kExactThreshold / kSampleWindows;

  size_t breaks = 0;    // Adjacent pairs whose values differ.
  size_t pairs = 0;     // Adjacent pairs examined.
  size_t examined = 0;  // Total values examined.
  bool sorted = true;
  bool has_null = false;
  std::map<Value, int> distinct;
  const size_t kDistinctCap = std::min(n, kExactThreshold) / 4 + 2;
  bool low_cardinality = true;
  // Bit-packed candidate inputs: the sampled non-null ints (cost is exact
  // per 128-block over the sample) and the exact plain-encoded size of the
  // sampled values (1 flag byte per value + zigzag varint per non-null —
  // see PutValue in value_codec.cc).
  std::vector<int64_t> int_sample;
  size_t plain_bytes = 0;
  const auto signed_varint_len = [](int64_t v) {
    uint64_t u = (static_cast<uint64_t>(v) << 1) ^
                 static_cast<uint64_t>(v >> 63);
    size_t len = 1;
    while (u >= 0x80) {
      u >>= 7;
      ++len;
    }
    return len;
  };

  auto scan_window = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      if (values[i].is_null()) {
        has_null = true;
        plain_bytes += 1;
      } else if (type == DataType::kInt64) {
        int_sample.push_back(values[i].int_value());
        plain_bytes += 1 + signed_varint_len(values[i].int_value());
      }
      if (i > begin) {
        ++pairs;
        if (values[i] != values[i - 1]) ++breaks;
        if (values[i].Compare(values[i - 1]) < 0) sorted = false;
      }
      ++examined;
      if (low_cardinality) {
        distinct[values[i]]++;
        if (distinct.size() > kDistinctCap) low_cardinality = false;
      }
    }
  };

  if (n <= kExactThreshold) {
    scan_window(0, n);
  } else {
    size_t prev_end = 0;
    for (size_t w = 0; w < kSampleWindows; ++w) {
      const size_t begin = w * (n - kWindowSize) / (kSampleWindows - 1);
      // Cross-window ordering still informs sortedness (a gap pair is not
      // adjacent, so it does not count toward the run estimate).
      if (w > 0 && values[begin].Compare(values[prev_end - 1]) < 0) {
        sorted = false;
      }
      scan_window(begin, begin + kWindowSize);
      prev_end = begin + kWindowSize;
    }
  }

  // Estimated run count for the full chunk from the sampled break rate;
  // exact when every pair was examined.
  const size_t est_runs =
      pairs == 0 ? n : 1 + breaks * (n - 1) / pairs;

  // Long runs → RLE dominates everything.
  if (est_runs <= n / 8 + 1) return Encoding::kRle;
  // The sample can miss a null; EncodeChunk then rejects delta and the
  // writer falls back to kPlain.
  if (type == DataType::kInt64 && !has_null && sorted) {
    return Encoding::kDeltaVarint;
  }
  // Bit-packed candidate: exact cost over the sample (per-128-block max
  // bit width, mirroring EncodeBitPacked) must beat plain by 2x — the
  // margin keeps borderline chunks on the simpler encoding and absorbs
  // sampling error on large chunks.
  if (type == DataType::kInt64 && !int_sample.empty()) {
    size_t packed_bytes = 2;  // n_valid varint.
    if (has_null) packed_bytes += (examined + 7) / 8;
    for (size_t b = 0; b < int_sample.size(); b += 128) {
      const size_t len = std::min<size_t>(128, int_sample.size() - b);
      int64_t mn = int_sample[b];
      int64_t mx = int_sample[b];
      for (size_t j = 1; j < len; ++j) {
        mn = std::min(mn, int_sample[b + j]);
        mx = std::max(mx, int_sample[b + j]);
      }
      const uint64_t range =
          static_cast<uint64_t>(mx) - static_cast<uint64_t>(mn);
      const int width = range == 0 ? 0 : 64 - __builtin_clzll(range);
      packed_bytes += signed_varint_len(mn) + 1 +
                      (len * static_cast<size_t>(width) + 7) / 8;
    }
    if (packed_bytes * 2 <= plain_bytes) return Encoding::kBitPacked;
  }
  if (low_cardinality && distinct.size() <= examined / 4 + 1) {
    return Encoding::kDict;
  }
  return Encoding::kPlain;
}

}  // namespace eon
