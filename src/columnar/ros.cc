#include "columnar/ros.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <utility>

#include "columnar/encoding.h"
#include "columnar/kernels.h"
#include "columnar/value_codec.h"
#include "common/codec.h"
#include "common/hash.h"
#include "obs/metrics.h"
#include "storage/object_store.h"

namespace eon {

namespace {

constexpr uint32_t kColumnFileMagic = 0xEC01F11E;
constexpr uint32_t kContainerMagic = 0xEC0C0B1E;
/// fixed64 footer length + fixed32 magic, ending a section or the object.
constexpr uint64_t kTrailerBytes = 12;

/// Locate the checksummed footer that ends the `size` bytes at `data`:
/// the last kTrailerBytes are a fixed64 footer length (its fixed32 CRC32C
/// included) and `magic`. On success `*footer` holds the verified footer
/// without its CRC and `*footer_begin` its offset — the end of the data
/// the footer indexes.
Status ReadTrailer(const char* data, uint64_t size, uint32_t magic,
                   const char* what, Slice* footer, uint64_t* footer_begin) {
  if (size < kTrailerBytes) {
    return Status::Corruption(std::string(what) + " too short");
  }
  Slice tail(data + size - kTrailerBytes, kTrailerBytes);
  uint64_t footer_len;
  uint32_t stored_magic;
  EON_RETURN_IF_ERROR(GetFixed64(&tail, &footer_len));
  EON_RETURN_IF_ERROR(GetFixed32(&tail, &stored_magic));
  if (stored_magic != magic) {
    return Status::Corruption(std::string(what) + " bad magic");
  }
  if (footer_len < 4 || footer_len > size - kTrailerBytes) {
    return Status::Corruption(std::string(what) + " footer length invalid");
  }
  *footer_begin = size - kTrailerBytes - footer_len;
  const char* start = data + *footer_begin;
  Slice crc_slice(start + footer_len - 4, 4);
  uint32_t stored_crc;
  EON_RETURN_IF_ERROR(GetFixed32(&crc_slice, &stored_crc));
  if (Crc32c(start, footer_len - 4) != stored_crc) {
    return Status::Corruption(std::string(what) + " footer checksum mismatch");
  }
  *footer = Slice(start, footer_len - 4);
  return Status::OK();
}

void UpdateRange(ValueRange* range, const Value& v) {
  if (v.is_null()) {
    range->has_null = true;
    return;
  }
  if (!range->valid) {
    range->valid = true;
    range->min = v;
    range->max = v;
    return;
  }
  if (v.Compare(range->min) < 0) range->min = v;
  if (v.Compare(range->max) > 0) range->max = v;
}

void PutRange(std::string* dst, const ValueRange& r) {
  dst->push_back(r.valid ? 1 : 0);
  dst->push_back(r.has_null ? 1 : 0);
  if (r.valid) {
    PutValue(dst, r.min);
    PutValue(dst, r.max);
  }
}

Status GetRange(Slice* in, DataType type, ValueRange* r) {
  if (in->size() < 2) return Status::Corruption("range underflow");
  r->valid = (*in)[0] != 0;
  r->has_null = (*in)[1] != 0;
  in->remove_prefix(2);
  if (r->valid) {
    EON_RETURN_IF_ERROR(GetValue(in, type, &r->min));
    EON_RETURN_IF_ERROR(GetValue(in, type, &r->max));
  }
  return Status::OK();
}

}  // namespace

struct PendingFile::State {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Status status;
  FileRef ref;
  obs::Histogram* wait_hist = nullptr;
};

PendingFile PendingFile::MakeReady(Result<FileRef> result) {
  PendingFile pf;
  pf.state_ = std::make_shared<State>();
  pf.state_->done = true;
  if (result.ok()) {
    pf.state_->ref = std::move(result).value();
  } else {
    pf.state_->status = result.status();
  }
  return pf;
}

PendingFile PendingFile::MakePending(obs::Histogram* wait_hist) {
  PendingFile pf;
  pf.state_ = std::make_shared<State>();
  pf.state_->wait_hist = wait_hist;
  return pf;
}

void PendingFile::Complete(Result<FileRef> result) {
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    if (result.ok()) {
      state_->ref = std::move(result).value();
    } else {
      state_->status = result.status();
    }
    state_->done = true;
  }
  state_->cv.notify_all();
}

Result<FileRef> PendingFile::Wait(int64_t* wait_micros) {
  std::unique_lock<std::mutex> lock(state_->mu);
  if (!state_->done) {
    const auto start = std::chrono::steady_clock::now();
    state_->cv.wait(lock, [this] { return state_->done; });
    const int64_t blocked =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    if (wait_micros != nullptr) *wait_micros += blocked;
    if (state_->wait_hist != nullptr) {
      state_->wait_hist->Observe(static_cast<double>(blocked));
    }
  }
  if (!state_->status.ok()) return state_->status;
  return state_->ref;
}

Result<FileRef> FileFetcher::FetchRef(const std::string& key) {
  EON_ASSIGN_OR_RETURN(std::string data, Fetch(key));
  return std::make_shared<const std::string>(std::move(data));
}

PendingFile FileFetcher::FetchRefAsync(const std::string& key) {
  return PendingFile::MakeReady(FetchRef(key));
}

Result<std::string> DirectFetcher::Fetch(const std::string& key) {
  return store_->Get(key);
}

Result<RosBuildResult> RosContainerWriter::Build(
    const Schema& schema, const std::vector<Row>& rows,
    const RosWriteOptions& options) {
  if (options.rows_per_block == 0) {
    return Status::InvalidArgument("rows_per_block must be positive");
  }
  for (const Row& row : rows) {
    if (!schema.RowMatches(row)) {
      return Status::InvalidArgument("row does not match schema");
    }
  }

  RosBuildResult result;
  result.row_count = rows.size();
  result.column_ranges.resize(schema.num_columns());
  std::string& file = result.data;
  std::string directory;
  PutVarint64(&directory, schema.num_columns());

  for (size_t col = 0; col < schema.num_columns(); ++col) {
    const DataType type = schema.column(col).type;
    const uint64_t section_begin = file.size();
    std::vector<BlockMeta> blocks;

    for (uint64_t start = 0; start < rows.size();
         start += options.rows_per_block) {
      const uint64_t end =
          std::min<uint64_t>(start + options.rows_per_block, rows.size());
      std::vector<Value> chunk;
      chunk.reserve(end - start);
      ValueRange range;
      for (uint64_t r = start; r < end; ++r) {
        chunk.push_back(rows[r][col]);
        UpdateRange(&range, rows[r][col]);
        UpdateRange(&result.column_ranges[col], rows[r][col]);
      }
      const Encoding enc = ChooseEncoding(chunk, type);
      Result<std::string> encoded_r = EncodeChunk(chunk, type, enc);
      if (!encoded_r.ok() && enc != Encoding::kPlain) {
        // Sampled write-time stats can admit an encoding the full chunk
        // rejects (e.g. delta over a null outside the sample windows);
        // plain accepts anything.
        encoded_r = EncodeChunk(chunk, type, Encoding::kPlain);
      }
      EON_ASSIGN_OR_RETURN(std::string encoded, std::move(encoded_r));
      PutFixed32(&encoded, Crc32c(encoded.data(), encoded.size()));

      BlockMeta meta;
      meta.offset = file.size() - section_begin;
      meta.length = encoded.size();
      meta.row_count = end - start;
      meta.first_row = start;
      meta.range = range;
      blocks.push_back(meta);
      file += encoded;
    }

    // Footer: position index + per-block min/max, checksummed.
    std::string footer;
    PutVarint64(&footer, blocks.size());
    PutVarint64(&footer, rows.size());
    for (const BlockMeta& b : blocks) {
      PutVarint64(&footer, b.offset);
      PutVarint64(&footer, b.length);
      PutVarint64(&footer, b.row_count);
      PutVarint64(&footer, b.first_row);
      PutRange(&footer, b.range);
    }
    PutFixed32(&footer, Crc32c(footer.data(), footer.size()));

    file += footer;
    PutFixed64(&file, footer.size());
    PutFixed32(&file, kColumnFileMagic);

    PutVarint64(&directory, section_begin);
    PutVarint64(&directory, file.size() - section_begin);
  }

  // Column directory, checksummed, then the container trailer.
  PutFixed32(&directory, Crc32c(directory.data(), directory.size()));
  file += directory;
  PutFixed64(&file, directory.size());
  PutFixed32(&file, kContainerMagic);
  result.total_bytes = file.size();
  return result;
}

Result<ColumnFileReader> ColumnFileReader::Open(FileRef data, uint64_t offset,
                                                uint64_t length,
                                                DataType type) {
  if (offset > data->size() || length > data->size() - offset) {
    return Status::Corruption("column section outside container object");
  }
  ColumnFileReader reader;
  reader.data_ = std::move(data);
  reader.section_ = reader.data_->data() + offset;
  reader.type_ = type;

  Slice footer;
  uint64_t data_end;
  EON_RETURN_IF_ERROR(ReadTrailer(reader.section_, length, kColumnFileMagic,
                                  "column section", &footer, &data_end));
  uint64_t num_blocks;
  EON_RETURN_IF_ERROR(GetVarint64(&footer, &num_blocks));
  EON_RETURN_IF_ERROR(GetVarint64(&footer, &reader.row_count_));
  // Every index entry takes more than one byte, so a count the footer
  // cannot hold is corrupt (and must not size the reservation).
  if (num_blocks > footer.size()) {
    return Status::Corruption("column section block count invalid");
  }
  reader.blocks_.reserve(num_blocks);
  for (uint64_t i = 0; i < num_blocks; ++i) {
    BlockMeta meta;
    EON_RETURN_IF_ERROR(GetVarint64(&footer, &meta.offset));
    EON_RETURN_IF_ERROR(GetVarint64(&footer, &meta.length));
    EON_RETURN_IF_ERROR(GetVarint64(&footer, &meta.row_count));
    EON_RETURN_IF_ERROR(GetVarint64(&footer, &meta.first_row));
    EON_RETURN_IF_ERROR(GetRange(&footer, reader.type_, &meta.range));
    if (meta.offset > data_end || meta.length > data_end - meta.offset) {
      return Status::Corruption("block extends past data region");
    }
    reader.blocks_.push_back(std::move(meta));
  }
  return reader;
}

Result<ChunkView> ColumnFileReader::BlockChunk(size_t i) const {
  if (i >= blocks_.size()) return Status::OutOfRange("block index");
  const BlockMeta& meta = blocks_[i];
  if (meta.length < 4) return Status::Corruption("block too short");
  Slice block(section_ + meta.offset, meta.length - 4);
  Slice crc_slice(section_ + meta.offset + meta.length - 4, 4);
  uint32_t stored_crc;
  EON_RETURN_IF_ERROR(GetFixed32(&crc_slice, &stored_crc));
  if (Crc32c(block.data(), block.size()) != stored_crc) {
    return Status::Corruption("block checksum mismatch");
  }
  EON_ASSIGN_OR_RETURN(ChunkView view, ParseChunk(block));
  if (view.count != meta.row_count) {
    return Status::Corruption("block row count mismatch");
  }
  return view;
}

Status ColumnFileReader::DecodeBlockBatch(size_t i, ColumnBatch* out,
                                          uint64_t* values_unpacked) const {
  EON_ASSIGN_OR_RETURN(ChunkView view, BlockChunk(i));
  return DecodeChunkToBatch(view, type_, out, values_unpacked);
}

Status ColumnFileReader::DecodeSelected(size_t i, const uint8_t* sel,
                                        ColumnBatch* out,
                                        uint64_t* values_decoded,
                                        uint64_t* values_unpacked) const {
  EON_ASSIGN_OR_RETURN(ChunkView view, BlockChunk(i));
  return DecodeChunkSelected(view, type_, sel, out, values_decoded,
                             values_unpacked);
}

namespace {

/// Blocks are aligned across the columns of a container by construction;
/// a reader relies on it whenever one column's block index drives another
/// column's decode.
bool SameBlockLayout(const ColumnFileReader& a, const ColumnFileReader& b) {
  if (a.num_blocks() != b.num_blocks() || a.row_count() != b.row_count()) {
    return false;
  }
  for (size_t i = 0; i < a.num_blocks(); ++i) {
    if (a.block(i).row_count != b.block(i).row_count ||
        a.block(i).first_row != b.block(i).first_row) {
      return false;
    }
  }
  return true;
}

/// One fetched container object with its column directory parsed. Column
/// sections are opened on demand and share the object's bytes, which the
/// FileRef pins (cache-backed fetchers keep the entry resident) for as
/// long as any reader lives.
class ContainerObject {
 public:
  /// Fetch `base_key` — one whole-object request, or a cache hit — and
  /// check its directory: magic, CRC, one section per schema column, each
  /// inside the data region. Blocked wall time lands in
  /// st->fetch_wait_micros.
  static Result<ContainerObject> Fetch(const Schema& schema,
                                       const std::string& base_key,
                                       FileFetcher* fetcher,
                                       RosScanStats* st) {
    ContainerObject obj(schema);
    EON_ASSIGN_OR_RETURN(obj.data_,
                         fetcher->FetchRefAsync(base_key).Wait(
                             st ? &st->fetch_wait_micros : nullptr));
    if (st != nullptr) {
      st->files_fetched++;
      st->bytes_fetched += obj.data_->size();
    }
    Slice dir;
    uint64_t data_end;
    EON_RETURN_IF_ERROR(ReadTrailer(obj.data_->data(), obj.data_->size(),
                                    kContainerMagic, "container", &dir,
                                    &data_end));
    uint64_t num_columns;
    EON_RETURN_IF_ERROR(GetVarint64(&dir, &num_columns));
    if (num_columns != schema.num_columns()) {
      return Status::Corruption("container column count mismatch");
    }
    obj.sections_.resize(num_columns);
    for (Section& sec : obj.sections_) {
      EON_RETURN_IF_ERROR(GetVarint64(&dir, &sec.offset));
      EON_RETURN_IF_ERROR(GetVarint64(&dir, &sec.length));
      if (sec.offset > data_end || sec.length > data_end - sec.offset) {
        return Status::Corruption("column section outside data region");
      }
    }
    return obj;
  }

  /// Open the sections of `cols` into `readers`, each checked against the
  /// block layout of the readers already there.
  Status OpenColumns(const std::set<size_t>& cols,
                     std::map<size_t, ColumnFileReader>* readers) const {
    for (size_t col : cols) {
      const Section& sec = sections_[col];
      EON_ASSIGN_OR_RETURN(ColumnFileReader reader,
                           ColumnFileReader::Open(data_, sec.offset,
                                                  sec.length,
                                                  schema_->column(col).type));
      if (!readers->empty() &&
          !SameBlockLayout(readers->begin()->second, reader)) {
        return Status::Corruption("column sections disagree on block layout");
      }
      readers->emplace(col, std::move(reader));
    }
    return Status::OK();
  }

 private:
  struct Section {
    uint64_t offset = 0;
    uint64_t length = 0;
  };

  explicit ContainerObject(const Schema& schema) : schema_(&schema) {}

  const Schema* schema_;
  FileRef data_;
  std::vector<Section> sections_;
};

/// EncodedBlockSource over one block of the opened predicate-column
/// readers: comparison leaves evaluate directly on the encoded chunk (per
/// RLE run / per dictionary entry) when possible, with a lazily decoded,
/// per-block-cached fallback for plain and delta columns. Decode or CRC
/// errors cannot flow through the bool interface, so the first failure is
/// latched in status() — check it after every EvalBlockEncoded.
class BlockPredicateSource : public EncodedBlockSource {
 public:
  /// `st` (nullable) receives decode/unpack/kernel accounting.
  BlockPredicateSource(const std::map<size_t, ColumnFileReader>& readers,
                       RosScanStats* st)
      : readers_(readers), st_(st) {}

  void SetBlock(size_t block, uint64_t row_count) {
    block_ = block;
    row_count_ = row_count;
    chunks_.clear();
    decoded_.clear();
  }

  bool TryEvalCmpEncoded(size_t col, CmpOp op, const Value& literal,
                         uint8_t* sel) override {
    auto it = status_.ok() ? readers_.find(col) : readers_.end();
    if (it == readers_.end()) {
      // Unopened column (or latched error): no row matches, the
      // missing-column rule of DecodedColumn.
      std::fill(sel, sel + row_count_, uint8_t{0});
      return true;
    }
    const ChunkView* view = Chunk(col, it->second);
    if (view == nullptr) {
      std::fill(sel, sel + row_count_, uint8_t{0});
      return true;
    }
    Result<bool> handled = EvalChunkCmp(
        *view, it->second.type(), op, literal, sel,
        st_ ? &st_->values_decoded : nullptr,
        st_ ? &st_->values_unpacked : nullptr,
        st_ ? &st_->kernel_calls : nullptr);
    if (!handled.ok()) {
      status_ = handled.status();
      std::fill(sel, sel + row_count_, uint8_t{0});
      return true;
    }
    return handled.value();
  }

  const ColumnBatch* DecodedColumn(size_t col) override {
    if (!status_.ok()) return nullptr;
    auto cached = decoded_.find(col);
    if (cached != decoded_.end()) return &cached->second;
    auto it = readers_.find(col);
    if (it == readers_.end()) return nullptr;
    ColumnBatch batch;
    Status s = it->second.DecodeBlockBatch(
        block_, &batch, st_ ? &st_->values_unpacked : nullptr);
    if (!s.ok()) {
      status_ = s;
      return nullptr;
    }
    if (st_ != nullptr) st_->values_decoded += batch.size();
    return &decoded_.emplace(col, std::move(batch)).first->second;
  }

  /// Move out the fallback-decoded column of the current block, if phase 1
  /// produced one — lets the scan keep predicate∩output columns for
  /// phase 2 without paying for a second decode. Consumes the cache entry
  /// (the next SetBlock would clear it anyway).
  bool TakeDecoded(size_t col, ColumnBatch* out) {
    auto it = decoded_.find(col);
    if (it == decoded_.end()) return false;
    *out = std::move(it->second);
    decoded_.erase(it);
    return true;
  }

  const Status& status() const { return status_; }

 private:
  const ChunkView* Chunk(size_t col, const ColumnFileReader& reader) {
    auto it = chunks_.find(col);
    if (it != chunks_.end()) return &it->second;
    Result<ChunkView> view = reader.BlockChunk(block_);
    if (!view.ok()) {
      status_ = view.status();
      return nullptr;
    }
    return &chunks_.emplace(col, view.value()).first->second;
  }

  const std::map<size_t, ColumnFileReader>& readers_;
  RosScanStats* st_;
  size_t block_ = 0;
  uint64_t row_count_ = 0;
  std::map<size_t, ChunkView> chunks_;
  std::map<size_t, ColumnBatch> decoded_;
  Status status_;
};

/// The scan's output chunk: one batch per output position, typed from
/// the schema. Each distinct column decodes into the batch of its first
/// output position; a column requested twice is copied from there.
struct ScanOutput {
  ScanOutput(const Schema& schema, const std::vector<size_t>& output_columns)
      : columns(output_columns) {
    chunk.columns.reserve(columns.size());
    for (size_t k = 0; k < columns.size(); ++k) {
      chunk.columns.emplace_back(schema.column(columns[k]).type);
      first.emplace(columns[k], k);  // Keeps the first position.
    }
  }

  /// After a block appended `n` rows to the batch at each column's first
  /// position, copy them into the duplicate output positions.
  void FillDuplicates(size_t n) {
    for (size_t k = 0; k < columns.size(); ++k) {
      const size_t f = first.at(columns[k]);
      if (f == k) continue;
      const ColumnBatch& src = chunk.columns[f];
      chunk.columns[k].AppendRange(src, src.size() - n, n);
    }
  }

  std::vector<size_t> columns;
  std::map<size_t, size_t> first;  ///< Column → first output position.
  ColumnChunk chunk;
};

/// Two-phase late-materialization scan. Phase 1 opens only the predicate
/// columns and evaluates the predicate per block — on the encoded
/// representation where the encoding supports it — folding the row range
/// and tombstones into one selection vector. Phase 2 selectively decodes
/// the output columns for the block's surviving rows, straight into the
/// output chunk. Output-only sections are opened at the first block with
/// survivors, so a container where nothing survives never parses them.
Result<ColumnChunk> ScanLateMaterialized(const Schema& schema,
                                         const ContainerObject& container,
                                         const RosScanOptions& options,
                                         const std::set<size_t>& pred_cols,
                                         RosScanStats* st) {
  std::map<size_t, ColumnFileReader> readers;
  EON_RETURN_IF_ERROR(container.OpenColumns(pred_cols, &readers));
  const ColumnFileReader& first = readers.begin()->second;
  const size_t num_blocks = first.num_blocks();

  ScanOutput out(schema, options.output_columns);
  std::set<size_t> out_only;
  for (const auto& [col, pos] : out.first) {
    if (pred_cols.count(col) == 0) out_only.insert(col);
  }
  bool outputs_open = false;

  BlockPredicateSource src(readers, st);
  std::vector<uint32_t> survivors;
  for (size_t b = 0; b < num_blocks; ++b) {
    const BlockMeta& bm = first.block(b);
    st->blocks_total++;

    const uint64_t block_begin = bm.first_row;
    const uint64_t block_end = bm.first_row + bm.row_count;
    if (block_end <= options.row_begin || block_begin >= options.row_end) {
      st->blocks_pruned++;
      continue;
    }

    {
      // CouldMatch only inspects predicate-referenced columns, so their
      // ranges are all pruning needs.
      std::vector<ValueRange> ranges(schema.num_columns());
      for (size_t col : pred_cols) ranges[col] = readers.at(col).block(b).range;
      if (!options.predicate->CouldMatch(ranges)) {
        st->blocks_pruned++;
        continue;
      }
    }

    // Phase 1: encoded predicate evaluation, then fold the row range and
    // tombstones into the selection vector.
    src.SetBlock(b, bm.row_count);
    SelectionVector sel;
    options.predicate->EvalBlockEncoded(&src, bm.row_count, &sel,
                                        &st->kernel_calls);
    EON_RETURN_IF_ERROR(src.status());
    uint64_t selected = 0;
    if (options.deletes == nullptr && options.row_begin <= block_begin &&
        block_end <= options.row_end) {
      st->rows_visited += bm.row_count;
      for (uint64_t i = 0; i < bm.row_count; ++i) selected += sel[i] != 0;
    } else {
      for (uint64_t i = 0; i < bm.row_count; ++i) {
        const uint64_t pos = block_begin + i;
        if (pos < options.row_begin || pos >= options.row_end) {
          sel[i] = 0;
          continue;
        }
        st->rows_visited++;
        if (options.deletes && options.deletes->IsDeleted(pos)) {
          sel[i] = 0;
          continue;
        }
        if (sel[i]) ++selected;
      }
    }
    if (selected == 0) continue;
    if (!outputs_open) {
      EON_RETURN_IF_ERROR(container.OpenColumns(out_only, &readers));
      outputs_open = true;
    }

    // Phase 2: selectively decode each distinct output column. All share
    // the block's selection vector, so the k-th row appended to every
    // batch belongs to the k-th surviving row. A predicate∩output column
    // phase 1 already decoded whole is compacted, not decoded again.
    survivors.clear();
    for (const auto& [col, pos] : out.first) {
      ColumnBatch* dst = &out.chunk.columns[pos];
      const size_t before = dst->size();
      ColumnBatch full;
      if (src.TakeDecoded(col, &full)) {
        if (survivors.empty()) {
          survivors.resize(selected + 1);  // +1: SelCompact's store.
          survivors.resize(
              simd::SelCompact(sel.data(), bm.row_count, survivors.data()));
        }
        dst->AppendGather(full, survivors.data(), survivors.size());
      } else {
        EON_RETURN_IF_ERROR(readers.at(col).DecodeSelected(
            b, sel.data(), dst, &st->values_decoded, &st->values_unpacked));
      }
      if (dst->size() - before != selected) {
        return Status::Corruption("selective decode count mismatch");
      }
    }
    out.FillDuplicates(selected);
    st->rows_output += selected;
  }
  return std::move(out.chunk);
}

}  // namespace

Result<ColumnChunk> ScanRosContainer(const Schema& schema,
                                     const std::string& base_key,
                                     FileFetcher* fetcher,
                                     const RosScanOptions& options,
                                     RosScanStats* stats) {
  RosScanStats local_stats;
  RosScanStats* st = stats ? stats : &local_stats;

  // Predicate input columns: taken from the caller's precomputed split
  // when provided, otherwise collected from the predicate tree.
  std::set<size_t> pred_cols;
  if (options.predicate) {
    if (!options.predicate_columns.empty()) {
      pred_cols.insert(options.predicate_columns.begin(),
                       options.predicate_columns.end());
    } else {
      options.predicate->CollectColumns(&pred_cols);
    }
  }

  // Columns we must read: outputs plus predicate inputs.
  std::set<size_t> needed(options.output_columns.begin(),
                          options.output_columns.end());
  needed.insert(pred_cols.begin(), pred_cols.end());
  for (size_t col : needed) {
    if (col >= schema.num_columns()) {
      return Status::InvalidArgument("column index out of range");
    }
  }

  if (needed.empty()) return ColumnChunk{};  // No columns requested.
  EON_ASSIGN_OR_RETURN(ContainerObject container,
                       ContainerObject::Fetch(schema, base_key, fetcher, st));
  if (!pred_cols.empty()) {
    return ScanLateMaterialized(schema, container, options, pred_cols, st);
  }

  // No predicate column: decode and emit every output column.
  std::map<size_t, ColumnFileReader> readers;
  EON_RETURN_IF_ERROR(container.OpenColumns(needed, &readers));

  ScanOutput out(schema, options.output_columns);
  const ColumnFileReader& first = readers.begin()->second;
  const size_t num_blocks = first.num_blocks();
  SelectionVector sel;
  std::vector<uint32_t> survivors;
  for (size_t b = 0; b < num_blocks; ++b) {
    const BlockMeta& bm = first.block(b);
    st->blocks_total++;

    // Row-range restriction (container split).
    const uint64_t block_begin = bm.first_row;
    const uint64_t block_end = bm.first_row + bm.row_count;
    if (block_end <= options.row_begin || block_begin >= options.row_end) {
      st->blocks_pruned++;
      continue;
    }

    // A column-free predicate (TRUE, NOT TRUE, ...) has no min/max to
    // prune by but still decides every row: one selection vector for the
    // whole block. Row range and tombstones fold into it.
    if (options.predicate) {
      options.predicate->EvalBlockBatch({}, bm.row_count, &sel,
                                        &st->kernel_calls);
    } else {
      sel.assign(bm.row_count, 1);
    }
    uint64_t selected = 0;
    for (uint64_t i = 0; i < bm.row_count; ++i) {
      const uint64_t pos = block_begin + i;
      if (pos < options.row_begin || pos >= options.row_end) {
        sel[i] = 0;
        continue;
      }
      st->rows_visited++;
      if (options.deletes && options.deletes->IsDeleted(pos)) sel[i] = 0;
      if (sel[i]) ++selected;
    }
    survivors.clear();
    if (selected < bm.row_count) {
      survivors.resize(selected + 1);  // +1: SelCompact's branchless store.
      survivors.resize(
          simd::SelCompact(sel.data(), bm.row_count, survivors.data()));
    }

    // Decode the block of each distinct output column straight into the
    // output batch when every row survives; otherwise decode it whole
    // and gather the survivors.
    for (const auto& [col, pos] : out.first) {
      ColumnBatch* dst = &out.chunk.columns[pos];
      const ColumnFileReader& r = readers.at(col);
      if (selected == bm.row_count) {
        EON_RETURN_IF_ERROR(r.DecodeSelected(b, nullptr, dst, nullptr,
                                             &st->values_unpacked));
      } else {
        ColumnBatch batch;
        EON_RETURN_IF_ERROR(
            r.DecodeBlockBatch(b, &batch, &st->values_unpacked));
        dst->AppendGather(batch, survivors.data(), survivors.size());
      }
      st->values_decoded += bm.row_count;
    }
    out.FillDuplicates(selected);
    st->rows_output += selected;
  }
  return std::move(out.chunk);
}

Result<std::vector<uint64_t>> FindMatchingPositions(
    const Schema& schema, const std::string& base_key, FileFetcher* fetcher,
    const PredicatePtr& predicate, const DeleteVector* deletes) {
  std::set<size_t> needed;
  if (predicate) predicate->CollectColumns(&needed);
  if (needed.empty()) {
    // Match-all: positions derive from any column's footer; open column 0.
    needed.insert(0);
  }

  for (size_t col : needed) {
    if (col >= schema.num_columns()) {
      return Status::InvalidArgument("column index out of range");
    }
  }
  EON_ASSIGN_OR_RETURN(
      ContainerObject container,
      ContainerObject::Fetch(schema, base_key, fetcher, /*st=*/nullptr));
  std::map<size_t, ColumnFileReader> readers;
  EON_RETURN_IF_ERROR(container.OpenColumns(needed, &readers));

  std::vector<uint64_t> positions;
  const ColumnFileReader& first = readers.begin()->second;
  // Same phase-1 machinery as the late-materialization scan: the predicate
  // evaluates on the encoded representation where possible, so DELETEs
  // never decode more than they must.
  BlockPredicateSource src(readers, /*st=*/nullptr);
  SelectionVector sel;
  for (size_t b = 0; b < first.num_blocks(); ++b) {
    const BlockMeta& bm = first.block(b);
    if (predicate) {
      std::vector<ValueRange> ranges(schema.num_columns());
      for (const auto& [col, r] : readers) ranges[col] = r.block(b).range;
      if (!predicate->CouldMatch(ranges)) continue;
      src.SetBlock(b, bm.row_count);
      predicate->EvalBlockEncoded(&src, bm.row_count, &sel);
      EON_RETURN_IF_ERROR(src.status());
    } else {
      sel.assign(bm.row_count, 1);
    }
    for (uint64_t i = 0; i < bm.row_count; ++i) {
      const uint64_t pos = bm.first_row + i;
      if (deletes && deletes->IsDeleted(pos)) continue;
      if (sel[i]) positions.push_back(pos);
    }
  }
  return positions;
}

}  // namespace eon
