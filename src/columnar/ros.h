#ifndef EON_COLUMNAR_ROS_H_
#define EON_COLUMNAR_ROS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "columnar/delete_vector.h"
#include "columnar/encoding.h"
#include "columnar/expression.h"
#include "columnar/schema.h"
#include "common/result.h"

namespace eon {

/// Shared, immutable contents of one fetched file. Holding a FileRef
/// keeps the bytes alive regardless of what the cache does (eviction,
/// Drop), so a scan can never observe dangling data.
using FileRef = std::shared_ptr<const std::string>;

namespace obs {
class Histogram;
}  // namespace obs

/// Future-like handle to one in-flight file fetch. Copyable; all copies
/// share the same completion state. A PendingFile is either *ready*
/// (carries the result already — the synchronous fallback) or *pending*
/// (some I/O-pool task will Complete() it).
class PendingFile {
 public:
  PendingFile() = default;

  /// A handle that is already complete — the inline / cache-hit path.
  static PendingFile MakeReady(Result<FileRef> result);
  /// A handle a producer will Complete() later. `wait_hist` (optional)
  /// observes the blocked wall-micros of every Wait() on this handle.
  static PendingFile MakePending(obs::Histogram* wait_hist = nullptr);

  bool valid() const { return state_ != nullptr; }

  /// Producer side: publish the result and wake all waiters. Must be
  /// called exactly once per pending handle.
  void Complete(Result<FileRef> result);

  /// Consumer side: block until complete, then return the result. The
  /// wall time spent blocked (zero when already complete) is added to
  /// `*wait_micros` when provided — the scan's fetch-stall accounting.
  Result<FileRef> Wait(int64_t* wait_micros = nullptr);

 private:
  struct State;
  std::shared_ptr<State> state_;
};

/// Abstraction through which the scan layer obtains whole data files.
/// In Eon mode the implementation is the node's file cache backed by shared
/// storage; in Enterprise mode it is the node's private disk; in tests it
/// is the object store directly. Caching whole files matches the paper's
/// disk cache of entire data files (Section 5.2).
class FileFetcher {
 public:
  virtual ~FileFetcher() = default;

  /// Return the complete contents of `key`.
  virtual Result<std::string> Fetch(const std::string& key) = 0;

  /// Fetch without copying: the returned ref shares the fetcher's bytes
  /// where possible. Cache-backed fetchers additionally pin the entry
  /// resident until the ref is released. Default adapts Fetch().
  virtual Result<FileRef> FetchRef(const std::string& key);

  /// Start a fetch without blocking. Fetchers with an I/O pool overlap
  /// the store round-trip with the caller's compute; the default adapts
  /// FetchRef() and returns an already-complete handle, so every scan
  /// path works against any fetcher.
  virtual PendingFile FetchRefAsync(const std::string& key);
};

/// FileFetcher that reads straight from an ObjectStore (no cache).
class ObjectStore;
class DirectFetcher : public FileFetcher {
 public:
  explicit DirectFetcher(ObjectStore* store) : store_(store) {}
  Result<std::string> Fetch(const std::string& key) override;

 private:
  ObjectStore* store_;
};

/// Per-block metadata kept in each column section's footer: position index
/// entry plus min/max used by the execution engine to skip blocks
/// (paper Section 2.3).
struct BlockMeta {
  uint64_t offset = 0;       ///< Byte offset of the block in its section.
  uint64_t length = 0;       ///< Byte length including trailing checksum.
  uint64_t row_count = 0;
  uint64_t first_row = 0;    ///< Container-relative position of first row.
  ValueRange range;
};

/// Everything produced when writing a ROS container: the one immutable
/// object to Put under the container's base key, plus the stats that go
/// into the catalog's storage metadata.
struct RosBuildResult {
  std::string data;                       ///< The container object.
  std::vector<ValueRange> column_ranges;  ///< Container-level min/max.
  uint64_t row_count = 0;
  uint64_t total_bytes = 0;               ///< data.size().
};

struct RosWriteOptions {
  uint64_t rows_per_block = 4096;
};

/// Serializes sorted rows into one immutable container object. Vertica
/// writes actual column data followed by a footer with a position index
/// (Section 2.3); objects are never modified once written.
///
/// Object layout: one section per schema column, back to back, then a
/// column directory.
///
///   section k    blocks (encoded chunk + fixed32 CRC32C each), footer
///                (block index + per-block min/max + fixed32 CRC32C),
///                fixed64 footer length, fixed32 column magic
///   directory    varint column count, then varint (offset, length) of
///                each section, then fixed32 CRC32C of those bytes
///   trailer      fixed64 directory length (CRC included), fixed32
///                container magic
///
/// A reader fetches the whole object once and opens only the sections of
/// the columns it needs.
class RosContainerWriter {
 public:
  /// `rows` must already be sorted by the projection sort order; the writer
  /// does not re-sort (sorting belongs to the load pipeline / mergeout).
  static Result<RosBuildResult> Build(const Schema& schema,
                                      const std::vector<Row>& rows,
                                      const RosWriteOptions& options = {});
};

/// Parses one column section of a container object: footer, block index,
/// and on-demand block decode. Every column of a container shares the
/// object's one FileRef.
class ColumnFileReader {
 public:
  /// Open the section at [offset, offset + length) of `data`; the reader
  /// keeps the ref alive for its own lifetime. Every offset is checked
  /// against the section, so malformed bytes return Corruption.
  static Result<ColumnFileReader> Open(FileRef data, uint64_t offset,
                                       uint64_t length, DataType type);

  size_t num_blocks() const { return blocks_.size(); }
  const BlockMeta& block(size_t i) const { return blocks_[i]; }
  uint64_t row_count() const { return row_count_; }
  DataType type() const { return type_; }

  /// Decode block `i` into columnar batch layout (the scan's hot path —
  /// bit-packed and delta chunks fill the typed array directly, skipping
  /// Value materialization). `values_unpacked` (optional) accumulates the
  /// bit-packed values unpacked.
  Status DecodeBlockBatch(size_t i, ColumnBatch* out,
                          uint64_t* values_unpacked = nullptr) const;

  /// Selective decode (late materialization): append to `out` (a batch of
  /// this column's type) only the rows of block `i` with sel[j] != 0,
  /// densely, in block order. `sel` must cover
  /// the block's row count; nullptr selects everything. Skipped values are
  /// parsed past, not materialized; RLE runs and dictionary codes outside
  /// the selection are never expanded; bit-packed 128-value blocks no
  /// selected row maps into are skipped whole. `values_decoded` /
  /// `values_unpacked` (optional) accumulate decode work (see
  /// DecodeChunkSelected).
  Status DecodeSelected(size_t i, const uint8_t* sel, ColumnBatch* out,
                        uint64_t* values_decoded = nullptr,
                        uint64_t* values_unpacked = nullptr) const;

  /// CRC-verify block `i` and return its parsed chunk header without
  /// decoding any values — the entry point for encoded predicate
  /// evaluation and selective decode.
  Result<ChunkView> BlockChunk(size_t i) const;

 private:
  ColumnFileReader() = default;

  FileRef data_;
  const char* section_ = nullptr;  ///< First byte of the section in data_.
  DataType type_ = DataType::kInt64;
  std::vector<BlockMeta> blocks_;
  uint64_t row_count_ = 0;
};

/// Scan parameters for one ROS container.
struct RosScanOptions {
  /// Projection column positions to materialize, in output order.
  std::vector<size_t> output_columns;
  /// Optional predicate over the projection row (column positions refer to
  /// the projection schema). Drives block pruning and row filtering.
  PredicatePtr predicate;
  /// Optional tombstones for this container.
  const DeleteVector* deletes = nullptr;
  /// Container-relative row range [row_begin, row_end): used by
  /// container-split crunch scaling (Section 4.4). Default = whole container.
  uint64_t row_begin = 0;
  uint64_t row_end = UINT64_MAX;
  /// Optional precomputed Predicate::CollectColumns result, so per-morsel
  /// scans skip re-walking the predicate tree. Empty = computed here.
  /// Must equal the predicate's column set when provided.
  std::vector<size_t> predicate_columns;
};

/// Observability for tests, the cost model, and the pruning benches.
struct RosScanStats {
  uint64_t files_fetched = 0;  ///< Container objects fetched.
  uint64_t bytes_fetched = 0;
  uint64_t blocks_total = 0;
  uint64_t blocks_pruned = 0;
  uint64_t rows_visited = 0;
  uint64_t rows_output = 0;
  /// Values parsed or materialized while scanning (decode work): one per
  /// value when a block is decoded whole, one per RLE run / dictionary
  /// entry on the encoded path plus one per materialized survivor.
  uint64_t values_decoded = 0;
  /// Wall micros the scan spent blocked in PendingFile::Wait — the I/O
  /// stall the prefetch pipeline exists to hide (0 when every fetch
  /// completed before the scan needed it).
  int64_t fetch_wait_micros = 0;
  /// Bit-packed values actually unpacked (block screening and whole-block
  /// skipping keep this below the row count on selective scans).
  uint64_t values_unpacked = 0;
  /// Vectorized kernel invocations (compare / fold / hash dispatches).
  uint64_t kernel_calls = 0;
};

/// Scan a ROS container: fetches its one object, opens only the sections
/// of the needed columns, prunes blocks by min/max, applies the predicate
/// and delete vector, and returns one dense chunk of the surviving rows:
/// a batch per entry of `output_columns`, in order. A predicate that reads columns runs the
/// two-phase late-materialized scan: phase 1 evaluates only the predicate
/// columns (on the encoded representation where the encoding supports
/// it), phase 2 selectively decodes the output columns for surviving
/// rows, and a container where nothing survives never opens its
/// output-only sections. Without one, every output column is decoded and
/// emitted.
Result<ColumnChunk> ScanRosContainer(const Schema& schema,
                                     const std::string& base_key,
                                     FileFetcher* fetcher,
                                     const RosScanOptions& options,
                                     RosScanStats* stats = nullptr);

/// Container-relative positions of live rows matching `predicate`
/// (tombstoned positions in `deletes` are excluded). Drives the DELETE
/// path: delete vectors store positions, not keys (Section 2.3).
Result<std::vector<uint64_t>> FindMatchingPositions(
    const Schema& schema, const std::string& base_key, FileFetcher* fetcher,
    const PredicatePtr& predicate, const DeleteVector* deletes = nullptr);

}  // namespace eon

#endif  // EON_COLUMNAR_ROS_H_
