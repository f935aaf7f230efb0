#ifndef EON_STORAGE_OBJECT_STORE_H_
#define EON_STORAGE_OBJECT_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace eon {

/// Metadata returned by List.
struct ObjectMeta {
  std::string key;
  uint64_t size = 0;
};

/// Per-store operation counters. The simulated S3 additionally accounts a
/// dollar cost per request class, because "requests cost money" (paper
/// Section 5.3) is part of the design pressure on the cache.
///
/// Stores also mirror these counts onto obs::MetricsRegistry instruments
/// (labels: store=<kind>/<name>), so one exported snapshot carries every
/// backend; this struct remains the cheap per-instance accessor.
struct ObjectStoreMetrics {
  uint64_t puts = 0;
  uint64_t gets = 0;
  uint64_t lists = 0;
  uint64_t deletes = 0;
  /// Near-data ScanObject requests served store-side.
  uint64_t scans = 0;
  uint64_t bytes_written = 0;
  /// Bytes that crossed the store's interface toward clients (object
  /// payloads for Get/ReadRange, response payloads for ScanObject).
  uint64_t bytes_read = 0;
  /// Column-file bytes ScanObject read locally (never shipped): the
  /// bytes_read savings near-data processing bought.
  uint64_t bytes_scanned = 0;
  uint64_t failures_injected = 0;
  uint64_t throttled = 0;

  /// Estimated request cost in micro-dollars (S3-style pricing knobs).
  uint64_t cost_microdollars = 0;
};

/// Near-data scan request/response (columnar/ndp.h). Declared here so the
/// storage API can carry them by reference without the storage layer
/// depending on columnar headers at declaration time.
struct ScanObjectRequest;
struct ScanObjectResponse;

/// The UDFS storage abstraction (paper Section 5.3, Figure 9). Vertica's
/// execution engine accesses all filesystems through this API; we provide
/// in-memory, simulated-S3, and POSIX backends.
///
/// Semantics follow shared object storage, not POSIX:
///  - objects are immutable: no append, no rename, no overwrite (Put of an
///    existing key fails with AlreadyExists);
///  - existence checks go through List with a key prefix, never a HEAD
///    (avoids S3's eventual-consistency-after-HEAD trap, Section 5.3);
///  - any operation may fail transiently; callers that need reliability
///    wrap the store in RetryingObjectStore.
///
/// Implementations must be thread-safe.
class ObjectStore {
 public:
  virtual ~ObjectStore() = default;

  /// Create a new immutable object.
  virtual Status Put(const std::string& key, const std::string& data) = 0;

  /// Read a whole object.
  virtual Result<std::string> Get(const std::string& key) = 0;

  /// Read `len` bytes at `offset`. Short reads at end-of-object are OK and
  /// return the available bytes; offset beyond the object is OutOfRange.
  virtual Result<std::string> ReadRange(const std::string& key,
                                        uint64_t offset, uint64_t len) = 0;

  /// List all objects whose key starts with `prefix`, sorted by key.
  virtual Result<std::vector<ObjectMeta>> List(const std::string& prefix) = 0;

  /// Delete an object. Deleting a missing key returns NotFound.
  virtual Status Delete(const std::string& key) = 0;

  /// Near-data scan (S3-Select-shaped): evaluate a predicate — and
  /// optionally fold partial aggregates — against one ROS container
  /// object WHERE IT LIVES, returning only survivors. Backends that
  /// can compute next to the data override this; the default refuses with
  /// NotSupported and callers fall back to fetching whole files.
  virtual Status ScanObject(const ScanObjectRequest& request,
                            ScanObjectResponse* response);

  /// Existence via List-with-prefix (the paper's strongly consistent
  /// idiom). List returns keys sorted, so an exact match — when present —
  /// is the first entry: one comparison, not a linear walk of everything
  /// under the prefix.
  Result<bool> Exists(const std::string& key);

  /// Size of an object via List (same first-entry early-out as Exists).
  Result<uint64_t> Size(const std::string& key);

  virtual ObjectStoreMetrics metrics() const = 0;

  /// Zero this store's per-instance counters so differential tests can
  /// assert exact request counts for one operation instead of depending
  /// on accumulated global totals. Registry-mirrored instruments stay
  /// monotone (Prometheus contract); use MetricsSnapshot::Delta for
  /// registry-level differences.
  virtual void ResetForTest() {}
};

/// Plain in-memory object store: the reference implementation and the
/// backing tier under SimObjectStore.
class MemObjectStore : public ObjectStore {
 public:
  MemObjectStore();
  ~MemObjectStore() override;

  Status Put(const std::string& key, const std::string& data) override;
  Result<std::string> Get(const std::string& key) override;
  Result<std::string> ReadRange(const std::string& key, uint64_t offset,
                                uint64_t len) override;
  Result<std::vector<ObjectMeta>> List(const std::string& prefix) override;
  Status Delete(const std::string& key) override;
  Status ScanObject(const ScanObjectRequest& request,
                    ScanObjectResponse* response) override;
  ObjectStoreMetrics metrics() const override;
  void ResetForTest() override;

  /// Unmetered whole-object read: the near-data scan engine's local I/O
  /// path (reads that never cross the store's interface).
  Result<std::string> RawRead(const std::string& key) const;

  /// Total bytes stored (for tests and capacity reports).
  uint64_t TotalBytes() const;
  /// Number of objects stored.
  uint64_t ObjectCount() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace eon

#endif  // EON_STORAGE_OBJECT_STORE_H_
