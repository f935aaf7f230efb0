#ifndef EON_COMMON_IO_POOL_H_
#define EON_COMMON_IO_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"

namespace eon {

namespace obs {
class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;
}  // namespace obs

/// Dedicated I/O worker pool: the fetch side of the async scan pipeline.
///
/// Distinct from ThreadPool (the exec pool) on purpose:
///  - Every lane is a real worker thread and Submit() never runs the task
///    inline on the caller. Exec lanes hand fetches to this pool exactly
///    so compute threads never block on object-store latency; an inline
///    fallback would reintroduce the stall being removed.
///  - Tasks are expected to spend their time *waiting* (store latency),
///    not computing, so the pool is sized independently of the core count
///    (ClusterOptions::io_threads / EON_IO_THREADS) and the per-task
///    histogram records wall time, not CPU time.
///
/// Shutdown drains the queue: every submitted task runs before the
/// destructor returns, so callers holding completion handles (PendingFile,
/// cache prefetches) never see an abandoned task.
///
/// Observability (labels {pool=<name>}):
///  - eon_io_pool_threads       gauge     worker count
///  - eon_io_pool_queue_depth   gauge     tasks queued, not yet started
///  - eon_io_pool_tasks_total   counter   tasks executed
///  - eon_io_pool_task_micros   histogram per-task wall time
class IoPool {
 public:
  struct Options {
    /// Worker count (>= 1; values below 1 are clamped to 1).
    int num_threads = 4;
    /// Label value for this pool's metrics; "" auto-generates "io<N>".
    std::string metrics_name;
    /// Metrics registry; nullptr = process default.
    obs::MetricsRegistry* registry = nullptr;
  };

  explicit IoPool(Options options);
  ~IoPool();

  IoPool(const IoPool&) = delete;
  IoPool& operator=(const IoPool&) = delete;

  /// Enqueue one task for a worker thread. Never runs inline.
  void Submit(std::function<void()> fn);

  int num_threads() const { return static_cast<int>(workers_.size()); }
  const std::string& metrics_name() const { return metrics_name_; }

 private:
  void WorkerLoop();

  std::string metrics_name_;
  obs::Counter* tasks_total_ = nullptr;
  obs::Gauge* queue_depth_ = nullptr;
  obs::Gauge* threads_gauge_ = nullptr;
  obs::Histogram* task_micros_ = nullptr;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

/// Blocking fan-out: run fn(0), ..., fn(n-1) on min(n, num_threads) lanes
/// of `pool` — one task per lane, each claiming the next unstarted index
/// until none is left — and return once every call has finished. Every
/// index runs even after a failure; the result is the error of the lowest
/// failing index (deterministic whatever the completion order), else OK.
///
/// For callers that keep many object-store round trips in flight while
/// they wait (uploads, deletes, log commits): the cost is about the
/// slowest request per lane round instead of the sum. Lanes rather than
/// one task per item keep a many-thousand-file load at a handful of pool
/// tasks. `fn` may borrow the caller's stack — the call does not return
/// while any lane can still touch it. Each lane reinstalls the caller's
/// trace context and DcNodeScope, so spans and dc_store_requests rows
/// land under the caller's query and node.
///
/// Runs inline on the caller when `pool` is null or n <= 1. Refuses
/// (Internal, nothing run) when called with a pool from an I/O-pool
/// worker: a lane waiting on lanes queued behind it could deadlock the
/// pool.
Status ParallelFor(IoPool* pool, size_t n,
                   const std::function<Status(size_t)>& fn);

/// Lanes ParallelFor(pool, n, ...) runs on: 0 for n == 0, 1 inline.
size_t ParallelForLanes(const IoPool* pool, size_t n);

}  // namespace eon

#endif  // EON_COMMON_IO_POOL_H_
