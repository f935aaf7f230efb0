#include "common/io_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>

#include "obs/dc.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace eon {

namespace {

/// Set on every IoPool worker thread; ParallelFor refuses to fan out there.
thread_local bool tls_io_worker = false;

std::string AutoIoPoolName() {
  static std::atomic<uint64_t> seq{0};
  return "io" + std::to_string(seq.fetch_add(1));
}

int64_t SteadyWallMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

IoPool::IoPool(Options options)
    : metrics_name_(options.metrics_name.empty() ? AutoIoPoolName()
                                                 : options.metrics_name) {
  obs::MetricsRegistry* reg = obs::OrDefault(options.registry);
  const obs::LabelSet labels({{"pool", metrics_name_}});
  tasks_total_ = reg->GetCounter("eon_io_pool_tasks_total", labels);
  queue_depth_ = reg->GetGauge("eon_io_pool_queue_depth", labels);
  threads_gauge_ = reg->GetGauge("eon_io_pool_threads", labels);
  task_micros_ = reg->GetHistogram("eon_io_pool_task_micros", labels);

  const int width = options.num_threads < 1 ? 1 : options.num_threads;
  threads_gauge_->Set(width);
  workers_.reserve(width);
  for (int i = 0; i < width; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

IoPool::~IoPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  threads_gauge_->Set(0);
}

void IoPool::Submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(fn));
    queue_depth_->Add(1);
  }
  cv_.notify_one();
}

void IoPool::WorkerLoop() {
  tls_io_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown_ with a drained queue.
      task = std::move(queue_.front());
      queue_.pop_front();
      queue_depth_->Sub(1);
    }
    const int64_t start = SteadyWallMicros();
    task();
    task_micros_->Observe(static_cast<double>(SteadyWallMicros() - start));
    tasks_total_->Increment();
  }
}

size_t ParallelForLanes(const IoPool* pool, size_t n) {
  if (pool == nullptr || n <= 1) return n == 0 ? 0 : 1;
  return std::min(n, static_cast<size_t>(pool->num_threads()));
}

Status ParallelFor(IoPool* pool, size_t n,
                   const std::function<Status(size_t)>& fn) {
  if (pool != nullptr && tls_io_worker) {
    return Status::Internal("ParallelFor called from an I/O-pool worker");
  }
  const size_t lanes = ParallelForLanes(pool, n);
  if (lanes <= 1) {
    Status first = Status::OK();
    for (size_t i = 0; i < n; ++i) {
      Status s = fn(i);
      if (!s.ok() && first.ok()) first = std::move(s);
    }
    return first;
  }

  // Shared-owned so the last lane's unlock never touches a state the
  // woken caller already freed. `fn` itself is borrowed: the wait below
  // outlasts every call.
  struct State {
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::condition_variable cv;
    size_t lanes_left = 0;
    size_t error_index = SIZE_MAX;
    Status error = Status::OK();
  };
  auto state = std::make_shared<State>();
  state->lanes_left = lanes;
  const obs::TraceContext trace = obs::CurrentTraceCopy();
  const std::string node = obs::DcNodeScope::Current();
  for (size_t lane = 0; lane < lanes; ++lane) {
    pool->Submit([state, n, &fn, trace, node] {
      obs::TraceScope trace_scope(trace);
      obs::DcNodeScope node_scope(node);
      size_t error_index = SIZE_MAX;
      Status error = Status::OK();
      for (size_t i = state->next.fetch_add(1); i < n;
           i = state->next.fetch_add(1)) {
        Status s = fn(i);
        if (!s.ok() && i < error_index) {
          error_index = i;
          error = std::move(s);
        }
      }
      std::lock_guard<std::mutex> lock(state->mu);
      if (error_index < state->error_index) {
        state->error_index = error_index;
        state->error = std::move(error);
      }
      if (--state->lanes_left == 0) state->cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] { return state->lanes_left == 0; });
  return state->error;
}

}  // namespace eon
