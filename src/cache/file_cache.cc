#include "cache/file_cache.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <optional>
#include <tuple>

#include "common/io_pool.h"

namespace eon {

namespace {

int64_t WarmWallMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t ResolvePrefetchByteCap(uint64_t configured) {
  if (configured > 0) return configured;
  if (const char* env = std::getenv("EON_PREFETCH_BYTE_CAP")) {
    const long long v = std::atoll(env);
    if (v > 0) return static_cast<uint64_t>(v);
  }
  return 64ULL << 20;
}

}  // namespace

FileCache::FileCache(CacheOptions options, ObjectStore* shared_storage)
    : options_(options),
      shared_(shared_storage),
      shards_(std::make_unique<Shard[]>(kNumShards)),
      max_inflight_prefetch_bytes_(
          ResolvePrefetchByteCap(options.max_inflight_prefetch_bytes)) {
  if (options_.metrics_name.empty()) {
    // Distinct auto label per anonymous instance so two caches never
    // accumulate into one instrument family member.
    static std::atomic<uint64_t> next_instance{1};
    metrics_name_ = "cache" + std::to_string(next_instance.fetch_add(1));
  } else {
    metrics_name_ = options_.metrics_name;
  }
  obs::MetricsRegistry* reg = obs::OrDefault(options_.registry);
  const obs::LabelSet labels{{"cache", metrics_name_}};
  metrics_.hits = reg->GetCounter("eon_cache_hits_total", labels);
  metrics_.misses = reg->GetCounter("eon_cache_misses_total", labels);
  metrics_.bytes_hit = reg->GetCounter("eon_cache_bytes_hit_total", labels);
  metrics_.bytes_filled =
      reg->GetCounter("eon_cache_fill_bytes_total", labels);
  metrics_.insertions = reg->GetCounter("eon_cache_insertions_total", labels);
  metrics_.evictions = reg->GetCounter("eon_cache_evictions_total", labels);
  metrics_.drops = reg->GetCounter("eon_cache_drops_total", labels);
  metrics_.coalesced =
      reg->GetCounter("eon_cache_coalesced_fetches_total", labels);
  metrics_.prefetch_issued =
      reg->GetCounter("eon_prefetch_issued_total", labels);
  metrics_.prefetch_useful =
      reg->GetCounter("eon_prefetch_useful_total", labels);
  metrics_.prefetch_wasted =
      reg->GetCounter("eon_prefetch_wasted_total", labels);
  metrics_.prefetch_coalesced =
      reg->GetCounter("eon_prefetch_coalesced_total", labels);
  metrics_.prefetch_rejected =
      reg->GetCounter("eon_prefetch_rejected_total", labels);
  metrics_.size_bytes = reg->GetGauge("eon_cache_size_bytes", labels);
  metrics_.files = reg->GetGauge("eon_cache_files", labels);
  metrics_.pinned_refs = reg->GetGauge("eon_cache_pinned_refs", labels);
  metrics_.prefetch_inflight_bytes =
      reg->GetGauge("eon_prefetch_inflight_bytes", labels);
  metrics_.fetch_wait_micros =
      reg->GetHistogram("eon_cache_fetch_wait_micros", labels);
  metrics_.warm_files = reg->GetCounter("eon_cache_warm_files_total", labels);
  metrics_.warm_micros = reg->GetHistogram("eon_cache_warm_micros", labels);
}

FileCache::~FileCache() { WaitIdle(); }

void FileCache::BeginAsyncTask() {
  std::lock_guard<std::mutex> lock(async_mu_);
  ++async_tasks_;
}

void FileCache::EndAsyncTask() {
  // Notify UNDER the lock: a WaitIdle caller (often the destructor) may
  // only return once it reacquires async_mu_, which orders it after this
  // notify — so the condvar can never be destroyed mid-broadcast.
  std::lock_guard<std::mutex> lock(async_mu_);
  --async_tasks_;
  async_cv_.notify_all();
}

void FileCache::WaitIdle() {
  std::unique_lock<std::mutex> lock(async_mu_);
  async_cv_.wait(lock, [this] { return async_tasks_ == 0; });
}

void FileCache::MarkDemandRead(Entry* entry) {
  if (!entry->prefetched) return;
  entry->prefetched = false;
  metrics_.prefetch_useful->Increment();
}

void FileCache::RecordDcEvent(obs::DcCacheEvent::Kind kind,
                              const std::string& key, uint64_t bytes) {
  if (options_.collector == nullptr) return;
  obs::DcCacheEvent e;
  e.node = metrics_name_;
  e.kind = kind;
  e.key = key;
  e.bytes = bytes;
  options_.collector->RecordCacheEvent(std::move(e));
}

FileCache::Shard& FileCache::ShardFor(const std::string& key) const {
  return shards_[std::hash<std::string>{}(key) % kNumShards];
}

CachePolicy FileCache::PolicyFor(const std::string& key) const {
  std::lock_guard<std::mutex> lock(policy_mu_);
  // Longest matching prefix wins.
  CachePolicy policy = CachePolicy::kDefault;
  size_t best_len = 0;
  for (const auto& [prefix, p] : prefix_policies_) {
    if (prefix.size() >= best_len &&
        key.compare(0, prefix.size(), prefix) == 0) {
      policy = p;
      best_len = prefix.size();
    }
  }
  return policy;
}

void FileCache::UpdateGauges() {
  metrics_.size_bytes->Set(
      static_cast<int64_t>(size_bytes_.load(std::memory_order_relaxed)));
  metrics_.files->Set(
      static_cast<int64_t>(file_count_.load(std::memory_order_relaxed)));
}

void FileCache::InsertLocked(Shard& shard, const std::string& key,
                             std::shared_ptr<const std::string> data,
                             CachePolicy policy, bool prefetched) {
  Entry e;
  e.data = std::move(data);
  e.policy_pinned = policy == CachePolicy::kPin;
  e.prefetched = prefetched;
  e.gen = NextStamp();
  e.last_access = NextStamp();
  size_bytes_.fetch_add(e.data->size(), std::memory_order_relaxed);
  file_count_.fetch_add(1, std::memory_order_relaxed);
  shard.entries.emplace(key, std::move(e));
  metrics_.insertions->Increment();
}

void FileCache::MaybeEvict() {
  if (size_bytes_.load(std::memory_order_relaxed) <= options_.capacity_bytes) {
    return;
  }
  // Take every shard lock (in index order) for a consistent global view,
  // then evict smallest recency stamps first — exactly the single-list
  // LRU order, since stamps are globally unique and monotone.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(kNumShards);
  for (size_t i = 0; i < kNumShards; ++i) {
    locks.emplace_back(shards_[i].mu);
  }

  // Prefetched-but-never-read entries go first regardless of recency —
  // speculative residency is the cheapest to give back — then LRU order
  // within each class.
  std::vector<std::tuple<int, uint64_t, Shard*, std::string>> candidates;
  for (size_t i = 0; i < kNumShards; ++i) {
    for (const auto& [key, e] : shards_[i].entries) {
      candidates.emplace_back(e.prefetched ? 0 : 1, e.last_access,
                              &shards_[i], key);
    }
  }
  std::sort(candidates.begin(), candidates.end());

  // Ref-pinned entries (in-progress reads) are never evicted; policy-
  // pinned entries only fall in the second pass, when unpinned entries
  // alone cannot fit the budget.
  auto evict_pass = [&](bool include_policy_pinned) {
    for (const auto& [pri, stamp, shard, key] : candidates) {
      (void)pri;
      (void)stamp;
      if (size_bytes_.load(std::memory_order_relaxed) <=
          options_.capacity_bytes) {
        return;
      }
      auto it = shard->entries.find(key);
      if (it == shard->entries.end()) continue;  // Evicted in pass 1.
      const Entry& e = it->second;
      if (e.ref_pins > 0) continue;
      if (!include_policy_pinned && e.policy_pinned) continue;
      if (e.prefetched) metrics_.prefetch_wasted->Increment();
      size_bytes_.fetch_sub(e.data->size(), std::memory_order_relaxed);
      file_count_.fetch_sub(1, std::memory_order_relaxed);
      metrics_.evictions->Increment();
      RecordDcEvent(obs::DcCacheEvent::Kind::kEviction, key, e.data->size());
      shard->entries.erase(it);
    }
  };
  evict_pass(/*include_policy_pinned=*/false);
  evict_pass(/*include_policy_pinned=*/true);
  locks.clear();
  UpdateGauges();
}

FileRef FileCache::MakePinnedRef(const std::string& key, const Entry& entry) {
  // The ref aliases the cached bytes; releasing the last copy unpins the
  // entry (from whatever thread drops it last). `gen` guards against a
  // drop + re-insert recycling the key while this ref is alive.
  struct Holder {
    FileCache* cache;
    std::string key;
    uint64_t gen;
    std::shared_ptr<const std::string> data;
  };
  auto* holder = new Holder{this, key, entry.gen, entry.data};
  return FileRef(holder->data.get(), [holder](const std::string*) {
    holder->cache->ReleasePin(holder->key, holder->gen);
    delete holder;
  });
}

void FileCache::ReleasePin(const std::string& key, uint64_t gen) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it != shard.entries.end() && it->second.gen == gen &&
      it->second.ref_pins > 0) {
    --it->second.ref_pins;
  }
  metrics_.pinned_refs->Sub(1);
}

Result<FileRef> FileCache::FetchShared(const std::string& key,
                                       bool allow_insert, bool pin) {
  Shard& shard = ShardFor(key);
  std::shared_ptr<Inflight> flight;
  {
    std::unique_lock<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      Entry& e = it->second;
      metrics_.hits->Increment();
      metrics_.bytes_hit->Increment(e.data->size());
      MarkDemandRead(&e);
      e.last_access = NextStamp();
      if (pin) {
        ++e.ref_pins;
        metrics_.pinned_refs->Add(1);
        return MakePinnedRef(key, e);
      }
      return FileRef(e.data);
    }
    metrics_.misses->Increment();

    auto fit = shard.inflight.find(key);
    if (fit != shard.inflight.end()) {
      // Singleflight: someone is already fetching this key — wait for
      // their result instead of issuing a duplicate storage read.
      flight = fit->second;
      metrics_.coalesced->Increment();
      RecordDcEvent(obs::DcCacheEvent::Kind::kCoalescedWait, key, 0);
      flight->cv.wait(lock, [&] { return flight->done; });
      if (!flight->status.ok()) return flight->status;
      auto eit = shard.entries.find(key);
      if (eit == shard.entries.end() && allow_insert) {
        // The winner didn't insert (bypass fetch) or the entry is already
        // gone; insert on this caller's behalf. Policy lookup requires
        // dropping the shard lock (lock order: policy before shards).
        lock.unlock();
        const CachePolicy policy = PolicyFor(key);
        lock.lock();
        eit = shard.entries.find(key);
        if (eit == shard.entries.end() &&
            policy != CachePolicy::kNeverCache &&
            flight->data->size() <= options_.capacity_bytes) {
          InsertLocked(shard, key, flight->data, policy);
          eit = shard.entries.find(key);
        }
      }
      FileRef out;
      if (eit != shard.entries.end()) {
        Entry& e = eit->second;
        MarkDemandRead(&e);
        e.last_access = NextStamp();
        if (pin) {
          ++e.ref_pins;
          metrics_.pinned_refs->Add(1);
          out = MakePinnedRef(key, e);
        } else {
          out = e.data;
        }
      } else {
        out = flight->data;  // Not resident; refcount keeps it alive.
      }
      lock.unlock();
      MaybeEvict();
      UpdateGauges();
      return out;
    }

    // This caller is the singleflight winner: fetch outside the lock.
    flight = std::make_shared<Inflight>();
    shard.inflight.emplace(key, flight);
  }

  // Attribute the shared-storage request to this cache's node in the
  // store's Data Collector events; under a live trace the demand fetch is
  // a "cache_fetch" span (fetch-wait attribution charges these).
  Result<std::string> got = [&]() -> Result<std::string> {
    obs::Span fetch_span = obs::StartTraceSpan("cache_fetch");
    if (fetch_span.valid()) {
      fetch_span.SetNode(metrics_name_);
      fetch_span.SetAttribute("key", key);
    }
    obs::DcNodeScope dc_scope(metrics_name_);
    return shared_->Get(key);
  }();
  const CachePolicy policy = PolicyFor(key);
  FileRef out;
  {
    std::unique_lock<std::mutex> lock(shard.mu);
    if (!got.ok()) {
      flight->status = got.status();
    } else {
      auto data = std::make_shared<const std::string>(std::move(*got));
      flight->data = data;
      metrics_.bytes_filled->Increment(data->size());
      RecordDcEvent(obs::DcCacheEvent::Kind::kMissFill, key, data->size());
      if (allow_insert && policy != CachePolicy::kNeverCache &&
          data->size() <= options_.capacity_bytes &&
          shard.entries.find(key) == shard.entries.end()) {
        InsertLocked(shard, key, data, policy);
      }
      auto eit = shard.entries.find(key);
      if (pin && eit != shard.entries.end()) {
        Entry& e = eit->second;
        MarkDemandRead(&e);
        ++e.ref_pins;
        metrics_.pinned_refs->Add(1);
        out = MakePinnedRef(key, e);
      } else {
        out = std::move(data);
      }
    }
    flight->done = true;
    shard.inflight.erase(key);
    flight->cv.notify_all();
  }
  if (!got.ok()) return got.status();
  MaybeEvict();
  UpdateGauges();
  return out;
}

Result<std::string> FileCache::Fetch(const std::string& key) {
  EON_ASSIGN_OR_RETURN(FileRef ref,
                       FetchShared(key, /*allow_insert=*/true, /*pin=*/false));
  return *ref;
}

Result<FileRef> FileCache::FetchRef(const std::string& key) {
  return FetchShared(key, /*allow_insert=*/true, /*pin=*/true);
}

PendingFile FileCache::FetchRefAsync(const std::string& key) {
  {
    // Resident fast path: complete on the caller without a pool hop, so
    // the fully-warm scan costs exactly what FetchRef costs.
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      Entry& e = it->second;
      metrics_.hits->Increment();
      metrics_.bytes_hit->Increment(e.data->size());
      MarkDemandRead(&e);
      e.last_access = NextStamp();
      ++e.ref_pins;
      metrics_.pinned_refs->Add(1);
      return PendingFile::MakeReady(MakePinnedRef(key, e));
    }
  }
  if (options_.io_pool == nullptr) {
    return PendingFile::MakeReady(
        FetchShared(key, /*allow_insert=*/true, /*pin=*/true));
  }
  PendingFile pending = PendingFile::MakePending(metrics_.fetch_wait_micros);
  BeginAsyncTask();
  // The issuing thread's trace context rides into the pool task by value
  // (the context shared-owns its tracer, so it stays valid even if the
  // query finishes first).
  options_.io_pool->Submit(
      [this, key, pending, trace = obs::CurrentTraceCopy()]() mutable {
        {
          obs::TraceScope task_trace(std::move(trace));
          pending.Complete(
              FetchShared(key, /*allow_insert=*/true, /*pin=*/true));
        }
        // Drop this task's handle before EndAsyncTask: once the reader has
        // dropped its copy, the handle holds the last pinned ref, and its
        // unpin must reach a cache the destructor has not freed yet.
        pending = PendingFile();
        EndAsyncTask();
      });
  return pending;
}

size_t FileCache::PrefetchAsync(const std::vector<PrefetchRequest>& requests) {
  size_t missing = 0;
  for (const PrefetchRequest& r : requests) {
    {
      // Cheap pre-check so obviously-redundant requests consume neither
      // admission window nor a pool slot.
      Shard& shard = ShardFor(r.key);
      std::lock_guard<std::mutex> lock(shard.mu);
      if (shard.entries.find(r.key) != shard.entries.end() ||
          shard.inflight.find(r.key) != shard.inflight.end()) {
        metrics_.prefetch_coalesced->Increment();
        continue;
      }
    }
    ++missing;
    // Admission: reserve the size hint against the in-flight window (CAS
    // loop so concurrent issuers never overshoot). Beyond-window requests
    // are refused outright, not queued — a later demand fetch still gets
    // the file, this only bounds speculation.
    uint64_t cur = inflight_prefetch_bytes_.load(std::memory_order_relaxed);
    bool admitted = false;
    while (cur + r.size_hint <= max_inflight_prefetch_bytes_) {
      if (inflight_prefetch_bytes_.compare_exchange_weak(
              cur, cur + r.size_hint, std::memory_order_relaxed)) {
        admitted = true;
        break;
      }
    }
    if (!admitted) {
      metrics_.prefetch_rejected->Increment();
      continue;
    }
    metrics_.prefetch_inflight_bytes->Add(static_cast<int64_t>(r.size_hint));
    if (options_.io_pool == nullptr) {
      DoPrefetch(r.key, r.size_hint);
      continue;
    }
    BeginAsyncTask();
    options_.io_pool->Submit([this, key = r.key, hint = r.size_hint,
                              trace = obs::CurrentTraceCopy()] {
      obs::TraceScope task_trace(std::move(trace));
      DoPrefetch(key, hint);
      EndAsyncTask();
    });
  }
  return missing;
}

void FileCache::DoPrefetch(const std::string& key, uint64_t hint) {
  Shard& shard = ShardFor(key);
  std::shared_ptr<Inflight> flight;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.entries.find(key) != shard.entries.end() ||
        shard.inflight.find(key) != shard.inflight.end()) {
      // Became resident or in flight (demand or another prefetch) since
      // admission: the work is already paid for elsewhere. The inflight
      // registration happens HERE, in the task body, not at Submit time —
      // so a queued-but-unstarted prefetch can never be joined, and a
      // demand fetch that overtakes it in the pool queue proceeds on its
      // own instead of deadlocking behind it.
      metrics_.prefetch_coalesced->Increment();
    } else {
      flight = std::make_shared<Inflight>();
      shard.inflight.emplace(key, flight);
    }
  }
  if (flight != nullptr) {
    metrics_.prefetch_issued->Increment();
    // The scopes hold a POINTER to the string they are given, so the
    // origin must outlive the statement — a string literal temporary
    // would dangle.
    static const std::string kPrefetchOrigin = "prefetch";
    Result<std::string> got = [&]() -> Result<std::string> {
      // "prefetch" spans are fire-and-forget: they may end after the
      // issuing query's span does (SpansNest exempts them).
      obs::Span prefetch_span = obs::StartTraceSpan("prefetch");
      if (prefetch_span.valid()) {
        prefetch_span.SetNode(metrics_name_);
        prefetch_span.SetAttribute("key", key);
        prefetch_span.SetAttribute("size_hint", static_cast<int64_t>(hint));
      }
      obs::DcNodeScope node_scope(metrics_name_);
      obs::DcOriginScope origin_scope(kPrefetchOrigin);
      return shared_->Get(key);
    }();
    const CachePolicy policy = PolicyFor(key);
    bool inserted = false;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      if (!got.ok()) {
        // The inflight entry is erased below, so the next demand fetch
        // issues a fresh storage read — failures are never negatively
        // cached. A demand fetch already waiting on this flight sees the
        // error, exactly as if it had lost the singleflight race to a
        // failing demand winner.
        flight->status = got.status();
      } else {
        auto data = std::make_shared<const std::string>(std::move(*got));
        flight->data = data;
        metrics_.bytes_filled->Increment(data->size());
        RecordDcEvent(obs::DcCacheEvent::Kind::kMissFill, key, data->size());
        if (policy != CachePolicy::kNeverCache &&
            data->size() <= options_.capacity_bytes &&
            shard.entries.find(key) == shard.entries.end()) {
          InsertLocked(shard, key, data, policy, /*prefetched=*/true);
          inserted = true;
        }
      }
      flight->done = true;
      shard.inflight.erase(key);
      flight->cv.notify_all();
    }
    if (inserted) {
      MaybeEvict();
      UpdateGauges();
    }
  }
  inflight_prefetch_bytes_.fetch_sub(hint, std::memory_order_relaxed);
  metrics_.prefetch_inflight_bytes->Sub(static_cast<int64_t>(hint));
}

Result<std::string> FileCache::FetchBypass(const std::string& key) {
  EON_ASSIGN_OR_RETURN(
      FileRef ref, FetchShared(key, /*allow_insert=*/false, /*pin=*/false));
  return *ref;
}

Status FileCache::Insert(const std::string& key, const std::string& data) {
  if (!options_.write_through) return Status::OK();
  const CachePolicy policy = PolicyFor(key);
  if (policy == CachePolicy::kNeverCache ||
      data.size() > options_.capacity_bytes) {
    return Status::OK();
  }
  {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.entries.find(key) != shard.entries.end()) {
      return Status::OK();  // Files are immutable.
    }
    InsertLocked(shard, key, std::make_shared<const std::string>(data),
                 policy);
  }
  MaybeEvict();
  UpdateGauges();
  return Status::OK();
}

void FileCache::Drop(const std::string& key) {
  {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(key);
    if (it == shard.entries.end()) return;
    if (it->second.prefetched) metrics_.prefetch_wasted->Increment();
    size_bytes_.fetch_sub(it->second.data->size(),
                          std::memory_order_relaxed);
    file_count_.fetch_sub(1, std::memory_order_relaxed);
    shard.entries.erase(it);
    metrics_.drops->Increment();
  }
  UpdateGauges();
}

void FileCache::DropPrefix(const std::string& prefix) {
  for (size_t i = 0; i < kNumShards; ++i) {
    Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.entries.begin(); it != shard.entries.end();) {
      if (it->first.compare(0, prefix.size(), prefix) == 0) {
        if (it->second.prefetched) metrics_.prefetch_wasted->Increment();
        size_bytes_.fetch_sub(it->second.data->size(),
                              std::memory_order_relaxed);
        file_count_.fetch_sub(1, std::memory_order_relaxed);
        metrics_.drops->Increment();
        it = shard.entries.erase(it);
      } else {
        ++it;
      }
    }
  }
  UpdateGauges();
}

bool FileCache::Contains(const std::string& key) const {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.entries.find(key) != shard.entries.end();
}

void FileCache::Clear() {
  for (size_t i = 0; i < kNumShards; ++i) {
    Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [key, e] : shard.entries) {
      if (e.prefetched) metrics_.prefetch_wasted->Increment();
      size_bytes_.fetch_sub(e.data->size(), std::memory_order_relaxed);
      file_count_.fetch_sub(1, std::memory_order_relaxed);
    }
    shard.entries.clear();
  }
  UpdateGauges();
}

void FileCache::SetPolicy(const std::string& key_prefix, CachePolicy policy) {
  std::lock_guard<std::mutex> policy_lock(policy_mu_);
  prefix_policies_[key_prefix] = policy;
  // Apply pin status to already-resident entries.
  for (size_t i = 0; i < kNumShards; ++i) {
    Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto& [key, entry] : shard.entries) {
      if (key.compare(0, key_prefix.size(), key_prefix) == 0) {
        entry.policy_pinned = policy == CachePolicy::kPin;
      }
    }
  }
}

std::vector<std::string> FileCache::MostRecentlyUsed(
    uint64_t budget_bytes) const {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(kNumShards);
  for (size_t i = 0; i < kNumShards; ++i) {
    locks.emplace_back(shards_[i].mu);
  }
  std::vector<std::tuple<uint64_t, const std::string*, uint64_t>> all;
  for (size_t i = 0; i < kNumShards; ++i) {
    for (const auto& [key, e] : shards_[i].entries) {
      all.emplace_back(e.last_access, &key, e.data->size());
    }
  }
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return std::get<0>(a) > std::get<0>(b);  // Most recent first.
  });
  std::vector<std::string> out;
  uint64_t used = 0;
  for (const auto& [stamp, key, sz] : all) {
    (void)stamp;
    if (used + sz > budget_bytes) break;
    used += sz;
    out.push_back(*key);
  }
  return out;
}

Status FileCache::WarmFrom(const std::vector<std::string>& keys,
                           FileFetcher* source) {
  const int64_t warm_start = WarmWallMicros();
  // Fan the source fetches out on the I/O pool — warming N files costs
  // roughly the slowest fetch per lane, not the sum — then insert serially
  // in reverse, so the most-recently-used file ends up most recent here
  // too, making the new cache "resemble the cache of its peer".
  std::vector<std::optional<Result<std::string>>> results(keys.size());
  EON_RETURN_IF_ERROR(
      ParallelFor(options_.io_pool, keys.size(), [&](size_t i) {
        results[i] = source->Fetch(keys[i]);
        return Status::OK();
      }));
  for (size_t n = keys.size(); n-- > 0;) {
    Result<std::string>& data = *results[n];
    if (!data.ok()) {
      if (data.status().IsNotFound()) continue;  // Peer evicted meanwhile.
      return data.status();
    }
    EON_RETURN_IF_ERROR(Insert(keys[n], *data));
    metrics_.warm_files->Increment();
  }
  metrics_.warm_micros->Observe(
      static_cast<double>(WarmWallMicros() - warm_start));
  return Status::OK();
}

Result<std::string> FileCache::TryGetResident(const std::string& key) const {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    return Status::NotFound("not resident: " + key);
  }
  return *it->second.data;
}

uint64_t FileCache::pinned_refs() const {
  const int64_t v = metrics_.pinned_refs->Value();
  return v < 0 ? 0 : static_cast<uint64_t>(v);
}

CacheStats FileCache::stats() const {
  CacheStats s;
  s.hits = metrics_.hits->Value();
  s.misses = metrics_.misses->Value();
  s.bytes_hit = metrics_.bytes_hit->Value();
  s.bytes_filled = metrics_.bytes_filled->Value();
  s.insertions = metrics_.insertions->Value();
  s.evictions = metrics_.evictions->Value();
  s.drops = metrics_.drops->Value();
  s.coalesced = metrics_.coalesced->Value();
  s.prefetch_issued = metrics_.prefetch_issued->Value();
  s.prefetch_useful = metrics_.prefetch_useful->Value();
  s.prefetch_wasted = metrics_.prefetch_wasted->Value();
  s.prefetch_coalesced = metrics_.prefetch_coalesced->Value();
  s.prefetch_rejected = metrics_.prefetch_rejected->Value();
  return s;
}

}  // namespace eon
