#ifndef EON_CLUSTER_CLUSTER_H_
#define EON_CLUSTER_CLUSTER_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "cluster/node.h"
#include "common/io_pool.h"
#include "common/serial_worker.h"
#include "common/thread_pool.h"
#include "shard/participation.h"

namespace eon {

/// Static description of a node at cluster creation.
struct NodeSpec {
  std::string name;
  std::string subcluster;  ///< Empty = "default".
};

struct ClusterOptions {
  uint32_t num_shards = 4;
  /// Subscribers per shard ("for node fault tolerance, there must be more
  /// than one subscriber to each shard", Section 3.1).
  int k_safety = 2;
  NodeOptions node;
  uint64_t seed = 42;
  std::string db_name = "eon";
  /// Revive-lease duration; revive aborts while another cluster's lease on
  /// the shared storage location is unexpired (Section 3.5).
  int64_t lease_duration_micros = 60LL * 1000 * 1000;
  /// Metrics registry for cluster-level instruments (commits, reaped
  /// files, node-up gauges via NodeOptions); null = process default.
  obs::MetricsRegistry* registry = nullptr;
  /// Morsel-execution parallel width for queries on this cluster.
  /// 0 = auto: the EON_EXEC_THREADS environment variable if set, else
  /// min(hardware threads, 8). 1 = fully serial (no worker threads) —
  /// the deterministic fallback; results are byte-identical at any width.
  int exec_threads = 0;
  /// Dedicated I/O pool width, shared by every node's file cache for
  /// async fetches, prefetch, and parallel cache warming. Distinct from
  /// exec_threads: I/O lanes spend their life blocked on (simulated)
  /// object-store latency, so they are cheap to overprovision and must
  /// never steal a compute lane. 0 = auto: EON_IO_THREADS if set, else 4.
  int io_threads = 0;
  /// Scan read-ahead: while executing morsel i, the executor prefetches
  /// the column files of morsels i+1..i+prefetch_depth into the serving
  /// node's cache through the I/O pool. 0 disables prefetch; < 0 = auto:
  /// EON_PREFETCH_DEPTH if set, else 4.
  int prefetch_depth = -1;
  /// Near-data predicate/aggregate pushdown (ObjectStore::ScanObject).
  /// 0 = off; 1 = cost-based (push a morsel's scan into the store when
  /// the container is cold and the predicate selective enough that the
  /// response is cheaper than fetching the column files); 2 = force (push
  /// every eligible morsel — benchmarking / tests). < 0 = auto:
  /// EON_PUSHDOWN if set, else 0.
  int pushdown = -1;
  /// Cost-based mode's selectivity ceiling: predicates expected to keep
  /// more than this fraction of rows stay on the local path. < 0 = auto:
  /// EON_PUSHDOWN_SELECTIVITY_CUTOFF if set, else 0.35.
  double pushdown_selectivity_cutoff = -1.0;
  /// Distributed-tracing sample rate. In [0,1]: every query is traced
  /// (spans collected) and the trace is *retained* into dc_trace_spans
  /// when the query is slow (EON_SLOW_QUERY_MICROS), sampled with this
  /// probability, or session-forced — so 0 means "slow queries only".
  /// kTraceDisabled turns span collection off entirely (the benchmarked
  /// zero-overhead baseline). Default -1 = auto: EON_TRACE_SAMPLE if set
  /// (negative value = disabled), else 0.
  static constexpr double kTraceDisabled = -2.0;
  double trace_sample = -1.0;
  /// WOS ingest fast path (WAL + in-memory memtable): INSERT and small
  /// COPY batches commit to the write-ahead log and land in ROS later via
  /// moveout. 0 = off (every write takes the direct-ROS path); 1 = on.
  /// < 0 = auto: EON_WOS if set ("off"/"0"/"false" disables), else on.
  int wos = -1;
  /// Group-commit window in microseconds: the flush leader holds its WAL
  /// upload open this long so concurrent writers share one durability
  /// round-trip. 0 = flush immediately. < 0 = auto:
  /// EON_GROUP_COMMIT_MICROS if set, else 200.
  int64_t group_commit_micros = -1;
  /// Moveout threshold: a node's unflushed WOS rows per table at or above
  /// this count schedule a moveout on the Tuple Mover thread (INSERTs
  /// wait at 4x). < 0 = auto: EON_WOS_FLUSH_ROWS if set, else 4096.
  int64_t wos_flush_rows = -1;
};

/// A file awaiting deletion from shared storage (Section 6.5): reclaimed
/// only once no query cluster-wide can reference it AND the dropping
/// transaction is durable past the truncation version.
struct PendingFileDelete {
  std::string key;
  uint64_t drop_version = 0;
};

/// The Eon mode cluster: owns the nodes, replicates catalog commits to
/// shard subscribers, drives the subscription state machine (Figure 4),
/// handles node failure/recovery/instance loss, runs the metadata sync +
/// truncation-version service, revives from shared storage, and reclaims
/// files.
class EonCluster {
 public:
  /// Stops the Tuple Mover thread before any node or pool goes away.
  ~EonCluster();

  /// Bootstrap a fresh database on empty shared storage: sharding config,
  /// node registry, k-safe subscription layout (all ACTIVE), first sync
  /// and cluster_info.json upload.
  static Result<std::unique_ptr<EonCluster>> Create(
      ObjectStore* shared_storage, Clock* clock, const ClusterOptions& options,
      const std::vector<NodeSpec>& specs);

  /// Start a cluster from shared storage (Section 3.5): read the latest
  /// cluster_info.json, honor the lease, download each node's catalog,
  /// truncate to the consensus version, adopt a fresh incarnation id and
  /// publish a new cluster_info.json as the commit point.
  static Result<std::unique_ptr<EonCluster>> Revive(
      ObjectStore* shared_storage, Clock* clock, const ClusterOptions& options,
      const std::vector<NodeSpec>& specs);

  /// Attach a READ-ONLY secondary compute cluster to a running database's
  /// shared storage (the paper's "database sharing" direction, Section
  /// 10): downloads the catalog at the published truncation version
  /// without taking the revive lease; serves queries from its own caches;
  /// never commits. See also cluster/sharing.h.
  static Result<std::unique_ptr<EonCluster>> AttachReadOnly(
      ObjectStore* shared_storage, Clock* clock, const ClusterOptions& options,
      const std::vector<NodeSpec>& specs);

  /// Advance a reader cluster to the source's latest published truncation
  /// version by replaying uploaded transaction logs. Returns the number of
  /// versions applied. Fails if the source was revived since attach.
  Result<uint64_t> RefreshReadOnly();

  bool is_read_only() const { return read_only_; }

  // --- Topology access ---

  Node* node(Oid oid);
  Node* node_by_name(const std::string& name);
  const std::vector<std::unique_ptr<Node>>& nodes() const { return nodes_; }
  std::set<Oid> up_node_oids() const;
  /// Any up node (commit coordination, snapshots); null if none.
  Node* AnyUpNode();

  const IncarnationId& incarnation() const { return incarnation_; }
  ShardingConfig sharding() const;
  Clock* clock() { return clock_; }
  ObjectStore* shared_storage() { return shared_; }
  const ClusterOptions& options() const { return options_; }
  bool is_shutdown() const { return shutdown_; }
  /// Shared morsel-execution pool (see ClusterOptions::exec_threads).
  ThreadPool* exec_pool() { return exec_pool_.get(); }
  /// Shared I/O pool backing cache fetches (ClusterOptions::io_threads).
  IoPool* io_pool() { return io_pool_.get(); }
  /// Effective scan read-ahead depth (ClusterOptions::prefetch_depth).
  int prefetch_depth() const { return prefetch_depth_; }
  /// Effective pushdown mode (ClusterOptions::pushdown).
  int pushdown_mode() const { return pushdown_mode_; }
  /// Effective cost-model selectivity ceiling for pushdown.
  double pushdown_selectivity_cutoff() const {
    return pushdown_selectivity_cutoff_;
  }
  /// Effective trace sample rate (ClusterOptions::trace_sample): < 0 =
  /// tracing disabled, else the probabilistic retention rate.
  double trace_sample() const { return trace_sample_; }
  /// Flip the sampling policy on a live cluster (tests and the overhead
  /// bench, which compares tracing modes on one fixture so the
  /// comparison is not polluted by allocator/cache placement differences
  /// between separately built clusters). Call only between queries.
  void set_trace_sample(double rate) { trace_sample_ = rate; }
  /// Effective WOS fast-path switch (ClusterOptions::wos).
  bool wos_enabled() const { return options_.node.wos.enabled; }
  /// Effective group-commit window (ClusterOptions::group_commit_micros).
  int64_t group_commit_micros() const {
    return options_.node.wos.group_commit_micros;
  }
  /// Effective moveout row threshold (ClusterOptions::wos_flush_rows).
  uint64_t wos_flush_rows() const { return options_.node.wos.flush_rows; }

  // --- Tuple Mover (Section 2.3) ---

  /// The cluster's Tuple Mover service thread. An INSERT that pushes a
  /// memtable past the moveout threshold posts a keyed moveout job here
  /// and returns; tests Drain() it to wait until the mover is idle.
  SerialWorker* mover() { return mover_.get(); }
  /// Serializes every moveout — background, TupleMover::RunMoveout and
  /// direct MoveoutWos calls — from its snapshot through its WAL
  /// truncation, so two truncations of one log never overlap.
  std::mutex& moveout_mutex() { return moveout_mu_; }
  /// The table whose snapshotted WOS rows a moveout is landing
  /// (kInvalidOid = none). Set under every WOS gate, cleared when that
  /// moveout commits or gives up; DELETE and UPDATE read it under the
  /// gates and wait that moveout out.
  Oid moving_table() const { return moving_table_.load(); }
  void set_moving_table(Oid oid) { moving_table_.store(oid); }
  /// Tuple Mover instruments, registered with the cluster so
  /// system_metrics lists them before the first moveout.
  struct MoverMetrics {
    /// Time one moveout held the WOS gates (both windows), cluster clock.
    obs::Histogram* gate_hold_micros = nullptr;
    /// Time a moveout job waited in the queue before it started.
    obs::Histogram* queue_wait_micros = nullptr;
    /// INSERTs that found their memtable at the cap and waited.
    obs::Counter* backpressure_waits = nullptr;
  };
  const MoverMetrics& mover_metrics() const { return mover_metrics_; }

  // --- Distributed commit (Section 3.2) ---

  /// Commit `txn` on `coordinator` and replicate the log record to every
  /// other up node (each applying under its shard filter). When
  /// `observed_subscribers` is given (one entry per shard the transaction
  /// wrote storage into), commit validates that no additional subscriber
  /// "snuck in" since planning — new subscribers would lack the eagerly
  /// distributed metadata — and aborts otherwise.
  Result<uint64_t> CommitDistributed(
      Oid coordinator, const CatalogTxn& txn,
      const std::map<ShardId, std::set<Oid>>* observed_subscribers = nullptr);

  // --- Subscription lifecycle (Figure 4) ---

  /// PENDING → metadata transfer → PASSIVE → (cache warm) → ACTIVE.
  Status SubscribeNode(Oid node_oid, ShardId shard, bool warm_cache = true);

  /// REMOVING → (fault-tolerance check) → drop metadata + purge cache →
  /// subscription dropped. Refuses (Unavailable) while dropping would
  /// leave the shard without enough other ACTIVE subscribers.
  Status UnsubscribeNode(Oid node_oid, ShardId shard);

  /// Drive subscriptions toward the planned k-safe layout (node add /
  /// remove elasticity, Section 6.4).
  Status Rebalance(bool warm_cache = true);

  // --- Node failure & recovery (Sections 3.3, 6.1) ---

  /// Process termination: the node stops serving; shards it served remain
  /// available via other subscribers. Shuts the cluster down if quorum or
  /// shard coverage is lost. Takes the node's WOS gate, so a moveout's
  /// gated commit window sees the node either up for its whole length or
  /// already down.
  Status KillNode(Oid node_oid);

  /// Process restart with local disk intact: catch up on missed log
  /// records from a peer (incremental diffs), re-subscribe (ACTIVE subs
  /// forced through PENDING), optionally warm the lukewarm cache.
  Status RestartNode(Oid node_oid, bool warm_cache = true);

  /// Instance loss: local catalog and cache wiped.
  Status DestroyNodeInstance(Oid node_oid);

  /// Rebuild a destroyed instance: metadata from a peer (no transaction
  /// loss), cold cache warmed from a same-subcluster peer.
  Status RecoverDestroyedNode(Oid node_oid, bool warm_cache = true);

  /// Quorum of up nodes AND every shard has an up ACTIVE subscriber
  /// (Section 3.4's viability invariants).
  bool IsViable() const;

  // --- Metadata durability service (Section 3.5) ---

  /// Upload pending transaction logs (and periodic checkpoints) from every
  /// up node. Clean shutdowns call with force_checkpoint = true.
  Status SyncAll(bool force_checkpoint = false);

  /// Recompute the consensus truncation version (Figure 5) from uploaded
  /// sync intervals and publish a new cluster_info.json with a fresh lease.
  Status UpdateClusterInfo();

  uint64_t last_truncation_version() const { return last_truncation_; }

  // --- File deletion (Section 6.5) ---

  /// Called when a commit drops storage: files leave every node's cache
  /// immediately (local refcount zero) and enter the pending-delete queue
  /// for shared storage.
  void TrackDroppedFiles(const std::vector<std::string>& keys,
                         uint64_t drop_version);

  /// Online reaper: delete pending files whose drop version is below both
  /// the gossiped cluster-minimum running-query version and the truncation
  /// version. Returns the number of files deleted.
  Result<uint64_t> ReapFiles();

  /// Fallback global enumeration for leaked files (crash mid-operation):
  /// list shared storage, keep anything referenced by any node's catalog,
  /// pending deletion, or minted by a live node instance; delete the rest.
  Result<uint64_t> CleanLeakedFiles();

  size_t pending_delete_count() const { return pending_deletes_.size(); }

 private:
  EonCluster(ObjectStore* shared_storage, Clock* clock,
             const ClusterOptions& options);

  /// ClusterOptions::exec_threads → effective pool width (see its doc).
  static int ResolveExecThreads(int configured);
  /// ClusterOptions::io_threads → effective I/O pool width (see its doc).
  static int ResolveIoThreads(int configured);
  /// ClusterOptions::prefetch_depth → effective read-ahead depth.
  static int ResolvePrefetchDepth(int configured);
  /// ClusterOptions::pushdown → effective pushdown mode.
  static int ResolvePushdown(int configured);
  /// ClusterOptions::pushdown_selectivity_cutoff → effective ceiling.
  static double ResolvePushdownCutoff(double configured);
  /// ClusterOptions::trace_sample → effective rate (-1 = disabled).
  static double ResolveTraceSample(double configured);
  /// ClusterOptions::wos → effective fast-path switch.
  static bool ResolveWos(int configured);
  /// ClusterOptions::group_commit_micros → effective window.
  static int64_t ResolveGroupCommitMicros(int64_t configured);
  /// ClusterOptions::wos_flush_rows → effective moveout threshold.
  static uint64_t ResolveWosFlushRows(int64_t configured);

  Status BuildNodes(const std::vector<NodeSpec>& specs);
  /// Apply log records the target missed, fetched from any up peer.
  Status BringNodeUpToDate(Node* target);
  /// Full storage-metadata import for a shard from a source node.
  Status TransferShardMetadata(Node* target, ShardId shard);
  /// Pick a warm peer, preferring the same subcluster (Section 5.2).
  Node* PickWarmPeer(const Node& target, ShardId shard);
  Status WarmNodeCache(Node* target);
  Status ResubscribeNode(Node* target, bool warm_cache);
  /// Shared tail of RestartNode and RecoverDestroyedNode. The caller holds
  /// `commit_lock` (on commit_mu_) with the node's catalog in place. Marks
  /// the node up, replays its WAL and runs `catch_up` before any commit
  /// can see it up, then releases the lock and re-subscribes. Any failure
  /// past MarkUp takes the node back down.
  Status ComeUp(Node* target, bool warm_cache,
                std::unique_lock<std::mutex> commit_lock,
                const std::function<Status()>& catch_up);
  void CheckViabilityAndMaybeShutdown();

  ObjectStore* shared_;
  Clock* clock_;
  ClusterOptions options_;
  std::unique_ptr<ThreadPool> exec_pool_;
  /// Declared before nodes_ on purpose: node caches submit tasks to this
  /// pool, and FileCache's destructor waits for its in-flight async work
  /// — the pool's workers must still be draining the queue while the
  /// nodes (destroyed first, reverse declaration order) shut down.
  std::unique_ptr<IoPool> io_pool_;
  int prefetch_depth_ = 0;
  int pushdown_mode_ = 0;
  double pushdown_selectivity_cutoff_ = 0.35;
  double trace_sample_ = -1.0;
  IncarnationId incarnation_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<PendingFileDelete> pending_deletes_;
  uint64_t last_truncation_ = 0;
  /// Written by node lifecycle calls, read by concurrent commits.
  std::atomic<bool> shutdown_{false};
  /// Serializes the commit point of CommitDistributed: the coordinator's
  /// catalog commit and the replication of its log record to peers must
  /// be atomic, or a later version can reach a peer before an earlier
  /// one. Prepare work (container writes, uploads) stays outside — only
  /// the short commit section serializes (the OCC regime of Section 4).
  std::mutex commit_mu_;
  /// Cluster-level registry instruments.
  struct {
    obs::Counter* commits = nullptr;        ///< eon_cluster_commits_total
    obs::Counter* files_reaped = nullptr;   ///< eon_cluster_files_reaped_total
    obs::Gauge* pending_deletes = nullptr;  ///< eon_cluster_pending_deletes
  } metrics_;
  /// Reader clusters (AttachReadOnly): no commits, no metadata uploads;
  /// incarnation_ records the SOURCE database's incarnation.
  bool read_only_ = false;
  std::mutex moveout_mu_;
  std::atomic<Oid> moving_table_{kInvalidOid};
  MoverMetrics mover_metrics_;
  /// Its jobs use the nodes and both pools: ~EonCluster stops it first.
  std::unique_ptr<SerialWorker> mover_ = std::make_unique<SerialWorker>();
};

}  // namespace eon

#endif  // EON_CLUSTER_CLUSTER_H_
