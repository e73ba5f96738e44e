#ifndef DITA_SERVING_SERVICE_H_
#define DITA_SERVING_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/engine.h"
#include "obs/lifecycle.h"
#include "serving/scheduler.h"
#include "serving/snapshot.h"
#include "util/timer.h"
#include "workload/dataset.h"

namespace dita {

/// Version-tagged LRU cache for the serving read path (DESIGN.md §5g).
/// Every entry stores the canonical bytes of the request it answers — the
/// query kind, the tau / k bit patterns, the stats flag, and the query
/// points — and is indexed by a 128-bit digest of those bytes. A hit needs
/// both the digest and the bytes to match, so two requests whose digests
/// collide never alias: a hit is byte-for-byte the answer the engine would
/// recompute for exactly this request.
///
/// Staleness is impossible by two independent guards:
///  1. every publish (Insert / Delete / merge) calls InvalidateAll;
///  2. a hit additionally requires the entry's tagged snapshot version to
///     equal the looking query's current version — so a Store racing a
///     publish can never be served afterwards (versions bump on every
///     publish, and equal versions imply identical live sets).
///
/// Capacity 0 (the ServingOptions::answer_cache_entries default) disables
/// the cache entirely; every method is then a counter-free no-op.
class AnswerCache {
 public:
  struct Key {
    uint64_t h1 = 0;
    uint64_t h2 = 0;
    friend bool operator==(const Key&, const Key&) = default;
  };

  /// Canonical bytes of everything that determines `req`'s answer on a
  /// fixed snapshot. The metric is per-service (all requests share it), so
  /// it is not part of them.
  static std::string RequestBytes(const QueryRequest& req);

  /// 128-bit digest of canonical request bytes: the index key.
  static Key KeyOf(std::string_view bytes);

  /// Sets capacity and registers the serving.cache.* counters. Called once
  /// from the service constructor, before any traffic.
  void Configure(size_t capacity, obs::MetricsRegistry* metrics);

  bool enabled() const { return capacity_ > 0; }

  /// On hit (key present, entry bytes equal to `request`, AND entry tagged
  /// with `version`) copies the stored result into `out`, refreshes LRU
  /// order, and returns true. An entry for different request bytes (a
  /// digest collision) is a miss and stays cached for its own request. A
  /// version mismatch — an entry stored by a query that raced a publish —
  /// is erased and counted as a miss.
  bool Lookup(const Key& key, std::string_view request, uint64_t version,
              QueryResult* out);

  /// Inserts (or replaces) the entry under `key` with `request`'s bytes and
  /// `res`, tagged with the snapshot version it was computed against,
  /// evicting the LRU tail past capacity.
  void Store(const Key& key, std::string request, uint64_t version,
             const QueryResult& res);

  /// Drops every entry. Called by the write path after each publish.
  void InvalidateAll();

  uint64_t hits() const { return hits_.load(); }
  uint64_t misses() const { return misses_.load(); }
  uint64_t evictions() const { return evictions_.load(); }
  uint64_t invalidations() const { return invalidations_.load(); }

 private:
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return static_cast<size_t>(k.h1 ^ (k.h2 * 0x9e3779b97f4a7c15ull));
    }
  };
  struct Entry {
    Key key;
    std::string request;
    uint64_t version = 0;
    QueryResult result;
  };

  size_t capacity_ = 0;
  std::mutex mu_;
  /// LRU order, most recent first; map values point into the list.
  std::list<Entry> lru_;
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> invalidations_{0};
  obs::CounterHandle m_hits_;
  obs::CounterHandle m_misses_;
  obs::CounterHandle m_evictions_;
  obs::CounterHandle m_invalidations_;
};

/// The long-lived serving runtime around DitaEngine: where the engine is
/// build-once / query-once, DitaService multiplexes concurrent
/// Search/Join/KnnSearch traffic over a *mutating* table.
///
///  - **Scheduling**: every query passes the fair-share QueryScheduler, the
///    system's one admission point (cost-estimated from global-index stats,
///    priority-shaped slot shares, bounded head-of-line bypass) before
///    touching the cluster.
///  - **Streaming ingest**: Insert/Delete land in a delta buffer that
///    queries scan linearly (exact — the scan uses the same verification
///    predicate as the index path — and funnel-accounted). Once the delta
///    reaches ServingOptions::merge_threshold, an epoch merge rebuilds the
///    base index with the delta folded in, on a background thread (or
///    inline with synchronous_merge).
///  - **Snapshot pinning**: queries pin an immutable TableSnapshot for
///    their whole lifetime, so ingest and merges running concurrently never
///    tear an in-flight query's view; each result's `serving.epoch` (which
///    RenderExplain prints) is the epoch the query ran against.
///
/// All three query kinds answer bit-identically to a fresh batch DitaEngine
/// built on the pinned snapshot's live set (the oracle property
/// serving_test enforces).
class DitaService {
 public:
  DitaService(std::shared_ptr<Cluster> cluster, const DitaConfig& config);
  ~DitaService();

  DitaService(const DitaService&) = delete;
  DitaService& operator=(const DitaService&) = delete;

  /// Builds the epoch-0 base index over `initial` (may be empty) and starts
  /// the background merge + executor threads. Must be called exactly once
  /// before any other method.
  Status Start(const Dataset& initial);

  /// Drains and joins the background threads. Idempotent; the destructor
  /// calls it. Queries submitted after Stop() fail with Unavailable.
  void Stop();

  /// Synchronous query execution: schedule (blocking for a fair-share slot
  /// grant), pin the freshest snapshot, run. Thread-safe; any number of
  /// Execute calls may run concurrently with each other and with ingest.
  Result<QueryResult> Execute(const QueryRequest& req) const;

  /// Asynchronous execution on the service's executor pool
  /// (ServingOptions::scheduler_threads). The request is owned by the
  /// future's job; a non-null req.ctx must outlive the future.
  std::future<Result<QueryResult>> Submit(QueryRequest req) const;

  /// Answer-cache counters (all zero while
  /// ServingOptions::answer_cache_entries is 0, the default).
  uint64_t cache_hits() const { return answer_cache_.hits(); }
  uint64_t cache_misses() const { return answer_cache_.misses(); }
  uint64_t cache_evictions() const { return answer_cache_.evictions(); }
  uint64_t cache_invalidations() const { return answer_cache_.invalidations(); }

  /// Streaming ingest. Insert requires a trajectory that passes
  /// ValidateTrajectory and an id that is not currently live (re-inserting
  /// a deleted id is fine); Delete removes a pending insert directly or
  /// marks a base id deleted, and returns NotFound for ids that are not
  /// live. Both publish a new snapshot version; in-flight queries keep their
  /// pinned view. A rejected write publishes nothing.
  Status Insert(const Trajectory& t);
  Status Delete(TrajectoryId id);

  /// Runs an epoch merge now (rebuilding the base with the delta folded
  /// in), synchronously, regardless of merge_threshold. No-op when the
  /// delta is empty.
  Status ForceMerge();

  /// Pins the current snapshot: the returned view is immutable and stays
  /// valid for as long as the pointer is held, no matter what ingest or
  /// merges do afterwards.
  std::shared_ptr<const TableSnapshot> Pin() const;

  uint64_t epoch() const { return Pin()->epoch; }
  uint64_t version() const { return Pin()->version; }
  size_t live_size() const { return Pin()->live_size(); }
  size_t delta_ops() const { return Pin()->delta_ops(); }
  /// Epoch merges completed since Start().
  uint64_t merges() const;

  /// RenderExplain of the most recent stats-collecting query on this
  /// service. Under concurrency that is the newest request, not necessarily
  /// the caller's; RenderExplain(result) explains one specific answer.
  /// Empty string if no query ran yet.
  std::string ExplainLastQuery() const;

  /// Service-level rollup, fed by always-on instrumentation (independent of
  /// enable_metrics): per-kind log-bucketed latency histograms, queue /
  /// admission wait histograms, and the shed / degraded / cache counters an
  /// SLO report needs.
  struct ServiceStats {
    double uptime_seconds = 0.0;
    uint64_t queries = 0;  // completed requests, cache hits included
    uint64_t queries_search = 0;
    uint64_t queries_join = 0;
    uint64_t queries_knn = 0;
    uint64_t shed = 0;      // rejected at admission
    uint64_t degraded = 0;  // partial answers (stop/budget)
    uint64_t errors = 0;    // non-OK, non-shed completions
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    uint64_t inserts = 0;
    uint64_t deletes = 0;
    uint64_t merges = 0;
    double merge_busy_seconds = 0.0;
    uint64_t recorded = 0;  // flight-recorder tickets ever written
    obs::Histogram::Snapshot latency_search;
    obs::Histogram::Snapshot latency_join;
    obs::Histogram::Snapshot latency_knn;
    obs::Histogram::Snapshot queue_wait;
    obs::Histogram::Snapshot admission_wait;
  };
  ServiceStats Stats() const;

  /// Human-readable ServiceStats: per-kind p50/p95/p99/p999 bounds,
  /// shed/degraded/cache rates, ingest and merge counters.
  std::string ExplainService() const;

  /// JSON export of the service rollup plus the flight recorder's last N
  /// request records ({"service": {...}, "requests": [...]}), the input
  /// tools/obs_report.py renders.
  std::string DumpFlightRecorder() const;

  const obs::FlightRecorder& flight_recorder() const {
    return flight_recorder_;
  }

  const QueryScheduler& scheduler() const { return *scheduler_; }
  const DitaConfig& config() const { return config_; }
  const std::shared_ptr<Cluster>& cluster() const { return cluster_; }

 private:
  /// Estimated admission cost of `req` against `snap` (cost_hint wins).
  uint64_t EstimateCost(const TableSnapshot& snap, const QueryRequest& req) const;

  /// Intra-query phase boundaries on the service clock, stamped by the
  /// snapshot query bodies so the lifecycle record can split base-index work
  /// from the delta scan. Both default to "not stamped" (0) — callers fall
  /// back to attributing the whole body to the base phase.
  struct PhaseSplit {
    double base_done_seconds = 0.0;   ///< after the base-index pass
    double delta_done_seconds = 0.0;  ///< after the delta scan
  };

  /// Query bodies over pinned snapshots. `collect` mirrors
  /// QueryRequest::collect_stats.
  Result<QueryResult> SearchSnapshot(const TableSnapshot& snap,
                                     const QueryRequest& req,
                                     PhaseSplit* split = nullptr) const;
  Result<QueryResult> KnnSnapshot(const TableSnapshot& snap,
                                  const QueryRequest& req,
                                  PhaseSplit* split = nullptr) const;
  Result<QueryResult> JoinSnapshots(const TableSnapshot& left,
                                    const TableSnapshot& right,
                                    const QueryRequest& req,
                                    PhaseSplit* split = nullptr) const;

  /// Seconds since service construction on the service's steady clock — the
  /// timebase of every RequestRecord boundary.
  double NowSeconds() const { return service_clock_.Seconds(); }

  /// Cumulative merge-thread busy seconds as of `now` (counting the
  /// in-progress merge, if any). Two readings bracketing a request give its
  /// merge_overlap_seconds.
  double MergeBusyAt(double now) const;

  /// Execute body with an explicit arrival stamp and extra lifecycle flags:
  /// Execute passes NowSeconds() and 0; the executor pool passes the Submit
  /// enqueue time plus RequestRecord::kAsync.
  Result<QueryResult> ExecuteInternal(const QueryRequest& req,
                                      double arrival_seconds,
                                      uint8_t extra_flags) const;

  /// Terminal accounting shared by every completion path (normal, cache
  /// hit, shed, error): derives total from `end_seconds`, turns the stashed
  /// merge-busy-at-arrival value into merge_overlap_seconds, observes the
  /// always-on histograms, bumps outcome counters, appends to the flight
  /// recorder, and mirrors the record onto res->serving.lifecycle when ok.
  /// On entry rec->merge_overlap_seconds must hold MergeBusyAt(arrival).
  void FinishRequest(obs::RequestRecord* rec, double end_seconds,
                     Result<QueryResult>* res) const;

  /// The threshold search over a snapshot, shared by SearchSnapshot and the
  /// join's delta terms: the base index (answers whose id was deleted are
  /// dropped and counted) and then the one delta scan, which verifies
  /// (query, tau) against each pending insert with the indexed path's
  /// accept predicate. Appends live matching ids (unsorted) to `out` and
  /// counts into `acct`. `stats` (may be null) receives the base query's
  /// stats; when req.collect_stats is set and the delta is non-empty, the
  /// delta funnel (delta buffer -> mbr coverage -> cell bound -> threshold
  /// dp) is appended to acct->delta_funnel. `split` (may be null) gets the
  /// base/delta phase stamps.
  Status SearchIdsInto(const TableSnapshot& snap, const QueryRequest& req,
                       QueryStats* stats,
                       QueryResult::ServingInfo* acct,
                       std::vector<TrajectoryId>* out,
                       PhaseSplit* split = nullptr) const;

  /// The write path of Insert and Delete: applies `op` to a copy of the
  /// current snapshot, publishes it as version + 1 (logging `op` for replay
  /// when a merge is running), then runs AfterPublish. A rejected write
  /// publishes nothing.
  Status Write(WriteOp op);
  /// After every publish (write or merge): invalidate the answer cache,
  /// refresh the delta gauges, and schedule a merge if one is due.
  void AfterPublish();
  /// One epoch merge: rebuild the base over the live set,
  /// replay operations that arrived mid-merge, publish epoch+1. Returns
  /// immediately when the delta is empty or another merge is running.
  Status MergeOnce();
  /// Kicks the background thread (or merges inline under
  /// synchronous_merge) when the delta crossed merge_threshold.
  void MaybeScheduleMerge();

  void MergeLoop();
  void ExecutorLoop(size_t executor_index);

  void RecordExplain(const QueryResult& res) const;

  std::shared_ptr<Cluster> cluster_;
  DitaConfig config_;
  std::shared_ptr<TrajectoryDistance> distance_;
  std::unique_ptr<Verifier> verifier_;
  std::unique_ptr<QueryScheduler> scheduler_;
  bool started_ = false;

  /// Guards the published snapshot pointer (readers Pin() under it).
  mutable std::mutex snap_mu_;
  std::shared_ptr<const TableSnapshot> snap_;

  /// Serializes writers (Insert / Delete / merge publish) and guards the
  /// mid-merge op log. Mutable so const counters (merges()) can read under
  /// it.
  mutable std::mutex write_mu_;
  bool merging_ = false;
  std::vector<WriteOp> op_log_;
  uint64_t merges_ = 0;

  /// Background merge thread. `stop_` is atomic so the executor pool and
  /// Submit can read it without taking merge_mu_; setters still hold the
  /// relevant mutex before notifying, so no wakeup is lost.
  std::thread merge_thread_;
  std::mutex merge_mu_;
  std::condition_variable merge_cv_;
  bool merge_requested_ = false;
  std::atomic<bool> stop_{false};

  /// Executor pool for Submit().
  struct Job {
    QueryRequest req;
    std::promise<Result<QueryResult>> promise;
    /// Service-clock stamp of Submit(): the request's lifecycle arrival, so
    /// queue_seconds covers executor queueing too.
    double enqueue_seconds = 0.0;
  };
  mutable std::mutex jobs_mu_;
  mutable std::condition_variable jobs_cv_;
  mutable std::deque<Job> jobs_;
  std::vector<std::thread> executors_;

  /// ExplainLastQuery state.
  mutable std::mutex explain_mu_;
  mutable std::string last_explain_;

  /// Mutable because the read path (const Execute) looks up and stores.
  mutable AnswerCache answer_cache_;

  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::CounterHandle m_inserts_;
  obs::CounterHandle m_deletes_;
  obs::CounterHandle m_merges_;
  obs::CounterHandle m_queries_;
  obs::CounterHandle m_delta_scanned_;
  obs::HistogramHandle h_latency_search_;
  obs::HistogramHandle h_latency_join_;
  obs::HistogramHandle h_latency_knn_;
  obs::HistogramHandle h_queue_wait_;
  obs::GaugeHandle g_inflight_cost_;
  obs::GaugeHandle g_queue_depth_;
  obs::GaugeHandle g_pinned_snapshots_;
  obs::GaugeHandle g_delta_bytes_;
  obs::GaugeHandle g_merge_backlog_;

  /// Always-on serving observability (independent of enable_metrics /
  /// enable_tracing): the flight recorder, per-kind latency + wait
  /// histograms, and outcome counters behind Stats() / ExplainService() /
  /// DumpFlightRecorder(). Mutable because the read path is const.
  WallTimer service_clock_;
  mutable obs::FlightRecorder flight_recorder_;
  mutable obs::Histogram lat_search_{obs::LatencyOptions()};
  mutable obs::Histogram lat_join_{obs::LatencyOptions()};
  mutable obs::Histogram lat_knn_{obs::LatencyOptions()};
  mutable obs::Histogram queue_wait_hist_{obs::LatencyOptions()};
  mutable obs::Histogram admission_wait_hist_{obs::LatencyOptions()};
  mutable std::atomic<uint64_t> request_seq_{0};
  mutable std::atomic<uint64_t> shed_count_{0};
  mutable std::atomic<uint64_t> degraded_count_{0};
  mutable std::atomic<uint64_t> errors_count_{0};
  std::atomic<uint64_t> inserts_count_{0};
  std::atomic<uint64_t> deletes_count_{0};
  mutable std::atomic<int64_t> pinned_queries_{0};

  /// Merge-overlap timebase, lock-free for readers: cumulative busy seconds
  /// of finished merges, and the start stamp of the in-progress merge
  /// (kMergeIdleBits when none), both stored as bit_cast double words.
  static constexpr uint64_t kMergeIdleBits = ~uint64_t{0};
  mutable std::atomic<uint64_t> merge_busy_bits_{0};
  std::atomic<uint64_t> merge_started_bits_{kMergeIdleBits};
};

}  // namespace dita

#endif  // DITA_SERVING_SERVICE_H_
