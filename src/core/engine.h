#ifndef DITA_CORE_ENGINE_H_
#define DITA_CORE_ENGINE_H_

#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "core/config.h"
#include "core/global_index.h"
#include "core/knn.h"
#include "core/verifier.h"
#include "distance/distance.h"
#include "index/trie_index.h"
#include "obs/funnel.h"
#include "obs/lifecycle.h"
#include "util/thread_pool.h"
#include "workload/dataset.h"

namespace dita {

class DitaEngine;
class DitaService;

/// Statistics captured while building the index (Table 5 rows).
struct IndexStats {
  double build_seconds = 0.0;
  size_t num_partitions = 0;
  size_t num_trajectories = 0;
  size_t global_index_bytes = 0;
  size_t local_index_bytes = 0;
};

/// Per-query observability (Figs. 7-8, 17).
struct QueryStats {
  double makespan_seconds = 0.0;
  size_t partitions_probed = 0;
  size_t candidates = 0;
  VerifyStats verify;
  size_t results = 0;
  /// Fault handling this query triggered (retries, recoveries, backups).
  FaultStats faults;
  /// Survivors at each pruning level, table -> global index -> trie
  /// levels -> MBR coverage -> cell bound -> threshold DP. Monotonically
  /// non-increasing; the last level equals `results`.
  obs::FilterFunnel funnel;
  /// How the query ended. OK means it ran to completion; kCancelled /
  /// kDeadlineExceeded / kResourceExhausted mean the returned results are
  /// a *partial* answer — a correct subset of the full one — produced by
  /// graceful degradation under a QueryContext stop.
  Status termination;
  /// Fraction of the query's relevant population that was fully searched
  /// before it stopped; 1.0 for complete queries. (For kNN: fraction of
  /// the requested k that was found.)
  double completeness = 1.0;
};

/// Per-join observability (Figs. 9-11, 16).
struct JoinStats {
  double makespan_seconds = 0.0;
  double load_ratio = 1.0;
  uint64_t bytes_shipped = 0;
  size_t graph_edges = 0;
  size_t divided_partitions = 0;
  /// Candidate and result pairs, like every join counter, are ordered
  /// pairs: the answer's unit. A self-join decides each unordered pair once
  /// and counts it for both orientations; a self-pair (T, T) counts once.
  size_t candidate_pairs = 0;
  size_t result_pairs = 0;
  /// Ordered candidate pairs decided by mirroring their reverse rather than
  /// by their own collect and verify: the work a self-join saves. 0 on a
  /// two-table join.
  size_t mirrored_pairs = 0;
  /// Verification-pipeline counters in pair units (mirrors
  /// QueryStats::verify; pairs == candidate_pairs, accepted ==
  /// result_pairs).
  VerifyStats verify;
  /// Fault handling this join triggered (retries, recoveries, backups).
  FaultStats faults;
  /// Survivors at each pruning level, in trajectory-pair units: |T| x |Q|
  /// -> partition graph -> ship relevance -> trie candidates -> MBR ->
  /// cell -> accepted. Monotonically non-increasing; ends at
  /// `result_pairs`.
  obs::FilterFunnel funnel;
  /// How the join ended (see QueryStats::termination): non-OK means the
  /// returned pairs are a correct subset of the full join result.
  Status termination;
  /// Fraction of the join's partition-pair edges whose probe completed;
  /// 1.0 for complete joins.
  double completeness = 1.0;
};

/// The kind of query a QueryRequest carries.
enum class QueryKind { kSearch, kJoin, kKnnSearch };

/// One query, in the unified request format every layer speaks: the engine
/// executes it (Execute), DitaService schedules it across concurrent
/// requests and runs it against an epoch snapshot, and the SQL/DataFrame
/// layer translates statements into it. The legacy Search / Join /
/// KnnSearch signatures are thin wrappers that build one of these.
struct QueryRequest {
  QueryKind kind = QueryKind::kSearch;

  /// The query trajectory (kSearch / kKnnSearch). Owned, so asynchronous
  /// executors (DitaService::Submit) need no external lifetime contract.
  Trajectory query;

  /// Similarity threshold tau (kSearch / kJoin).
  double tau = 0.0;

  /// Neighbor count (kKnnSearch).
  size_t k = 0;

  /// kJoin: the right-side table. Exactly one may be set; both null means
  /// self-join. The service-level pointer lets DitaService join two live
  /// tables delta-consistently; the engine-level pointer joins two static
  /// indexes.
  const DitaEngine* join_right = nullptr;
  const DitaService* join_right_service = nullptr;

  /// Scheduling class for DitaService's fair-share scheduler: 0 is the
  /// highest priority; higher values yield smaller shares.
  int priority = 1;

  /// Estimated cost in DitaService scheduler slots; 0 lets
  /// EstimateQueryCost derive it from global-index statistics. Only the
  /// service's scheduler reads it.
  uint64_t cost_hint = 0;

  /// Optional cooperative cancellation / deadline / budget token; see
  /// DitaEngine::Search. Under DitaService it also bounds the request's
  /// wait in the scheduler queue.
  QueryContext* ctx = nullptr;

  /// When false the engine skips per-query stat/funnel collection and the
  /// trie keeps its stats-free hot path (the legacy wrappers set this from
  /// whether the caller passed a stats out-param).
  bool collect_stats = true;
};

/// The unified response: exactly one of the payload vectors is populated
/// (matching `kind`), alongside the corresponding stats block.
struct QueryResult {
  QueryKind kind = QueryKind::kSearch;

  /// kSearch: matching trajectory ids, ascending.
  std::vector<TrajectoryId> ids;
  /// kJoin: (left_id, right_id) pairs, sorted.
  std::vector<std::pair<TrajectoryId, TrajectoryId>> pairs;
  /// kKnnSearch: (id, distance) pairs in (distance, id) order (KnnBefore).
  std::vector<std::pair<TrajectoryId, double>> neighbors;

  QueryStats search_stats;  // kSearch / kKnnSearch
  JoinStats join_stats;     // kJoin

  /// Serving-layer accounting, zeroed when the query ran on a bare engine.
  struct ServingInfo {
    /// True when DitaService produced the result (RenderExplain then adds
    /// the snapshot and delta lines).
    bool served = false;
    /// Base-index generation the query's pinned snapshot belonged to.
    uint64_t epoch = 0;
    /// Snapshot version (bumped by every ingest op and merge publish).
    uint64_t version = 0;
    /// Delta-buffer trajectories linearly scanned / accepted.
    size_t delta_scanned = 0;
    size_t delta_matches = 0;
    /// Base-index answers dropped because their id was deleted (search and
    /// join; a kNN sweep passes deleted ids over inside the engine).
    size_t deleted_filtered = 0;
    /// Funnel over the delta scan: buffer -> MBR -> cell -> threshold DP
    /// (search only; monotone, ends at delta_matches).
    obs::FilterFunnel delta_funnel;
    /// Timestamped phase breakdown of the request's life inside
    /// DitaService (queue -> admission -> cache -> pin -> base -> delta ->
    /// finalize); phases telescope to lifecycle.total_seconds. Zeroed on a
    /// bare engine.
    obs::RequestRecord lifecycle;
  } serving;
};

/// EXPLAIN text for one result: a header by kind, the base filter funnel,
/// one stats line for the kind, and, for a DitaService result, the snapshot
/// it ran against (epoch, version) with the delta scan's counts and funnel.
std::string RenderExplain(const QueryResult& res);

/// The trajectory check every public entry point shares (index build,
/// service start, ingest, query): InvalidArgument unless `t` has at least 2
/// points and every coordinate is finite. A NaN key would break the strict
/// weak ordering the STR tiling sorts by.
Status ValidateTrajectory(const Trajectory& t);

/// The request check DitaEngine::Execute and DitaService run once, before
/// any estimate, cache lookup or admission: a known kind; for search and
/// kNN a query that passes ValidateTrajectory; for search and join a tau
/// that is neither NaN nor negative; for a join at most one of join_right /
/// join_right_service. k is checked against the table where its size is
/// known (the engine's index, the service's pinned snapshot).
Status ValidateRequest(const QueryRequest& req);

/// The DITA engine: one indexed trajectory table living on a (simulated)
/// cluster. Mirrors the system of §3-§6: STR first/last partitioning, global
/// R-tree index on the driver, per-partition trie local indexes co-located
/// with the data, filter-verification search, and cost-model-driven
/// distributed join.
class DitaEngine {
 public:
  // Legacy nested aliases; the structs now live at namespace scope so the
  // unified QueryRequest / QueryResult can carry them.
  using IndexStats = dita::IndexStats;
  using QueryStats = dita::QueryStats;
  using JoinStats = dita::JoinStats;

  DitaEngine(std::shared_ptr<Cluster> cluster, const DitaConfig& config);

  /// Partitions `data`, builds the global index and each partition's local
  /// trie (charged to the owning workers), and precomputes verification
  /// summaries. Every trajectory must pass ValidateTrajectory; a rejected
  /// build leaves the engine as it was.
  Status BuildIndex(const Dataset& data);

  bool indexed() const { return indexed_; }
  const IndexStats& index_stats() const { return index_stats_; }
  const DitaConfig& config() const { return config_; }
  const Cluster& cluster() const { return *cluster_; }

  /// The single query entry point: validates, checks that the index is
  /// built, and dispatches on `req.kind`. All public query methods below
  /// are exact aliases over this. Admission belongs to DitaService's
  /// scheduler; the bare engine runs every query it is given.
  Result<QueryResult> Execute(const QueryRequest& req) const;

  /// Estimated cost of `req` in scheduler slots (relevant-partition probes
  /// for searches; for kNN the partitions its seed stage must visit, the
  /// fewest lowest-bound partitions holding k trajectories; partition-pair
  /// upper bound for joins; 1 for a request ValidateRequest rejects;
  /// always >= 1).
  /// Drives DitaService's fair-share slot allocation (QueryScheduler) when
  /// QueryRequest::cost_hint is 0.
  uint64_t EstimateQueryCost(const QueryRequest& req) const;

  /// Threshold similarity search (Definition 2.4, §5): all trajectory ids T
  /// with f(T, q) <= tau. Cost is charged to the shared cluster; per-query
  /// latency lands in `stats` if provided.
  ///
  /// With `ctx` non-null the query runs under that context's cancellation
  /// token, deadlines, and resource budgets. A query stopped mid-flight
  /// degrades gracefully: the call still returns OK with the subset of the
  /// answer produced by the partitions that completed, and tags
  /// `stats->termination` / `stats->completeness` accordingly. Errors
  /// unrelated to the stop (lost workers, invalid input) propagate as
  /// before.
  Result<std::vector<TrajectoryId>> Search(const Trajectory& q, double tau,
                                           QueryStats* stats = nullptr,
                                           QueryContext* ctx = nullptr) const;

  /// Threshold similarity join against `right` (Definition 2.5, §6):
  /// returns (left_id, right_id) pairs with f(T, Q) <= tau. `right` may be
  /// this engine itself (self-join). Both engines must share the cluster.
  /// `ctx` behaves as in Search: a stopped join returns the pairs from the
  /// edges that completed (a subset of the full join).
  Result<std::vector<std::pair<TrajectoryId, TrajectoryId>>> Join(
      const DitaEngine& right, double tau, JoinStats* stats = nullptr,
      QueryContext* ctx = nullptr) const;

  /// kNN similarity search (the paper's §8 future work): the k trajectories
  /// closest to `q` under the engine's distance, as (id, distance) pairs in
  /// (distance, id) order. Exact for all five distances: one best-first
  /// sweep visits partitions in ascending GlobalIndex::LowerBound order,
  /// tests their trie candidates against a shared, shrinking k-th-distance
  /// bound with the early-abandoning threshold kernels, and stops once the
  /// next partition's bound exceeds the k-th distance (DESIGN.md §5i).
  /// `ctx` behaves as in Search; a stopped kNN query returns a proven
  /// prefix of the full answer — the neighbours below the smallest lower
  /// bound of the work it did not finish — possibly fewer than k.
  Result<std::vector<std::pair<TrajectoryId, double>>> KnnSearch(
      const Trajectory& q, size_t k, QueryStats* stats = nullptr,
      QueryContext* ctx = nullptr) const;

 private:
  friend class JoinPlanner;
  friend class DitaService;

  /// One data partition: clustered trie index plus verification precomp.
  struct Partition {
    size_t home_worker = 0;
    TrieIndex trie;
    std::vector<VerifyPrecomp> precomp;  // parallel to trie.trajectories()
    size_t data_bytes = 0;
  };

  /// One (partition, query) slot of a search stage. Each task writes only
  /// its own slots, so a query cut short can merge exactly the slots that
  /// ran to completion — partial results are a well-defined subset, not a
  /// torn merge.
  struct SearchLocalOut {
    std::vector<TrajectoryId> ids;
    size_t candidates = 0;
    VerifyStats vstats;
    TrieIndex::ProbeStats pstats;
    /// Set at the end of the task body; false when the task was skipped or
    /// cut short mid-filter (its partial output must be discarded).
    bool complete = false;
  };

  /// Merges one query's surviving per-partition slots (`slots` parallel to
  /// `relevant`; null entries were incomplete), folds the
  /// aggregated counters into the metrics registry, fills `stats`
  /// (termination, completeness, filter funnel) when requested, and returns
  /// the sorted result ids.
  std::vector<TrajectoryId> MergeSearch(
      const std::vector<uint32_t>& relevant,
      const std::vector<const SearchLocalOut*>& slots, QueryStats* stats,
      QueryContext* ctx, const Cluster::CostSnapshot& snap,
      size_t* total_candidates_out) const;

  /// The query bodies; Execute validates once, then dispatches here.
  Result<std::vector<TrajectoryId>> SearchImpl(const Trajectory& q, double tau,
                                               QueryStats* stats,
                                               QueryContext* ctx) const;
  Result<std::vector<std::pair<TrajectoryId, TrajectoryId>>> JoinImpl(
      const DitaEngine& right, double tau, JoinStats* stats,
      QueryContext* ctx) const;
  /// The kNN sweep's visit plan: every partition's lower bound for the
  /// query, ascending (ties by partition id), and `seed`, the length of the
  /// shortest prefix holding at least k trajectories (at least 1).
  struct KnnPlan {
    std::vector<std::pair<double, uint32_t>> order;
    size_t seed = 0;
  };
  KnnPlan PlanKnn(const Trajectory& q, size_t k) const;

  /// The best-first kNN sweep. Ids in `skip` (DitaService passes its
  /// snapshot's deleted set) are passed over inside the sweep, so they never
  /// take a slot of the top k; fewer than k answers come back when fewer
  /// than k live trajectories exist. `proven` (optional) receives the bound
  /// below which the answer is final: +inf for a complete sweep, else the
  /// smallest lower bound of the work a stop left unfinished (the returned
  /// neighbours all lie below it).
  Result<std::vector<std::pair<TrajectoryId, double>>> KnnSearchImpl(
      const Trajectory& q, size_t k, QueryStats* stats, QueryContext* ctx,
      const std::unordered_set<TrajectoryId>* skip = nullptr,
      double* proven = nullptr) const;

  TrieIndex::SearchSpec MakeSpec(const Trajectory& q, double tau) const;

  /// GlobalIndex::LowerBound / RelevantPartitions under this engine's
  /// distance (prune mode, matching epsilon, ERP gap point).
  double PartitionLowerBound(const Trajectory& q, uint32_t partition) const;
  std::vector<uint32_t> RelevantPartitions(const Trajectory& q,
                                           double tau) const;

  /// True when a stage status should degrade into a partial OK result:
  /// the query's own context stopped and the stage failed for that reason
  /// (or not at all). Unrelated errors (lost workers, invalid input) never
  /// degrade.
  static bool ShouldDegrade(const QueryContext* ctx, const Status& stage);

  /// Per-trajectory global relevance test against a partition summary —
  /// the "has candidates in Qj" check of §6.2's trans estimation.
  bool TrajectoryRelevantTo(const Trajectory& t,
                            const GlobalIndex::PartitionSummary& s,
                            double tau) const;

  /// Local filter+verify of `q` against partition `p`; appends matching
  /// trajectory ids. Returns the number of candidates that reached
  /// verification. `pstats` (optional) tallies the trie traversal for the
  /// filter funnel.
  size_t LocalSearch(const Partition& p, const Trajectory& q,
                     const VerifyPrecomp& qp, double tau,
                     std::vector<TrajectoryId>* results, VerifyStats* vstats,
                     TrieIndex::ProbeStats* pstats = nullptr,
                     QueryContext* ctx = nullptr) const;

  /// Folds one operation's aggregated filter/verify counters into the
  /// metrics registry (no-op when metrics are disabled). Cold path: called
  /// once per query/join, after the stage completes.
  void RecordFilterMetrics(size_t partitions_relevant,
                           const TrieIndex::ProbeStats& pstats,
                           const VerifyStats& vstats) const;

  std::shared_ptr<Cluster> cluster_;
  DitaConfig config_;
  std::shared_ptr<TrajectoryDistance> distance_;
  std::unique_ptr<Verifier> verifier_;
  /// Engine-local pool for intra-task parallel verification (see
  /// DitaConfig::VerifyOptions::threads); null when verification is serial.
  std::unique_ptr<ThreadPool> verify_pool_;
  /// Engine-local pool for parallel index construction (see
  /// DitaConfig::BuildOptions::threads); null when builds are serial.
  /// Helper CPU is charged back to the owning cluster task / the driver
  /// ledger, so simulated makespans match a serial build.
  std::unique_ptr<ThreadPool> build_pool_;
  GlobalIndex global_;
  std::vector<Partition> partitions_;
  IndexStats index_stats_;
  bool indexed_ = false;

 public:
  /// Releases the grow-once trie/verify scratch arenas of the engine's own
  /// pool threads and the calling thread. Idempotent; called by the
  /// destructor so engine teardown returns scratch memory instead of
  /// leaving it parked on pool threads.
  void ReleaseThreadScratch();

  ~DitaEngine();

 private:

  /// Owned by the cluster (shared across engines on it); null when the
  /// corresponding DitaConfig toggle is off and nobody else enabled it.
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  /// Cached null-safe handles: disabled metrics cost one branch per update.
  obs::CounterHandle m_partitions_relevant_;
  obs::CounterHandle m_trie_nodes_visited_;
  obs::CounterHandle m_trie_nodes_pruned_;
  obs::CounterHandle m_trie_candidates_;
  obs::CounterHandle m_verify_pairs_;
  obs::CounterHandle m_verify_pruned_mbr_;
  obs::CounterHandle m_verify_pruned_cell_;
  obs::CounterHandle m_verify_dp_computed_;
  obs::CounterHandle m_verify_dp_cells_;
  obs::CounterHandle m_verify_accepted_;
  obs::HistogramHandle h_query_candidates_;
  obs::CounterHandle m_query_degraded_;
};

}  // namespace dita

#endif  // DITA_CORE_ENGINE_H_
