#include "core/engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "core/join_planner.h"
#include "distance/dp_scratch.h"
#include "core/partitioner.h"
#include "util/logging.h"
#include "util/timer.h"

namespace dita {

Status ValidateTrajectory(const Trajectory& t) {
  if (t.size() < 2) {
    return Status::InvalidArgument("trajectory needs at least 2 points");
  }
  for (const Point& p : t.points()) {
    if (!std::isfinite(p.x) || !std::isfinite(p.y)) {
      return Status::InvalidArgument("trajectory has a non-finite coordinate");
    }
  }
  return Status::OK();
}

Status ValidateRequest(const QueryRequest& req) {
  switch (req.kind) {
    case QueryKind::kSearch:
    case QueryKind::kKnnSearch:
      DITA_RETURN_IF_ERROR(ValidateTrajectory(req.query));
      break;
    case QueryKind::kJoin:
      if (req.join_right != nullptr && req.join_right_service != nullptr) {
        return Status::InvalidArgument(
            "set at most one of join_right / join_right_service");
      }
      break;
    default:
      return Status::InvalidArgument("unknown query kind");
  }
  // Written so a NaN tau fails too.
  if (req.kind != QueryKind::kKnnSearch && !(req.tau >= 0)) {
    return Status::InvalidArgument("threshold must be a non-negative number");
  }
  return Status::OK();
}

std::string RenderExplain(const QueryResult& res) {
  const bool join = res.kind == QueryKind::kJoin;
  const obs::FilterFunnel& funnel =
      join ? res.join_stats.funnel : res.search_stats.funnel;
  std::ostringstream out;
  out << (join ? "== Trajectory join ==\n"
               : (res.kind == QueryKind::kSearch ? "== Similarity search ==\n"
                                                 : "== kNN search ==\n"));
  if (!funnel.empty()) out << funnel.ToTable();
  if (join) {
    const JoinStats& s = res.join_stats;
    out << "graph edges: " << s.graph_edges
        << ", divided partitions: " << s.divided_partitions
        << ", bytes shipped: " << s.bytes_shipped
        << ", result pairs: " << s.result_pairs
        << ", mirrored pairs: " << s.mirrored_pairs
        << ", makespan: " << s.makespan_seconds << "s\n";
  } else {
    const QueryStats& s = res.search_stats;
    out << "partitions probed: " << s.partitions_probed
        << ", candidates: " << s.candidates << ", results: " << s.results
        << ", makespan: " << s.makespan_seconds << "s\n";
  }
  const QueryResult::ServingInfo& serving = res.serving;
  if (serving.served) {
    out << "epoch: " << serving.epoch << ", version: " << serving.version
        << ", delta scanned: " << serving.delta_scanned
        << ", delta matched: " << serving.delta_matches
        << ", deleted filtered: " << serving.deleted_filtered << "\n";
    if (!serving.delta_funnel.empty()) out << serving.delta_funnel.ToTable();
  }
  return out.str();
}

DitaEngine::DitaEngine(std::shared_ptr<Cluster> cluster, const DitaConfig& config)
    : cluster_(std::move(cluster)), config_(config) {
  DITA_CHECK(cluster_ != nullptr);
  auto dist = MakeDistance(config_.distance, config_.distance_params);
  DITA_CHECK(dist.ok());
  distance_ = *dist;
  verifier_ = std::make_unique<Verifier>(distance_, config_);
  // Observability attaches to the cluster so engines sharing it share one
  // tracer / registry; when the toggles are off we still pick up a tracer
  // another engine already enabled.
  tracer_ =
      config_.enable_tracing ? cluster_->EnableTracing() : cluster_->tracer();
  metrics_ =
      config_.enable_metrics ? cluster_->EnableMetrics() : cluster_->metrics();
  m_partitions_relevant_ = {metrics_, "filter.global.partitions_relevant"};
  m_trie_nodes_visited_ = {metrics_, "filter.trie.nodes_visited"};
  m_trie_nodes_pruned_ = {metrics_, "filter.trie.nodes_pruned"};
  m_trie_candidates_ = {metrics_, "filter.trie.candidates"};
  m_verify_pairs_ = {metrics_, "verify.pairs"};
  m_verify_pruned_mbr_ = {metrics_, "verify.pruned_mbr"};
  m_verify_pruned_cell_ = {metrics_, "verify.pruned_cell"};
  m_verify_dp_computed_ = {metrics_, "verify.dp.computed"};
  m_verify_dp_cells_ = {metrics_, "verify.dp.cells"};
  m_verify_accepted_ = {metrics_, "verify.accepted"};
  h_query_candidates_ = {metrics_, "query.candidates", obs::CountOptions()};
  m_query_degraded_ = {metrics_, "query.degraded"};
  if (config_.verify.threads > 0) {
    verify_pool_ = std::make_unique<ThreadPool>(config_.verify.threads);
  }
  if (config_.build.threads > 0) {
    build_pool_ = std::make_unique<ThreadPool>(config_.build.threads);
  }
}

DitaEngine::~DitaEngine() { ReleaseThreadScratch(); }

void DitaEngine::ReleaseThreadScratch() {
  // Broadcast one release task per pool thread. Each task parks on a busy
  // barrier until all of them are running — the pool is FIFO with exactly
  // num_threads() workers, so this guarantees every task landed on a
  // distinct thread — then frees that thread's grow-once arenas.
  const auto broadcast = [](ThreadPool* pool) {
    if (pool == nullptr || pool->num_threads() == 0) return;
    const size_t n = pool->num_threads();
    std::atomic<size_t> arrived{0};
    for (size_t i = 0; i < n; ++i) {
      pool->Submit([&arrived, n] {
        arrived.fetch_add(1, std::memory_order_acq_rel);
        while (arrived.load(std::memory_order_acquire) < n) {
          std::this_thread::yield();
        }
        TrieIndex::Scratch::ThreadLocal().Release();
      });
    }
    pool->Wait();
  };
  broadcast(build_pool_.get());
  broadcast(verify_pool_.get());
  TrieIndex::Scratch::ThreadLocal().Release();
}

bool DitaEngine::ShouldDegrade(const QueryContext* ctx, const Status& stage) {
  if (ctx == nullptr || !ctx->stopped()) return false;
  switch (stage.code()) {
    case Status::Code::kOk:
    case Status::Code::kCancelled:
    case Status::Code::kDeadlineExceeded:
    case Status::Code::kResourceExhausted:
      return true;
    default:
      return false;
  }
}

uint64_t DitaEngine::EstimateQueryCost(const QueryRequest& req) const {
  if (req.cost_hint > 0) return req.cost_hint;
  // Probes and sweep plans must never see a malformed request.
  if (!indexed_ || !ValidateRequest(req).ok()) return 1;
  switch (req.kind) {
    case QueryKind::kSearch: {
      // Relevant-partition count is the unit the cluster actually pays per
      // probe stage; +1 covers the driver work every query does.
      return static_cast<uint64_t>(
                 RelevantPartitions(req.query, req.tau).size()) +
             1;
    }
    case QueryKind::kKnnSearch: {
      // No radius to probe at: a kNN sweep visits at least its seed stage —
      // the fewest lowest-bound partitions holding k trajectories — so that
      // count, +1 for the driver, is its cost.
      return static_cast<uint64_t>(PlanKnn(req.query, req.k).seed) + 1;
    }
    case QueryKind::kJoin: {
      // Upper bound of partition-pair probes, clamped so one estimate cannot
      // dwarf every budget into meaninglessness.
      const DitaEngine* right =
          req.join_right != nullptr ? req.join_right : this;
      const uint64_t left_parts = std::max<uint64_t>(1, partitions_.size());
      const uint64_t right_parts = std::max<uint64_t>(
          1, right->indexed_ ? right->partitions_.size() : 1);
      return std::min<uint64_t>(left_parts * right_parts, uint64_t{1} << 20);
    }
  }
  return 1;
}

Result<QueryResult> DitaEngine::Execute(const QueryRequest& req) const {
  DITA_RETURN_IF_ERROR(ValidateRequest(req));
  QueryResult res;
  res.kind = req.kind;
  QueryStats* qstats = req.collect_stats ? &res.search_stats : nullptr;
  switch (req.kind) {
    case QueryKind::kSearch: {
      if (!indexed_) return Status::Internal("Search before BuildIndex");
      auto r = SearchImpl(req.query, req.tau, qstats, req.ctx);
      DITA_RETURN_IF_ERROR(r.status());
      res.ids = std::move(*r);
      return res;
    }
    case QueryKind::kKnnSearch: {
      if (!indexed_) return Status::Internal("KnnSearch before BuildIndex");
      if (req.k > index_stats_.num_trajectories) {
        return Status::InvalidArgument("k exceeds the table cardinality");
      }
      if (req.k == 0) return res;
      auto r = KnnSearchImpl(req.query, req.k, qstats, req.ctx);
      DITA_RETURN_IF_ERROR(r.status());
      res.neighbors = std::move(*r);
      return res;
    }
    case QueryKind::kJoin: {
      if (req.join_right_service != nullptr) {
        return Status::InvalidArgument(
            "service-level join targets require DitaService::Execute");
      }
      const DitaEngine& right =
          req.join_right != nullptr ? *req.join_right : *this;
      if (!indexed_ || !right.indexed_) {
        return Status::Internal("Join before BuildIndex");
      }
      if (cluster_.get() != right.cluster_.get()) {
        return Status::InvalidArgument("joined tables must share a cluster");
      }
      auto r = JoinImpl(right, req.tau,
                        req.collect_stats ? &res.join_stats : nullptr, req.ctx);
      DITA_RETURN_IF_ERROR(r.status());
      res.pairs = std::move(*r);
      return res;
    }
  }
  return Status::InvalidArgument("unknown query kind");
}

Result<std::vector<TrajectoryId>> DitaEngine::Search(const Trajectory& q,
                                                     double tau,
                                                     QueryStats* stats,
                                                     QueryContext* ctx) const {
  QueryRequest req;
  req.kind = QueryKind::kSearch;
  req.query = q;
  req.tau = tau;
  req.ctx = ctx;
  req.collect_stats = stats != nullptr;
  auto r = Execute(req);
  DITA_RETURN_IF_ERROR(r.status());
  if (stats != nullptr) *stats = std::move(r->search_stats);
  return std::move(r->ids);
}

Result<std::vector<std::pair<TrajectoryId, double>>> DitaEngine::KnnSearch(
    const Trajectory& q, size_t k, QueryStats* stats,
    QueryContext* ctx) const {
  QueryRequest req;
  req.kind = QueryKind::kKnnSearch;
  req.query = q;
  req.k = k;
  req.ctx = ctx;
  req.collect_stats = stats != nullptr;
  auto r = Execute(req);
  DITA_RETURN_IF_ERROR(r.status());
  if (stats != nullptr) *stats = std::move(r->search_stats);
  return std::move(r->neighbors);
}

Result<std::vector<std::pair<TrajectoryId, TrajectoryId>>> DitaEngine::Join(
    const DitaEngine& right, double tau, JoinStats* stats,
    QueryContext* ctx) const {
  QueryRequest req;
  req.kind = QueryKind::kJoin;
  req.join_right = &right;
  req.tau = tau;
  req.ctx = ctx;
  req.collect_stats = stats != nullptr;
  auto r = Execute(req);
  DITA_RETURN_IF_ERROR(r.status());
  if (stats != nullptr) *stats = std::move(r->join_stats);
  return std::move(r->pairs);
}

Status DitaEngine::BuildIndex(const Dataset& data) {
  if (config_.build.ng == 0) {
    return Status::InvalidArgument("ng must be positive");
  }
  if (config_.build.trie.align_fanout < 2 ||
      config_.build.trie.pivot_fanout < 2) {
    return Status::InvalidArgument("trie fanouts must be at least 2");
  }
  if (config_.build.trie.leaf_capacity < 1) {
    return Status::InvalidArgument("trie leaf capacity must be at least 1");
  }
  for (const Trajectory& t : data.trajectories()) {
    DITA_RETURN_IF_ERROR(ValidateTrajectory(t));
  }
  WallTimer build_timer;
  obs::SpanGuard build_span(tracer_, "index.build");

  // Partitioning runs on the driver; its CPU — including STR sort chunks
  // offloaded to the build pool — lands in the driver ledger.
  CpuTimer partition_timer;
  double partition_offloaded = 0.0;
  auto parts = config_.build.random_partitioning
                   ? PartitionRandomly(data.trajectories(),
                                       config_.build.ng * config_.build.ng)
                   : PartitionByFirstLast(data.trajectories(), config_.build.ng,
                                          build_pool_.get(),
                                          &partition_offloaded);
  DITA_RETURN_IF_ERROR(parts.status());
  cluster_->RecordDriverCompute(partition_timer.Seconds() + partition_offloaded);

  partitions_.clear();
  partitions_.resize(parts->size());
  std::vector<GlobalIndex::PartitionSummary> summaries(parts->size());

  // Build local indexes as one cluster stage: each partition's trie is
  // constructed on its home worker.
  std::vector<Cluster::Task> tasks;
  for (size_t p = 0; p < parts->size(); ++p) {
    Partition& partition = partitions_[p];
    partition.home_worker = cluster_->WorkerOf(p);
    std::vector<Trajectory>* source = &(*parts)[p];
    GlobalIndex::PartitionSummary* summary = &summaries[p];
    // Build-stage tasks carry no recovery bytes: the source data is
    // driver-resident, so a lost build recomputes from lineage for free
    // (only the recomputation CPU is charged).
    tasks.push_back(
        {partition.home_worker, [this, &partition, source, summary] {
           for (const Trajectory& t : *source) {
             summary->mbr_first.Expand(t.front());
             summary->mbr_last.Expand(t.back());
             partition.data_bytes += t.ByteSize();
           }
           // Inputs were validated above, so Build cannot fail here.
           double offloaded = 0.0;
           DITA_CHECK(partition.trie
                          .Build(std::move(*source), config_.build.trie,
                                 build_pool_.get(), &offloaded)
                          .ok());
           // Verification summaries are independent per trajectory:
           // slot-indexed writes, so the parallel result is identical to
           // the serial loop.
           partition.precomp.resize(partition.trie.size());
           offloaded += ThreadPool::ParallelFor(
               build_pool_.get(), partition.trie.size(), /*min_parallel=*/64,
               [this, &partition](size_t lo, size_t hi) {
                 for (size_t i = lo; i < hi; ++i) {
                   partition.precomp[i] = VerifyPrecomp::For(
                       partition.trie.trajectories()[i],
                       config_.verify.cell_size);
                 }
               });
           // Pool-thread CPU is charged to this cluster task so the
           // virtual-time ledger matches a serial build.
           if (offloaded > 0.0) Cluster::ChargeCurrentTask(offloaded);
           return Status::OK();
         }});
  }
  DITA_RETURN_IF_ERROR(
      cluster_->RunStage(std::move(tasks), StageOptions{"build"}));

  // Driver builds the global index over the partition summaries.
  CpuTimer driver_timer;
  global_.Build(std::move(summaries));
  cluster_->RecordDriverCompute(driver_timer.Seconds());

  index_stats_ = IndexStats{};
  index_stats_.build_seconds = build_timer.Seconds();
  index_stats_.num_partitions = partitions_.size();
  index_stats_.num_trajectories = data.size();
  index_stats_.global_index_bytes = global_.ByteSize();
  for (const Partition& p : partitions_) {
    index_stats_.local_index_bytes += p.trie.ByteSize();
    for (const VerifyPrecomp& vp : p.precomp) {
      index_stats_.local_index_bytes += vp.ByteSize();
    }
  }
  build_span.Arg("partitions", partitions_.size());
  build_span.Arg("trajectories", data.size());
  indexed_ = true;
  return Status::OK();
}

void DitaEngine::RecordFilterMetrics(size_t partitions_relevant,
                                     const TrieIndex::ProbeStats& pstats,
                                     const VerifyStats& vstats) const {
  if (metrics_ == nullptr) return;
  m_partitions_relevant_.Add(partitions_relevant);
  m_trie_nodes_visited_.Add(pstats.nodes_visited);
  m_trie_nodes_pruned_.Add(pstats.nodes_pruned);
  m_trie_candidates_.Add(vstats.pairs);
  m_verify_pairs_.Add(vstats.pairs);
  m_verify_pruned_mbr_.Add(vstats.pruned_by_mbr);
  m_verify_pruned_cell_.Add(vstats.pruned_by_cell);
  m_verify_dp_computed_.Add(vstats.dp_computed);
  m_verify_dp_cells_.Add(vstats.dp_cells);
  m_verify_accepted_.Add(vstats.accepted);
}

TrieIndex::SearchSpec DitaEngine::MakeSpec(const Trajectory& q, double tau) const {
  TrieIndex::SearchSpec spec;
  spec.query = &q;
  spec.tau = tau;
  spec.mode = distance_->prune_mode();
  spec.epsilon = distance_->matching_epsilon();
  if (config_.distance == DistanceType::kLCSS) {
    spec.lcss_delta = config_.distance_params.delta;
  }
  if (config_.distance == DistanceType::kERP) {
    spec.erp_gap = &config_.distance_params.erp_gap;
  }
  return spec;
}

double DitaEngine::PartitionLowerBound(const Trajectory& q,
                                       uint32_t partition) const {
  return global_.LowerBound(q, partition, distance_->prune_mode(),
                            distance_->matching_epsilon(),
                            config_.distance == DistanceType::kERP
                                ? &config_.distance_params.erp_gap
                                : nullptr);
}

std::vector<uint32_t> DitaEngine::RelevantPartitions(const Trajectory& q,
                                                     double tau) const {
  return global_.RelevantPartitions(q, tau, distance_->prune_mode(),
                                    distance_->matching_epsilon(),
                                    config_.distance == DistanceType::kERP
                                        ? &config_.distance_params.erp_gap
                                        : nullptr);
}

bool DitaEngine::TrajectoryRelevantTo(const Trajectory& t,
                                      const GlobalIndex::PartitionSummary& s,
                                      double tau) const {
  const double df = s.mbr_first.MinDist(t.front());
  const double dl = s.mbr_last.MinDist(t.back());
  switch (distance_->prune_mode()) {
    case PruneMode::kAccumulate:
      if (config_.distance == DistanceType::kERP) return true;  // gap matching
      return df + dl <= tau;
    case PruneMode::kMax:
      return df <= tau && dl <= tau;
    case PruneMode::kEditCount: {
      double edits = 0.0;
      const double eps = distance_->matching_epsilon();
      // Only rectangle-level information is available here; a first/last MBR
      // farther than epsilon from *every* point of t forces an edit.
      double best_f = s.mbr_first.MinDist(t.front());
      double best_l = s.mbr_last.MinDist(t.back());
      for (const Point& p : t.points()) {
        best_f = std::min(best_f, s.mbr_first.MinDist(p));
        best_l = std::min(best_l, s.mbr_last.MinDist(p));
      }
      if (best_f > eps) edits += 1.0;
      if (best_l > eps) edits += 1.0;
      return edits <= std::floor(tau);
    }
  }
  return true;
}

size_t DitaEngine::LocalSearch(const Partition& p, const Trajectory& q,
                               const VerifyPrecomp& qp, double tau,
                               std::vector<TrajectoryId>* results,
                               VerifyStats* vstats,
                               TrieIndex::ProbeStats* pstats,
                               QueryContext* ctx) const {
  TrieIndex::SearchSpec spec = MakeSpec(q, tau);
  spec.ctx = ctx;
  DpScratch& scratch = DpScratch::ThreadLocal();
  std::vector<uint32_t>& candidates = scratch.Candidates();
  candidates.clear();
  {
    obs::SpanGuard collect_span(tracer_, "trie.collect");
    p.trie.CollectCandidates(spec, &candidates, pstats);
    collect_span.Arg("candidates", candidates.size());
  }
  std::vector<uint32_t>& accepted = scratch.Accepted();
  accepted.clear();
  const Verifier::Batch batch{&p.precomp, &candidates, &qp, tau, ctx};
  const Verifier::BatchResult r = verifier_->VerifyBatch(
      batch, verify_pool_.get(), config_.verify.parallel_min, &accepted,
      vstats, tracer_);
  // DP chunks ran on pool threads; charge their CPU to this cluster task so
  // the virtual-time ledger matches a serial verification.
  if (r.offloaded_seconds > 0.0) Cluster::ChargeCurrentTask(r.offloaded_seconds);
  for (const uint32_t pos : accepted) {
    results->push_back(p.trie.trajectory(pos).id());
  }
  return candidates.size();
}

Result<std::vector<TrajectoryId>> DitaEngine::SearchImpl(
    const Trajectory& q, double tau, QueryStats* stats,
    QueryContext* ctx) const {
  const Cluster::CostSnapshot snap = cluster_->Snapshot();
  obs::SpanGuard query_span(tracer_, "query");

  // Driver: probe the global index for relevant partitions.
  CpuTimer driver_timer;
  std::vector<uint32_t> relevant;
  {
    obs::SpanGuard probe_span(tracer_, "probe.global");
    relevant = RelevantPartitions(q, tau);
    probe_span.Arg("relevant", relevant.size());
  }
  const VerifyPrecomp qp = VerifyPrecomp::For(q, config_.verify.cell_size);
  cluster_->RecordDriverCompute(driver_timer.Seconds());

  // Probe-stat collection feeds the funnel (per caller request) and the
  // filter.trie.* metrics; when neither consumer exists the trie traversal
  // keeps its stats-free hot path.
  const bool want_probe_stats = stats != nullptr || metrics_ != nullptr;
  const size_t trie_levels = config_.build.trie.num_pivots + 2;

  // Workers: local filter + verify per relevant partition.
  std::vector<SearchLocalOut> outs(relevant.size());
  std::vector<Cluster::Task> tasks;
  tasks.reserve(relevant.size());
  for (size_t idx = 0; idx < relevant.size(); ++idx) {
    const Partition* part = &partitions_[relevant[idx]];
    SearchLocalOut* out = &outs[idx];
    tasks.push_back({part->home_worker,
                     [&, part, out] {
                       if (want_probe_stats) out->pstats.Reset(trie_levels);
                       out->candidates = LocalSearch(
                           *part, q, qp, tau, &out->ids, &out->vstats,
                           want_probe_stats ? &out->pstats : nullptr, ctx);
                       // Complete iff the stop (if any) had not fired by the
                       // time this task finished; conservative under real
                       // concurrency, exact under serial execution.
                       out->complete = ctx == nullptr || !ctx->stopped();
                       return Status::OK();
                     },
                     part->data_bytes});
  }
  const Status stage =
      cluster_->RunStage(std::move(tasks), StageOptions{"search", ctx});
  if (ctx != nullptr) ctx->ObserveVirtualSeconds(cluster_->MakespanSince(snap));
  const bool degraded = !stage.ok() && ShouldDegrade(ctx, stage);
  if (!stage.ok() && !degraded) return stage;
  if (degraded) {
    m_query_degraded_.Increment();
    if (tracer_ != nullptr) tracer_->Instant("query.degraded");
  }

  // Merge the completed tasks' slots. A skipped task never set its slot's
  // `complete`, and a complete query merges every slot.
  std::vector<const SearchLocalOut*> slots(relevant.size(), nullptr);
  for (size_t idx = 0; idx < relevant.size(); ++idx) {
    if (outs[idx].complete) slots[idx] = &outs[idx];
  }
  size_t total_candidates = 0;
  std::vector<TrajectoryId> results =
      MergeSearch(relevant, slots, stats, ctx, snap, &total_candidates);
  query_span.Arg("partitions_probed", relevant.size());
  query_span.Arg("candidates", total_candidates);
  query_span.Arg("results", results.size());
  return results;
}

std::vector<TrajectoryId> DitaEngine::MergeSearch(
    const std::vector<uint32_t>& relevant,
    const std::vector<const SearchLocalOut*>& slots, QueryStats* stats,
    QueryContext* ctx, const Cluster::CostSnapshot& snap,
    size_t* total_candidates_out) const {
  const bool want_probe_stats = stats != nullptr || metrics_ != nullptr;
  const size_t trie_levels = config_.build.trie.num_pivots + 2;
  std::vector<TrajectoryId> results;
  size_t total_candidates = 0;
  uint64_t relevant_population = 0;
  uint64_t merged_population = 0;
  VerifyStats vstats;
  TrieIndex::ProbeStats pstats;
  pstats.Reset(trie_levels);
  for (size_t idx = 0; idx < relevant.size(); ++idx) {
    const uint64_t population = partitions_[relevant[idx]].trie.size();
    relevant_population += population;
    const SearchLocalOut* out = slots[idx];
    if (out == nullptr) continue;
    merged_population += population;
    results.insert(results.end(), out->ids.begin(), out->ids.end());
    total_candidates += out->candidates;
    vstats.Merge(out->vstats);
    if (want_probe_stats) pstats.Merge(out->pstats);
  }
  const double completeness =
      relevant_population == 0
          ? 1.0
          : static_cast<double>(merged_population) /
                static_cast<double>(relevant_population);

  RecordFilterMetrics(relevant.size(), pstats, vstats);
  h_query_candidates_.Observe(static_cast<double>(total_candidates));

  if (stats != nullptr) {
    stats->makespan_seconds = cluster_->MakespanSince(snap);
    stats->partitions_probed = relevant.size();
    stats->candidates = total_candidates;
    stats->verify = vstats;
    stats->results = results.size();
    stats->faults = cluster_->FaultsSince(snap);
    stats->termination = ctx != nullptr ? ctx->ToStatus() : Status::OK();
    stats->completeness = completeness;

    // Filter funnel: survivors after each pruning level. Within the trie,
    // survivors after level l are the relevant population minus everything
    // pruned at levels <= l; the remainder after the last level is exactly
    // the candidate set, and the verify counters carry the funnel to the
    // accepted results. Under degradation every level counts only the
    // merged (completed) partitions, so the funnel still balances: it stays
    // monotone and ends at the returned result count.
    obs::FilterFunnel funnel;
    funnel.AddLevel("table", index_stats_.num_trajectories);
    funnel.AddLevel("global index", merged_population);
    uint64_t remaining = merged_population;
    for (size_t l = 0; l < trie_levels; ++l) {
      remaining -= pstats.pruned_members[l];
      const std::string label =
          l == 0 ? "trie: first"
                 : (l == 1 ? "trie: last"
                           : "trie: pivot " + std::to_string(l - 1));
      funnel.AddLevel(label, remaining);
    }
    funnel.AddLevel("candidates", total_candidates);
    funnel.AddLevel("mbr coverage", vstats.pairs - vstats.pruned_by_mbr);
    funnel.AddLevel("cell bound", vstats.dp_computed);
    funnel.AddLevel("threshold dp", vstats.accepted);
    stats->funnel = std::move(funnel);
  }
  std::sort(results.begin(), results.end());
  if (total_candidates_out != nullptr) *total_candidates_out = total_candidates;
  return results;
}

DitaEngine::KnnPlan DitaEngine::PlanKnn(const Trajectory& q, size_t k) const {
  KnnPlan plan;
  plan.order.reserve(partitions_.size());
  for (uint32_t p = 0; p < partitions_.size(); ++p) {
    plan.order.emplace_back(PartitionLowerBound(q, p), p);
  }
  std::sort(plan.order.begin(), plan.order.end());
  size_t held = 0;
  while (plan.seed < plan.order.size() && (plan.seed == 0 || held < k)) {
    held += partitions_[plan.order[plan.seed].second].trie.size();
    ++plan.seed;
  }
  return plan;
}

Result<std::vector<KnnNeighbor>> DitaEngine::KnnSearchImpl(
    const Trajectory& q, size_t k, QueryStats* stats, QueryContext* ctx,
    const std::unordered_set<TrajectoryId>* skip, double* proven) const {
  const Cluster::CostSnapshot snap = cluster_->Snapshot();
  obs::SpanGuard knn_span(tracer_, "knn.query");
  knn_span.Arg("k", k);

  // Driver: every partition's lower bound, in visit order.
  CpuTimer driver_timer;
  const KnnPlan plan = PlanKnn(q, k);
  const SoaTrajectory qsoa(q);
  const TrajView qv = qsoa.view();
  cluster_->RecordDriverCompute(driver_timer.Seconds());

  // One slot per partition, in visit order; each task writes only its own.
  struct Visit {
    bool probed = false;    // the bound did not prune it at task start
    bool complete = false;  // fully swept, or pruned by the bound
    size_t candidates = 0;
    VerifyStats vstats;
  };
  std::vector<Visit> visits(plan.order.size());
  KnnTopK top(k);

  // Sweeps one partition against the shared bound. Candidates are tried
  // nearest endpoints first — only a visiting order, so the bound tightens
  // early; the early-abandoning threshold kernel rejects most of the rest,
  // and only its survivors pay for the exact distance.
  const auto sweep = [&](size_t idx) {
    const Partition& part = partitions_[plan.order[idx].second];
    Visit& v = visits[idx];
    double bound = top.Bound();
    if (plan.order[idx].first > bound) {
      v.complete = true;  // every member is farther than the k-th answer
      return;
    }
    v.probed = true;
    DpScratch& scratch = DpScratch::ThreadLocal();
    std::vector<uint32_t>& cands = scratch.Candidates();
    cands.clear();
    if (std::isinf(bound)) {
      cands.resize(part.trie.size());  // no k-th answer yet: all members
      for (uint32_t pos = 0; pos < cands.size(); ++pos) cands[pos] = pos;
    } else {
      TrieIndex::SearchSpec spec = MakeSpec(q, bound);
      spec.ctx = ctx;
      part.trie.CollectCandidates(spec, &cands);
      if (ctx != nullptr && ctx->stopped()) return;
    }
    v.candidates = cands.size();
    v.vstats.pairs = cands.size();
    std::vector<std::pair<double, uint32_t>> order;
    order.reserve(cands.size());
    for (const uint32_t pos : cands) {
      const Trajectory& t = part.trie.trajectory(pos);
      order.emplace_back(PointDistance(q.front(), t.front()) +
                             PointDistance(q.back(), t.back()),
                         pos);
    }
    std::sort(order.begin(), order.end());
    scratch.SetQueryContext(ctx);  // the kernels poll it per row block
    for (const auto& [endpoints, pos] : order) {
      const TrajectoryId id = part.trie.trajectory(pos).id();
      if (skip != nullptr && skip->count(id) > 0) continue;
      const TrajView tv = part.precomp[pos].soa.view();
      const uint64_t cells = static_cast<uint64_t>(tv.len) * qv.len;
      ++v.vstats.dp_computed;
      v.vstats.dp_cells += cells;
      if (ctx != nullptr && ctx->ChargeDpCells(cells)) break;
      bound = top.Bound();
      if (!std::isinf(bound) &&
          !distance_->WithinThreshold(tv, qv, bound, &scratch)) {
        if (ctx != nullptr && ctx->stopped()) break;
        continue;
      }
      const double d = distance_->Compute(tv, qv, &scratch);
      if (ctx != nullptr && ctx->stopped()) break;  // d may be cut short
      ++v.vstats.accepted;
      top.Offer(id, d);
    }
    scratch.SetQueryContext(nullptr);
    v.complete = ctx == nullptr || !ctx->stopped();
  };

  // Runs the sweep over visit positions [lo, hi) as one cluster stage, so
  // makespan, faults and cancellation are accounted as for any stage. A
  // task the stage skipped never set its visit's `complete`, so it counts
  // as unfinished.
  const auto run_stage = [&](size_t lo, size_t hi, const char* name) {
    std::vector<Cluster::Task> tasks;
    tasks.reserve(hi - lo);
    for (size_t idx = lo; idx < hi; ++idx) {
      const Partition& part = partitions_[plan.order[idx].second];
      tasks.push_back({part.home_worker,
                       [&sweep, idx] {
                         sweep(idx);
                         return Status::OK();
                       },
                       part.data_bytes});
    }
    const Status stage =
        cluster_->RunStage(std::move(tasks), StageOptions{name, ctx});
    if (ctx != nullptr) {
      ctx->ObserveVirtualSeconds(cluster_->MakespanSince(snap));
    }
    if (!stage.ok() && !ShouldDegrade(ctx, stage)) return stage;
    return Status::OK();
  };

  // Seed stage: the lowest-bound partitions holding k trajectories set a
  // first k-th distance. Sweep stage: the partitions still relevant at it,
  // whose tasks share the bound as it tightens. Partitions past that prefix
  // are pruned outright — the bound only shrinks.
  DITA_RETURN_IF_ERROR(run_stage(0, plan.seed, "knn-seed"));
  const double seed_bound = top.Bound();
  size_t end = plan.seed;
  while (end < plan.order.size() && plan.order[end].first <= seed_bound) ++end;
  for (size_t idx = end; idx < plan.order.size(); ++idx) {
    visits[idx].complete = true;
  }
  if (end > plan.seed && (ctx == nullptr || !ctx->stopped())) {
    DITA_RETURN_IF_ERROR(run_stage(plan.seed, end, "knn-sweep"));
  }

  // A stop leaves some partitions unswept; no trajectory in them is closer
  // than their lower bound, so the answers strictly below the smallest such
  // bound are a proven prefix of the full answer.
  double unfinished = std::numeric_limits<double>::infinity();
  size_t probed = 0;
  size_t candidates = 0;
  uint64_t probed_population = 0;
  VerifyStats vstats;
  for (size_t idx = 0; idx < visits.size(); ++idx) {
    const Visit& v = visits[idx];
    if (!v.complete) unfinished = std::min(unfinished, plan.order[idx].first);
    if (!v.probed) continue;
    ++probed;
    probed_population += partitions_[plan.order[idx].second].trie.size();
    candidates += v.candidates;
    vstats.Merge(v.vstats);
  }
  std::vector<KnnNeighbor> scored = top.Sorted();
  KnnKeepBelow(unfinished, &scored);
  if (proven != nullptr) *proven = unfinished;
  const bool stopped = ctx != nullptr && ctx->stopped();
  if (stopped) {
    m_query_degraded_.Increment();
    if (tracer_ != nullptr) tracer_->Instant("query.degraded");
  }

  RecordFilterMetrics(probed, TrieIndex::ProbeStats{}, vstats);
  h_query_candidates_.Observe(static_cast<double>(candidates));
  knn_span.Arg("partitions_probed", probed);
  knn_span.Arg("candidates", candidates);
  knn_span.Arg("results", scored.size());
  if (stats != nullptr) {
    stats->makespan_seconds = cluster_->MakespanSince(snap);
    stats->partitions_probed = probed;
    stats->candidates = candidates;
    stats->verify = vstats;
    stats->results = scored.size();
    stats->faults = cluster_->FaultsSince(snap);
    stats->termination = ctx != nullptr ? ctx->ToStatus() : Status::OK();
    stats->completeness = stopped ? static_cast<double>(scored.size()) /
                                        static_cast<double>(k)
                                  : 1.0;
    // kNN funnel: table -> swept partitions -> trie candidates at the
    // bound -> threshold DPs run -> exact distances computed -> answers.
    obs::FilterFunnel funnel;
    funnel.AddLevel("table", index_stats_.num_trajectories);
    funnel.AddLevel("partitions", probed_population);
    funnel.AddLevel("trie candidates", candidates);
    funnel.AddLevel("reached dp", vstats.dp_computed);
    funnel.AddLevel("within bound", vstats.accepted);
    funnel.AddLevel("results", scored.size());
    stats->funnel = std::move(funnel);
  }
  return scored;
}

Result<std::vector<std::pair<TrajectoryId, TrajectoryId>>> DitaEngine::JoinImpl(
    const DitaEngine& right, double tau, JoinStats* stats,
    QueryContext* ctx) const {
  JoinPlanner planner(*this, right, tau, ctx);
  return planner.Run(stats);
}

}  // namespace dita
