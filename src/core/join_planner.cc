#include "core/join_planner.h"

#include <algorithm>
#include <cmath>

#include "distance/dp_scratch.h"
#include "util/logging.h"
#include "util/timer.h"

namespace dita {
namespace {

// Nominal cost of one threshold-DP cell, used to turn sampled DP work into
// the planner's Delta (seconds per candidate pair, §6.2). The magnitude is
// anchored by BENCH_micro_filter.json (~2.4 us per no-abandon DTW pair of
// ~32-point trajectories, i.e. ~2.3 ns/cell); orientation only compares it
// against simulated network seconds, so the ratio matters, not the scale.
constexpr double kSecondsPerDpCell = 2.3e-9;

// Share of each partition's trajectories sampled to estimate the bi-graph's
// trans/comp edge weights (§6.2, "DITA samples T and Q").
constexpr double kJoinSampleRate = 0.1;

// Nodes whose cost exceeds this quantile of the per-node cost distribution
// are divided (replicated) for load balancing (§6.3).
constexpr double kDivisionQuantile = 0.98;

}  // namespace

JoinPlanner::JoinPlanner(const DitaEngine& left, const DitaEngine& right,
                         double tau, QueryContext* ctx)
    : left_(left),
      right_(right),
      tau_(tau),
      ctx_(ctx),
      cluster_(*left.cluster_) {}

size_t JoinPlanner::NodeIndex(bool is_left, uint32_t part) const {
  return is_left ? part : left_.partitions_.size() + part;
}

void JoinPlanner::BuildGraph() {
  const Point* erp_gap = left_.config_.distance == DistanceType::kERP
                             ? &left_.config_.distance_params.erp_gap
                             : nullptr;
  const PruneMode mode = left_.distance_->prune_mode();
  const double eps = left_.distance_->matching_epsilon();
  // A self-join's bi-graph is a triangle: every distance is symmetric, so
  // edge (j, i) would decide the pairs edge (i, j) decides, reversed, and
  // Execute emits each of them in both orientations.
  for (uint32_t i = 0; i < left_.partitions_.size(); ++i) {
    for (uint32_t j = SelfJoin() ? i : 0; j < right_.partitions_.size(); ++j) {
      const auto& rs = right_.global_.summary(j);
      if (left_.global_.PartitionsMayJoin(i, rs.mbr_first, rs.mbr_last, tau_,
                                          mode, eps, erp_gap)) {
        Edge e;
        e.left_part = i;
        e.right_part = j;
        edges_.push_back(e);
      }
    }
  }
}

void JoinPlanner::EstimateWeights() {
  // Sample trajectories of each partition once; reuse across its edges.
  auto sample_positions = [](size_t partition_size) {
    size_t want = static_cast<size_t>(
        std::ceil(kJoinSampleRate * double(partition_size)));
    want = std::clamp<size_t>(want, 1, 16);
    std::vector<uint32_t> out;
    const size_t stride = std::max<size_t>(1, partition_size / want);
    for (size_t pos = 0; pos < partition_size && out.size() < want; pos += stride) {
      out.push_back(static_cast<uint32_t>(pos));
    }
    return out;
  };

  CpuTimer sampling_timer;
  size_t probed_candidates = 0;
  double probed_cells = 0.0;

  // Estimates one direction: ship from `src` partition of `src_side` to
  // `dst` partition of the other side; returns {trans_bytes, comp_pairs}.
  auto estimate = [&](const DitaEngine& src_side, uint32_t src,
                      const DitaEngine& dst_side, uint32_t dst,
                      double* trans_bytes, double* comp_pairs) {
    const auto& sp = src_side.partitions_[src];
    const auto& dst_summary = dst_side.global_.summary(dst);
    const auto sampled = sample_positions(sp.trie.size());
    if (sampled.empty()) {
      *trans_bytes = 0;
      *comp_pairs = 0;
      return;
    }
    size_t relevant = 0;
    size_t candidates = 0;
    for (uint32_t pos : sampled) {
      const Trajectory& t = sp.trie.trajectory(pos);
      if (!dst_side.TrajectoryRelevantTo(t, dst_summary, tau_)) continue;
      ++relevant;
      TrieIndex::SearchSpec spec = dst_side.MakeSpec(t, tau_);
      std::vector<uint32_t> cands;
      dst_side.partitions_[dst].trie.CollectCandidates(spec, &cands);
      for (uint32_t c : cands) {
        probed_cells +=
            double(t.size()) *
            double(dst_side.partitions_[dst].trie.trajectory(c).size());
      }
      candidates += cands.size();
    }
    probed_candidates += candidates;
    const double frac = double(relevant) / double(sampled.size());
    *trans_bytes = frac * double(sp.data_bytes);
    *comp_pairs = double(candidates) / double(sampled.size()) *
                  double(sp.trie.size());
  };

  for (Edge& e : edges_) {
    double bytes_lr, pairs_lr, bytes_rl, pairs_rl;
    estimate(left_, e.left_part, right_, e.right_part, &bytes_lr, &pairs_lr);
    if (SelfJoin() && e.left_part == e.right_part) {
      // A diagonal edge's two directions are one partition against itself.
      bytes_rl = bytes_lr;
      pairs_rl = pairs_lr;
    } else {
      estimate(right_, e.right_part, left_, e.left_part, &bytes_rl, &pairs_rl);
    }
    const double bandwidth = cluster_.config().bandwidth_bytes_per_sec;
    e.trans_lr = bytes_lr / bandwidth;
    e.trans_rl = bytes_rl / bandwidth;
    // comp converted to seconds below, once seconds_per_pair_ is known; stash
    // pair counts for now.
    e.comp_lr = pairs_lr;
    e.comp_rl = pairs_rl;
  }

  // Delta (§6.2): expected verify seconds per candidate pair, derived from
  // the sampled work volume — average DP area per candidate times a fixed
  // per-cell cost — never from the sampling CpuTimer. Orientation and
  // division balancing must be pure functions of data and config so serial
  // runs replan identically (the chaos soak's determinism contract); the
  // measured sampling CPU is still charged to the driver's virtual clock
  // below, it just never feeds a comparison.
  const double sampling_seconds = sampling_timer.Seconds();
  if (probed_candidates > 0) {
    seconds_per_pair_ =
        kSecondsPerDpCell * probed_cells / double(probed_candidates);
  }
  for (Edge& e : edges_) {
    e.comp_lr *= seconds_per_pair_;
    e.comp_rl *= seconds_per_pair_;
  }
  cluster_.RecordDriverCompute(sampling_seconds);
}

std::vector<double> JoinPlanner::NodeCosts() const {
  std::vector<double> tc(left_.partitions_.size() + right_.partitions_.size(),
                         0.0);
  for (const Edge& e : edges_) {
    const size_t l = NodeIndex(true, e.left_part);
    const size_t r = NodeIndex(false, e.right_part);
    if (e.left_to_right) {
      tc[l] += e.trans_lr;  // network cost borne by the sender
      tc[r] += e.comp_lr;   // computation borne by the receiver
    } else {
      tc[r] += e.trans_rl;
      tc[l] += e.comp_rl;
    }
  }
  return tc;
}

void JoinPlanner::OrientGreedily() {
  // Initial orientation: cheaper direction per edge (§6.2 greedy step 1).
  for (Edge& e : edges_) {
    e.left_to_right = (e.trans_lr + e.comp_lr) <= (e.trans_rl + e.comp_rl);
  }
  // An empty bi-graph (a join over an empty table) has no hottest node.
  if (!left_.config_.enable_graph_orientation || edges_.empty()) return;

  // Iterative improvement: flip the edge of the maximum-cost node that
  // lowers the global maximum the most; stop at a fixpoint.
  const size_t max_iters = 4 * edges_.size() + 8;
  for (size_t iter = 0; iter < max_iters; ++iter) {
    std::vector<double> tc = NodeCosts();
    const size_t hottest = static_cast<size_t>(
        std::max_element(tc.begin(), tc.end()) - tc.begin());
    const double current_max = tc[hottest];

    double best_max = current_max;
    Edge* best_edge = nullptr;
    for (Edge& e : edges_) {
      const size_t l = NodeIndex(true, e.left_part);
      const size_t r = NodeIndex(false, e.right_part);
      if (l != hottest && r != hottest) continue;
      // Evaluate the flip's effect on the two incident nodes only; other
      // nodes are unaffected, so the new global max is the max of the two
      // updated nodes and the old max over the rest (approximated by
      // current_max of non-incident nodes).
      double nl = tc[l];
      double nr = tc[r];
      if (e.left_to_right) {
        nl += e.comp_rl - e.trans_lr;
        nr += e.trans_rl - e.comp_lr;
      } else {
        nl += e.trans_lr - e.comp_rl;
        nr += e.comp_lr - e.trans_rl;
      }
      double rest = 0.0;
      for (size_t n = 0; n < tc.size(); ++n) {
        if (n != l && n != r) rest = std::max(rest, tc[n]);
      }
      const double new_max = std::max({rest, nl, nr});
      if (new_max < best_max - 1e-15) {
        best_max = new_max;
        best_edge = &e;
      }
    }
    if (best_edge == nullptr) break;
    best_edge->left_to_right = !best_edge->left_to_right;
  }
}

void JoinPlanner::PlanDivisions() {
  const size_t num_nodes = left_.partitions_.size() + right_.partitions_.size();
  node_workers_.assign(num_nodes, {});
  for (uint32_t p = 0; p < left_.partitions_.size(); ++p) {
    node_workers_[NodeIndex(true, p)] = {left_.partitions_[p].home_worker};
  }
  for (uint32_t p = 0; p < right_.partitions_.size(); ++p) {
    node_workers_[NodeIndex(false, p)] = {right_.partitions_[p].home_worker};
  }
  divided_partitions_ = 0;
  // Without edges every node costs 0 and there is nothing to divide; with
  // no nodes at all the quantile below would index an empty vector.
  if (!left_.config_.enable_division_balancing || edges_.empty()) return;

  std::vector<double> tc = NodeCosts();
  std::vector<double> sorted = tc;
  std::sort(sorted.begin(), sorted.end());
  // The kDivisionQuantile of the node costs, interpolated linearly between
  // order statistics at position kDivisionQuantile * (n - 1). A
  // nearest-rank pick lands on the hottest cost itself whenever ties sit at
  // the top (orientation's fixpoint often leaves the hottest nodes tied), so
  // no node could exceed it.
  const double pos = kDivisionQuantile * double(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double threshold =
      sorted[lo] + (pos - double(lo)) * (sorted[hi] - sorted[lo]);
  if (threshold <= 0.0) return;

  for (size_t n = 0; n < num_nodes; ++n) {
    if (tc[n] <= threshold) continue;
    size_t replicas = static_cast<size_t>(std::ceil(tc[n] / threshold));
    replicas = std::min(replicas, cluster_.num_workers());
    if (replicas <= 1) continue;
    ++divided_partitions_;
    const size_t home = node_workers_[n][0];
    const bool is_left = n < left_.partitions_.size();
    const uint32_t part =
        static_cast<uint32_t>(is_left ? n : n - left_.partitions_.size());
    const auto& partition = Side(is_left).partitions_[part];
    const uint64_t replica_bytes =
        partition.data_bytes + partition.trie.ByteSize();
    for (size_t k = 1; k < replicas; ++k) {
      const size_t worker = (home + k) % cluster_.num_workers();
      node_workers_[n].push_back(worker);
      // Shipping the partition's data and index to the replica.
      cluster_.RecordTransfer(home, worker, replica_bytes);
    }
  }
}

Result<std::vector<std::pair<TrajectoryId, TrajectoryId>>> JoinPlanner::Run(
    DitaEngine::JoinStats* stats) {
  snap_ = cluster_.Snapshot();
  const Cluster::CostSnapshot snap = snap_;
  const uint64_t bytes_before = cluster_.total_bytes_sent();
  obs::SpanGuard join_span(left_.tracer_, "join");

  {
    obs::SpanGuard plan_span(left_.tracer_, "join.plan");
    CpuTimer planning_timer;
    BuildGraph();
    cluster_.RecordDriverCompute(planning_timer.Seconds());

    EstimateWeights();

    CpuTimer orientation_timer;
    OrientGreedily();
    PlanDivisions();
    cluster_.RecordDriverCompute(orientation_timer.Seconds());
    plan_span.Arg("edges", edges_.size());
    plan_span.Arg("divided_partitions", divided_partitions_);
  }

  auto result = Execute(stats);
  join_span.Arg("edges", edges_.size());
  if (result.ok()) join_span.Arg("result_pairs", result.value().size());
  if (result.ok() && degraded_) {
    left_.m_query_degraded_.Increment();
    if (left_.tracer_ != nullptr) left_.tracer_->Instant("query.degraded");
  }
  if (result.ok() && stats != nullptr) {
    stats->makespan_seconds = cluster_.MakespanSince(snap);
    stats->load_ratio = cluster_.LoadRatioSince(snap);
    stats->bytes_shipped = cluster_.total_bytes_sent() - bytes_before;
    stats->graph_edges = edges_.size();
    stats->divided_partitions = divided_partitions_;
    stats->result_pairs = result.value().size();
    stats->faults = cluster_.FaultsSince(snap);
    stats->termination = ctx_ != nullptr ? ctx_->ToStatus() : Status::OK();
    stats->completeness = completeness_;

    // Join filter funnel, in ordered trajectory-pair units. Each (T, Q)
    // pair lives in exactly one partition pair, and a self-join's
    // off-diagonal edge stands for both (i, j) and (j, i), so the per-edge
    // sums never double count; the verify counters continue the funnel from
    // the trie candidates down to the accepted result pairs.
    const uint64_t all_pairs =
        static_cast<uint64_t>(left_.index_stats_.num_trajectories) *
        right_.index_stats_.num_trajectories;
    uint64_t graph_pairs = 0;
    for (const Edge& e : edges_) {
      const uint64_t orientations =
          SelfJoin() && e.left_part != e.right_part ? 2 : 1;
      graph_pairs +=
          orientations *
          left_.partitions_[e.left_part].trie.size() *
          right_.partitions_[e.right_part].trie.size();
    }
    obs::FilterFunnel funnel;
    funnel.AddLevel("all pairs", all_pairs);
    funnel.AddLevel("partition graph", graph_pairs);
    funnel.AddLevel("ship relevance", ship_pairs_);
    funnel.AddLevel("trie candidates", stats->candidate_pairs);
    funnel.AddLevel("mbr coverage",
                    stats->verify.pairs - stats->verify.pruned_by_mbr);
    funnel.AddLevel("cell bound", stats->verify.dp_computed);
    funnel.AddLevel("threshold dp", stats->verify.accepted);
    stats->funnel = std::move(funnel);
  }
  return result;
}

Result<std::vector<std::pair<TrajectoryId, TrajectoryId>>>
JoinPlanner::Execute(DitaEngine::JoinStats* stats) {
  // Each oriented edge becomes a ship task on a source replica worker and a
  // probe task on a target replica worker. Replicas take edges round-robin.
  struct EdgePlan {
    const Edge* edge;
    size_t src_worker;
    size_t dst_worker;
    std::vector<uint32_t> shipped;  // filled by the ship stage
    /// Set at the end of the ship task body; an edge whose ship was cut
    /// short never reaches the probe stage (its shipped list is partial).
    bool ship_complete = false;
  };
  std::vector<EdgePlan> plans;
  plans.reserve(edges_.size());
  std::vector<size_t> next_replica(node_workers_.size(), 0);
  auto pick_worker = [&](size_t node) {
    const auto& workers = node_workers_[node];
    const size_t w = workers[next_replica[node] % workers.size()];
    ++next_replica[node];
    return w;
  };
  for (const Edge& e : edges_) {
    EdgePlan plan;
    plan.edge = &e;
    const size_t l = NodeIndex(true, e.left_part);
    const size_t r = NodeIndex(false, e.right_part);
    plan.src_worker = pick_worker(e.left_to_right ? l : r);
    plan.dst_worker = pick_worker(e.left_to_right ? r : l);
    plans.push_back(std::move(plan));
  }

  // Stage 1: source-side filtering ("send only trajectories that have
  // candidates in the target", §6.2) + transfer accounting.
  std::vector<Cluster::Task> ship_tasks;
  ship_tasks.reserve(plans.size());
  for (EdgePlan& plan : plans) {
    const Edge& pe = *plan.edge;
    const DitaEngine& plan_src = pe.left_to_right ? left_ : right_;
    const uint32_t src_part = pe.left_to_right ? pe.left_part : pe.right_part;
    const uint64_t src_bytes = plan_src.partitions_[src_part].data_bytes;
    ship_tasks.push_back({plan.src_worker,
                          [this, &plan] {
      const Edge& e = *plan.edge;
      const DitaEngine& src_side = e.left_to_right ? left_ : right_;
      const DitaEngine& dst_side = e.left_to_right ? right_ : left_;
      const uint32_t src = e.left_to_right ? e.left_part : e.right_part;
      const uint32_t dst = e.left_to_right ? e.right_part : e.left_part;
      const auto& sp = src_side.partitions_[src];
      const auto& dst_summary = dst_side.global_.summary(dst);
      uint64_t bytes = 0;
      constexpr uint32_t kCheckStride = 64;
      for (uint32_t pos = 0; pos < sp.trie.size(); ++pos) {
        if (ctx_ != nullptr && (pos % kCheckStride) == 0 &&
            ctx_->CheckPoint(kCheckStride)) {
          return Status::OK();  // ship_complete stays false; edge is dropped
        }
        const Trajectory& t = sp.trie.trajectory(pos);
        if (dst_side.TrajectoryRelevantTo(t, dst_summary, tau_)) {
          plan.shipped.push_back(pos);
          bytes += t.ByteSize();
        }
      }
      plan.ship_complete = ctx_ == nullptr || !ctx_->stopped();
      // Only complete ships pay for the transfer: an abandoned edge never
      // sends its trajectories to the target.
      if (plan.ship_complete) {
        cluster_.RecordTransfer(plan.src_worker, plan.dst_worker, bytes);
      }
      return Status::OK();
                          },
                          src_bytes});
  }
  {
    const Status ship_status = cluster_.RunStage(
        std::move(ship_tasks), StageOptions{"join-ship", ctx_});
    if (ctx_ != nullptr) {
      ctx_->ObserveVirtualSeconds(cluster_.MakespanSince(snap_));
    }
    if (!ship_status.ok() && !DitaEngine::ShouldDegrade(ctx_, ship_status)) {
      return ship_status;
    }
  }

  // Stage 2: target-side local joins, over the edges whose ship completed
  // (a skipped ship task never set `ship_complete`). Each probe task writes
  // only its own slot so a stopped join merges exactly the edges that ran
  // to completion.
  std::vector<size_t> eligible;
  eligible.reserve(plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    if (plans[i].ship_complete) eligible.push_back(i);
  }
  // Each probe sorts its own pairs, so the driver only merges sorted runs.
  struct ProbeOut {
    std::vector<std::pair<TrajectoryId, TrajectoryId>> pairs;
    size_t candidates = 0;
    size_t mirrored = 0;
    uint64_t ship_pairs = 0;
    VerifyStats vstats;
    bool complete = false;
  };
  std::vector<ProbeOut> probe_outs(eligible.size());
  // Verify counters feed JoinStats::verify / the funnel and the verify.*
  // metrics; when neither consumer exists the verifier keeps its
  // counter-free hot path (stats pointer stays null, as before).
  const bool want_verify_stats = stats != nullptr || left_.metrics_ != nullptr;
  std::vector<Cluster::Task> probe_tasks;
  probe_tasks.reserve(eligible.size());
  for (size_t slot = 0; slot < eligible.size(); ++slot) {
    EdgePlan& plan = plans[eligible[slot]];
    ProbeOut* out = &probe_outs[slot];
    const Edge& pe = *plan.edge;
    const DitaEngine& plan_dst = pe.left_to_right ? right_ : left_;
    const uint32_t dst_part = pe.left_to_right ? pe.right_part : pe.left_part;
    const uint64_t dst_bytes = plan_dst.partitions_[dst_part].data_bytes;
    probe_tasks.push_back({plan.dst_worker,
                           [this, &plan, out, want_verify_stats] {
      const Edge& e = *plan.edge;
      const DitaEngine& src_side = e.left_to_right ? left_ : right_;
      const DitaEngine& dst_side = e.left_to_right ? right_ : left_;
      const uint32_t src = e.left_to_right ? e.left_part : e.right_part;
      const uint32_t dst = e.left_to_right ? e.right_part : e.left_part;
      const auto& sp = src_side.partitions_[src];
      const auto& dp = dst_side.partitions_[dst];

      // A self-join decides each unordered pair once and emits it in both
      // orientations (counted in both, in ordered-pair units). On a
      // diagonal edge the probe collects only the items after its own, and
      // verifies the self-pair, counted once, on its own.
      const bool mirror = SelfJoin();
      const bool diagonal = mirror && e.left_part == e.right_part;
      const size_t orientations = mirror ? 2 : 1;
      const uint64_t dst_size = dp.trie.size();
      DpScratch& scratch = DpScratch::ThreadLocal();
      VerifyStats* const self_stats = want_verify_stats ? &out->vstats : nullptr;
      double offloaded = 0.0;
      for (uint32_t pos : plan.shipped) {
        if (ctx_ != nullptr && ctx_->stopped()) break;
        const Trajectory& q = sp.trie.trajectory(pos);
        const VerifyPrecomp& qp = sp.precomp[pos];
        TrieIndex::SearchSpec spec = dst_side.MakeSpec(q, tau_);
        spec.ctx = ctx_;
        if (diagonal) {
          const uint32_t item = dp.trie.ItemIndex(pos);
          spec.min_item = item + 1;
          // Ordered pairs (q, t) with t at or after q's item, and mirrors.
          out->ship_pairs += 2 * (dst_size - item) - 1;
          ++out->candidates;
          if (dst_side.verifier_->Verify(q, qp, q, qp, tau_, self_stats)) {
            out->pairs.emplace_back(q.id(), q.id());
          }
        } else {
          out->ship_pairs += orientations * dst_size;
        }
        std::vector<uint32_t>& cands = scratch.Candidates();
        cands.clear();
        dp.trie.CollectCandidates(spec, &cands);
        out->candidates += orientations * cands.size();
        if (mirror) out->mirrored += cands.size();
        std::vector<uint32_t>& accepted = scratch.Accepted();
        accepted.clear();
        VerifyStats batch_stats;
        const Verifier::Batch batch{&dp.precomp, &cands, &qp, tau_, ctx_};
        const Verifier::BatchResult r = dst_side.verifier_->VerifyBatch(
            batch, dst_side.verify_pool_.get(),
            dst_side.config_.verify.parallel_min, &accepted,
            want_verify_stats ? &batch_stats : nullptr, dst_side.tracer_);
        offloaded += r.offloaded_seconds;
        for (size_t k = 0; k < orientations; ++k) out->vstats.Merge(batch_stats);
        for (uint32_t cpos : accepted) {
          const Trajectory& t = dp.trie.trajectory(cpos);
          const std::pair<TrajectoryId, TrajectoryId> pair =
              e.left_to_right ? std::make_pair(q.id(), t.id())
                              : std::make_pair(t.id(), q.id());
          out->pairs.push_back(pair);
          // The self-pair never reaches here: only a diagonal holds it.
          if (mirror) out->pairs.emplace_back(pair.second, pair.first);
        }
      }
      std::sort(out->pairs.begin(), out->pairs.end());
      if (offloaded > 0.0) Cluster::ChargeCurrentTask(offloaded);
      out->complete = ctx_ == nullptr || !ctx_->stopped();
      return Status::OK();
                           },
                           dst_bytes});
  }
  {
    const Status probe_status = cluster_.RunStage(
        std::move(probe_tasks), StageOptions{"join-probe", ctx_});
    if (ctx_ != nullptr) {
      ctx_->ObserveVirtualSeconds(cluster_.MakespanSince(snap_));
    }
    if (!probe_status.ok() && !DitaEngine::ShouldDegrade(ctx_, probe_status)) {
      return probe_status;
    }
  }

  // Merge the completed edges. ship_pairs_ counts only merged edges so the
  // funnel still balances under degradation, and a self-join's subset stays
  // symmetric: both orientations of a pair come from the same edge.
  std::vector<std::pair<TrajectoryId, TrajectoryId>> results;
  std::vector<size_t> run_ends;
  size_t candidate_pairs = 0;
  size_t mirrored_pairs = 0;
  VerifyStats vstats;
  ship_pairs_ = 0;
  for (const ProbeOut& out : probe_outs) {
    if (!out.complete) continue;
    ship_pairs_ += out.ship_pairs;
    results.insert(results.end(), out.pairs.begin(), out.pairs.end());
    run_ends.push_back(results.size());
    candidate_pairs += out.candidates;
    mirrored_pairs += out.mirrored;
    vstats.Merge(out.vstats);
  }
  const size_t merged_edges = run_ends.size();
  completeness_ = edges_.empty() ? 1.0
                                 : static_cast<double>(merged_edges) /
                                       static_cast<double>(edges_.size());
  degraded_ = ctx_ != nullptr && ctx_->stopped();

  if (stats != nullptr) {
    stats->candidate_pairs = candidate_pairs;
    stats->mirrored_pairs = mirrored_pairs;
    stats->verify = vstats;
  }
  // Fold the join's verify counters into the metrics registry (no global
  // probe or trie-level breakdown on the join path).
  left_.RecordFilterMetrics(0, TrieIndex::ProbeStats{}, vstats);
  // Bottom-up merge of the probes' sorted runs: log2(runs) passes instead of
  // one serial sort of every pair.
  for (size_t width = 1; width < run_ends.size(); width *= 2) {
    for (size_t i = width; i < run_ends.size(); i += 2 * width) {
      const size_t lo = i == width ? 0 : run_ends[i - width - 1];
      const size_t hi = run_ends[std::min(i + width, run_ends.size()) - 1];
      std::inplace_merge(results.begin() + lo,
                         results.begin() + run_ends[i - 1],
                         results.begin() + hi);
    }
  }
  return results;
}

}  // namespace dita
