#ifndef DITA_CORE_JOIN_PLANNER_H_
#define DITA_CORE_JOIN_PLANNER_H_

#include <utility>
#include <vector>

#include "core/engine.h"

namespace dita {

/// Plans and executes one distributed trajectory similarity join (§6).
///
/// Pipeline:
///  1. Build the partition-partition bi-graph: an edge per partition pair
///     that may contain similar trajectories (global-index test).
///  2. Estimate each edge's `trans` (bytes to ship) and `comp` (candidate
///     pairs to verify) weights by sampling, and convert both to seconds
///     using the measured per-pair verification time and the cluster
///     bandwidth (the paper's lambda = 1/(Delta*B), §6.2).
///  3. Orient each edge greedily to minimize the maximum per-partition total
///     cost TC = NC + CC (the graph-orientation approximation; the exact
///     problem is NP-hard [6]).
///  4. Division-based load balancing (§6.3): partitions whose TC exceeds the
///     configured quantile are replicated and their edges spread over the
///     replicas (replication traffic is charged).
///  5. Execute: per edge, the source worker filters which of its
///     trajectories have candidates in the target partition and ships only
///     those; the target worker probes its trie, verifies and sorts its
///     pairs, and the driver merges the sorted runs.
///
/// A self-join (`&left == &right`) uses the symmetry of every distance: its
/// bi-graph is a triangle, the edges (i, j) with j >= i, and each probe
/// emits every pair it accepts in both orientations. A diagonal edge (i, i)
/// probes only the trie items after the probe's own, and verifies the
/// self-pair on its own, so each unordered pair is decided exactly once.
class JoinPlanner {
 public:
  /// `ctx` (may be null) is the query's stop token: a join stopped
  /// mid-flight degrades to the pairs produced by the edges whose ship and
  /// probe both completed — a correct subset of the full join.
  JoinPlanner(const DitaEngine& left, const DitaEngine& right, double tau,
              QueryContext* ctx = nullptr);

  Result<std::vector<std::pair<TrajectoryId, TrajectoryId>>> Run(
      DitaEngine::JoinStats* stats);

 private:
  /// Bi-graph node: a partition of either side. Left partitions come first.
  struct NodeRef {
    bool is_left;
    uint32_t partition;
  };

  struct Edge {
    uint32_t left_part = 0;
    uint32_t right_part = 0;
    /// Estimated cost in seconds for each orientation.
    double trans_lr = 0.0, comp_lr = 0.0;
    double trans_rl = 0.0, comp_rl = 0.0;
    bool left_to_right = true;
  };

  size_t NodeIndex(bool is_left, uint32_t part) const;
  /// True for a self-join: one engine on both sides.
  bool SelfJoin() const { return &left_ == &right_; }
  const DitaEngine& Side(bool is_left) const { return is_left ? left_ : right_; }

  void BuildGraph();
  void EstimateWeights();
  void OrientGreedily();
  void PlanDivisions();

  /// Per-node total cost under the current orientation.
  std::vector<double> NodeCosts() const;

  Result<std::vector<std::pair<TrajectoryId, TrajectoryId>>> Execute(
      DitaEngine::JoinStats* stats);

  const DitaEngine& left_;
  const DitaEngine& right_;
  const double tau_;
  QueryContext* const ctx_;
  Cluster& cluster_;
  /// Cost snapshot taken at Run() entry; Execute feeds the accumulated
  /// makespan into the context's virtual deadline after each stage.
  Cluster::CostSnapshot snap_;

  std::vector<Edge> edges_;
  /// Worker assignments per node: [0] is the home worker; extra entries are
  /// division replicas.
  std::vector<std::vector<size_t>> node_workers_;
  size_t divided_partitions_ = 0;
  /// Measured seconds per verified candidate pair (Delta in §6.2).
  double seconds_per_pair_ = 1e-6;
  /// Ordered trajectory pairs surviving the ship-relevance filter: per
  /// edge, |shipped| x |target partition|, both orientations of a
  /// self-join's mirrored pairs (funnel level between the partition graph
  /// and the trie candidates). Filled by Execute; under degradation it
  /// counts only the merged (completed) edges so the funnel balances.
  uint64_t ship_pairs_ = 0;
  /// Fraction of edges whose probe completed and was merged; 1.0 for
  /// complete joins. Filled by Execute.
  double completeness_ = 1.0;
  /// True when a QueryContext stop cut the join short and the result is the
  /// completed-edge subset. Filled by Execute.
  bool degraded_ = false;
};

}  // namespace dita

#endif  // DITA_CORE_JOIN_PLANNER_H_
