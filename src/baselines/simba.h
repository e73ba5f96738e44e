#ifndef DITA_BASELINES_SIMBA_H_
#define DITA_BASELINES_SIMBA_H_

#include <memory>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "core/engine.h"
#include "distance/distance.h"
#include "index/rtree.h"
#include "workload/dataset.h"

namespace dita {

/// The Simba-derived baseline (§7.1): the spatial analytics system of Xie et
/// al. [47] extended to trajectories exactly as the paper describes —
/// trajectories are indexed *by their first point only* (global R-tree over
/// partition first-point MBRs, local R-tree over trajectory first points);
/// candidates are trajectories whose first point is within tau of the
/// query's first point; verification uses only the double-direction
/// thresholded distance.
///
/// Supports DTW and Frechet (distances whose first points must align within
/// tau); other functions return NotSupported, as in the paper's evaluation.
class SimbaEngine {
 public:
  SimbaEngine(std::shared_ptr<Cluster> cluster, DistanceType distance,
              const DistanceParams& params = DistanceParams());

  Status BuildIndex(const Dataset& data);

  Result<std::vector<TrajectoryId>> Search(
      const Trajectory& q, double tau,
      DitaEngine::QueryStats* stats = nullptr) const;

  /// Join: relevant partition pairs exchange *entire partitions* (the
  /// paper's observation (4) in §7.2.2 — Simba ships partitions while DITA
  /// ships individual trajectories), then probe the local first-point
  /// R-tree and verify. No cost model, no balancing. Like DITA's self-join
  /// it verifies each unordered pair once (a triangle of partition pairs,
  /// each accepted pair emitted in both orientations), so the join figures
  /// compare like with like.
  Result<std::vector<std::pair<TrajectoryId, TrajectoryId>>> SelfJoin(
      double tau, DitaEngine::JoinStats* stats = nullptr) const;

  size_t index_bytes() const;

 private:
  struct Partition {
    std::vector<Trajectory> trajectories;
    RTree first_points;  // entry value = position in `trajectories`
    MBR mbr_first;
    size_t bytes = 0;
  };

  Status CheckDistance() const;

  std::shared_ptr<Cluster> cluster_;
  std::shared_ptr<TrajectoryDistance> distance_;
  std::vector<Partition> partitions_;
  RTree global_first_;  // entry value = partition id
  bool indexed_ = false;
};

}  // namespace dita

#endif  // DITA_BASELINES_SIMBA_H_
