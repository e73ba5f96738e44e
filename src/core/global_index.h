#ifndef DITA_CORE_GLOBAL_INDEX_H_
#define DITA_CORE_GLOBAL_INDEX_H_

#include <vector>

#include "distance/distance.h"
#include "geom/trajectory.h"
#include "index/rtree.h"

namespace dita {

/// DITA's global index (§4.2.2): per partition, the MBR of all first points
/// (MBR_f) and of all last points (MBR_l), organized in two R-trees. The
/// driver probes it to find the partitions that can possibly contain
/// trajectories similar to a query.
class GlobalIndex {
 public:
  struct PartitionSummary {
    MBR mbr_first;
    MBR mbr_last;
  };

  GlobalIndex() = default;

  void Build(std::vector<PartitionSummary> partitions, size_t rtree_fanout = 16);

  /// Lower bound on f(T, q) over every trajectory T of `partition`, from
  /// its first/last-point MBRs alone (§5.2):
  ///  - kAccumulate: MinDist(q1, MBR_f) + MinDist(qn, MBR_l);
  ///  - kMax: the larger of the two MinDist values (Frechet);
  ///  - kEditCount: the number of alignment MBRs (0, 1 or 2) farther than
  ///    `epsilon` from every query point — each costs at least one edit.
  ///    Both use the minimum over all query points because edit distances
  ///    may delete endpoints;
  ///  - ERP (`erp_gap` set): each alignment MBR contributes the minimum over
  ///    all query points and the gap point, since rows may be gap-matched;
  ///    the two contributions add up.
  /// The threshold probe (RelevantPartitions) and the best-first kNN sweep
  /// (visit order, stop rule, proven prefix) both read this one bound.
  double LowerBound(const Trajectory& q, uint32_t partition, PruneMode mode,
                    double epsilon = 0.0, const Point* erp_gap = nullptr) const;

  /// Relevant partitions for `q` under threshold `tau`: exactly those with
  /// LowerBound(q, p, ...) <= tau, in ascending partition order. For
  /// kAccumulate / kMax without a gap point the two R-trees narrow the
  /// scan first (a partition within tau has both endpoint MinDists within
  /// tau), and LowerBound decides.
  std::vector<uint32_t> RelevantPartitions(const Trajectory& q, double tau,
                                           PruneMode mode, double epsilon = 0.0,
                                           const Point* erp_gap = nullptr) const;

  /// Like RelevantPartitions but for a *set* summarized by its own first/last
  /// MBRs — used by the join's partition-pair graph construction (§6.1).
  /// `erp_gap` disables rectangle-level pruning entirely: with gap matching
  /// allowed, the other partition's points can sit anywhere, so no sound
  /// partition-pair bound exists.
  bool PartitionsMayJoin(uint32_t partition, const MBR& other_first,
                         const MBR& other_last, double tau, PruneMode mode,
                         double epsilon = 0.0, const Point* erp_gap = nullptr) const;

  size_t num_partitions() const { return partitions_.size(); }
  const PartitionSummary& summary(uint32_t i) const { return partitions_[i]; }
  size_t ByteSize() const;

 private:
  std::vector<PartitionSummary> partitions_;
  RTree first_tree_;
  RTree last_tree_;
};

}  // namespace dita

#endif  // DITA_CORE_GLOBAL_INDEX_H_
