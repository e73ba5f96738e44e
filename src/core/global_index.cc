#include "core/global_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace dita {

void GlobalIndex::Build(std::vector<PartitionSummary> partitions,
                        size_t rtree_fanout) {
  partitions_ = std::move(partitions);
  std::vector<RTree::Entry> first_entries;
  std::vector<RTree::Entry> last_entries;
  first_entries.reserve(partitions_.size());
  last_entries.reserve(partitions_.size());
  for (uint32_t i = 0; i < partitions_.size(); ++i) {
    first_entries.push_back({partitions_[i].mbr_first, i});
    last_entries.push_back({partitions_[i].mbr_last, i});
  }
  first_tree_.Build(std::move(first_entries), rtree_fanout);
  last_tree_.Build(std::move(last_entries), rtree_fanout);
}

namespace {

/// Minimum distance from any point of `q` to `mbr`.
double MinDistAnyPoint(const Trajectory& q, const MBR& mbr) {
  double best = std::numeric_limits<double>::infinity();
  for (const Point& p : q.points()) {
    best = std::min(best, mbr.MinDist(p));
    if (best == 0.0) break;
  }
  return best;
}

}  // namespace

double GlobalIndex::LowerBound(const Trajectory& q, uint32_t partition,
                               PruneMode mode, double epsilon,
                               const Point* erp_gap) const {
  const PartitionSummary& s = partitions_[partition];
  if (erp_gap != nullptr) {
    const double df = std::min(MinDistAnyPoint(q, s.mbr_first),
                               s.mbr_first.MinDist(*erp_gap));
    const double dl = std::min(MinDistAnyPoint(q, s.mbr_last),
                               s.mbr_last.MinDist(*erp_gap));
    return df + dl;
  }
  switch (mode) {
    case PruneMode::kAccumulate:
      return s.mbr_first.MinDist(q.front()) + s.mbr_last.MinDist(q.back());
    case PruneMode::kMax:
      return std::max(s.mbr_first.MinDist(q.front()),
                      s.mbr_last.MinDist(q.back()));
    case PruneMode::kEditCount: {
      // Endpoints may be edited away, so only alignment MBRs farther than
      // epsilon from every query point are certain edits. The count is an
      // integer: `edits <= tau` is the `edits <= floor(tau)` budget test.
      double edits = 0.0;
      if (MinDistAnyPoint(q, s.mbr_first) > epsilon) edits += 1.0;
      if (MinDistAnyPoint(q, s.mbr_last) > epsilon) edits += 1.0;
      return edits;
    }
  }
  return 0.0;
}

std::vector<uint32_t> GlobalIndex::RelevantPartitions(const Trajectory& q,
                                                      double tau,
                                                      PruneMode mode,
                                                      double epsilon,
                                                      const Point* erp_gap) const {
  std::vector<uint32_t> out;
  if (partitions_.empty() || q.empty()) return out;
  const auto relevant = [&](uint32_t i) {
    return LowerBound(q, i, mode, epsilon, erp_gap) <= tau;
  };
  if (erp_gap != nullptr || mode == PruneMode::kEditCount) {
    for (uint32_t i = 0; i < partitions_.size(); ++i) {
      if (relevant(i)) out.push_back(i);
    }
    return out;
  }
  // Cf: partitions whose first-point MBR is within tau of q1; Cl: same for
  // the last point. Intersect, then apply the combined bound.
  std::vector<uint32_t> cf;
  std::vector<uint32_t> cl;
  first_tree_.SearchWithinDistance(q.front(), tau, &cf);
  last_tree_.SearchWithinDistance(q.back(), tau, &cl);
  std::sort(cf.begin(), cf.end());
  std::sort(cl.begin(), cl.end());
  std::vector<uint32_t> both;
  std::set_intersection(cf.begin(), cf.end(), cl.begin(), cl.end(),
                        std::back_inserter(both));
  for (uint32_t i : both) {
    if (relevant(i)) out.push_back(i);
  }
  return out;
}

bool GlobalIndex::PartitionsMayJoin(uint32_t partition, const MBR& other_first,
                                    const MBR& other_last, double tau,
                                    PruneMode mode, double epsilon,
                                    const Point* erp_gap) const {
  if (erp_gap != nullptr) return true;
  const PartitionSummary& s = partitions_[partition];
  const double df = s.mbr_first.MinDist(other_first);
  const double dl = s.mbr_last.MinDist(other_last);
  switch (mode) {
    case PruneMode::kAccumulate:
      return df + dl <= tau;
    case PruneMode::kMax:
      return df <= tau && dl <= tau;
    case PruneMode::kEditCount: {
      // Rectangle-level distances cannot see individual query points, so
      // only the trivially safe check applies: if both alignment MBRs are
      // farther than epsilon apart, two edits are needed.
      double edits = 0.0;
      if (df > epsilon) edits += 1.0;
      if (dl > epsilon) edits += 1.0;
      return edits <= std::floor(tau);
    }
  }
  return true;
}

size_t GlobalIndex::ByteSize() const {
  return partitions_.size() * sizeof(PartitionSummary) + first_tree_.ByteSize() +
         last_tree_.ByteSize();
}

}  // namespace dita
