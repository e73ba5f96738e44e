#ifndef DITA_CORE_KNN_H_
#define DITA_CORE_KNN_H_

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>
#include <utility>
#include <vector>

#include "geom/trajectory.h"

namespace dita {

/// One kNN answer: (trajectory id, exact distance).
using KnnNeighbor = std::pair<TrajectoryId, double>;

/// The total order of kNN answers: ascending distance, ties broken by
/// ascending id. Every kNN result (engine, service merge, kNN join) uses it,
/// so which of several equidistant neighbours is returned never depends on
/// partition or task order.
inline bool KnnBefore(const KnnNeighbor& a, const KnnNeighbor& b) {
  return a.second != b.second ? a.second < b.second : a.first < b.first;
}

/// Keeps the answers of a KnnBefore-sorted list that lie strictly below
/// `bound`: the part of a stopped sweep's answer that no unswept
/// trajectory can precede. A complete sweep passes +inf and keeps all.
inline void KnnKeepBelow(double bound, std::vector<KnnNeighbor>* answers) {
  const auto below = [bound](const KnnNeighbor& n) {
    return n.second < bound;
  };
  answers->erase(
      std::partition_point(answers->begin(), answers->end(), below),
      answers->end());
}

/// The k best answers offered so far under KnnBefore, shared by every task
/// of a kNN sweep; each trajectory is offered at most once. Thread-safe:
/// offers serialize on a mutex, while the bound — read once per candidate —
/// is a lock-free load.
class KnnTopK {
 public:
  explicit KnnTopK(size_t k) : k_(k) { best_.reserve(k + 1); }

  /// The k-th best distance so far; +inf until k answers are held.
  double Bound() const { return bound_.load(std::memory_order_acquire); }

  void Offer(TrajectoryId id, double d) {
    if (k_ == 0) return;
    const KnnNeighbor n{id, d};
    std::lock_guard<std::mutex> lock(mu_);
    if (best_.size() == k_ && !KnnBefore(n, best_.back())) return;
    best_.insert(std::lower_bound(best_.begin(), best_.end(), n, KnnBefore),
                 n);
    if (best_.size() > k_) best_.pop_back();
    if (best_.size() == k_) {
      bound_.store(best_.back().second, std::memory_order_release);
    }
  }

  /// The held answers in KnnBefore order.
  std::vector<KnnNeighbor> Sorted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return best_;
  }

 private:
  const size_t k_;
  mutable std::mutex mu_;
  std::vector<KnnNeighbor> best_;  // sorted by KnnBefore, at most k_
  std::atomic<double> bound_{std::numeric_limits<double>::infinity()};
};

}  // namespace dita

#endif  // DITA_CORE_KNN_H_
