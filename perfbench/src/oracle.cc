#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace perfbench {

std::vector<dita::TrajectoryId> NaiveSearch(const dita::TrajectoryDistance& d,
                                            const Live& live,
                                            const dita::Trajectory& q,
                                            double tau) {
  std::vector<dita::TrajectoryId> out;
  for (const dita::Trajectory* t : live) {
    if (d.WithinThreshold(*t, q, tau)) out.push_back(t->id());
  }
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

bool Close(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(a));
}

}  // namespace

std::string CheckKnn(const dita::TrajectoryDistance& d, const Live& live,
                     const dita::Trajectory& q, size_t k,
                     const std::vector<std::pair<dita::TrajectoryId, double>>& got) {
  const size_t want_k = std::min(k, live.size());
  if (got.size() != want_k) {
    return "knn returned " + std::to_string(got.size()) + " of " +
           std::to_string(want_k);
  }
  std::unordered_map<dita::TrajectoryId, double> dist;
  dist.reserve(live.size());
  std::vector<double> all;
  all.reserve(live.size());
  for (const dita::Trajectory* t : live) {
    const double v = d.Compute(*t, q);
    dist.emplace(t->id(), v);
    all.push_back(v);
  }
  std::nth_element(all.begin(), all.begin() + static_cast<long>(want_k - 1),
                   all.end());
  std::sort(all.begin(), all.begin() + static_cast<long>(want_k));
  std::vector<double> reported;
  std::vector<dita::TrajectoryId> ids;
  for (const auto& [id, v] : got) {
    const auto it = dist.find(id);
    if (it == dist.end()) return "knn returned id " + std::to_string(id) + " not live";
    if (!Close(it->second, v)) {
      return "knn distance of id " + std::to_string(id) + " is wrong";
    }
    reported.push_back(v);
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    return "knn returned a duplicate id";
  }
  std::sort(reported.begin(), reported.end());
  for (size_t i = 0; i < want_k; ++i) {
    if (!Close(all[i], reported[i])) return "knn missed a nearer trajectory";
  }
  return "";
}

std::string DiffIds(const std::vector<dita::TrajectoryId>& want,
                    const std::vector<dita::TrajectoryId>& got) {
  if (want == got) return "";
  std::vector<dita::TrajectoryId> missing;
  std::vector<dita::TrajectoryId> extra;
  std::set_difference(want.begin(), want.end(), got.begin(), got.end(),
                      std::back_inserter(missing));
  std::set_difference(got.begin(), got.end(), want.begin(), want.end(),
                      std::back_inserter(extra));
  return std::to_string(missing.size()) + " missing, " +
         std::to_string(extra.size()) + " extra (want " +
         std::to_string(want.size()) + ")";
}

}  // namespace perfbench
