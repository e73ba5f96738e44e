#ifndef DITA_PERFBENCH_ORACLE_H_
#define DITA_PERFBENCH_ORACLE_H_

// Naive-scan oracles the benchmark checks the program's answers against: no
// index, no filters, the distance function on every live trajectory.

#include <string>
#include <utility>
#include <vector>

#include "distance/distance.h"
#include "geom/trajectory.h"

namespace perfbench {

using Live = std::vector<const dita::Trajectory*>;

/// Ids t of `live` with distance(t, q) <= tau, ascending.
std::vector<dita::TrajectoryId> NaiveSearch(const dita::TrajectoryDistance& d,
                                            const Live& live,
                                            const dita::Trajectory& q,
                                            double tau);

/// Checks a kNN answer against the naive scan: `got` must hold k distinct
/// live ids whose reported distances are the k smallest distances in `live`
/// (ties may pick any of the tied ids). Returns an empty string when the
/// answer is right, else what is wrong.
std::string CheckKnn(const dita::TrajectoryDistance& d, const Live& live,
                     const dita::Trajectory& q, size_t k,
                     const std::vector<std::pair<dita::TrajectoryId, double>>& got);

/// Compares two ascending id lists; returns "" or a short description.
std::string DiffIds(const std::vector<dita::TrajectoryId>& want,
                    const std::vector<dita::TrajectoryId>& got);

}  // namespace perfbench

#endif  // DITA_PERFBENCH_ORACLE_H_
