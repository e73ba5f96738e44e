#ifndef DITA_TESTS_TEST_DATA_H_
#define DITA_TESTS_TEST_DATA_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "cluster/cluster.h"
#include "core/config.h"
#include "distance/distance.h"
#include "geom/mbr.h"
#include "workload/dataset.h"
#include "workload/generator.h"

namespace dita {

/// The length profile and region of a generated test table. The defaults
/// are the shape most test files use; a file that needs another shape
/// names it once, so each file keeps the data it was written against.
struct CityShape {
  double avg_len = 16;
  size_t max_len = 50;
  MBR region = MBR(Point{0, 0}, Point{1, 1});
};

/// `n` seeded taxi-like trajectories (GenerateTaxiDataset) with 0.01-degree
/// steps and at least 4 points each.
inline Dataset CityDataset(size_t n, uint64_t seed,
                           const CityShape& shape = {}) {
  GeneratorConfig cfg;
  cfg.cardinality = n;
  cfg.region = shape.region;
  cfg.step = 0.01;
  cfg.avg_len = shape.avg_len;
  cfg.min_len = 4;
  cfg.max_len = shape.max_len;
  cfg.seed = seed;
  return GenerateTaxiDataset(cfg);
}

/// A small-table engine config: a shallow trie (3 pivots, fanouts 8 and 4,
/// 4 members a leaf), 0.01 matching epsilon and 0.02 cells, under DTW.
inline DitaConfig SmallConfig() {
  DitaConfig config;
  config.build.ng = 3;
  config.build.trie.num_pivots = 3;
  config.build.trie.align_fanout = 8;
  config.build.trie.pivot_fanout = 4;
  config.build.trie.leaf_capacity = 4;
  config.distance_params.epsilon = 0.01;
  config.verify.cell_size = 0.02;
  return config;
}

/// SmallConfig under metric `type`, with LCSS's index window at 4.
inline DitaConfig MetricConfig(DistanceType type = DistanceType::kDTW) {
  DitaConfig config = SmallConfig();
  config.distance = type;
  config.distance_params.delta = 4;
  return config;
}

/// A simulated cluster of `workers` workers with default bandwidth, run on
/// one execution thread.
inline std::shared_ptr<Cluster> MakeCluster(size_t workers = 4) {
  ClusterConfig cfg;
  cfg.num_workers = workers;
  return std::make_shared<Cluster>(cfg);
}

}  // namespace dita

#endif  // DITA_TESTS_TEST_DATA_H_
