#ifndef DITA_TESTS_TEST_DATA_H_
#define DITA_TESTS_TEST_DATA_H_

#include <cstddef>
#include <cstdint>

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

}  // namespace dita

#endif  // DITA_TESTS_TEST_DATA_H_
