// Cross-module integration flows a downstream user would actually run:
// storage -> index -> query, simplification -> index, road network -> index.

#include <cstdio>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "geom/simplify.h"
#include "roadnet/network_trips.h"
#include "workload/binary_io.h"
#include "workload/generator.h"
#include "test_data.h"

namespace dita {
namespace {

/// A shallow, small-leaf trie at the library's default fanouts, epsilon
/// and cell size.
DitaConfig DefaultFanoutConfig() {
  DitaConfig config;
  config.build.ng = 3;
  config.build.trie.num_pivots = 3;
  config.build.trie.leaf_capacity = 4;
  return config;
}

TEST(IntegrationTest, BinaryRoundTripPreservesQueryResults) {
  GeneratorConfig gcfg;
  gcfg.cardinality = 200;
  gcfg.region = MBR(Point{0, 0}, Point{1, 1});
  gcfg.step = 0.01;
  gcfg.seed = 121;
  Dataset original = GenerateTaxiDataset(gcfg);

  const std::string path = ::testing::TempDir() + "/integration.dita";
  BinaryIoOptions opts;
  opts.precision = 1e-9;  // far below any query threshold
  ASSERT_TRUE(WriteBinary(original, path, opts).ok());
  auto loaded = ReadBinary(path);
  ASSERT_TRUE(loaded.ok());
  std::remove(path.c_str());

  DitaEngine a(MakeCluster(), DefaultFanoutConfig());
  DitaEngine b(MakeCluster(), DefaultFanoutConfig());
  ASSERT_TRUE(a.BuildIndex(original).ok());
  ASSERT_TRUE(b.BuildIndex(*loaded).ok());
  for (const auto& q : original.SampleQueries(5, 3)) {
    auto ra = a.Search(q, 0.01);
    auto rb = b.Search(q, 0.01);
    ASSERT_TRUE(ra.ok() && rb.ok());
    EXPECT_EQ(*ra, *rb);
  }
}

TEST(IntegrationTest, SimplifiedDatasetAnswersApproximateQueries) {
  GeneratorConfig gcfg;
  gcfg.cardinality = 150;
  gcfg.region = MBR(Point{0, 0}, Point{1, 1});
  gcfg.step = 0.01;
  gcfg.point_drop_prob = 0.0;
  gcfg.seed = 122;
  Dataset raw = GenerateTaxiDataset(gcfg);
  Dataset slim;
  for (const auto& t : raw.trajectories()) {
    slim.Add(DownsampleUniform(t, 12));
  }
  ASSERT_LE(slim.TotalPoints(), raw.TotalPoints());

  DitaEngine engine(MakeCluster(), DefaultFanoutConfig());
  ASSERT_TRUE(engine.BuildIndex(slim).ok());
  // Searching with a downsampled query still finds its own trip exactly.
  for (size_t i = 0; i < 10; ++i) {
    auto hits = engine.Search(slim[i], 1e-9);
    ASSERT_TRUE(hits.ok());
    EXPECT_TRUE(std::find(hits->begin(), hits->end(), slim[i].id()) !=
                hits->end());
  }
}

TEST(IntegrationTest, NetworkTripsIndexAndSelfJoin) {
  RoadNetwork net = MakeGridNetwork(8, 8, 0.01, {0, 0});
  NetworkTripOptions opts;
  opts.num_trips = 120;
  opts.sample_spacing = 0.004;
  opts.gps_noise = 0.00003;
  opts.seed = 22;
  auto trips = GenerateNetworkTrips(net, opts);
  ASSERT_TRUE(trips.ok());

  DitaEngine engine(MakeCluster(), DefaultFanoutConfig());
  ASSERT_TRUE(engine.BuildIndex(trips->trips).ok());

  // Self-search: every trip finds itself at tau ~ its own noise level.
  DitaEngine::QueryStats stats;
  auto hits = engine.Search(trips->trips[0], 0.01, &stats);
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(std::find(hits->begin(), hits->end(), trips->trips[0].id()) !=
              hits->end());

  // Self-join at a tight threshold at least yields the diagonal.
  auto pairs = engine.Join(engine, 1e-6);
  ASSERT_TRUE(pairs.ok());
  EXPECT_GE(pairs->size(), trips->trips.size());
}

TEST(IntegrationTest, CsvAndBinaryAgree) {
  GeneratorConfig gcfg;
  gcfg.cardinality = 50;
  gcfg.seed = 123;
  Dataset ds = GenerateTaxiDataset(gcfg);
  const std::string csv = ::testing::TempDir() + "/agree.csv";
  const std::string bin = ::testing::TempDir() + "/agree.dita";
  ASSERT_TRUE(ds.WriteCsv(csv).ok());
  BinaryIoOptions opts;
  opts.precision = 1e-9;
  ASSERT_TRUE(WriteBinary(ds, bin, opts).ok());
  auto from_csv = Dataset::ReadCsv(csv);
  auto from_bin = ReadBinary(bin);
  ASSERT_TRUE(from_csv.ok() && from_bin.ok());
  ASSERT_EQ(from_csv->size(), from_bin->size());
  for (size_t i = 0; i < from_csv->size(); ++i) {
    ASSERT_EQ((*from_csv)[i].size(), (*from_bin)[i].size());
    for (size_t j = 0; j < (*from_csv)[i].size(); ++j) {
      EXPECT_NEAR((*from_csv)[i][j].x, (*from_bin)[i][j].x, 1e-6);
      EXPECT_NEAR((*from_csv)[i][j].y, (*from_bin)[i][j].y, 1e-6);
    }
  }
  std::remove(csv.c_str());
  std::remove(bin.c_str());
}

}  // namespace
}  // namespace dita
