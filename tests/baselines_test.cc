#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "baselines/centralized_dita.h"
#include "baselines/dft.h"
#include "baselines/mbe.h"
#include "baselines/naive.h"
#include "baselines/simba.h"
#include "baselines/vptree.h"
#include "core/engine.h"
#include "workload/generator.h"
#include "test_data.h"

namespace dita {
namespace {

const CityShape kShape{.avg_len = 14, .max_len = 40};

std::vector<TrajectoryId> BruteForceSearch(const Dataset& ds,
                                           const TrajectoryDistance& dist,
                                           const Trajectory& q, double tau) {
  std::vector<TrajectoryId> out;
  for (const auto& t : ds.trajectories()) {
    if (dist.Compute(t, q) <= tau) out.push_back(t.id());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// All engines must return the exact answer set; they differ only in cost.
class DistributedEnginesAgree : public ::testing::TestWithParam<DistanceType> {
};

TEST_P(DistributedEnginesAgree, SearchMatchesBruteForce) {
  const DistanceType type = GetParam();
  Dataset ds = CityDataset(300, 11, kShape);
  auto dist = *MakeDistance(type);

  auto cluster = MakeCluster();
  NaiveEngine naive(cluster, type);
  ASSERT_TRUE(naive.BuildIndex(ds).ok());
  SimbaEngine simba(cluster, type);
  ASSERT_TRUE(simba.BuildIndex(ds).ok());
  DftEngine dft(cluster, type);
  ASSERT_TRUE(dft.BuildIndex(ds).ok());

  auto queries = ds.SampleQueries(6, 23);
  for (const auto& q : queries) {
    for (double tau : {0.01, 0.05}) {
      auto expected = BruteForceSearch(ds, *dist, q, tau);
      auto naive_got = naive.Search(q, tau);
      ASSERT_TRUE(naive_got.ok());
      EXPECT_EQ(*naive_got, expected) << "naive tau=" << tau;
      auto simba_got = simba.Search(q, tau);
      ASSERT_TRUE(simba_got.ok());
      EXPECT_EQ(*simba_got, expected) << "simba tau=" << tau;
      auto dft_got = dft.Search(q, tau);
      ASSERT_TRUE(dft_got.ok());
      EXPECT_EQ(*dft_got, expected) << "dft tau=" << tau;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Distances, DistributedEnginesAgree,
                         ::testing::Values(DistanceType::kDTW,
                                           DistanceType::kFrechet),
                         [](const auto& info) {
                           return DistanceTypeName(info.param);
                         });

TEST(SimbaTest, RejectsUnsupportedDistances) {
  auto cluster = MakeCluster();
  SimbaEngine simba(cluster, DistanceType::kEDR);
  EXPECT_EQ(simba.BuildIndex(CityDataset(20, 11, kShape)).code(),
            Status::Code::kNotSupported);
}

TEST(DftTest, RejectsUnsupportedDistances) {
  auto cluster = MakeCluster();
  DftEngine dft(cluster, DistanceType::kLCSS);
  EXPECT_EQ(dft.BuildIndex(CityDataset(20, 11, kShape)).code(),
            Status::Code::kNotSupported);
}

TEST(NaiveTest, SelfJoinMatchesBruteForce) {
  Dataset ds = CityDataset(80, 29, kShape);
  auto cluster = MakeCluster();
  NaiveEngine naive(cluster, DistanceType::kDTW);
  ASSERT_TRUE(naive.BuildIndex(ds).ok());
  auto dist = *MakeDistance(DistanceType::kDTW);
  const double tau = 0.03;
  auto got = naive.SelfJoin(tau);
  ASSERT_TRUE(got.ok());
  std::vector<std::pair<TrajectoryId, TrajectoryId>> expected;
  for (const auto& a : ds.trajectories()) {
    for (const auto& b : ds.trajectories()) {
      if (dist->Compute(b, a) <= tau) expected.emplace_back(a.id(), b.id());
    }
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(*got, expected);
}

TEST(SimbaTest, SelfJoinMatchesDita) {
  Dataset ds = CityDataset(100, 31, kShape);
  const double tau = 0.02;

  auto cluster = MakeCluster();
  SimbaEngine simba(cluster, DistanceType::kDTW);
  ASSERT_TRUE(simba.BuildIndex(ds).ok());
  DitaEngine::JoinStats simba_stats;
  auto simba_got = simba.SelfJoin(tau, &simba_stats);
  ASSERT_TRUE(simba_got.ok());

  DitaConfig config;
  config.build.ng = 3;
  config.build.trie.num_pivots = 3;
  config.build.trie.leaf_capacity = 4;
  DitaEngine engine(cluster, config);
  ASSERT_TRUE(engine.BuildIndex(ds).ok());
  DitaEngine::JoinStats dita_stats;
  auto dita_got = engine.Join(engine, tau, &dita_stats);
  ASSERT_TRUE(dita_got.ok());

  EXPECT_EQ(*simba_got, *dita_got);
  // DITA ships trajectories, Simba ships partitions: DITA must move less.
  EXPECT_LT(dita_stats.bytes_shipped, simba_stats.bytes_shipped);
}

TEST(VpTreeTest, RequiresMetric) {
  VpTree tree;
  EXPECT_FALSE(tree.Build(CityDataset(20, 11, kShape), DistanceType::kDTW).ok());
  EXPECT_TRUE(tree.Build(CityDataset(20, 11, kShape), DistanceType::kFrechet).ok());
}

TEST(VpTreeTest, SearchMatchesBruteForceFrechet) {
  Dataset ds = CityDataset(250, 37, kShape);
  VpTree tree;
  ASSERT_TRUE(tree.Build(ds, DistanceType::kFrechet).ok());
  auto dist = *MakeDistance(DistanceType::kFrechet);
  for (const auto& q : ds.SampleQueries(8, 41)) {
    for (double tau : {0.01, 0.05, 0.2}) {
      VpTree::SearchStats stats;
      auto got = tree.Search(q, tau, &stats);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, BruteForceSearch(ds, *dist, q, tau)) << "tau=" << tau;
      EXPECT_GT(stats.distance_evals, 0u);
      EXPECT_LE(stats.distance_evals, ds.size());
    }
  }
}

TEST(VpTreeTest, TrianglePruningSavesWork) {
  Dataset ds = CityDataset(400, 43, kShape);
  VpTree tree;
  ASSERT_TRUE(tree.Build(ds, DistanceType::kFrechet).ok());
  VpTree::SearchStats stats;
  ASSERT_TRUE(tree.Search(ds[0], 0.005, &stats).ok());
  EXPECT_LT(stats.distance_evals, ds.size());
}

class MbeProperty : public ::testing::TestWithParam<DistanceType> {};

TEST_P(MbeProperty, SearchMatchesBruteForce) {
  Dataset ds = CityDataset(250, 47, kShape);
  MbeIndex mbe;
  ASSERT_TRUE(mbe.Build(ds, GetParam(), 4).ok());
  auto dist = *MakeDistance(GetParam());
  for (const auto& q : ds.SampleQueries(8, 53)) {
    for (double tau : {0.01, 0.05}) {
      MbeIndex::SearchStats stats;
      auto got = mbe.Search(q, tau, &stats);
      ASSERT_TRUE(got.ok());
      auto expected = BruteForceSearch(ds, *dist, q, tau);
      EXPECT_EQ(*got, expected) << "tau=" << tau;
      EXPECT_GE(stats.candidates, expected.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Distances, MbeProperty,
                         ::testing::Values(DistanceType::kDTW,
                                           DistanceType::kFrechet),
                         [](const auto& info) {
                           return DistanceTypeName(info.param);
                         });

TEST(MbeTest, RejectsBadArgs) {
  MbeIndex mbe;
  EXPECT_FALSE(mbe.Build(CityDataset(20, 11, kShape), DistanceType::kEDR).ok());
  EXPECT_FALSE(mbe.Build(CityDataset(20, 11, kShape), DistanceType::kDTW, 0).ok());
}

TEST(CentralizedDitaTest, MatchesBruteForceAndPrunesMore) {
  Dataset ds = CityDataset(300, 59, kShape);
  DitaConfig config;
  config.build.trie.num_pivots = 4;
  config.build.trie.leaf_capacity = 4;
  CentralizedDita dita;
  ASSERT_TRUE(dita.Build(ds, config).ok());
  MbeIndex mbe;
  ASSERT_TRUE(mbe.Build(ds, DistanceType::kDTW, 4).ok());
  auto dist = *MakeDistance(DistanceType::kDTW);

  size_t dita_candidates = 0, mbe_candidates = 0;
  for (const auto& q : ds.SampleQueries(10, 61)) {
    const double tau = 0.02;
    CentralizedDita::SearchStats ds_stats;
    auto got = dita.Search(q, tau, &ds_stats);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, BruteForceSearch(ds, *dist, q, tau));
    dita_candidates += ds_stats.candidates;
    MbeIndex::SearchStats mbe_stats;
    ASSERT_TRUE(mbe.Search(q, tau, &mbe_stats).ok());
    mbe_candidates += mbe_stats.candidates;
  }
  // Appendix C: DITA's accumulating trie generates fewer candidates.
  EXPECT_LE(dita_candidates, mbe_candidates * 2);
}

}  // namespace
}  // namespace dita
