#include "index/trie_index.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "distance/distance.h"
#include "util/thread_pool.h"
#include "workload/generator.h"

namespace dita {
namespace {

std::vector<Trajectory> PaperTrajectories() {
  return {
      Trajectory(1, {{1, 1}, {1, 2}, {3, 2}, {4, 4}, {4, 5}, {5, 5}}),
      Trajectory(2, {{0, 1}, {0, 2}, {4, 2}, {4, 4}, {4, 5}, {5, 5}}),
      Trajectory(3, {{1, 1}, {4, 1}, {4, 3}, {4, 5}, {4, 6}, {5, 6}}),
      Trajectory(4, {{0, 4}, {0, 5}, {3, 3}, {3, 7}, {7, 5}}),
      Trajectory(5, {{0, 4}, {0, 5}, {3, 7}, {3, 3}, {7, 5}}),
  };
}

TrieIndex::Options PaperOptions() {
  TrieIndex::Options opts;
  opts.num_pivots = 2;
  opts.align_fanout = 2;
  opts.pivot_fanout = 2;
  opts.leaf_capacity = 1;
  opts.strategy = PivotStrategy::kNeighborDistance;
  return opts;
}

std::set<TrajectoryId> CandidateIds(const TrieIndex& index,
                                    const TrieIndex::SearchSpec& spec) {
  std::vector<uint32_t> positions;
  index.CollectCandidates(spec, &positions);
  std::set<TrajectoryId> ids;
  for (uint32_t pos : positions) ids.insert(index.trajectory(pos).id());
  return ids;
}

TEST(TrieIndexTest, BuildValidatesInput) {
  TrieIndex index;
  TrieIndex::Options opts;
  opts.align_fanout = 1;
  EXPECT_FALSE(index.Build(PaperTrajectories(), opts).ok());
  opts = TrieIndex::Options();
  opts.leaf_capacity = 0;
  EXPECT_FALSE(index.Build(PaperTrajectories(), opts).ok());
  opts = TrieIndex::Options();
  EXPECT_FALSE(index.Build({Trajectory()}, opts).ok());
  EXPECT_TRUE(index.Build(PaperTrajectories(), opts).ok());
}

TEST(TrieIndexTest, PaperExample52QueryT4) {
  // Example 5.2: querying the Figure 5 trie with Q = T4, tau = 3. The paper's
  // hand-drawn grouping yields the single candidate T4; our STR grouping may
  // tile buckets differently (grouping is unspecified in §4.2.3), so we
  // assert the filter contract instead: T4 survives, T1/T3 (first point
  // (1,1), 3.16 > tau from Q's first point) are pruned, and verification
  // yields exactly {T4}.
  TrieIndex index;
  ASSERT_TRUE(index.Build(PaperTrajectories(), PaperOptions()).ok());
  Trajectory q(4, {{0, 4}, {0, 5}, {3, 3}, {3, 7}, {7, 5}});
  TrieIndex::SearchSpec spec;
  spec.query = &q;
  spec.tau = 3.0;
  spec.mode = PruneMode::kAccumulate;
  auto ids = CandidateIds(index, spec);
  EXPECT_TRUE(ids.count(4));
  EXPECT_FALSE(ids.count(1));
  EXPECT_FALSE(ids.count(3));

  auto dtw = *MakeDistance(DistanceType::kDTW);
  std::set<TrajectoryId> verified;
  std::vector<uint32_t> positions;
  index.CollectCandidates(spec, &positions);
  for (uint32_t pos : positions) {
    if (dtw->WithinThreshold(index.trajectory(pos), q, spec.tau)) {
      verified.insert(index.trajectory(pos).id());
    }
  }
  EXPECT_EQ(verified, (std::set<TrajectoryId>{4}));
}

TEST(TrieIndexTest, QueryT1Tau3KeepsSimilarSet) {
  // Example 2.6: {T1, T2} are the true answers; the filter must keep both
  // (it may keep more).
  TrieIndex index;
  ASSERT_TRUE(index.Build(PaperTrajectories(), PaperOptions()).ok());
  Trajectory q(1, {{1, 1}, {1, 2}, {3, 2}, {4, 4}, {4, 5}, {5, 5}});
  TrieIndex::SearchSpec spec;
  spec.query = &q;
  spec.tau = 3.0;
  spec.mode = PruneMode::kAccumulate;
  auto ids = CandidateIds(index, spec);
  EXPECT_TRUE(ids.count(1));
  EXPECT_TRUE(ids.count(2));
}

TEST(TrieIndexTest, ZeroThresholdStillFindsExactMatch) {
  TrieIndex index;
  ASSERT_TRUE(index.Build(PaperTrajectories(), PaperOptions()).ok());
  Trajectory q(1, {{1, 1}, {1, 2}, {3, 2}, {4, 4}, {4, 5}, {5, 5}});
  TrieIndex::SearchSpec spec;
  spec.query = &q;
  spec.tau = 0.0;
  spec.mode = PruneMode::kAccumulate;
  EXPECT_TRUE(CandidateIds(index, spec).count(1));
}

TEST(TrieIndexTest, NodeCountAndByteSize) {
  TrieIndex index;
  ASSERT_TRUE(index.Build(PaperTrajectories(), PaperOptions()).ok());
  EXPECT_GT(index.NodeCount(), 1u);
  EXPECT_GT(index.ByteSize(), 0u);
  EXPECT_EQ(index.size(), 5u);
}

struct FilterCase {
  DistanceType type;
  double tau;
};

/// The load-bearing property: the trie filter never prunes a true answer,
/// across distance functions, thresholds, fanouts, pivot counts, strategies.
class TrieFilterProperty
    : public ::testing::TestWithParam<std::tuple<DistanceType, double, size_t>> {
};

TEST_P(TrieFilterProperty, FilterIsSupersetOfAnswers) {
  const DistanceType type = std::get<0>(GetParam());
  const double tau = std::get<1>(GetParam());
  const size_t num_pivots = std::get<2>(GetParam());

  GeneratorConfig cfg;
  cfg.cardinality = 250;
  cfg.avg_len = 14;
  cfg.min_len = 4;
  cfg.max_len = 40;
  cfg.region = MBR(Point{0, 0}, Point{1, 1});
  cfg.step = 0.01;
  cfg.seed = 77 + num_pivots;
  Dataset ds = GenerateTaxiDataset(cfg);

  DistanceParams params;
  params.epsilon = 0.02;
  params.delta = 4;
  auto dist = *MakeDistance(type, params);

  TrieIndex::Options opts;
  opts.num_pivots = num_pivots;
  opts.align_fanout = 8;
  opts.pivot_fanout = 4;
  opts.leaf_capacity = 4;
  TrieIndex index;
  ASSERT_TRUE(index.Build(ds.trajectories(), opts).ok());

  auto queries = ds.SampleQueries(15, 5);
  for (const auto& q : queries) {
    TrieIndex::SearchSpec spec;
    spec.query = &q;
    spec.tau = tau;
    spec.mode = dist->prune_mode();
    spec.epsilon = dist->matching_epsilon();
    if (type == DistanceType::kLCSS) spec.lcss_delta = params.delta;

    std::vector<uint32_t> candidates;
    index.CollectCandidates(spec, &candidates);
    std::set<uint32_t> candidate_set(candidates.begin(), candidates.end());

    size_t true_answers = 0;
    for (uint32_t pos = 0; pos < index.size(); ++pos) {
      if (dist->Compute(index.trajectory(pos), q) <= tau) {
        ++true_answers;
        EXPECT_TRUE(candidate_set.count(pos))
            << dist->name() << " tau=" << tau << " K=" << num_pivots
            << " pruned true answer id=" << index.trajectory(pos).id();
      }
    }
    EXPECT_GE(true_answers, 1u);  // the query itself is in the dataset
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TrieFilterProperty,
    ::testing::Combine(::testing::Values(DistanceType::kDTW,
                                         DistanceType::kFrechet,
                                         DistanceType::kEDR,
                                         DistanceType::kLCSS,
                                         DistanceType::kERP),
                       ::testing::Values(0.01, 0.05, 2.0),
                       ::testing::Values(2, 4)),
    [](const auto& info) {
      const char* d = DistanceTypeName(std::get<0>(info.param));
      const double tau = std::get<1>(info.param);
      const size_t k = std::get<2>(info.param);
      return std::string(d) + "_tau" +
             std::to_string(static_cast<int>(tau * 100)) + "_K" +
             std::to_string(k);
    });

/// Pruning effectiveness: on clustered data with a small threshold the trie
/// should discard a large share of the partition.
TEST(TrieIndexTest, FilterActuallyPrunes) {
  GeneratorConfig cfg;
  cfg.cardinality = 400;
  cfg.region = MBR(Point{0, 0}, Point{1, 1});
  cfg.step = 0.01;
  cfg.seed = 123;
  Dataset ds = GenerateTaxiDataset(cfg);
  TrieIndex::Options opts;
  opts.num_pivots = 4;
  TrieIndex index;
  ASSERT_TRUE(index.Build(ds.trajectories(), opts).ok());

  Trajectory q = ds[0];
  TrieIndex::SearchSpec spec;
  spec.query = &q;
  spec.tau = 0.02;
  spec.mode = PruneMode::kAccumulate;
  std::vector<uint32_t> candidates;
  index.CollectCandidates(spec, &candidates);
  EXPECT_LT(candidates.size(), ds.size() / 2)
      << "trie pruned less than half the partition";
}

Dataset FilterDataset(size_t n, uint64_t seed) {
  GeneratorConfig cfg;
  cfg.cardinality = n;
  cfg.region = MBR(Point{0, 0}, Point{1, 1});
  cfg.step = 0.01;
  cfg.avg_len = 16;
  cfg.min_len = 4;
  cfg.max_len = 40;
  cfg.seed = seed;
  return GenerateTaxiDataset(cfg);
}

TrieIndex::Options SmallOpts() {
  TrieIndex::Options opts;
  opts.num_pivots = 3;
  opts.align_fanout = 8;
  opts.pivot_fanout = 4;
  opts.leaf_capacity = 4;
  return opts;
}

/// Explicit scratch: results match the thread-local default, the arena is
/// measurable and reusable, and Release() frees it.
TEST(TrieIndexTest, ExplicitScratchMatchesThreadLocalAndReleases) {
  Dataset ds = FilterDataset(300, 77);
  TrieIndex index;
  ASSERT_TRUE(index.Build(ds.trajectories(), SmallOpts()).ok());
  const Trajectory q = ds[17];
  TrieIndex::SearchSpec spec;
  spec.query = &q;
  spec.tau = 0.05;
  spec.mode = PruneMode::kAccumulate;

  std::vector<uint32_t> with_default;
  index.CollectCandidates(spec, &with_default);

  TrieIndex::Scratch scratch;
  EXPECT_EQ(scratch.ByteSize(), 0u);
  std::vector<uint32_t> with_explicit;
  index.CollectCandidates(spec, &with_explicit, nullptr, &scratch);
  EXPECT_EQ(with_explicit, with_default);
  EXPECT_GT(scratch.ByteSize(), 0u);

  // Reuse is idempotent.
  std::vector<uint32_t> reused;
  index.CollectCandidates(spec, &reused, nullptr, &scratch);
  EXPECT_EQ(reused, with_default);

  scratch.Release();
  EXPECT_EQ(scratch.ByteSize(), 0u);
  std::vector<uint32_t> after_release;
  index.CollectCandidates(spec, &after_release, nullptr, &scratch);
  EXPECT_EQ(after_release, with_default);
}

/// Small builds must not fan out to the pool (the dispatch costs more than
/// the loop it splits); large builds must — and both produce the serial
/// trie, structure and all.
TEST(TrieIndexTest, ParallelBuildThresholdPinsSmallBuildsSerial) {
  ThreadPool pool(2);

  Dataset small = FilterDataset(512, 81);
  TrieIndex serial_small;
  ASSERT_TRUE(serial_small.Build(small.trajectories(), SmallOpts()).ok());
  TrieIndex pooled_small;
  double offloaded = 0.0;
  ASSERT_TRUE(
      pooled_small.Build(small.trajectories(), SmallOpts(), &pool, &offloaded)
          .ok());
  EXPECT_EQ(offloaded, 0.0) << "small build must stay on the calling thread";
  EXPECT_EQ(pooled_small.StructureDigest(), serial_small.StructureDigest());

  Dataset big = FilterDataset(TrieIndex::kMinBuildItemsPerThread * 2, 83);
  TrieIndex serial_big;
  ASSERT_TRUE(serial_big.Build(big.trajectories(), SmallOpts()).ok());
  TrieIndex pooled_big;
  offloaded = 0.0;
  ASSERT_TRUE(
      pooled_big.Build(big.trajectories(), SmallOpts(), &pool, &offloaded)
          .ok());
  EXPECT_GT(offloaded, 0.0) << "large build should use the pool";
  EXPECT_EQ(pooled_big.StructureDigest(), serial_big.StructureDigest());
}

}  // namespace
}  // namespace dita
