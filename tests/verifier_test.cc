#include "core/verifier.h"

#include <gtest/gtest.h>

#include "util/rng.h"
#include "workload/generator.h"

namespace dita {
namespace {

std::unique_ptr<Verifier> MakeVerifier(DistanceType type, bool mbr = true,
                                       bool cell = true) {
  DitaConfig config;
  config.verify.enable_mbr = mbr;
  config.verify.enable_cell = cell;
  auto dist = *MakeDistance(type, config.distance_params);
  return std::make_unique<Verifier>(dist, config);
}

Trajectory RandomTrajectory(Rng& rng, size_t max_len = 20) {
  const size_t len = static_cast<size_t>(rng.UniformInt(2, int64_t(max_len)));
  Trajectory t;
  Point pos{rng.Uniform(0, 5), rng.Uniform(0, 5)};
  for (size_t i = 0; i < len; ++i) {
    pos.x += rng.Gaussian(0, 0.3);
    pos.y += rng.Gaussian(0, 0.3);
    t.mutable_points().push_back(pos);
  }
  return t;
}

TEST(VerifierTest, AcceptsIdenticalAtZeroThreshold) {
  auto verifier = MakeVerifier(DistanceType::kDTW);
  Trajectory t(0, {{1, 1}, {2, 2}, {3, 3}});
  auto pre = VerifyPrecomp::For(t, 0.5);
  VerifyStats stats;
  EXPECT_TRUE(verifier->Verify(t, pre, t, pre, 0.0, &stats));
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.dp_computed, 1u);
}

TEST(VerifierTest, MbrFilterPrunesDistantPairs) {
  auto verifier = MakeVerifier(DistanceType::kDTW);
  Trajectory a(0, {{0, 0}, {1, 1}});
  Trajectory b(1, {{100, 100}, {101, 101}});
  auto pa = VerifyPrecomp::For(a, 0.5);
  auto pb = VerifyPrecomp::For(b, 0.5);
  VerifyStats stats;
  EXPECT_FALSE(verifier->Verify(a, pa, b, pb, 1.0, &stats));
  EXPECT_EQ(stats.pruned_by_mbr, 1u);
  EXPECT_EQ(stats.dp_computed, 0u);  // never reached the DP
}

TEST(VerifierTest, CellFilterFiresOnOverlappingButDissimilar) {
  // Same endpoints and same MBR footprint, but the mass travels along the
  // bottom edge vs the left edge: MBR coverage passes, the cell bound
  // prunes (Example 5.7's mechanism).
  auto verifier = MakeVerifier(DistanceType::kDTW);
  Trajectory a(0, {{0, 0}, {2, 0}, {4, 0}, {6, 0}, {8, 0}, {10, 0}, {10, 10}});
  Trajectory b(1, {{0, 0}, {0, 2}, {0, 4}, {0, 6}, {0, 8}, {0, 10}, {10, 10}});
  auto pa = VerifyPrecomp::For(a, 0.2);
  auto pb = VerifyPrecomp::For(b, 0.2);
  VerifyStats stats;
  EXPECT_FALSE(verifier->Verify(a, pa, b, pb, 3.0, &stats));
  EXPECT_EQ(stats.pruned_by_mbr, 0u);
  EXPECT_GE(stats.pruned_by_cell, 1u);
}

/// Soundness sweep: with and without the optional filters, Verify agrees
/// with the exact distance for every function on random pairs.
class VerifierProperty
    : public ::testing::TestWithParam<std::tuple<DistanceType, bool, bool>> {};

TEST_P(VerifierProperty, NeverWrong) {
  const auto [type, mbr, cell] = GetParam();
  auto verifier = MakeVerifier(type, mbr, cell);
  DistanceParams params;
  auto dist = *MakeDistance(type, params);
  Rng rng(31 + static_cast<uint64_t>(type));
  for (int iter = 0; iter < 120; ++iter) {
    Trajectory a = RandomTrajectory(rng);
    Trajectory b = RandomTrajectory(rng);
    auto pa = VerifyPrecomp::For(a, 0.4);
    auto pb = VerifyPrecomp::For(b, 0.4);
    const double d = dist->Compute(a, b);
    for (double factor : {0.5, 2.0}) {
      const double tau = d * factor;
      EXPECT_EQ(verifier->Verify(a, pa, b, pb, tau, nullptr), d <= tau)
          << dist->name() << " mbr=" << mbr << " cell=" << cell;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, VerifierProperty,
    ::testing::Combine(::testing::Values(DistanceType::kDTW,
                                         DistanceType::kFrechet,
                                         DistanceType::kEDR,
                                         DistanceType::kLCSS,
                                         DistanceType::kERP),
                       ::testing::Bool(), ::testing::Bool()),
    [](const auto& info) {
      return std::string(DistanceTypeName(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_mbr" : "_nombr") +
             (std::get<2>(info.param) ? "_cell" : "_nocell");
    });

/// Shared fixture data for the batched-verification tests: one query versus
/// a population of random candidates, with a tau that accepts some and
/// rejects others.
struct BatchFixture {
  std::vector<Trajectory> trajectories;
  std::vector<VerifyPrecomp> precomp;
  std::vector<uint32_t> candidates;
  Trajectory query;
  VerifyPrecomp query_precomp;
  double tau = 0.0;

  static BatchFixture Make(size_t count, uint64_t seed) {
    Rng rng(seed);
    BatchFixture f;
    for (size_t i = 0; i < count; ++i) {
      f.trajectories.push_back(RandomTrajectory(rng));
      f.trajectories.back().set_id(TrajectoryId(i));
      f.precomp.push_back(VerifyPrecomp::For(f.trajectories.back(), 0.4));
      f.candidates.push_back(uint32_t(i));
    }
    f.query = RandomTrajectory(rng);
    f.query_precomp = VerifyPrecomp::For(f.query, 0.4);
    f.tau = 2.5;  // accepts a nontrivial fraction of the random walks
    return f;
  }
};

TEST(VerifyBatchTest, MatchesPairwiseVerify) {
  for (DistanceType type :
       {DistanceType::kDTW, DistanceType::kFrechet, DistanceType::kEDR,
        DistanceType::kLCSS, DistanceType::kERP}) {
    auto verifier = MakeVerifier(type);
    BatchFixture f = BatchFixture::Make(60, 7 + uint64_t(type));

    VerifyStats pair_stats;
    std::vector<uint32_t> expected;
    for (uint32_t pos : f.candidates) {
      if (verifier->Verify(f.trajectories[pos], f.precomp[pos], f.query,
                           f.query_precomp, f.tau, &pair_stats)) {
        expected.push_back(pos);
      }
    }

    VerifyStats batch_stats;
    std::vector<uint32_t> accepted;
    const Verifier::Batch batch{.precomp = &f.precomp,
                                .candidates = &f.candidates,
                                .query = &f.query_precomp,
                                .tau = f.tau};
    const Verifier::BatchResult r = verifier->VerifyBatch(
        batch, /*pool=*/nullptr, /*min_parallel=*/0, &accepted, &batch_stats);

    EXPECT_EQ(accepted, expected) << DistanceTypeName(type);
    EXPECT_EQ(r.accepted, expected.size());
    EXPECT_EQ(r.pool_chunks, 0u);  // serial without a pool
    EXPECT_EQ(batch_stats.pairs, pair_stats.pairs);
    EXPECT_EQ(batch_stats.pruned_by_mbr, pair_stats.pruned_by_mbr);
    EXPECT_EQ(batch_stats.pruned_by_cell, pair_stats.pruned_by_cell);
    EXPECT_EQ(batch_stats.dp_computed, pair_stats.dp_computed);
    EXPECT_EQ(batch_stats.accepted, pair_stats.accepted);
  }
}

TEST(VerifyBatchTest, ParallelAgreesWithSerialAndChargesCpu) {
  auto verifier = MakeVerifier(DistanceType::kDTW);
  BatchFixture f = BatchFixture::Make(120, 41);
  f.tau = 50.0;  // generous: every candidate survives the filters, so the
                 // batch is guaranteed to take the pool path

  std::vector<uint32_t> serial;
  const Verifier::Batch batch{.precomp = &f.precomp,
                              .candidates = &f.candidates,
                              .query = &f.query_precomp,
                              .tau = f.tau};
  verifier->VerifyBatch(batch, nullptr, 0, &serial, nullptr);
  ASSERT_FALSE(serial.empty());

  ThreadPool pool(3);
  std::vector<uint32_t> parallel;
  const Verifier::BatchResult r =
      verifier->VerifyBatch(batch, &pool, /*min_parallel=*/1, &parallel,
                            nullptr);
  EXPECT_EQ(parallel, serial);  // deterministic order despite the fan-out
  EXPECT_GT(r.pool_chunks, 0u);
  EXPECT_GE(r.offloaded_seconds, 0.0);
}

TEST(VerifyBatchTest, SmallBatchesStaySerial) {
  auto verifier = MakeVerifier(DistanceType::kDTW);
  BatchFixture f = BatchFixture::Make(8, 5);
  ThreadPool pool(3);
  std::vector<uint32_t> accepted;
  const Verifier::Batch batch{.precomp = &f.precomp,
                              .candidates = &f.candidates,
                              .query = &f.query_precomp,
                              .tau = f.tau};
  // min_parallel above the candidate count: the pool must not be used.
  const Verifier::BatchResult r =
      verifier->VerifyBatch(batch, &pool, /*min_parallel=*/64, &accepted,
                            nullptr);
  EXPECT_EQ(r.pool_chunks, 0u);
  EXPECT_EQ(r.offloaded_seconds, 0.0);
}

TEST(VerifyBatchTest, AppendsToExistingAcceptedList) {
  auto verifier = MakeVerifier(DistanceType::kDTW);
  BatchFixture f = BatchFixture::Make(30, 13);
  std::vector<uint32_t> accepted = {9999};  // pre-existing entry survives
  const Verifier::Batch batch{.precomp = &f.precomp,
                              .candidates = &f.candidates,
                              .query = &f.query_precomp,
                              .tau = f.tau};
  const Verifier::BatchResult r =
      verifier->VerifyBatch(batch, nullptr, 0, &accepted, nullptr);
  ASSERT_GE(accepted.size(), 1u);
  EXPECT_EQ(accepted[0], 9999u);
  EXPECT_EQ(r.accepted, accepted.size() - 1);
}

TEST(VerifierTest, StatsMergeAccumulates) {
  VerifyStats a{.pairs = 10,
                .pruned_by_mbr = 2,
                .pruned_by_cell = 3,
                .dp_computed = 5,
                .accepted = 4};
  VerifyStats b{.pairs = 1, .pruned_by_mbr = 1};
  a.Merge(b);
  EXPECT_EQ(a.pairs, 11u);
  EXPECT_EQ(a.pruned_by_mbr, 3u);
  EXPECT_EQ(a.pruned_by_cell, 3u);
  EXPECT_EQ(a.dp_computed, 5u);
  EXPECT_EQ(a.accepted, 4u);
}

}  // namespace
}  // namespace dita
