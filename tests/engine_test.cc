#include "core/engine.h"

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "workload/generator.h"
#include "test_data.h"

namespace dita {
namespace {

/// True when built with ASan/TSan (ci.sh's sanitized pass). Instrumentation
/// slows measured CPU by an order of magnitude, which shifts the
/// compute-vs-transfer cost ratios that timing-based planner heuristics
/// (like division balancing) trigger on.
constexpr bool BuiltWithSanitizer() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

TEST(DitaEngineTest, BuildValidatesInput) {
  auto cluster = MakeCluster();
  DitaConfig config = MetricConfig();
  config.build.ng = 0;
  DitaEngine bad(cluster, config);
  EXPECT_FALSE(bad.BuildIndex(CityDataset(20, 51)).ok());

  DitaEngine engine(cluster, MetricConfig());
  Dataset with_short;
  with_short.Add(Trajectory(0, {{0, 0}}));
  EXPECT_FALSE(engine.BuildIndex(with_short).ok());
}

TEST(DitaEngineTest, SearchBeforeBuildFails) {
  DitaEngine engine(MakeCluster(), MetricConfig());
  Trajectory q(0, {{0, 0}, {1, 1}});
  EXPECT_FALSE(engine.Search(q, 1.0).ok());
}

TEST(DitaEngineTest, SearchRejectsBadArgs) {
  auto cluster = MakeCluster();
  DitaEngine engine(cluster, MetricConfig());
  ASSERT_TRUE(engine.BuildIndex(CityDataset(50, 51)).ok());
  Trajectory q(0, {{0, 0}, {1, 1}});
  EXPECT_FALSE(engine.Search(q, -1.0).ok());
  EXPECT_FALSE(engine.Search(Trajectory(0, {{0, 0}}), 1.0).ok());
}

TEST(DitaEngineTest, IndexStatsPopulated) {
  auto cluster = MakeCluster();
  DitaEngine engine(cluster, MetricConfig());
  Dataset ds = CityDataset(300, 51);
  ASSERT_TRUE(engine.BuildIndex(ds).ok());
  const auto& stats = engine.index_stats();
  EXPECT_EQ(stats.num_trajectories, ds.size());
  EXPECT_GT(stats.num_partitions, 1u);
  EXPECT_GT(stats.global_index_bytes, 0u);
  EXPECT_GT(stats.local_index_bytes, 0u);
  EXPECT_GT(stats.build_seconds, 0.0);
}

TEST(DitaEngineTest, ParallelBuildMatchesSerialBuild) {
  // build_threads only changes how construction work is chunked; the index,
  // the simulated cost ledger, and every query answer must be unchanged.
  Dataset ds = CityDataset(500, 51);
  DitaConfig serial_cfg = MetricConfig();
  DitaEngine serial(MakeCluster(), serial_cfg);
  ASSERT_TRUE(serial.BuildIndex(ds).ok());

  DitaConfig parallel_cfg = MetricConfig();
  parallel_cfg.build.threads = 3;
  DitaEngine parallel(MakeCluster(), parallel_cfg);
  ASSERT_TRUE(parallel.BuildIndex(ds).ok());

  EXPECT_EQ(parallel.index_stats().num_partitions,
            serial.index_stats().num_partitions);
  EXPECT_EQ(parallel.index_stats().local_index_bytes,
            serial.index_stats().local_index_bytes);
  for (size_t i = 0; i < 8; ++i) {
    const Trajectory& q = ds[(i * 37) % ds.size()];
    auto a = serial.Search(q, 0.05);
    auto b = parallel.Search(q, 0.05);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b);
  }
}

/// `ds` plus a jittered copy of every trajectory (id + 100000): each point
/// moves by up to `amp` per axis, `amp` cycling through 0.0005, 0.002 and
/// 0.006. The copies' DTW and Frechet distances to their originals spread
/// across the tested taus, so a filter sees true answers just inside tau as
/// well as near misses.
Dataset WithJitteredCopies(const Dataset& ds, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  const double amps[] = {0.0005, 0.002, 0.006};
  std::vector<Trajectory> rows = ds.trajectories();
  for (size_t i = 0; i < ds.size(); ++i) {
    std::vector<Point> points = ds[i].points();
    for (Point& p : points) {
      p.x += amps[i % 3] * unit(rng);
      p.y += amps[i % 3] * unit(rng);
    }
    rows.emplace_back(ds[i].id() + 100000, std::move(points));
  }
  return Dataset(std::move(rows));
}

void ExpectSearchMatchesBruteForce(const DitaConfig& config,
                                   const Dataset& ds) {
  auto cluster = MakeCluster();
  DitaEngine engine(cluster, config);
  ASSERT_TRUE(engine.BuildIndex(ds).ok());

  auto dist = *MakeDistance(config.distance, config.distance_params);
  const bool edit = config.distance == DistanceType::kEDR ||
                    config.distance == DistanceType::kLCSS;
  const std::vector<double> taus = edit
                                       ? std::vector<double>{1.0, 3.0, 6.0}
                                       : std::vector<double>{0.005, 0.03, 0.1};
  auto queries = ds.SampleQueries(8, 17);
  for (const auto& q : queries) {
    for (double tau : taus) {
      DitaEngine::QueryStats qstats;
      auto got = engine.Search(q, tau, &qstats);
      ASSERT_TRUE(got.ok());
      std::vector<TrajectoryId> expected;
      for (const auto& t : ds.trajectories()) {
        if (dist->Compute(t, q) <= tau) expected.push_back(t.id());
      }
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(*got, expected) << dist->name() << " tau=" << tau;
      EXPECT_EQ(qstats.results, expected.size());
      EXPECT_GE(qstats.candidates, expected.size());
    }
  }
}

/// End-to-end correctness: engine search equals brute force for every
/// distance function.
class EngineSearchProperty : public ::testing::TestWithParam<DistanceType> {};

TEST_P(EngineSearchProperty, MatchesBruteForce) {
  ExpectSearchMatchesBruteForce(MetricConfig(GetParam()), CityDataset(300, 51));
}

INSTANTIATE_TEST_SUITE_P(AllDistances, EngineSearchProperty,
                         ::testing::Values(DistanceType::kDTW,
                                           DistanceType::kFrechet,
                                           DistanceType::kEDR,
                                           DistanceType::kLCSS,
                                           DistanceType::kERP),
                         [](const auto& info) {
                           return DistanceTypeName(info.param);
                         });

/// Join correctness: DITA join equals the brute-force cross product filter.
class EngineJoinProperty : public ::testing::TestWithParam<DistanceType> {};

TEST_P(EngineJoinProperty, SelfJoinMatchesBruteForce) {
  auto cluster = MakeCluster();
  DitaConfig config = MetricConfig(GetParam());
  DitaEngine engine(cluster, config);
  Dataset ds = CityDataset(120, 61);
  ASSERT_TRUE(engine.BuildIndex(ds).ok());

  auto dist = *MakeDistance(GetParam(), config.distance_params);
  const bool edit = GetParam() == DistanceType::kEDR ||
                    GetParam() == DistanceType::kLCSS;
  const double tau = edit ? 2.0 : 0.02;

  DitaEngine::JoinStats jstats;
  auto got = engine.Join(engine, tau, &jstats);
  ASSERT_TRUE(got.ok());

  std::vector<std::pair<TrajectoryId, TrajectoryId>> expected;
  for (const auto& a : ds.trajectories()) {
    for (const auto& b : ds.trajectories()) {
      if (dist->Compute(b, a) <= tau) expected.emplace_back(a.id(), b.id());
    }
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(*got, expected) << dist->name() << " tau=" << tau;
  EXPECT_EQ(jstats.result_pairs, expected.size());
  EXPECT_GT(jstats.graph_edges, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllDistances, EngineJoinProperty,
                         ::testing::Values(DistanceType::kDTW,
                                           DistanceType::kFrechet,
                                           DistanceType::kEDR,
                                           DistanceType::kLCSS,
                                           DistanceType::kERP),
                         [](const auto& info) {
                           return DistanceTypeName(info.param);
                         });

/// The cell bound (Lemma 5.6) is off by default, so the oracle runs with it
/// explicitly off and on for the two distances it applies to, over a table
/// with near-duplicates so that some answers lie just inside tau.
class EngineCellBoundProperty
    : public ::testing::TestWithParam<std::tuple<DistanceType, bool>> {
 protected:
  DitaConfig Config() const {
    DitaConfig config = MetricConfig(std::get<0>(GetParam()));
    config.verify.enable_cell = std::get<1>(GetParam());
    return config;
  }
};

TEST_P(EngineCellBoundProperty, SearchMatchesBruteForce) {
  ExpectSearchMatchesBruteForce(Config(),
                                WithJitteredCopies(CityDataset(150, 57), 7));
}

INSTANTIATE_TEST_SUITE_P(
    CellOffOn, EngineCellBoundProperty,
    ::testing::Combine(::testing::Values(DistanceType::kDTW,
                                         DistanceType::kFrechet),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(DistanceTypeName(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_CellOn" : "_CellOff");
    });

TEST(DitaEngineTest, CellBoundOffByDefaultAndAnswersUnchanged) {
  EXPECT_FALSE(DitaConfig{}.verify.enable_cell);
  EXPECT_TRUE(DitaConfig{}.verify.enable_mbr);

  Dataset ds = WithJitteredCopies(CityDataset(100, 83), 9);
  auto cluster = MakeCluster();
  DitaConfig with_cell = MetricConfig();
  with_cell.verify.enable_cell = true;
  DitaEngine off(cluster, MetricConfig());
  DitaEngine on(cluster, with_cell);
  ASSERT_TRUE(off.BuildIndex(ds).ok());
  ASSERT_TRUE(on.BuildIndex(ds).ok());

  size_t cell_pruned = 0;
  for (const auto& q : ds.SampleQueries(6, 29)) {
    DitaEngine::QueryStats off_stats;
    DitaEngine::QueryStats on_stats;
    auto a = off.Search(q, 0.04, &off_stats);
    auto b = on.Search(q, 0.04, &on_stats);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b);
    EXPECT_EQ(off_stats.verify.pruned_by_cell, 0u);
    cell_pruned += on_stats.verify.pruned_by_cell;

    auto ka = off.KnnSearch(q, 7);
    auto kb = on.KnnSearch(q, 7);
    ASSERT_TRUE(ka.ok() && kb.ok());
    EXPECT_EQ(*ka, *kb);
  }
  DitaEngine::JoinStats off_join;
  DitaEngine::JoinStats on_join;
  auto ja = off.Join(off, 0.04, &off_join);
  auto jb = on.Join(on, 0.04, &on_join);
  ASSERT_TRUE(ja.ok() && jb.ok());
  EXPECT_EQ(*ja, *jb);
  EXPECT_EQ(off_join.verify.pruned_by_cell, 0u);
  // Turned on, the bound really runs: it prunes pairs the default leaves to
  // the DP, so the equalities above compare two different pipelines.
  EXPECT_GT(cell_pruned + on_join.verify.pruned_by_cell, 0u);
}

/// kNN extension: exact against brute force for every distance function.
class EngineKnnProperty : public ::testing::TestWithParam<DistanceType> {};

TEST_P(EngineKnnProperty, MatchesBruteForce) {
  auto cluster = MakeCluster();
  DitaConfig config = MetricConfig(GetParam());
  DitaEngine engine(cluster, config);
  Dataset ds = CityDataset(250, 65);
  ASSERT_TRUE(engine.BuildIndex(ds).ok());
  auto dist = *MakeDistance(GetParam(), config.distance_params);

  for (const auto& q : ds.SampleQueries(5, 19)) {
    for (size_t k : {1u, 5u, 20u}) {
      auto got = engine.KnnSearch(q, k);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_EQ(got->size(), k);

      std::vector<double> all;
      for (const auto& t : ds.trajectories()) all.push_back(dist->Compute(t, q));
      std::sort(all.begin(), all.end());
      // Distances must match the true k smallest (ids may tie arbitrarily).
      for (size_t i = 0; i < k; ++i) {
        EXPECT_NEAR((*got)[i].second, all[i], 1e-9)
            << dist->name() << " k=" << k << " i=" << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDistances, EngineKnnProperty,
                         ::testing::Values(DistanceType::kDTW,
                                           DistanceType::kFrechet,
                                           DistanceType::kEDR,
                                           DistanceType::kLCSS,
                                           DistanceType::kERP),
                         [](const auto& info) {
                           return DistanceTypeName(info.param);
                         });

TEST(DitaEngineTest, ParallelVerificationMatchesSerial) {
  // verify_threads fans the surviving DP work of each partition across an
  // engine-local pool; answers must be bit-identical to the serial engine,
  // and the offloaded CPU must land in the owning worker's virtual time.
  Dataset ds = CityDataset(300, 51);
  auto serial_cluster = MakeCluster();
  DitaEngine serial(serial_cluster, MetricConfig());
  ASSERT_TRUE(serial.BuildIndex(ds).ok());

  auto parallel_cluster = MakeCluster();
  DitaConfig parallel_config = MetricConfig();
  parallel_config.verify.threads = 2;
  parallel_config.verify.parallel_min = 1;  // force the pool path
  DitaEngine parallel(parallel_cluster, parallel_config);
  ASSERT_TRUE(parallel.BuildIndex(ds).ok());

  auto queries = ds.SampleQueries(6, 23);
  for (const auto& q : queries) {
    for (double tau : {0.01, 0.05, 0.2}) {
      auto want = serial.Search(q, tau);
      auto got = parallel.Search(q, tau);
      ASSERT_TRUE(want.ok());
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got.value(), want.value()) << "tau=" << tau;
    }
  }

  auto want_join = serial.Join(serial, 0.02);
  auto got_join = parallel.Join(parallel, 0.02);
  ASSERT_TRUE(want_join.ok());
  ASSERT_TRUE(got_join.ok());
  EXPECT_EQ(got_join.value(), want_join.value());
}

TEST(DitaEngineTest, KnnEdgeCases) {
  auto cluster = MakeCluster();
  DitaEngine engine(cluster, MetricConfig());
  Dataset ds = CityDataset(50, 66);
  ASSERT_TRUE(engine.BuildIndex(ds).ok());
  auto zero = engine.KnnSearch(ds[0], 0);
  ASSERT_TRUE(zero.ok());
  EXPECT_TRUE(zero->empty());
  EXPECT_FALSE(engine.KnnSearch(ds[0], ds.size() + 1).ok());
  // k = 1 on a dataset member returns the member itself at distance 0.
  auto self = engine.KnnSearch(ds[7], 1);
  ASSERT_TRUE(self.ok());
  EXPECT_DOUBLE_EQ((*self)[0].second, 0.0);
}

TEST(DitaEngineTest, TwoTableJoinMatchesBruteForce) {
  auto cluster = MakeCluster();
  DitaConfig config = MetricConfig();
  DitaEngine left(cluster, config);
  DitaEngine right(cluster, config);
  Dataset ds_l = CityDataset(100, 71);
  Dataset ds_r = CityDataset(100, 72);
  ASSERT_TRUE(left.BuildIndex(ds_l).ok());
  ASSERT_TRUE(right.BuildIndex(ds_r).ok());

  const double tau = 0.05;
  auto got = left.Join(right, tau);
  ASSERT_TRUE(got.ok());

  auto dist = *MakeDistance(DistanceType::kDTW);
  std::vector<std::pair<TrajectoryId, TrajectoryId>> expected;
  for (const auto& a : ds_l.trajectories()) {
    for (const auto& b : ds_r.trajectories()) {
      if (dist->Compute(b, a) <= tau) expected.emplace_back(a.id(), b.id());
    }
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(*got, expected);
}

TEST(DitaEngineTest, EmptySelfJoinIsEmpty) {
  // The join's bi-graph has no nodes: planning must not pick a hottest node
  // or a cost quantile out of an empty vector.
  DitaEngine engine(MakeCluster(), MetricConfig());
  ASSERT_TRUE(engine.BuildIndex(Dataset()).ok());
  QueryRequest req;
  req.kind = QueryKind::kJoin;
  req.tau = 0.05;
  auto got = engine.Execute(req);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got->pairs.empty());
  EXPECT_EQ(got->join_stats.graph_edges, 0u);
  EXPECT_EQ(got->join_stats.result_pairs, 0u);
}

TEST(DitaEngineTest, EmptyJoinNonEmptyIsEmpty) {
  // Nodes on one side only: the bi-graph has no edges, in either direction.
  auto cluster = MakeCluster();
  DitaEngine empty(cluster, MetricConfig());
  DitaEngine full(cluster, MetricConfig());
  ASSERT_TRUE(empty.BuildIndex(Dataset()).ok());
  ASSERT_TRUE(full.BuildIndex(CityDataset(60, 3)).ok());
  for (const auto& [left, right] :
       {std::pair{&empty, &full}, std::pair{&full, &empty}}) {
    QueryRequest req;
    req.kind = QueryKind::kJoin;
    req.join_right = right;
    req.tau = 0.05;
    auto got = left->Execute(req);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(got->pairs.empty());
    EXPECT_EQ(got->join_stats.graph_edges, 0u);
  }
}

TEST(DitaEngineTest, JoinRequiresSharedCluster) {
  DitaEngine a(MakeCluster(), MetricConfig());
  DitaEngine b(MakeCluster(), MetricConfig());
  ASSERT_TRUE(a.BuildIndex(CityDataset(30, 1)).ok());
  ASSERT_TRUE(b.BuildIndex(CityDataset(30, 2)).ok());
  EXPECT_FALSE(a.Join(b, 0.1).ok());
}

TEST(DitaEngineTest, SearchChargesClusterCosts) {
  auto cluster = MakeCluster();
  DitaEngine engine(cluster, MetricConfig());
  ASSERT_TRUE(engine.BuildIndex(CityDataset(200, 51)).ok());
  Trajectory q = CityDataset(200, 51)[0];
  DitaEngine::QueryStats stats;
  ASSERT_TRUE(engine.Search(q, 0.05, &stats).ok());
  EXPECT_GT(stats.makespan_seconds, 0.0);
  EXPECT_GT(stats.partitions_probed, 0u);
}

TEST(DitaEngineTest, JoinShipsBytesAndReportsStats) {
  auto cluster = MakeCluster();
  DitaEngine engine(cluster, MetricConfig());
  ASSERT_TRUE(engine.BuildIndex(CityDataset(150, 51)).ok());
  DitaEngine::JoinStats stats;
  ASSERT_TRUE(engine.Join(engine, 0.03, &stats).ok());
  EXPECT_GT(stats.makespan_seconds, 0.0);
  EXPECT_GT(stats.bytes_shipped, 0u);  // cross-worker partition pairs exist
  EXPECT_GE(stats.load_ratio, 1.0);
  EXPECT_GE(stats.candidate_pairs, stats.result_pairs);
  // The verification-pipeline counters mirror the candidate/result totals
  // and account for every candidate pair exactly once.
  EXPECT_EQ(stats.verify.pairs, stats.candidate_pairs);
  EXPECT_EQ(stats.verify.accepted, stats.result_pairs);
  EXPECT_GT(stats.verify.dp_computed, 0u);
  EXPECT_GT(stats.verify.dp_cells, 0u);
  EXPECT_EQ(stats.verify.pruned_by_mbr + stats.verify.pruned_by_cell +
                stats.verify.dp_computed,
            stats.verify.pairs);
  // The join funnel is monotone and lands exactly on the result pairs.
  ASSERT_FALSE(stats.funnel.empty());
  EXPECT_TRUE(stats.funnel.MonotonicallyNonIncreasing())
      << stats.funnel.ToTable();
  EXPECT_EQ(stats.funnel.FinalSurvivors(), stats.result_pairs);
}

TEST(DitaEngineTest, AblationTogglesPreserveCorrectness) {
  Dataset ds = CityDataset(150, 81);
  const double tau = 0.04;

  std::vector<std::pair<TrajectoryId, TrajectoryId>> reference;
  for (int mask = 0; mask < 4; ++mask) {
    auto cluster = MakeCluster();
    DitaConfig config = MetricConfig();
    config.verify.enable_mbr = mask & 1;
    config.verify.enable_cell = mask & 2;
    config.enable_graph_orientation = mask & 1;
    config.enable_division_balancing = mask & 2;
    DitaEngine engine(cluster, config);
    ASSERT_TRUE(engine.BuildIndex(ds).ok());
    auto got = engine.Join(engine, tau);
    ASSERT_TRUE(got.ok());
    if (mask == 0) {
      reference = *got;
      EXPECT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(*got, reference) << "mask=" << mask;
    }
  }
}

TEST(DitaEngineTest, DivisionBalancingFiresOnSkewAndPreservesResults) {
  // Zipf route popularity concentrates work in few partitions; the division
  // mechanism (§6.3) must replicate at least one of them and must never
  // change the answer set.
  GeneratorConfig gcfg;
  gcfg.cardinality = 600;
  gcfg.region = MBR(Point{0, 0}, Point{1, 1});
  gcfg.step = 0.01;
  gcfg.route_skew = 1.3;
  gcfg.seed = 131;
  Dataset ds = GenerateTaxiDataset(gcfg);

  auto run = [&](bool division) {
    auto cluster = MakeCluster(8);
    DitaConfig config = MetricConfig();
    config.build.ng = 5;
    config.enable_division_balancing = division;
    DitaEngine engine(cluster, config);
    EXPECT_TRUE(engine.BuildIndex(ds).ok());
    DitaEngine::JoinStats stats;
    auto pairs = engine.Join(engine, 0.01, &stats);
    EXPECT_TRUE(pairs.ok());
    return std::make_pair(*pairs, stats);
  };
  auto [with_pairs, with_stats] = run(true);
  auto [without_pairs, without_stats] = run(false);
  EXPECT_EQ(with_pairs, without_pairs);
  // Whether the trigger fires depends on measured cost ratios, which
  // sanitizer instrumentation distorts; answers are checked unconditionally.
  if (!BuiltWithSanitizer()) {
    EXPECT_GE(with_stats.divided_partitions, 1u);
  }
  EXPECT_EQ(without_stats.divided_partitions, 0u);
}

TEST(DitaEngineTest, RandomPartitioningStillCorrect) {
  // The Fig. 13 ablation changes only cost, never answers.
  Dataset ds = CityDataset(150, 83);
  const double tau = 0.03;
  auto run = [&](bool random) {
    auto cluster = MakeCluster();
    DitaConfig config = MetricConfig();
    config.build.random_partitioning = random;
    DitaEngine engine(cluster, config);
    EXPECT_TRUE(engine.BuildIndex(ds).ok());
    DitaEngine::JoinStats stats;
    auto got = engine.Join(engine, tau, &stats);
    EXPECT_TRUE(got.ok());
    return std::make_pair(*got, stats.bytes_shipped);
  };
  auto [spatial_pairs, spatial_bytes] = run(false);
  auto [random_pairs, random_bytes] = run(true);
  EXPECT_EQ(spatial_pairs, random_pairs);
  // Random partitions have huge first/last MBRs, so far more data ships.
  EXPECT_GT(random_bytes, spatial_bytes);
}

TEST(DitaEngineTest, RandomPartitioningComparison) {
  // Sanity for the Fig. 13 ablation harness: first/last partitioning ships
  // fewer bytes than the number of partition pairs would suggest, because
  // fewer trajectories are relevant to each partition.
  auto cluster = MakeCluster();
  DitaEngine engine(cluster, MetricConfig());
  ASSERT_TRUE(engine.BuildIndex(CityDataset(200, 91)).ok());
  DitaEngine::JoinStats stats;
  ASSERT_TRUE(engine.Join(engine, 0.02, &stats).ok());
  const auto& istats = engine.index_stats();
  EXPECT_LT(stats.bytes_shipped,
            istats.num_partitions * CityDataset(200, 91).ByteSize());
}

using PairList = std::vector<std::pair<TrajectoryId, TrajectoryId>>;

/// A self-join answer is sorted, has no duplicate, holds (b, a) for every
/// (a, b), and holds each self-pair (a, a) once. With `ds` non-null every
/// trajectory's self-pair must be present (its distance to itself is 0).
void ExpectSymmetricAnswer(const PairList& pairs, const Dataset* ds) {
  EXPECT_TRUE(std::is_sorted(pairs.begin(), pairs.end()));
  EXPECT_EQ(std::adjacent_find(pairs.begin(), pairs.end()), pairs.end());
  const std::set<std::pair<TrajectoryId, TrajectoryId>> all(pairs.begin(),
                                                            pairs.end());
  for (const auto& [a, b] : pairs) {
    EXPECT_TRUE(all.count({b, a})) << "(" << a << ", " << b << ") unmirrored";
  }
  if (ds != nullptr) {
    for (const Trajectory& t : ds->trajectories()) {
      EXPECT_TRUE(all.count({t.id(), t.id()})) << "self-pair " << t.id();
    }
  }
}

/// The self-join answer is the brute-force one, symmetric and duplicate
/// free, under every planner setting that moves edges between workers:
/// orientation on and off, and division replicas on a skewed table.
TEST(EngineJoinSymmetry, SelfJoinIsSymmetricUnderEveryPlan) {
  GeneratorConfig gcfg;
  gcfg.cardinality = 600;
  gcfg.region = MBR(Point{0, 0}, Point{1, 1});
  gcfg.step = 0.01;
  gcfg.route_skew = 1.3;
  gcfg.seed = 131;
  const Dataset skewed = GenerateTaxiDataset(gcfg);
  const Dataset city = CityDataset(150, 81);
  const double tau = 0.01;
  auto dist = *MakeDistance(DistanceType::kDTW);

  for (const Dataset* ds : {&city, &skewed}) {
    PairList expected;
    for (const auto& a : ds->trajectories()) {
      for (const auto& b : ds->trajectories()) {
        if (dist->Compute(b, a) <= tau) expected.emplace_back(a.id(), b.id());
      }
    }
    std::sort(expected.begin(), expected.end());
    for (int mask = 0; mask < 4; ++mask) {
      auto cluster = MakeCluster(8);
      DitaConfig config = MetricConfig();
      config.build.ng = 5;
      config.enable_graph_orientation = mask & 1;
      config.enable_division_balancing = mask & 2;
      DitaEngine engine(cluster, config);
      ASSERT_TRUE(engine.BuildIndex(*ds).ok());
      DitaEngine::JoinStats stats;
      auto got = engine.Join(engine, tau, &stats);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, expected) << "mask=" << mask;
      ExpectSymmetricAnswer(*got, ds);
      EXPECT_EQ(stats.result_pairs, got->size());
      EXPECT_EQ(stats.verify.accepted, stats.result_pairs);
      if (ds == &skewed && (mask & 2) && !BuiltWithSanitizer()) {
        EXPECT_GE(stats.divided_partitions, 1u);  // replicas took edges
      }
    }
  }
}

/// A stopped self-join keeps only the edges whose probe completed, and
/// each edge emits both orientations of its pairs, so the subset is still
/// symmetric.
TEST(EngineJoinSymmetry, StoppedSelfJoinSubsetIsSymmetric) {
  auto cluster = MakeCluster();
  DitaEngine engine(cluster, MetricConfig());
  const Dataset ds = CityDataset(300, 51);
  ASSERT_TRUE(engine.BuildIndex(ds).ok());
  const auto full = engine.Join(engine, 0.03);
  ASSERT_TRUE(full.ok());
  const std::set<std::pair<TrajectoryId, TrajectoryId>> all(full->begin(),
                                                            full->end());
  size_t partial = 0;
  for (uint64_t cancel_at : {256u, 1024u, 4096u, 16384u, 65536u}) {
    QueryContext ctx;
    ctx.CancelAfterOps(cancel_at);
    DitaEngine::JoinStats stats;
    const auto r = engine.Join(engine, 0.03, &stats, &ctx);
    ASSERT_TRUE(r.ok()) << "cancel_at=" << cancel_at;
    ExpectSymmetricAnswer(*r, nullptr);
    for (const auto& pair : *r) EXPECT_TRUE(all.count(pair));
    EXPECT_EQ(stats.verify.accepted, r->size());
    EXPECT_TRUE(stats.funnel.MonotonicallyNonIncreasing())
        << stats.funnel.ToTable();
    partial += ctx.stopped() && !r->empty() && r->size() < full->size();
  }
  EXPECT_GT(partial, 0u);  // some cut landed mid-join with pairs kept
}

/// The fast path keys on identity, not data: a second engine built on the
/// same table joins as a two-table join (nothing mirrored, a full
/// bi-graph) and still gives the self-join's answer.
TEST(EngineJoinSymmetry, TwinEngineJoinEqualsSelfJoinAndMirrorsNothing) {
  auto cluster = MakeCluster();
  const Dataset ds = CityDataset(200, 91);
  DitaEngine engine(cluster, MetricConfig());
  DitaEngine twin(cluster, MetricConfig());
  ASSERT_TRUE(engine.BuildIndex(ds).ok());
  ASSERT_TRUE(twin.BuildIndex(ds).ok());

  DitaEngine::JoinStats self_stats, twin_stats;
  const auto self = engine.Join(engine, 0.03, &self_stats);
  const auto pair = engine.Join(twin, 0.03, &twin_stats);
  ASSERT_TRUE(self.ok());
  ASSERT_TRUE(pair.ok());
  EXPECT_EQ(*self, *pair);
  ExpectSymmetricAnswer(*self, &ds);

  // Both count in ordered pairs, so the funnels end on the same answer.
  EXPECT_EQ(self_stats.result_pairs, twin_stats.result_pairs);
  EXPECT_GT(self_stats.mirrored_pairs, 0u);
  EXPECT_LT(self_stats.mirrored_pairs, self_stats.candidate_pairs);
  EXPECT_EQ(twin_stats.mirrored_pairs, 0u);
  // The self-join's bi-graph is the twin join's upper triangle.
  EXPECT_LT(self_stats.graph_edges, twin_stats.graph_edges);
  for (const DitaEngine::JoinStats* s : {&self_stats, &twin_stats}) {
    EXPECT_EQ(s->verify.pairs, s->candidate_pairs);
    EXPECT_EQ(s->verify.accepted, s->result_pairs);
    EXPECT_TRUE(s->funnel.MonotonicallyNonIncreasing()) << s->funnel.ToTable();
    EXPECT_EQ(s->funnel.FinalSurvivors(), s->result_pairs);
  }
}

}  // namespace
}  // namespace dita
