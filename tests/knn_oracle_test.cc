// Oracle tests for the best-first kNN sweep: engine and service answers must
// equal a naive top-k under the (distance, id) order — exact ties included —
// for all five distances, and a sweep stopped mid-flight must return a
// prefix of the full answer.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/knn.h"
#include "serving/service.h"
#include "workload/generator.h"
#include "test_data.h"

namespace dita {
namespace {

using Neighbors = std::vector<KnnNeighbor>;

std::shared_ptr<Cluster> MakeThreadedCluster(size_t execution_threads) {
  ClusterConfig cfg;
  cfg.num_workers = 4;
  cfg.execution_threads = execution_threads;
  return std::make_shared<Cluster>(cfg);
}

const CityShape kShape{.max_len = 40};

/// A city table whose trajectories have ids 500 + i, plus exact copies of
/// every 4th one under a smaller id (i) and of every 7th one under a larger
/// id (2000 + i): many neighbour distances tie exactly, and the id decides
/// both ways.
Dataset TableWithTies(size_t n, uint64_t seed) {
  const Dataset city = CityDataset(n, seed, kShape);
  std::vector<Trajectory> rows;
  for (size_t i = 0; i < city.size(); ++i) {
    const auto id = static_cast<TrajectoryId>(i);
    rows.emplace_back(500 + id, city[i].points());
    if (i % 4 == 0) rows.emplace_back(id, city[i].points());
    if (i % 7 == 0) rows.emplace_back(2000 + id, city[i].points());
  }
  return Dataset(std::move(rows));
}

/// The k smallest (distance, id) pairs of `live` against `q`, by brute force.
Neighbors NaiveTopK(const TrajectoryDistance& dist,
                    const std::vector<Trajectory>& live, const Trajectory& q,
                    size_t k) {
  Neighbors all;
  for (const Trajectory& t : live) all.emplace_back(t.id(), dist.Compute(t, q));
  std::sort(all.begin(), all.end(), KnnBefore);
  all.resize(std::min(k, all.size()));
  return all;
}

/// Queries: two table trajectories with exact duplicates (ids 500 and 504,
/// whose distance-0 ties go to ids 0 and 4), one without (505), and two
/// off-table trajectories.
std::vector<Trajectory> Queries(const Dataset& table) {
  std::vector<Trajectory> qs = {table[0], table[6], table[8]};
  const Dataset off = CityDataset(2, 977, kShape);
  qs.push_back(off[0]);
  qs.push_back(off[1]);
  return qs;
}

std::vector<size_t> Ks(size_t table_size) { return {1, 10, 50, table_size}; }

TEST(KnnOracleTopK, KeepsTheKBestByDistanceThenId) {
  KnnTopK top(3);
  EXPECT_TRUE(std::isinf(top.Bound()));
  top.Offer(7, 2.0);
  top.Offer(9, 1.0);
  EXPECT_TRUE(std::isinf(top.Bound()));
  top.Offer(8, 2.0);
  EXPECT_EQ(top.Bound(), 2.0);
  top.Offer(3, 2.0);  // ties the k-th distance with a smaller id: displaces 8
  top.Offer(12, 2.0);  // ties with a larger id: rejected
  top.Offer(1, 5.0);
  EXPECT_EQ(top.Sorted(), (Neighbors{{9, 1.0}, {3, 2.0}, {7, 2.0}}));
  top.Offer(4, 0.5);
  EXPECT_EQ(top.Sorted(), (Neighbors{{4, 0.5}, {9, 1.0}, {3, 2.0}}));
  EXPECT_EQ(top.Bound(), 2.0);
}

void ExpectEngineMatchesNaiveTopK(const DitaConfig& config) {
  const auto dist = *MakeDistance(config.distance, config.distance_params);
  const Dataset table = TableWithTies(120, 61);
  DitaEngine engine(MakeCluster(), config);
  ASSERT_TRUE(engine.BuildIndex(table).ok());

  for (const Trajectory& q : Queries(table)) {
    for (const size_t k : Ks(table.size())) {
      DitaEngine::QueryStats stats;
      const auto got = engine.KnnSearch(q, k, &stats);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, NaiveTopK(*dist, table.trajectories(), q, k))
          << dist->name() << " k=" << k << " query=" << q.id();
      // Stats describe the sweep: each candidate counted once, a monotone
      // funnel ending at the answer count.
      EXPECT_TRUE(stats.termination.ok());
      EXPECT_DOUBLE_EQ(stats.completeness, 1.0);
      EXPECT_EQ(stats.results, k);
      EXPECT_LE(stats.partitions_probed, engine.index_stats().num_partitions);
      EXPECT_LE(stats.candidates, table.size());
      EXPECT_EQ(stats.verify.pairs, stats.candidates);
      EXPECT_LE(stats.verify.accepted, stats.verify.dp_computed);
      EXPECT_GE(stats.verify.accepted, k);
      EXPECT_TRUE(stats.funnel.MonotonicallyNonIncreasing());
      EXPECT_EQ(stats.funnel.FinalSurvivors(), k);
    }
  }
}

void ExpectServiceWithDeltaMatchesNaiveTopK(DitaConfig config) {
  config.serving.synchronous_merge = true;
  config.serving.merge_threshold = 1000;  // merges only when forced
  const auto dist = *MakeDistance(config.distance, config.distance_params);
  const Dataset table = TableWithTies(100, 62);
  DitaService service(MakeCluster(), config);
  ASSERT_TRUE(service.Start(table).ok());

  std::vector<Trajectory> live = table.trajectories();
  const auto erase = [&live](TrajectoryId id) {
    live.erase(std::find_if(
        live.begin(), live.end(),
        [id](const Trajectory& t) { return t.id() == id; }));
  };
  // Inserts: an exact copy of a base trajectory under a new smaller id, one
  // under a larger id, and fresh trajectories.
  std::vector<Trajectory> inserts = {Trajectory(300, table[6].points()),
                                     Trajectory(3000, table[8].points())};
  const Dataset fresh = CityDataset(12, 63, kShape);
  for (size_t i = 0; i < fresh.size(); ++i) {
    inserts.emplace_back(4000 + static_cast<TrajectoryId>(i),
                         fresh[i].points());
  }
  for (const Trajectory& t : inserts) {
    ASSERT_TRUE(service.Insert(t).ok());
    live.push_back(t);
  }
  // Deletes: base ids next to the queries, including an original whose
  // duplicate stays live.
  for (const TrajectoryId id : {TrajectoryId{500}, TrajectoryId{501},
                                TrajectoryId{504}, TrajectoryId{2007}}) {
    ASSERT_TRUE(service.Delete(id).ok());
    erase(id);
  }

  const auto check = [&](const char* phase) {
    for (const Trajectory& q : Queries(table)) {
      for (const size_t k : Ks(live.size())) {
        QueryRequest req;
        req.kind = QueryKind::kKnnSearch;
        req.query = q;
        req.k = k;
        const auto got = service.Execute(req);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(got->neighbors, NaiveTopK(*dist, live, q, k))
            << dist->name() << " " << phase << " k=" << k
            << " query=" << q.id();
      }
    }
  };
  ASSERT_GT(service.delta_ops(), 0u);
  check("before merge");
  ASSERT_TRUE(service.ForceMerge().ok());
  ASSERT_EQ(service.delta_ops(), 0u);
  check("after merge");
}

class KnnOracle : public ::testing::TestWithParam<DistanceType> {};

TEST_P(KnnOracle, EngineMatchesNaiveTopK) {
  ExpectEngineMatchesNaiveTopK(MetricConfig(GetParam()));
}

TEST_P(KnnOracle, ServiceWithDeltaMatchesNaiveTopK) {
  ExpectServiceWithDeltaMatchesNaiveTopK(MetricConfig(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllDistances, KnnOracle,
                         ::testing::Values(DistanceType::kDTW,
                                           DistanceType::kFrechet,
                                           DistanceType::kEDR,
                                           DistanceType::kLCSS,
                                           DistanceType::kERP),
                         [](const auto& info) {
                           return DistanceTypeName(info.param);
                         });

/// The cell bound (Lemma 5.6) is off by default; both oracles run with it
/// explicitly off and on for the two distances it applies to.
class KnnOracleCellBound
    : public ::testing::TestWithParam<std::tuple<DistanceType, bool>> {
 protected:
  DitaConfig Config() const {
    DitaConfig config = MetricConfig(std::get<0>(GetParam()));
    config.verify.enable_cell = std::get<1>(GetParam());
    return config;
  }
};

TEST_P(KnnOracleCellBound, EngineMatchesNaiveTopK) {
  ExpectEngineMatchesNaiveTopK(Config());
}

TEST_P(KnnOracleCellBound, ServiceWithDeltaMatchesNaiveTopK) {
  ExpectServiceWithDeltaMatchesNaiveTopK(Config());
}

INSTANTIATE_TEST_SUITE_P(
    CellOffOn, KnnOracleCellBound,
    ::testing::Combine(::testing::Values(DistanceType::kDTW,
                                         DistanceType::kFrechet),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(DistanceTypeName(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_CellOn" : "_CellOff");
    });

/// Four execution threads run a stage's partition tasks concurrently, so the
/// shared k-th bound is read and tightened from several threads at once.
TEST(KnnOracleThreaded, ConcurrentSweepMatchesNaiveTopK) {
  const DitaConfig config = MetricConfig(DistanceType::kDTW);
  const auto dist = *MakeDistance(DistanceType::kDTW, config.distance_params);
  const Dataset table = TableWithTies(150, 64);
  DitaEngine engine(MakeThreadedCluster(/*execution_threads=*/4), config);
  ASSERT_TRUE(engine.BuildIndex(table).ok());
  for (const Trajectory& q : Queries(table)) {
    for (const size_t k : Ks(table.size())) {
      const auto got = engine.KnnSearch(q, k);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, NaiveTopK(*dist, table.trajectories(), q, k))
          << "k=" << k << " query=" << q.id();
    }
  }
  // A cancelled concurrent sweep still returns a prefix.
  const size_t k = 10;
  const Trajectory& q = table[6];
  const Neighbors full = NaiveTopK(*dist, table.trajectories(), q, k);
  for (const uint64_t cancel_at : {1u, 64u, 256u, 1024u, 4096u}) {
    QueryContext ctx;
    ctx.CancelAfterOps(cancel_at);
    const auto got = engine.KnnSearch(q, k, nullptr, &ctx);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_LE(got->size(), k);
    EXPECT_TRUE(std::equal(got->begin(), got->end(), full.begin()))
        << "cancel_at=" << cancel_at;
  }
}

/// Checks one stopped (or finished) answer against the full one: a prefix,
/// with completeness found / k when the context stopped.
void ExpectPrefix(const Neighbors& got, const Neighbors& full, size_t k,
                  const QueryContext& ctx, const QueryStats& stats) {
  ASSERT_LE(got.size(), full.size());
  EXPECT_TRUE(std::equal(got.begin(), got.end(), full.begin()));
  if (ctx.stopped()) {
    EXPECT_FALSE(stats.termination.ok());
    EXPECT_DOUBLE_EQ(stats.completeness, static_cast<double>(got.size()) /
                                             static_cast<double>(k));
  } else {
    EXPECT_EQ(got, full);
  }
}

TEST(KnnOracleStopped, CancelledOrBudgetedSweepReturnsProvenPrefix) {
  const DitaConfig config = MetricConfig(DistanceType::kDTW);
  const Dataset table = TableWithTies(200, 65);
  DitaEngine engine(MakeCluster(), config);
  ASSERT_TRUE(engine.BuildIndex(table).ok());
  const size_t k = 20;
  const Trajectory& q = table[9];
  const auto full = engine.KnnSearch(q, k);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->size(), k);

  size_t partial = 0;  // stops that returned a non-empty, short prefix
  for (uint64_t cancel_at = 1; cancel_at < 20000;
       cancel_at = cancel_at * 3 / 2 + 1) {
    QueryContext ctx;
    ctx.CancelAfterOps(cancel_at);
    QueryStats stats;
    const auto got = engine.KnnSearch(q, k, &stats, &ctx);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    SCOPED_TRACE("cancel_at=" + std::to_string(cancel_at));
    ExpectPrefix(*got, *full, k, ctx, stats);
    if (ctx.stopped() && !got->empty() && got->size() < k) ++partial;
  }
  for (const uint64_t cells : {1ull, 2000ull, 20000ull, 80000ull}) {
    QueryContext ctx;
    ResourceBudget budget;
    budget.max_dp_cells = cells;
    ctx.set_budget(budget);
    QueryStats stats;
    const auto got = engine.KnnSearch(q, k, &stats, &ctx);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    SCOPED_TRACE("max_dp_cells=" + std::to_string(cells));
    ExpectPrefix(*got, *full, k, ctx, stats);
    if (ctx.stopped()) {
      EXPECT_EQ(stats.termination.code(), Status::Code::kResourceExhausted);
      if (!got->empty() && got->size() < k) ++partial;
    }
  }
  // The prefix rule is not vacuous: some stops kept part of the answer.
  EXPECT_GT(partial, 0u);
}

TEST(KnnOracleStopped, ServiceStoppedSweepIsPrefixOfLiveAnswer) {
  DitaConfig config = MetricConfig(DistanceType::kDTW);
  config.serving.synchronous_merge = true;
  config.serving.merge_threshold = 1000;
  const Dataset table = TableWithTies(200, 66);
  DitaService service(MakeCluster(), config);
  ASSERT_TRUE(service.Start(table).ok());
  ASSERT_TRUE(service.Insert(Trajectory(301, table[9].points())).ok());
  const Dataset fresh = CityDataset(10, 67, kShape);
  for (size_t i = 0; i < fresh.size(); ++i) {
    ASSERT_TRUE(
        service.Insert(Trajectory(5000 + static_cast<TrajectoryId>(i),
                                  fresh[i].points()))
            .ok());
  }
  ASSERT_TRUE(service.Delete(509).ok());

  const size_t k = 20;
  QueryRequest req;
  req.kind = QueryKind::kKnnSearch;
  req.query = table[9];
  req.k = k;
  const auto full = service.Execute(req);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->neighbors.size(), k);
  for (uint64_t cancel_at = 1; cancel_at < 20000;
       cancel_at = cancel_at * 2 + 1) {
    QueryContext ctx;
    ctx.CancelAfterOps(cancel_at);
    QueryRequest stopped = req;
    stopped.ctx = &ctx;
    const auto got = service.Execute(stopped);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    SCOPED_TRACE("cancel_at=" + std::to_string(cancel_at));
    ExpectPrefix(got->neighbors, full->neighbors, k, ctx, got->search_stats);
  }
}

}  // namespace
}  // namespace dita
