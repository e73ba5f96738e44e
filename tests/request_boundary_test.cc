// The request boundary: every public entry point (engine and service
// queries, Submit, ingest, service start, index build, the DataFrame and the
// SQL binder) rejects malformed input with InvalidArgument, through the one
// pair of validators, and a rejection changes no state.

#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "serving/service.h"
#include "sql/dataframe.h"
#include "sql/engine.h"
#include "workload/generator.h"
#include "test_data.h"

namespace dita {
namespace {

/// A shallow, small-leaf trie at the library's default fanouts and
/// epsilon, with 0.02 cells.
DitaConfig DefaultFanoutConfig() {
  DitaConfig config;
  config.build.ng = 3;
  config.build.trie.num_pivots = 3;
  config.build.trie.leaf_capacity = 4;
  config.verify.cell_size = 0.02;
  return config;
}

// The generator's own length profile.
const CityShape kShape{.avg_len = 22, .max_len = 112};

using Named = std::pair<std::string, Trajectory>;

/// Malformed trajectories derived from `good`, under fresh ids from
/// `first_id` on (so no rejection is an "id already live"): a NaN and both
/// infinities in one coordinate each, and a single point.
std::vector<Named> BadTrajectories(const Trajectory& good,
                                   TrajectoryId first_id) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  TrajectoryId id = first_id;
  const auto with = [&](size_t i, double x, double y) {
    std::vector<Point> pts = good.points();
    pts[i] = Point{x, y};
    return Trajectory(id++, std::move(pts));
  };
  return {{"nan x", with(1, nan, good[1].y)},
          {"+inf y", with(0, good[0].x, inf)},
          {"-inf x", with(good.size() - 1, -inf, good.back().y)},
          {"1 point", Trajectory(id, {good.front()})}};
}

QueryRequest Request(QueryKind kind, Trajectory query, double tau) {
  QueryRequest req;
  req.kind = kind;
  req.query = std::move(query);
  req.tau = tau;
  req.k = 3;
  return req;
}

TEST(RequestBoundaryTest, MalformedInputIsInvalidArgument) {
  const DitaConfig config = DefaultFanoutConfig();
  const std::shared_ptr<Cluster> cluster = MakeCluster();
  const Dataset table = CityDataset(60, 68, kShape);
  const Trajectory& good = table[3];
  const std::vector<Named> bad_trajectories = BadTrajectories(good, 9001);

  DitaEngine engine(cluster, config);
  ASSERT_TRUE(engine.BuildIndex(table).ok());
  DitaService service(cluster, config);
  ASSERT_TRUE(service.Start(table).ok());

  std::vector<std::pair<std::string, QueryRequest>> bad_requests;
  for (const auto& [name, t] : bad_trajectories) {
    bad_requests.emplace_back("search query " + name,
                              Request(QueryKind::kSearch, t, 0.01));
    bad_requests.emplace_back("knn query " + name,
                              Request(QueryKind::kKnnSearch, t, 0.0));
  }
  for (const double tau : {std::numeric_limits<double>::quiet_NaN(), -0.5}) {
    const std::string name = "tau " + std::to_string(tau);
    bad_requests.emplace_back("search " + name,
                              Request(QueryKind::kSearch, good, tau));
    bad_requests.emplace_back("join " + name,
                              Request(QueryKind::kJoin, Trajectory(), tau));
  }
  QueryRequest two_targets = Request(QueryKind::kJoin, Trajectory(), 0.01);
  two_targets.join_right = &engine;
  two_targets.join_right_service = &service;
  bad_requests.emplace_back("join with two right tables", two_targets);

  // Every boundary: a label and the status it returned.
  std::vector<std::pair<std::string, Status>> outcomes;
  for (const auto& [name, req] : bad_requests) {
    outcomes.emplace_back("engine Execute, " + name,
                          engine.Execute(req).status());
    outcomes.emplace_back("service Execute, " + name,
                          service.Execute(req).status());
    outcomes.emplace_back("service Submit, " + name,
                          service.Submit(req).get().status());
  }
  const uint64_t version = service.version();
  DataFrameContext context(cluster, config);
  DataFrame frame = context.CreateDataFrame(table).CreateTrieIndex();
  SqlEngine sql(cluster, config);
  for (const auto& [name, t] : bad_trajectories) {
    outcomes.emplace_back("service Insert, " + name, service.Insert(t));
    EXPECT_EQ(service.version(), version) << name;

    Dataset with_bad = table;
    with_bad.Add(t);
    DitaService fresh_service(cluster, config);
    outcomes.emplace_back("service Start, " + name,
                          fresh_service.Start(with_bad));
    DitaEngine fresh_engine(cluster, config);
    outcomes.emplace_back("engine BuildIndex, " + name,
                          fresh_engine.BuildIndex(with_bad));
    EXPECT_FALSE(fresh_engine.indexed()) << name;

    outcomes.emplace_back("DataFrame Insert, " + name, frame.Insert(t));
    EXPECT_EQ(frame.size(), table.size()) << name;
    outcomes.emplace_back("SqlEngine BindTrajectory, " + name,
                          sql.BindTrajectory("q", t));
  }

  for (const auto& [name, status] : outcomes) {
    EXPECT_EQ(status.code(), Status::Code::kInvalidArgument)
        << name << ": " << status.ToString();
  }
  // The service counted each rejected query as an error, never as shed.
  const DitaService::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.errors, 2 * bad_requests.size());
  EXPECT_EQ(stats.shed, 0u);
}

}  // namespace
}  // namespace dita
