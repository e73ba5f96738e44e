// End-to-end fault-tolerance properties of the DITA engine on the simulated
// cluster: query and join answers must be invariant under injected faults
// (Spark lineage semantics — recomputation is deterministic), recovery must
// be visible in the cost model, and a virtual deadline must degrade a query
// to a subset of its answer.

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "workload/generator.h"
#include "test_data.h"

namespace dita {
namespace {

std::shared_ptr<Cluster> MakeClusterWithBandwidth(double bandwidth) {
  ClusterConfig cfg;
  cfg.num_workers = 4;
  cfg.bandwidth_bytes_per_sec = bandwidth;
  return std::make_shared<Cluster>(cfg);
}

/// A hostile but survivable fault schedule: transient failures, stragglers
/// with speculation enabled, and a permanent crash during the first
/// post-build stage.
FaultPlan HostilePlan(uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.transient_failure_prob = 0.3;
  plan.straggler_prob = 0.2;
  plan.straggler_multiplier = 8.0;
  plan.crash_worker = 1;
  plan.crash_at_stage = 1;  // stage 0 is the index build
  return plan;
}

/// Acceptance (a): top-k search and join outputs are bit-identical with and
/// without injected faults, across multiple fault-schedule seeds.
TEST(FaultToleranceTest, SearchAndJoinInvariantUnderFaults) {
  const Dataset ds = CityDataset(200, 41);
  const double tau = 0.03;
  const size_t k = 5;

  // Fault-free reference.
  auto clean_cluster = MakeCluster();
  DitaEngine clean(clean_cluster, SmallConfig());
  ASSERT_TRUE(clean.BuildIndex(ds).ok());
  std::vector<std::vector<std::pair<TrajectoryId, double>>> clean_knn;
  for (size_t qi = 0; qi < 3; ++qi) {
    auto r = clean.KnnSearch(ds[qi * 17], k);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    clean_knn.push_back(*r);
  }
  auto clean_join = clean.Join(clean, tau);
  ASSERT_TRUE(clean_join.ok());
  EXPECT_FALSE(clean_join->empty());

  for (uint64_t seed : {101u, 202u, 303u}) {
    auto cluster = MakeCluster();
    {
      ClusterConfig cfg = cluster->config();
      cfg.speculation_multiplier = 2.0;
      cluster = std::make_shared<Cluster>(cfg);
    }
    cluster->InjectFaults(HostilePlan(seed));
    DitaEngine engine(cluster, SmallConfig());
    ASSERT_TRUE(engine.BuildIndex(ds).ok());

    for (size_t qi = 0; qi < 3; ++qi) {
      DitaEngine::QueryStats qstats;
      auto r = engine.KnnSearch(ds[qi * 17], k, &qstats);
      ASSERT_TRUE(r.ok()) << "seed=" << seed << ": " << r.status().ToString();
      EXPECT_EQ(*r, clean_knn[qi]) << "seed=" << seed << " query=" << qi;
    }
    DitaEngine::JoinStats jstats;
    auto join = engine.Join(engine, tau, &jstats);
    ASSERT_TRUE(join.ok()) << "seed=" << seed;
    EXPECT_EQ(*join, *clean_join) << "seed=" << seed;

    // The schedule really injected faults, and the engine surfaced them.
    const FaultStats fs = cluster->fault_stats();
    EXPECT_GT(fs.retries, 0u) << "seed=" << seed;
    EXPECT_GT(fs.task_attempts, fs.retries) << "seed=" << seed;
    EXPECT_EQ(fs.worker_crashes, 1u) << "seed=" << seed;
    EXPECT_EQ(cluster->num_live_workers(), 3u);
    EXPECT_GT(jstats.faults.task_attempts, 0u);
  }
}

/// Acceptance (b): a worker crash mid-join is recovered — nonzero lineage
/// re-shipping is charged and the makespan strictly exceeds the fault-free
/// run's.
TEST(FaultToleranceTest, WorkerCrashMidJoinRecoversWithCharges) {
  const Dataset ds = CityDataset(150, 43);
  // tau = 0 keeps the shipped-byte plan essentially empty and deterministic,
  // so the only macroscopic network cost in the faulty run is crash
  // recovery; the low bandwidth makes that cost dwarf measurement noise.
  const double tau = 0.0;
  const double bandwidth = 50.0;

  auto run = [&](bool inject) {
    auto cluster = MakeClusterWithBandwidth(bandwidth);
    DitaConfig config = SmallConfig();
    config.enable_division_balancing = false;
    DitaEngine engine(cluster, config);
    EXPECT_TRUE(engine.BuildIndex(ds).ok());
    if (inject) {
      FaultPlan plan;
      plan.crash_worker = 0;
      // stages_run() is the upcoming join-ship stage; +1 is the probe
      // stage, i.e. mid-join.
      plan.crash_at_stage = static_cast<int64_t>(cluster->stages_run()) + 1;
      cluster->InjectFaults(plan);
    }
    const Cluster::CostSnapshot snap = cluster->Snapshot();
    DitaEngine::JoinStats stats;
    auto pairs = engine.Join(engine, tau, &stats);
    EXPECT_TRUE(pairs.ok()) << pairs.status().ToString();
    return std::make_tuple(*pairs, cluster->MakespanSince(snap), stats);
  };

  auto [clean_pairs, clean_makespan, clean_stats] = run(false);
  auto [crash_pairs, crash_makespan, crash_stats] = run(true);

  // Identical answers (every trajectory matches at least itself at tau=0).
  EXPECT_FALSE(clean_pairs.empty());
  EXPECT_EQ(crash_pairs, clean_pairs);

  // Recovery happened and was charged.
  EXPECT_EQ(crash_stats.faults.worker_crashes, 1u);
  EXPECT_GT(crash_stats.faults.tasks_reassigned, 0u);
  EXPECT_GT(crash_stats.faults.recovery_bytes, 0u);
  EXPECT_GT(crash_stats.faults.recovery_seconds, 0.0);
  EXPECT_EQ(clean_stats.faults.recovery_bytes, 0u);

  // Lost work costs virtual time: the crashed run is strictly slower.
  EXPECT_GT(crash_makespan, clean_makespan);
}

/// Acceptance (c): catastrophic stragglers under a query's virtual-time
/// deadline end the query instead of hanging it: search and join return OK
/// with a subset of the fault-free answer, tagged kDeadlineExceeded.
TEST(FaultToleranceTest, VirtualDeadlineUnderStragglersDegradesToSubset) {
  const Dataset ds = CityDataset(120, 47);
  auto cluster = MakeCluster();
  DitaEngine engine(cluster, SmallConfig());
  ASSERT_TRUE(engine.BuildIndex(ds).ok());
  auto clean_search = engine.Search(ds[0], 0.05);
  ASSERT_TRUE(clean_search.ok());
  auto clean_join = engine.Join(engine, 0.02);
  ASSERT_TRUE(clean_join.ok());
  ASSERT_FALSE(clean_join->empty());

  // Every post-build task is a catastrophic straggler in virtual time.
  FaultPlan plan;
  plan.straggler_prob = 1.0;
  plan.straggler_multiplier = 1e12;
  cluster->InjectFaults(plan);

  QueryContext search_ctx;
  search_ctx.set_virtual_deadline_seconds(1.0);
  DitaEngine::QueryStats search_stats;
  auto search = engine.Search(ds[0], 0.05, &search_stats, &search_ctx);
  ASSERT_TRUE(search.ok()) << search.status().ToString();
  EXPECT_EQ(search_stats.termination.code(), Status::Code::kDeadlineExceeded);
  EXPECT_TRUE(std::includes(clean_search->begin(), clean_search->end(),
                            search->begin(), search->end()));

  // The deadline is observed after the ship stage, so no probe task runs.
  QueryContext join_ctx;
  join_ctx.set_virtual_deadline_seconds(1.0);
  DitaEngine::JoinStats join_stats;
  auto join = engine.Join(engine, 0.02, &join_stats, &join_ctx);
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  EXPECT_EQ(join_stats.termination.code(), Status::Code::kDeadlineExceeded);
  EXPECT_LT(join_stats.completeness, 1.0);
  EXPECT_TRUE(std::includes(clean_join->begin(), clean_join->end(),
                            join->begin(), join->end()));

  // Clearing the schedule restores normal service on the same engine.
  cluster->ClearFaults();
  auto ok_search = engine.Search(ds[0], 0.05);
  ASSERT_TRUE(ok_search.ok()) << ok_search.status().ToString();
  EXPECT_EQ(*ok_search, *clean_search);
  auto ok_join = engine.Join(engine, 0.02);
  ASSERT_TRUE(ok_join.ok()) << ok_join.status().ToString();
  EXPECT_EQ(*ok_join, *clean_join);
}

/// Per-operation fault summaries isolate concurrent operations on a shared
/// cluster: a clean query between two faulty ones reports zero fault work.
TEST(FaultToleranceTest, FaultStatsAreSnapshotScoped) {
  const Dataset ds = CityDataset(150, 53);
  auto cluster = MakeCluster();
  DitaEngine engine(cluster, SmallConfig());
  ASSERT_TRUE(engine.BuildIndex(ds).ok());

  FaultPlan plan;
  plan.seed = 9;
  plan.transient_failure_prob = 0.95;
  cluster->InjectFaults(plan);
  DitaEngine::QueryStats faulty;
  ASSERT_TRUE(engine.Search(ds[0], 0.05, &faulty).ok());
  EXPECT_GT(faulty.faults.retries, 0u);
  EXPECT_GT(faulty.faults.backoff_seconds, 0.0);

  cluster->ClearFaults();
  DitaEngine::QueryStats clean;
  ASSERT_TRUE(engine.Search(ds[0], 0.05, &clean).ok());
  EXPECT_EQ(clean.faults.retries, 0u);
  EXPECT_EQ(clean.faults.task_attempts, clean.partitions_probed);
  EXPECT_DOUBLE_EQ(clean.faults.backoff_seconds, 0.0);
}

/// Backoff waits are charged into worker virtual time, so a retry-heavy run
/// reports a strictly larger makespan than a clean one.
TEST(FaultToleranceTest, RetriesInflateMakespan) {
  const Dataset ds = CityDataset(150, 59);

  auto run = [&](double failure_prob) {
    ClusterConfig ccfg;
    ccfg.num_workers = 4;
    ccfg.retry_backoff_seconds = 0.5;  // virtual; dwarfs CPU noise
    auto cluster = std::make_shared<Cluster>(ccfg);
    DitaEngine engine(cluster, SmallConfig());
    EXPECT_TRUE(engine.BuildIndex(ds).ok());
    if (failure_prob > 0.0) {
      FaultPlan plan;
      plan.seed = 13;
      plan.transient_failure_prob = failure_prob;
      cluster->InjectFaults(plan);
    }
    const Cluster::CostSnapshot snap = cluster->Snapshot();
    DitaEngine::QueryStats stats;
    auto r = engine.Search(ds[3], 0.05, &stats);
    EXPECT_TRUE(r.ok());
    return std::make_pair(*r, cluster->MakespanSince(snap));
  };

  auto [clean_ids, clean_makespan] = run(0.0);
  auto [faulty_ids, faulty_makespan] = run(0.9);
  EXPECT_EQ(faulty_ids, clean_ids);
  EXPECT_GT(faulty_makespan, clean_makespan);
}

}  // namespace
}  // namespace dita
