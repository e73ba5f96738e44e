// The serving runtime: the unified Execute() API and its legacy aliases,
// the fair-share QueryScheduler (the service's one admission point), and
// DitaService's streaming ingest with epoch-snapshotted incremental
// indexes. The load-bearing invariant throughout: for ANY interleaving of
// inserts, deletes, queries, and epoch merges, the service answers exactly
// what a fresh batch DitaEngine built on the equivalent live set would
// answer — the delta scan uses the same verification predicate as the
// indexed path, so serving never trades exactness for freshness.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "serving/scheduler.h"
#include "serving/service.h"
#include "util/query_context.h"
#include "workload/generator.h"
#include "test_data.h"

namespace dita {
namespace {

/// Re-ids a trajectory so insert pools never collide with base ids.
Trajectory WithId(const Trajectory& t, TrajectoryId id) {
  return Trajectory(id, t.points());
}

template <typename T>
std::vector<T> Sorted(std::vector<T> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// ------------------------------------------------------------------------
// Satellite 1: the legacy wrappers are exact aliases of Execute().
// ------------------------------------------------------------------------

class ExecuteAliasTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = CityDataset(200, 77);
    cluster_ = MakeCluster();
    engine_ = std::make_unique<DitaEngine>(cluster_, SmallConfig());
    ASSERT_TRUE(engine_->BuildIndex(ds_).ok());
  }

  Dataset ds_;
  std::shared_ptr<Cluster> cluster_;
  std::unique_ptr<DitaEngine> engine_;
};

TEST_F(ExecuteAliasTest, SearchWrapperMatchesExecute) {
  for (size_t i = 0; i < 5; ++i) {
    const Trajectory& q = ds_[i * 17];
    DitaEngine::QueryStats stats;
    auto via_wrapper = engine_->Search(q, 0.05, &stats);
    ASSERT_TRUE(via_wrapper.ok());

    QueryRequest req;
    req.kind = QueryKind::kSearch;
    req.query = q;
    req.tau = 0.05;
    auto via_execute = engine_->Execute(req);
    ASSERT_TRUE(via_execute.ok());
    EXPECT_EQ(*via_wrapper, via_execute->ids);
    EXPECT_EQ(stats.results, via_execute->search_stats.results);
    EXPECT_EQ(stats.candidates, via_execute->search_stats.candidates);
  }
}

TEST_F(ExecuteAliasTest, KnnWrapperMatchesExecute) {
  const Trajectory& q = ds_[42];
  auto via_wrapper = engine_->KnnSearch(q, 7);
  ASSERT_TRUE(via_wrapper.ok());

  QueryRequest req;
  req.kind = QueryKind::kKnnSearch;
  req.query = q;
  req.k = 7;
  auto via_execute = engine_->Execute(req);
  ASSERT_TRUE(via_execute.ok());
  EXPECT_EQ(*via_wrapper, via_execute->neighbors);
  EXPECT_EQ(via_execute->neighbors.size(), 7u);
}

TEST_F(ExecuteAliasTest, JoinWrapperMatchesExecute) {
  auto via_wrapper = engine_->Join(*engine_, 0.02);
  ASSERT_TRUE(via_wrapper.ok());

  QueryRequest req;
  req.kind = QueryKind::kJoin;
  req.tau = 0.02;
  req.join_right = engine_.get();
  auto via_execute = engine_->Execute(req);
  ASSERT_TRUE(via_execute.ok());
  EXPECT_EQ(Sorted(*via_wrapper), Sorted(via_execute->pairs));
  // Self-join: every trajectory matches itself, so the result is nonempty.
  EXPECT_GE(via_execute->pairs.size(), ds_.size());
}

TEST_F(ExecuteAliasTest, ExecuteValidatesPerKind) {
  // Unbuilt engine keeps the legacy error text.
  DitaEngine fresh(cluster_, SmallConfig());
  QueryRequest req;
  req.kind = QueryKind::kSearch;
  req.query = ds_[0];
  req.tau = 0.05;
  const auto unbuilt = fresh.Execute(req);
  EXPECT_FALSE(unbuilt.ok());

  // k == 0 is an empty answer, not an error; k > n is an error.
  QueryRequest knn;
  knn.kind = QueryKind::kKnnSearch;
  knn.query = ds_[0];
  knn.k = 0;
  auto empty = engine_->Execute(knn);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->neighbors.empty());
  knn.k = ds_.size() + 1;
  EXPECT_FALSE(engine_->Execute(knn).ok());

  // Service-level join targets are rejected by the bare engine.
  QueryRequest join;
  join.kind = QueryKind::kJoin;
  join.tau = 0.02;
  join.join_right_service = reinterpret_cast<const DitaService*>(engine_.get());
  EXPECT_FALSE(engine_->Execute(join).ok());
}

TEST_F(ExecuteAliasTest, EstimateQueryCostIsPositive) {
  QueryRequest search;
  search.kind = QueryKind::kSearch;
  search.query = ds_[0];
  search.tau = 0.05;
  EXPECT_GE(engine_->EstimateQueryCost(search), 1u);

  QueryRequest knn;
  knn.kind = QueryKind::kKnnSearch;
  knn.query = ds_[0];
  knn.k = 5;
  EXPECT_GE(engine_->EstimateQueryCost(knn), 1u);

  QueryRequest join;
  join.kind = QueryKind::kJoin;
  join.tau = 0.05;
  join.join_right = engine_.get();
  // A join touches partition pairs; it must cost at least as much as the
  // broadest single probe.
  EXPECT_GE(engine_->EstimateQueryCost(join),
            engine_->EstimateQueryCost(search));
}

// ------------------------------------------------------------------------
// QueryScheduler: fair-share slot math, the count bound, shedding, and the
// FIFO queue with bounded bypass.
// ------------------------------------------------------------------------

TEST(QuerySchedulerTest, SlotShareHalvesPerPriorityLevel) {
  QueryScheduler::Options opts;
  opts.slots = 16;
  QueryScheduler sched(opts);
  // Cost above the share clamps to the share; priority halves the share.
  EXPECT_EQ(sched.SlotsFor(0, 1000), 16u);
  EXPECT_EQ(sched.SlotsFor(1, 1000), 8u);
  EXPECT_EQ(sched.SlotsFor(2, 1000), 4u);
  EXPECT_EQ(sched.SlotsFor(4, 1000), 1u);
  // Deep priorities and negative inputs stay sane: at least one slot.
  EXPECT_EQ(sched.SlotsFor(30, 1000), 1u);
  EXPECT_EQ(sched.SlotsFor(-3, 1000), 16u);
  // Cost below the share is taken as-is (small queries stay small).
  EXPECT_EQ(sched.SlotsFor(0, 3), 3u);
  EXPECT_EQ(sched.SlotsFor(1, 1), 1u);
  EXPECT_EQ(sched.SlotsFor(0, 0), 1u);
}

TEST(QuerySchedulerTest, FastPathAdmitsUpToMaxInflight) {
  QueryScheduler::Options opts;
  opts.slots = 8;
  opts.max_inflight = 2;
  opts.max_queued = 0;
  QueryScheduler sched(opts);
  QueryScheduler::Grant g1, g2;
  EXPECT_TRUE(sched.Acquire(0, 1, nullptr, &g1).ok());
  EXPECT_TRUE(sched.Acquire(0, 1, nullptr, &g2).ok());
  EXPECT_EQ(sched.active(), 2u);
  // Third query: slots are free but the count bound is reached, and with no
  // queue capacity it is shed immediately.
  QueryScheduler::Grant g3;
  const Status s = sched.Acquire(0, 1, nullptr, &g3);
  EXPECT_EQ(s.code(), Status::Code::kUnavailable);
  EXPECT_FALSE(g3.held());
  EXPECT_EQ(sched.shed(), 1u);
  g1.Release();
  EXPECT_EQ(sched.active(), 1u);
  EXPECT_TRUE(sched.Acquire(0, 1, nullptr, &g3).ok());
  EXPECT_EQ(sched.admitted(), 3u);
  EXPECT_EQ(sched.active_high_water(), 2u);
}

TEST(QuerySchedulerTest, GrantReleasesOnDestruction) {
  QueryScheduler::Options opts;
  opts.slots = 1;
  opts.max_queued = 0;
  QueryScheduler sched(opts);
  {
    QueryScheduler::Grant g;
    ASSERT_TRUE(sched.Acquire(0, 1, nullptr, &g).ok());
    EXPECT_EQ(sched.active(), 1u);
    EXPECT_EQ(sched.slots_in_use(), 1u);
  }
  EXPECT_EQ(sched.active(), 0u);
  EXPECT_EQ(sched.slots_in_use(), 0u);
}

TEST(QuerySchedulerTest, AcquireHoldsSlotsUntilReleased) {
  QueryScheduler::Options opts;
  opts.slots = 8;
  QueryScheduler sched(opts);
  QueryScheduler::Grant g;
  ASSERT_TRUE(sched.Acquire(1, 3, nullptr, &g).ok());
  EXPECT_TRUE(g.held());
  EXPECT_EQ(g.slots(), 3u);
  EXPECT_EQ(sched.slots_in_use(), 3u);
  EXPECT_EQ(sched.active(), 1u);
  g.Release();
  EXPECT_EQ(sched.slots_in_use(), 0u);
  EXPECT_EQ(sched.admitted(), 1u);
}

TEST(QuerySchedulerTest, ShedsWhenQueueIsFull) {
  QueryScheduler::Options opts;
  opts.slots = 1;
  opts.max_queued = 0;
  QueryScheduler sched(opts);
  QueryScheduler::Grant holder;
  ASSERT_TRUE(sched.Acquire(0, 1, nullptr, &holder).ok());
  QueryScheduler::Grant g;
  const Status s = sched.Acquire(0, 1, nullptr, &g);
  EXPECT_EQ(s.code(), Status::Code::kUnavailable);
  EXPECT_FALSE(g.held());
  EXPECT_EQ(sched.shed(), 1u);
}

TEST(QuerySchedulerTest, CancelledContextAbandonsQueue) {
  QueryScheduler::Options opts;
  opts.slots = 1;
  opts.max_queued = 4;
  QueryScheduler sched(opts);
  QueryScheduler::Grant holder;
  ASSERT_TRUE(sched.Acquire(0, 1, nullptr, &holder).ok());
  QueryContext ctx;
  ctx.Cancel();
  QueryScheduler::Grant g;
  const Status s = sched.Acquire(0, 1, &ctx, &g);
  EXPECT_EQ(s.code(), Status::Code::kCancelled);
  EXPECT_FALSE(g.held());
}

// The scheduler is the service's admission gate: a query that stops while
// it queues for a slot leaves the queue and takes no slot with it.
TEST(QuerySchedulerTest, StoppedQueuedQueryLeavesWithoutASlot) {
  QueryScheduler::Options opts;
  opts.slots = 1;
  opts.max_queued = 4;
  QueryScheduler sched(opts);
  QueryScheduler::Grant holder;
  ASSERT_TRUE(sched.Acquire(0, 1, nullptr, &holder).ok());
  // A queued query whose context is already stopped leaves with its own
  // status rather than waiting forever.
  QueryContext ctx;
  ctx.Cancel();
  QueryScheduler::Grant g;
  const Status s = sched.Acquire(0, 1, &ctx, &g);
  EXPECT_EQ(s.code(), Status::Code::kCancelled);
  EXPECT_FALSE(g.held());
  EXPECT_EQ(sched.active(), 1u);
  // A wall deadline that fires while the query waits ends the wait too:
  // the queue polls the context even though no slot ever frees.
  QueryContext deadline;
  deadline.SetWallDeadlineSeconds(0.02);
  const Status d = sched.Acquire(0, 1, &deadline, &g);
  EXPECT_EQ(d.code(), Status::Code::kDeadlineExceeded);
  EXPECT_FALSE(g.held());
  EXPECT_EQ(sched.active(), 1u);
  EXPECT_EQ(sched.queued(), 0u);
  EXPECT_EQ(sched.shed(), 0u);
}

TEST(QuerySchedulerTest, QueuedQueryAdmittedFifoWhenSlotFrees) {
  QueryScheduler::Options opts;
  opts.slots = 1;
  opts.max_queued = 2;
  QueryScheduler sched(opts);
  QueryScheduler::Grant holder;
  ASSERT_TRUE(sched.Acquire(0, 1, nullptr, &holder).ok());

  std::atomic<int> admitted_order{0};
  int first_pos = 0, second_pos = 0;
  std::thread q1([&] {
    QueryScheduler::Grant g;
    EXPECT_TRUE(sched.Acquire(0, 1, nullptr, &g).ok());
    first_pos = ++admitted_order;
  });
  // Wait until q1 is actually enqueued so FIFO order is observable.
  while (sched.queued() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread q2([&] {
    QueryScheduler::Grant g;
    EXPECT_TRUE(sched.Acquire(0, 1, nullptr, &g).ok());
    second_pos = ++admitted_order;
  });
  while (sched.queued() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  holder.Release();
  q1.join();
  q2.join();
  EXPECT_EQ(sched.admitted(), 3u);
  EXPECT_EQ(sched.active(), 0u);
  EXPECT_EQ(sched.active_high_water(), 1u);
  EXPECT_LT(first_pos, second_pos);  // FIFO: q1 enqueued first, admitted first
}

// A giant join cannot starve point searches (they bypass it while it waits
// for slots), and the bypass bound keeps the giant from starving in return.
TEST(QuerySchedulerTest, SmallQueriesBypassGiantUntilBypassBound) {
  QueryScheduler::Options opts;
  opts.slots = 8;
  opts.max_queued = 8;
  opts.max_bypass = 3;
  QueryScheduler sched(opts);

  // A medium query holds 6 of the 8 slots.
  QueryScheduler::Grant medium;
  ASSERT_TRUE(sched.Acquire(0, 6, nullptr, &medium).ok());

  // The giant join (8 slots) cannot fit and queues.
  std::atomic<bool> giant_admitted{false};
  std::thread giant([&] {
    QueryScheduler::Grant g;
    EXPECT_TRUE(sched.Acquire(0, 8, nullptr, &g).ok());
    giant_admitted = true;
  });
  while (sched.queued() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Point searches (1 slot) fit the free slots and flow past the queued
  // giant — exactly max_bypass times.
  for (int i = 0; i < 3; ++i) {
    QueryScheduler::Grant g;
    ASSERT_TRUE(sched.Acquire(0, 1, nullptr, &g).ok()) << "bypass " << i;
    EXPECT_FALSE(giant_admitted.load());
  }
  EXPECT_EQ(sched.bypasses(), 3u);

  // The bypass allowance is spent: the next point search must wait its
  // turn behind the giant even though its slot would fit.
  std::atomic<bool> small_admitted{false};
  std::thread small([&] {
    QueryScheduler::Grant g;
    EXPECT_TRUE(sched.Acquire(0, 1, nullptr, &g).ok());
    small_admitted = true;
  });
  while (sched.queued() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(small_admitted.load());

  // Freeing the medium query lets the giant (queue head) in first; the
  // small query follows once the giant releases.
  medium.Release();
  giant.join();
  EXPECT_TRUE(giant_admitted.load());
  small.join();
  EXPECT_TRUE(small_admitted.load());
  EXPECT_EQ(sched.active(), 0u);
  // The pool held throughout: never more than 8 slots in use.
  EXPECT_LE(sched.slots_high_water(), 8u);
}

/// A cost above the pool is clamped to `slots`, so the query takes the
/// whole pool and runs alone: later queries queue behind it instead of the
/// oversized query hanging for slots that can never free up.
TEST(QuerySchedulerTest, OversizedCostIsClampedAndRunsAlone) {
  QueryScheduler::Options opts;
  opts.slots = 8;
  opts.max_inflight = 4;
  opts.max_queued = 4;
  QueryScheduler sched(opts);
  QueryScheduler::Grant big;
  ASSERT_TRUE(sched.Acquire(0, 100, nullptr, &big).ok());
  EXPECT_EQ(big.slots(), 8u);
  EXPECT_EQ(sched.active(), 1u);
  EXPECT_EQ(sched.slots_in_use(), 8u);

  std::atomic<bool> small_admitted{false};
  std::thread small([&] {
    QueryScheduler::Grant g;
    EXPECT_TRUE(sched.Acquire(0, 1, nullptr, &g).ok());
    small_admitted = true;
  });
  while (sched.queued() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(small_admitted.load());
  big.Release();
  small.join();
  EXPECT_TRUE(small_admitted.load());
  EXPECT_EQ(sched.slots_in_use(), 0u);
  EXPECT_EQ(sched.slots_high_water(), 8u);
  EXPECT_EQ(sched.active_high_water(), 1u);
}

/// Mixed workload through a live service: bulk self-joins riding with a
/// stream of point searches. The regression this pins down: before cost
/// accounting, the join's admission was indistinguishable from a search's,
/// so a burst of joins could occupy every slot and point searches timed
/// out behind them; now the scheduler charges the join its estimated cost
/// and the searches keep flowing past it.
TEST(QuerySchedulerTest, ServiceMixedWorkloadKeepsPointSearchesFlowing) {
  const Dataset ds = CityDataset(150, 31);
  auto cluster = MakeCluster(4);
  DitaConfig config = SmallConfig();
  config.serving.scheduler_slots = 4;
  config.serving.synchronous_merge = true;
  DitaService service(cluster, config);
  ASSERT_TRUE(service.Start(ds).ok());

  std::atomic<size_t> searches_done{0};
  std::atomic<bool> stop_searches{false};
  std::vector<std::thread> searchers;
  for (int i = 0; i < 3; ++i) {
    searchers.emplace_back([&, i] {
      QueryRequest req;
      req.kind = QueryKind::kSearch;
      req.query = ds[size_t(i) * 11];
      req.tau = 0.05;
      req.priority = 0;  // latency-sensitive
      while (!stop_searches.load()) {
        const auto r = service.Execute(req);
        EXPECT_TRUE(r.ok());
        ++searches_done;
      }
    });
  }
  // Joins start once the searchers are running, and run back to back until
  // three searches have completed while a join was in flight. Counting only
  // those (not thread start-up) is what shows searches flowing past the join;
  // the bound turns starved searches into a failure instead of a hang.
  while (searches_done.load() < 3) std::this_thread::yield();
  QueryRequest join;
  join.kind = QueryKind::kJoin;
  join.tau = 0.02;
  join.priority = 2;  // bulk analytics: smaller share
  size_t during_joins = 0;
  for (int j = 0; j < 500 && during_joins < 3; ++j) {
    const size_t before = searches_done.load();
    EXPECT_TRUE(service.Execute(join).ok());
    during_joins += searches_done.load() - before;
  }
  stop_searches = true;
  for (auto& t : searchers) t.join();

  EXPECT_GE(during_joins, 3u);
  EXPECT_LE(service.scheduler().slots_in_use(), 0u);
  // The join was charged real cost: the pool's high water reflects shared
  // occupancy.
  EXPECT_GE(service.scheduler().slots_high_water(), 2u);
  EXPECT_LE(service.scheduler().slots_high_water(),
            service.scheduler().total_slots());
  EXPECT_EQ(service.scheduler().active(), 0u);
}

// ------------------------------------------------------------------------
// DitaService: ingest, epochs, snapshots.
// ------------------------------------------------------------------------

class DitaServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = CityDataset(160, 7);
    pool_ = CityDataset(60, 8);  // insert pool, re-idded on use
    cluster_ = MakeCluster();
    config_ = SmallConfig();
    config_.serving.synchronous_merge = true;
    config_.serving.merge_threshold = 1000;  // no merges unless forced
  }

  Trajectory PoolAt(size_t i) const {
    return WithId(pool_[i % pool_.size()], TrajectoryId(10000 + i));
  }

  Dataset ds_, pool_;
  std::shared_ptr<Cluster> cluster_;
  DitaConfig config_;
};

TEST_F(DitaServiceTest, UnmutatedServiceMatchesBatchEngine) {
  DitaService service(cluster_, config_);
  ASSERT_TRUE(service.Start(ds_).ok());
  DitaEngine batch(cluster_, SmallConfig());
  ASSERT_TRUE(batch.BuildIndex(ds_).ok());

  EXPECT_EQ(service.epoch(), 0u);
  EXPECT_EQ(service.live_size(), ds_.size());

  QueryRequest req;
  req.kind = QueryKind::kSearch;
  req.query = ds_[3];
  req.tau = 0.05;
  auto served = service.Execute(req);
  ASSERT_TRUE(served.ok());
  auto oracle = batch.Search(ds_[3], 0.05);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(served->ids, *oracle);
  EXPECT_EQ(served->serving.epoch, 0u);
  EXPECT_EQ(served->serving.delta_scanned, 0u);
  EXPECT_NE(service.ExplainLastQuery().find("epoch: 0"), std::string::npos);
}

TEST_F(DitaServiceTest, InsertIsVisibleToTheNextQueryExactly) {
  DitaService service(cluster_, config_);
  ASSERT_TRUE(service.Start(ds_).ok());

  // Insert a duplicate of a base trajectory under a fresh id: distance 0,
  // so any search centered on the original must now also return the twin.
  const Trajectory twin = WithId(ds_[5], 20001);
  ASSERT_TRUE(service.Insert(twin).ok());
  EXPECT_EQ(service.version(), 1u);
  EXPECT_EQ(service.epoch(), 0u);
  EXPECT_EQ(service.live_size(), ds_.size() + 1);

  QueryRequest req;
  req.kind = QueryKind::kSearch;
  req.query = ds_[5];
  req.tau = 0.05;
  auto served = service.Execute(req);
  ASSERT_TRUE(served.ok());
  EXPECT_TRUE(std::binary_search(served->ids.begin(), served->ids.end(),
                                 TrajectoryId(20001)));
  EXPECT_EQ(served->serving.delta_scanned, 1u);
  EXPECT_EQ(served->serving.delta_matches, 1u);
  EXPECT_TRUE(served->serving.delta_funnel.MonotonicallyNonIncreasing());

  // The delta answer is exact: a fresh batch engine over base+twin agrees.
  std::vector<Trajectory> live = ds_.trajectories();
  live.push_back(twin);
  DitaEngine batch(cluster_, SmallConfig());
  ASSERT_TRUE(batch.BuildIndex(Dataset(live)).ok());
  auto oracle = batch.Search(ds_[5], 0.05);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(served->ids, *oracle);
}

TEST_F(DitaServiceTest, DeleteHidesBaseAnswersAndAccountsForThem) {
  DitaService service(cluster_, config_);
  ASSERT_TRUE(service.Start(ds_).ok());

  const TrajectoryId victim = ds_[9].id();
  QueryRequest req;
  req.kind = QueryKind::kSearch;
  req.query = ds_[9];
  req.tau = 0.05;
  auto before = service.Execute(req);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(std::binary_search(before->ids.begin(), before->ids.end(), victim));

  ASSERT_TRUE(service.Delete(victim).ok());
  auto after = service.Execute(req);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(std::binary_search(after->ids.begin(), after->ids.end(), victim));
  EXPECT_GE(after->serving.deleted_filtered, 1u);
  EXPECT_EQ(after->ids.size(), before->ids.size() - 1);
}

TEST_F(DitaServiceTest, IngestValidation) {
  DitaService service(cluster_, config_);
  ASSERT_TRUE(service.Start(ds_).ok());

  // Duplicate live id (base) and duplicate pending insert both rejected.
  EXPECT_FALSE(service.Insert(ds_[0]).ok());
  const Trajectory fresh = PoolAt(0);
  ASSERT_TRUE(service.Insert(fresh).ok());
  EXPECT_FALSE(service.Insert(fresh).ok());

  // Too-short trajectories are rejected with the engine's message.
  EXPECT_FALSE(service.Insert(Trajectory(30000, {Point{0, 0}})).ok());

  // Deleting a pending insert removes it from the buffer outright.
  ASSERT_TRUE(service.Delete(fresh.id()).ok());
  EXPECT_EQ(service.delta_ops(), 0u);
  EXPECT_EQ(service.live_size(), ds_.size());

  // Deleting a dead id is NotFound; double-delete of a base id too.
  EXPECT_EQ(service.Delete(99999).code(), Status::Code::kNotFound);
  ASSERT_TRUE(service.Delete(ds_[0].id()).ok());
  EXPECT_EQ(service.Delete(ds_[0].id()).code(), Status::Code::kNotFound);

  // A deleted base id may be re-inserted (it is no longer live), and is
  // then live again: a second insert of it is rejected.
  ASSERT_TRUE(service.Insert(ds_[0]).ok());
  EXPECT_EQ(service.live_size(), ds_.size());
  EXPECT_EQ(service.Insert(ds_[0]).code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(service.live_size(), ds_.size());
}

TEST_F(DitaServiceTest, EpochMergeFoldsDeltaAndPreservesAnswers) {
  config_.serving.merge_threshold = 8;
  DitaService service(cluster_, config_);
  ASSERT_TRUE(service.Start(ds_).ok());

  std::vector<Trajectory> live = ds_.trajectories();
  for (size_t i = 0; i < 8; ++i) {
    const Trajectory t = PoolAt(i);
    ASSERT_TRUE(service.Insert(t).ok());
    live.push_back(t);
  }
  // The 8th delta op crossed the threshold: a synchronous merge folded the
  // delta into a fresh epoch-1 base.
  EXPECT_EQ(service.epoch(), 1u);
  EXPECT_EQ(service.merges(), 1u);
  EXPECT_EQ(service.delta_ops(), 0u);
  EXPECT_EQ(service.live_size(), live.size());

  DitaEngine batch(cluster_, SmallConfig());
  ASSERT_TRUE(batch.BuildIndex(Dataset(live)).ok());
  QueryRequest req;
  req.kind = QueryKind::kSearch;
  req.query = pool_[2];
  req.tau = 0.05;
  auto served = service.Execute(req);
  ASSERT_TRUE(served.ok());
  auto oracle = batch.Search(pool_[2], 0.05);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(served->ids, *oracle);
  // Post-merge queries hit the new base, not a delta scan.
  EXPECT_EQ(served->serving.delta_scanned, 0u);
  EXPECT_EQ(served->serving.epoch, 1u);
  EXPECT_NE(service.ExplainLastQuery().find("epoch: 1"), std::string::npos);
}

TEST_F(DitaServiceTest, MergeCanDeleteEverythingAndServiceKeepsServing) {
  const Dataset tiny = CityDataset(12, 3);
  DitaService service(cluster_, config_);
  ASSERT_TRUE(service.Start(tiny).ok());
  for (const Trajectory& t : tiny.trajectories()) {
    ASSERT_TRUE(service.Delete(t.id()).ok());
  }
  ASSERT_TRUE(service.ForceMerge().ok());
  EXPECT_EQ(service.epoch(), 1u);
  EXPECT_EQ(service.live_size(), 0u);

  QueryRequest req;
  req.kind = QueryKind::kSearch;
  req.query = tiny[0];
  req.tau = 0.5;
  auto served = service.Execute(req);
  ASSERT_TRUE(served.ok());
  EXPECT_TRUE(served->ids.empty());

  // kNN on an empty table: k exceeds the (zero) cardinality.
  QueryRequest knn;
  knn.kind = QueryKind::kKnnSearch;
  knn.query = tiny[0];
  knn.k = 1;
  EXPECT_FALSE(service.Execute(knn).ok());

  // Life goes on: insert into the empty epoch and query it back.
  ASSERT_TRUE(service.Insert(tiny[4]).ok());
  auto revived = service.Execute(req);
  ASSERT_TRUE(revived.ok());
  EXPECT_EQ(revived->ids.size(), 1u);
}

TEST_F(DitaServiceTest, EmptyStartThenStreamingBuildUp) {
  DitaService service(cluster_, config_);
  ASSERT_TRUE(service.Start(Dataset()).ok());
  EXPECT_EQ(service.live_size(), 0u);

  std::vector<Trajectory> live;
  for (size_t i = 0; i < 10; ++i) {
    const Trajectory t = PoolAt(i);
    ASSERT_TRUE(service.Insert(t).ok());
    live.push_back(t);
  }
  DitaEngine batch(cluster_, SmallConfig());
  ASSERT_TRUE(batch.BuildIndex(Dataset(live)).ok());

  QueryRequest req;
  req.kind = QueryKind::kSearch;
  req.query = live[4];
  req.tau = 0.05;
  auto served = service.Execute(req);
  ASSERT_TRUE(served.ok());
  auto oracle = batch.Search(live[4], 0.05);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(served->ids, *oracle);
  EXPECT_EQ(served->serving.delta_scanned, live.size());

  QueryRequest knn;
  knn.kind = QueryKind::kKnnSearch;
  knn.query = live[4];
  knn.k = 3;
  auto knn_served = service.Execute(knn);
  ASSERT_TRUE(knn_served.ok());
  auto knn_oracle = batch.KnnSearch(live[4], 3);
  ASSERT_TRUE(knn_oracle.ok());
  EXPECT_EQ(knn_served->neighbors, *knn_oracle);
}

TEST_F(DitaServiceTest, SubmitMatchesExecuteAndFailsAfterStop) {
  DitaService service(cluster_, config_);
  ASSERT_TRUE(service.Start(ds_).ok());

  QueryRequest req;
  req.kind = QueryKind::kSearch;
  req.query = ds_[1];
  req.tau = 0.05;
  auto direct = service.Execute(req);
  ASSERT_TRUE(direct.ok());
  auto fut = service.Submit(req);
  auto async = fut.get();
  ASSERT_TRUE(async.ok());
  EXPECT_EQ(async->ids, direct->ids);

  service.Stop();
  auto dead = service.Submit(req).get();
  EXPECT_EQ(dead.status().code(), Status::Code::kUnavailable);
  service.Stop();  // idempotent
}

/// Submit racing Stop: a job enqueued while Stop drains the executors must
/// still be run or failed, never left in the queue with a future that only
/// resolves (as broken_promise) when the service is destroyed.
TEST_F(DitaServiceTest, SubmitRacingStopNeverStrandsAFuture) {
  QueryRequest req;
  req.kind = QueryKind::kSearch;
  req.query = ds_[2];
  req.tau = 0.01;
  req.collect_stats = false;
  for (int round = 0; round < 8; ++round) {
    DitaService service(cluster_, config_);
    ASSERT_TRUE(service.Start(ds_).ok());
    constexpr size_t kSubmitters = 4;
    std::atomic<bool> done{false};
    std::atomic<size_t> submitted{0};
    std::vector<std::vector<std::future<Result<QueryResult>>>> futures(
        kSubmitters);
    std::vector<std::thread> submitters;
    for (size_t t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&, t] {
        while (!done.load() && futures[t].size() < 2000) {
          futures[t].push_back(service.Submit(req));
          submitted.fetch_add(1);
        }
      });
    }
    while (submitted.load() < 40) std::this_thread::yield();
    service.Stop();
    done.store(true);
    for (auto& t : submitters) t.join();
    // Checked while the service is still alive: a stranded job's future is
    // not ready here.
    for (auto& per_thread : futures) {
      for (auto& f : per_thread) {
        ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready)
            << "round " << round;
        const auto r = f.get();
        EXPECT_TRUE(r.ok() ||
                    r.status().code() == Status::Code::kUnavailable)
            << r.status().ToString();
      }
    }
  }
}

TEST_F(DitaServiceTest, SchedulerAccountsEveryQuery) {
  DitaService service(cluster_, config_);
  ASSERT_TRUE(service.Start(ds_).ok());
  QueryRequest req;
  req.kind = QueryKind::kSearch;
  req.query = ds_[0];
  req.tau = 0.05;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(service.Execute(req).ok());
  }
  EXPECT_GE(service.scheduler().admitted(), 5u);
  EXPECT_EQ(service.scheduler().active(), 0u);
  EXPECT_LE(service.scheduler().slots_high_water(),
            service.scheduler().total_slots());
}

// ------------------------------------------------------------------------
// Satellite 4: the batch-oracle property. For a seeded interleaving of
// inserts, deletes, and all three query kinds — across epoch merges — the
// service answers bit-identically to a fresh batch engine built on the
// equivalent live set.
// ------------------------------------------------------------------------

/// Jittered copies of the first `n` trajectories of `ds`: each point moves
/// by up to 0.0005, 0.002 or 0.006 per axis, cycling, so their distances to
/// the originals spread across the searched tau.
Dataset JitteredCopies(const Dataset& ds, size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  const double amps[] = {0.0005, 0.002, 0.006};
  std::vector<Trajectory> rows;
  for (size_t i = 0; i < n; ++i) {
    std::vector<Point> points = ds[i].points();
    for (Point& p : points) {
      p.x += amps[i % 3] * unit(rng);
      p.y += amps[i % 3] * unit(rng);
    }
    rows.emplace_back(ds[i].id(), std::move(points));
  }
  return Dataset(std::move(rows));
}

/// Runs the interleaving on a service built from `service_config`. The batch
/// oracle shares its distance but never runs the cell bound, so a service
/// with the bound on is checked against a pipeline without it. With
/// `near_duplicate_inserts` the inserted rows are jittered copies of the
/// base, so the delta scan meets answers just inside tau.
void ExpectSeededInterleavingMatchesBatchEngine(
    const DitaConfig& service_config, bool near_duplicate_inserts = false) {
  DitaConfig oracle_config = service_config;
  oracle_config.verify.enable_cell = false;
  for (const uint64_t seed : {11u, 23u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const Dataset base = CityDataset(120, seed);
    const Dataset pool = near_duplicate_inserts
                             ? JitteredCopies(base, 80, seed + 1)
                             : CityDataset(80, seed + 1);
    auto cluster = MakeCluster();

    DitaConfig config = service_config;
    config.serving.synchronous_merge = true;
    config.serving.merge_threshold = 16;  // merges fire mid-interleaving
    DitaService service(cluster, config);
    ASSERT_TRUE(service.Start(base).ok());

    // Shadow state: id -> trajectory, mirrored on every accepted write.
    std::map<TrajectoryId, Trajectory> live;
    for (const Trajectory& t : base.trajectories()) live[t.id()] = t;

    std::mt19937_64 rng(seed * 1000003);
    size_t next_pool = 0;
    size_t total_results = 0;
    const auto live_vector = [&] {
      std::vector<Trajectory> v;
      v.reserve(live.size());
      for (const auto& [_, t] : live) v.push_back(t);
      return v;
    };

    for (int op = 0; op < 140; ++op) {
      const int dice = int(rng() % 10);
      if (dice < 4 && next_pool < pool.size()) {
        const Trajectory t =
            WithId(pool[next_pool], TrajectoryId(10000 + next_pool));
        ++next_pool;
        ASSERT_TRUE(service.Insert(t).ok());
        live[t.id()] = t;
      } else if (dice < 6 && live.size() > 40) {
        auto it = live.begin();
        std::advance(it, long(rng() % live.size()));
        ASSERT_TRUE(service.Delete(it->first).ok());
        live.erase(it);
      } else if (op % 8 == 7) {
        // Query checkpoint: rebuild a batch engine on the shadow live set
        // and require bit-identical answers from the service.
        DitaEngine batch(cluster, oracle_config);
        ASSERT_TRUE(batch.BuildIndex(Dataset(live_vector())).ok());
        const Trajectory& q = base[(size_t(op) * 13) % base.size()];

        QueryRequest search;
        search.kind = QueryKind::kSearch;
        search.query = q;
        search.tau = 0.05;
        auto served = service.Execute(search);
        ASSERT_TRUE(served.ok());
        auto oracle = batch.Search(q, 0.05);
        ASSERT_TRUE(oracle.ok());
        EXPECT_EQ(served->ids, *oracle) << "search at op " << op;
        total_results += served->ids.size();

        QueryRequest knn;
        knn.kind = QueryKind::kKnnSearch;
        knn.query = q;
        knn.k = 5;
        auto knn_served = service.Execute(knn);
        ASSERT_TRUE(knn_served.ok());
        auto knn_oracle = batch.KnnSearch(q, 5);
        ASSERT_TRUE(knn_oracle.ok());
        EXPECT_EQ(knn_served->neighbors, *knn_oracle) << "knn at op " << op;

        if (op % 24 == 23) {
          QueryRequest join;
          join.kind = QueryKind::kJoin;
          join.tau = 0.02;
          auto join_served = service.Execute(join);
          ASSERT_TRUE(join_served.ok());
          auto join_oracle = batch.Join(batch, 0.02);
          ASSERT_TRUE(join_oracle.ok());
          EXPECT_EQ(Sorted(join_served->pairs), Sorted(*join_oracle))
              << "self-join at op " << op;
        }
      }
    }
    // The run crossed the merge threshold and produced real answers.
    EXPECT_GE(service.merges(), 1u);
    EXPECT_GT(total_results, 0u);

    // Final checkpoint after a forced merge: the folded state still agrees.
    ASSERT_TRUE(service.ForceMerge().ok());
    DitaEngine batch(cluster, oracle_config);
    ASSERT_TRUE(batch.BuildIndex(Dataset(live_vector())).ok());
    QueryRequest search;
    search.kind = QueryKind::kSearch;
    search.query = base[1];
    search.tau = 0.05;
    auto served = service.Execute(search);
    ASSERT_TRUE(served.ok());
    auto oracle = batch.Search(base[1], 0.05);
    ASSERT_TRUE(oracle.ok());
    EXPECT_EQ(served->ids, *oracle);
  }
}

TEST(ServingOracleTest, SeededInterleavingMatchesBatchEngine) {
  ExpectSeededInterleavingMatchesBatchEngine(SmallConfig());
}

/// The cell bound (Lemma 5.6) is off by default; the interleaving runs with
/// it explicitly off and on for the two distances it applies to, inserting
/// near-duplicates of the queried base rows.
class ServingOracleCellBound
    : public ::testing::TestWithParam<std::tuple<DistanceType, bool>> {};

TEST_P(ServingOracleCellBound, SeededInterleavingMatchesBatchEngine) {
  DitaConfig config = SmallConfig();
  config.distance = std::get<0>(GetParam());
  config.verify.enable_cell = std::get<1>(GetParam());
  ExpectSeededInterleavingMatchesBatchEngine(config,
                                             /*near_duplicate_inserts=*/true);
}

INSTANTIATE_TEST_SUITE_P(
    CellOffOn, ServingOracleCellBound,
    ::testing::Combine(::testing::Values(DistanceType::kDTW,
                                         DistanceType::kFrechet),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(DistanceTypeName(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_CellOn" : "_CellOff");
    });

/// Service-level joins between two live tables: both sides' deltas are
/// folded in exactly.
TEST(ServingOracleTest, CrossServiceJoinMatchesBatchEngines) {
  auto cluster = MakeCluster();
  const Dataset left_ds = CityDataset(80, 41);
  const Dataset right_ds = CityDataset(80, 42);
  DitaConfig config = SmallConfig();
  config.serving.synchronous_merge = true;
  config.serving.merge_threshold = 1000;

  DitaService left(cluster, config);
  DitaService right(cluster, config);
  ASSERT_TRUE(left.Start(left_ds).ok());
  ASSERT_TRUE(right.Start(right_ds).ok());

  // Mutate both sides: a twin of a left trajectory lands on the right (a
  // guaranteed cross match), and a right base row dies.
  ASSERT_TRUE(right.Insert(WithId(left_ds[3], 7001)).ok());
  ASSERT_TRUE(left.Insert(WithId(right_ds[5], 7002)).ok());
  ASSERT_TRUE(right.Delete(right_ds[0].id()).ok());

  QueryRequest join;
  join.kind = QueryKind::kJoin;
  join.tau = 0.02;
  join.join_right_service = &right;
  auto served = left.Execute(join);
  ASSERT_TRUE(served.ok());

  std::vector<Trajectory> lv = left_ds.trajectories();
  lv.push_back(WithId(right_ds[5], 7002));
  std::vector<Trajectory> rv;
  for (const Trajectory& t : right_ds.trajectories()) {
    if (t.id() != right_ds[0].id()) rv.push_back(t);
  }
  rv.push_back(WithId(left_ds[3], 7001));
  DitaEngine lbatch(cluster, SmallConfig());
  DitaEngine rbatch(cluster, SmallConfig());
  ASSERT_TRUE(lbatch.BuildIndex(Dataset(lv)).ok());
  ASSERT_TRUE(rbatch.BuildIndex(Dataset(rv)).ok());
  auto oracle = lbatch.Join(rbatch, 0.02);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(Sorted(served->pairs), Sorted(*oracle));
  // The planted twin pair made it through the delta terms.
  const std::pair<TrajectoryId, TrajectoryId> planted{left_ds[3].id(), 7001};
  EXPECT_TRUE(std::find(served->pairs.begin(), served->pairs.end(), planted) !=
              served->pairs.end());
  // The delta funnel is search-only: the join's delta terms probe with
  // stats off, so they append no per-insert funnel levels.
  EXPECT_TRUE(served->serving.delta_funnel.empty());
}

// ------------------------------------------------------------------------
// The write path alone, with no threads and no engine: TableSnapshot::Apply
// and LiveTrajectories against a std::map model, including an epoch
// merge's rebuild of the base from the live set and its replay of the
// writes that raced the rebuild.
// ------------------------------------------------------------------------

using LiveModel = std::map<TrajectoryId, std::vector<Point>>;

/// A snapshot whose base holds `data`, with an empty delta and no engine.
TableSnapshot BaseOnly(std::vector<Trajectory> data) {
  TableSnapshot snap;
  auto ids = std::make_shared<std::unordered_set<TrajectoryId>>();
  for (const Trajectory& t : data) ids->insert(t.id());
  snap.base_data =
      std::make_shared<const std::vector<Trajectory>>(std::move(data));
  snap.base_ids = std::move(ids);
  return snap;
}

/// The snapshot's live set, after checking the delta invariants that
/// snapshot.h states.
LiveModel LiveOf(const TableSnapshot& snap) {
  for (TrajectoryId id : snap.deleted) {
    EXPECT_TRUE(snap.InBase(id)) << "deleted id " << id << " not in base";
  }
  LiveModel live;
  for (const Trajectory& t : snap.LiveTrajectories()) {
    EXPECT_TRUE(live.emplace(t.id(), t.points()).second)
        << "id " << t.id() << " is live twice";
  }
  EXPECT_EQ(live.size(), snap.live_size());
  return live;
}

TEST(ServingWritePathTest, RandomOpsMatchMapModelAcrossRebuildAndReplay) {
  const Dataset base = CityDataset(24, 71);
  const Dataset pool = CityDataset(200, 72);
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    const auto pick = [&rng](const std::vector<TrajectoryId>& ids) {
      return ids[rng() % ids.size()];
    };

    // Draw the op sequence against the model, recording each op's expected
    // status and the live set after it.
    LiveModel model;
    for (const Trajectory& t : base.trajectories()) model[t.id()] = t.points();
    std::vector<TrajectoryId> dead_ids;  // ever live, not live now
    std::vector<WriteOp> ops;
    std::vector<Status::Code> want_code;
    std::vector<LiveModel> want_live;
    size_t next_pool = 0;
    for (int i = 0; i < 60; ++i) {
      std::vector<TrajectoryId> live_base, live_new;
      for (const auto& [id, _] : model) {
        (id < TrajectoryId(base.size()) ? live_base : live_new).push_back(id);
      }
      const Trajectory& geometry = pool[next_pool++ % pool.size()];
      WriteOp op;
      switch (rng() % 6) {
        case 0:  // insert a fresh id
          op = WriteOp{true, WithId(geometry, TrajectoryId(1000 + i)), -1};
          break;
        case 1:  // delete a live insert (pending, or folded by a rebuild)
          op = live_new.empty()
                   ? WriteOp{true, WithId(geometry, TrajectoryId(1000 + i)), -1}
                   : WriteOp{false, Trajectory(), pick(live_new)};
          break;
        case 2:  // delete a live id of the starting base
          op = live_base.empty()
                   ? WriteOp{false, Trajectory(), TrajectoryId(5000 + i)}
                   : WriteOp{false, Trajectory(), pick(live_base)};
          break;
        case 3:  // re-insert a deleted id, with new geometry
          op = dead_ids.empty()
                   ? WriteOp{true, WithId(geometry, TrajectoryId(1000 + i)), -1}
                   : WriteOp{true, WithId(geometry, pick(dead_ids)), -1};
          break;
        case 4:  // invalid: insert an id that is live
          op = WriteOp{true,
                       WithId(geometry, model.empty()
                                            ? TrajectoryId(1000 + i)
                                            : model.begin()->first),
                       -1};
          break;
        default:  // invalid: delete an id that is not live
          op = WriteOp{false, Trajectory(),
                       dead_ids.empty() || rng() % 2 == 0
                           ? TrajectoryId(5000 + i)
                           : pick(dead_ids)};
          break;
      }
      if (op.is_insert) {
        const bool ok = model.emplace(op.insert.id(), op.insert.points()).second;
        want_code.push_back(ok ? Status::Code::kOk
                               : Status::Code::kInvalidArgument);
        if (ok) std::erase(dead_ids, op.insert.id());
      } else {
        const bool ok = model.erase(op.erase) > 0;
        want_code.push_back(ok ? Status::Code::kOk : Status::Code::kNotFound);
        if (ok) dead_ids.push_back(op.erase);
      }
      ops.push_back(std::move(op));
      want_live.push_back(model);
    }

    // Without a split, and with a rebuild of the base from the live set
    // at a random op, after which the remaining ops replay on the new base.
    const size_t split = rng() % (ops.size() + 1);
    for (const bool rebuild : {false, true}) {
      SCOPED_TRACE(rebuild ? "rebuilt at op " + std::to_string(split)
                           : std::string("no rebuild"));
      TableSnapshot snap = BaseOnly(base.trajectories());
      for (size_t i = 0; i < ops.size(); ++i) {
        if (rebuild && i == split) snap = BaseOnly(snap.LiveTrajectories());
        EXPECT_EQ(snap.Apply(ops[i]).code(), want_code[i]) << "op " << i;
        EXPECT_EQ(LiveOf(snap), want_live[i]) << "after op " << i;
      }
    }
  }
}

// ------------------------------------------------------------------------
// Concurrent soak (the TSan target): ingest, background epoch merges, and
// queries race freely; snapshot pinning keeps every answer consistent.
// ------------------------------------------------------------------------

TEST(ServingSoakTest, ConcurrentIngestMergesAndQueriesStayExact) {
  const Dataset base = CityDataset(120, 57);
  // Writers only touch a far-away region, so base-region query answers are
  // version-independent: whatever snapshot a query pins, its answer must
  // equal the batch answer on the untouched base.
  const Dataset far =
      CityDataset(64, 58, {.region = MBR(Point{10, 10}, Point{11, 11})});
  auto cluster = MakeCluster();
  DitaConfig config = SmallConfig();
  config.serving.merge_threshold = 24;  // background merges fire mid-run
  config.serving.scheduler_threads = 2;
  DitaService service(cluster, config);
  ASSERT_TRUE(service.Start(base).ok());

  // Searches and k = 5 kNN reads: the far region is too far away to enter
  // a base-region query's five nearest neighbours.
  constexpr size_t kQueries = 8;
  const auto request = [&base](size_t qi, bool knn) {
    QueryRequest req;
    req.query = base[qi * 11];
    if (knn) {
      req.kind = QueryKind::kKnnSearch;
      req.k = 5;
    } else {
      req.kind = QueryKind::kSearch;
      req.tau = 0.05;
    }
    return req;
  };
  std::vector<std::vector<TrajectoryId>> expected(kQueries);
  std::vector<std::vector<std::pair<TrajectoryId, double>>> expected_knn(
      kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    auto r = service.Execute(request(i, false));
    ASSERT_TRUE(r.ok());
    expected[i] = r->ids;
    auto n = service.Execute(request(i, true));
    ASSERT_TRUE(n.ok());
    ASSERT_EQ(n->neighbors.size(), 5u);
    expected_knn[i] = n->neighbors;
  }

  std::atomic<bool> failed{false};
  std::atomic<bool> join_failed{false};
  std::thread writer([&] {
    for (size_t i = 0; i < far.size(); ++i) {
      const Trajectory t = WithId(far[i], TrajectoryId(50000 + i));
      if (!service.Insert(t).ok()) failed = true;
      if (i >= 5 && i % 3 == 0) {
        if (!service.Delete(TrajectoryId(50000 + i - 5)).ok()) failed = true;
      }
    }
  });
  std::thread merger([&] {
    for (int i = 0; i < 4; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      if (!service.ForceMerge().ok()) failed = true;
    }
  });
  // A low-priority bulk self-join submitted mid-run shares the scheduler
  // with the reads and must still complete.
  std::thread joiner([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    QueryRequest req;
    req.kind = QueryKind::kJoin;
    req.tau = 0.05;
    req.priority = 2;
    if (!service.Submit(req).get().ok()) join_failed = true;
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      for (int i = 0; i < 24; ++i) {
        const size_t qi = size_t(r * 7 + i) % kQueries;
        const bool knn = i % 3 == 1;
        const QueryRequest req = request(qi, knn);
        // Alternate sync and async paths so the executor pool races too.
        auto res = (i % 4 == 3) ? service.Submit(req).get()
                                : service.Execute(req);
        if (!res.ok() || (knn ? res->neighbors != expected_knn[qi]
                              : res->ids != expected[qi])) {
          failed = true;
        }
      }
    });
  }
  writer.join();
  merger.join();
  joiner.join();
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_FALSE(join_failed.load());

  // Settle: fold the remaining delta and re-check against a batch oracle
  // over the final live set.
  ASSERT_TRUE(service.ForceMerge().ok());
  EXPECT_GE(service.merges(), 1u);
  EXPECT_EQ(service.delta_ops(), 0u);
  for (size_t i = 0; i < kQueries; ++i) {
    auto r = service.Execute(request(i, false));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->ids, expected[i]) << "query " << i << " after final merge";
  }

  // The settled self-join equals a fresh batch engine's on the live set the
  // writer left: the base plus every far insert it did not delete again.
  std::vector<Trajectory> live = base.trajectories();
  for (size_t i = 0; i < far.size(); ++i) {
    const bool deleted = i + 5 < far.size() && (i + 5) % 3 == 0;
    if (!deleted) live.push_back(WithId(far[i], TrajectoryId(50000 + i)));
  }
  EXPECT_EQ(service.live_size(), live.size());
  QueryRequest join;
  join.kind = QueryKind::kJoin;
  join.tau = 0.05;
  auto served = service.Execute(join);
  ASSERT_TRUE(served.ok());
  DitaEngine batch(cluster, SmallConfig());
  ASSERT_TRUE(batch.BuildIndex(Dataset(live)).ok());
  auto oracle = batch.Join(batch, 0.05);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(Sorted(served->pairs), Sorted(*oracle));
  service.Stop();
}

// ------------------------------------------------------------------------
// Answer cache: version-tagged LRU over the serving read path. The
// load-bearing invariant: a hit after ANY publish (Insert / Delete /
// merge) is impossible, so cached answers are always what a recompute
// would return.
// ------------------------------------------------------------------------

class AnswerCacheTest : public ::testing::Test {
 protected:
  void StartService(size_t cache_entries, size_t n = 150) {
    ds_ = CityDataset(n, 311);
    DitaConfig config = SmallConfig();
    config.serving.synchronous_merge = true;
    config.serving.merge_threshold = 1000;  // no merges unless forced
    config.serving.answer_cache_entries = cache_entries;
    service_ = std::make_unique<DitaService>(MakeCluster(), config);
    ASSERT_TRUE(service_->Start(ds_).ok());
  }

  QueryRequest SearchReq(const Trajectory& q, double tau = 0.05) const {
    QueryRequest req;
    req.kind = QueryKind::kSearch;
    req.query = q;
    req.tau = tau;
    return req;
  }

  Dataset ds_;
  std::unique_ptr<DitaService> service_;
};

TEST_F(AnswerCacheTest, DisabledByDefaultCountsNothing) {
  StartService(0);
  const QueryRequest req = SearchReq(ds_[3]);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service_->Execute(req).ok());
  }
  EXPECT_EQ(service_->cache_hits(), 0u);
  EXPECT_EQ(service_->cache_misses(), 0u);
  EXPECT_EQ(service_->cache_evictions(), 0u);
  EXPECT_EQ(service_->cache_invalidations(), 0u);
}

TEST_F(AnswerCacheTest, RepeatHitsAndAnswersAreIdentical) {
  StartService(16);
  const QueryRequest req = SearchReq(ds_[7]);
  auto first = service_->Execute(req);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(service_->cache_hits(), 0u);
  EXPECT_EQ(service_->cache_misses(), 1u);
  auto second = service_->Execute(req);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(service_->cache_hits(), 1u);
  EXPECT_EQ(second->ids, first->ids);
  EXPECT_EQ(second->serving.version, first->serving.version);
  // A different tau is a different key.
  auto other = service_->Execute(SearchReq(ds_[7], 0.08));
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(service_->cache_hits(), 1u);
  EXPECT_EQ(service_->cache_misses(), 2u);
}

TEST_F(AnswerCacheTest, HitAfterInsertIsImpossible) {
  StartService(16);
  // Use a live trajectory as its own query so the insert of a clone is
  // guaranteed to change the answer — a stale hit would be observable.
  const Trajectory& q = ds_[11];
  const QueryRequest req = SearchReq(q);
  auto before = service_->Execute(req);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(service_->Execute(req).ok());
  EXPECT_EQ(service_->cache_hits(), 1u);

  ASSERT_TRUE(service_->Insert(WithId(q, 900001)).ok());
  EXPECT_GE(service_->cache_invalidations(), 1u);
  auto after = service_->Execute(req);
  ASSERT_TRUE(after.ok());
  // No hit was served, and the answer reflects the write.
  EXPECT_EQ(service_->cache_hits(), 1u);
  EXPECT_NE(after->ids, before->ids);
  EXPECT_TRUE(std::find(after->ids.begin(), after->ids.end(), 900001) !=
              after->ids.end());
}

TEST_F(AnswerCacheTest, HitAfterDeleteOrMergeIsImpossible) {
  StartService(16);
  const Trajectory& q = ds_[13];
  const QueryRequest req = SearchReq(q);
  auto before = service_->Execute(req);
  ASSERT_TRUE(before.ok());
  ASSERT_FALSE(before->ids.empty());  // q matches itself at least

  // Delete the query's own id: the cached answer must die with it.
  const uint64_t inval0 = service_->cache_invalidations();
  ASSERT_TRUE(service_->Delete(q.id()).ok());
  EXPECT_GT(service_->cache_invalidations(), inval0);
  auto after_delete = service_->Execute(req);
  ASSERT_TRUE(after_delete.ok());
  EXPECT_EQ(service_->cache_hits(), 0u);
  EXPECT_TRUE(std::find(after_delete->ids.begin(), after_delete->ids.end(),
                        q.id()) == after_delete->ids.end());

  // A forced merge publishes a new epoch: again no hit may survive.
  const uint64_t inval1 = service_->cache_invalidations();
  ASSERT_TRUE(service_->ForceMerge().ok());
  EXPECT_GT(service_->cache_invalidations(), inval1);
  auto after_merge = service_->Execute(req);
  ASSERT_TRUE(after_merge.ok());
  EXPECT_EQ(service_->cache_hits(), 0u);
  EXPECT_EQ(after_merge->ids, after_delete->ids);
}

TEST_F(AnswerCacheTest, LruEvictsLeastRecentlyUsed) {
  StartService(2);
  const QueryRequest a = SearchReq(ds_[1]);
  const QueryRequest b = SearchReq(ds_[2]);
  const QueryRequest c = SearchReq(ds_[3]);
  ASSERT_TRUE(service_->Execute(a).ok());
  ASSERT_TRUE(service_->Execute(b).ok());
  ASSERT_TRUE(service_->Execute(c).ok());  // evicts a
  EXPECT_EQ(service_->cache_evictions(), 1u);
  ASSERT_TRUE(service_->Execute(b).ok());  // still resident
  EXPECT_EQ(service_->cache_hits(), 1u);
  ASSERT_TRUE(service_->Execute(a).ok());  // miss: was evicted; evicts c
  EXPECT_EQ(service_->cache_hits(), 1u);
  EXPECT_EQ(service_->cache_evictions(), 2u);
}

TEST_F(AnswerCacheTest, KnnResultsAreCached) {
  StartService(16);
  QueryRequest req;
  req.kind = QueryKind::kKnnSearch;
  req.query = ds_[5];
  req.k = 4;
  auto first = service_->Execute(req);
  ASSERT_TRUE(first.ok());
  auto second = service_->Execute(req);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(service_->cache_hits(), 1u);
  EXPECT_EQ(second->neighbors, first->neighbors);
  // Ingest invalidates kNN entries too.
  ASSERT_TRUE(service_->Insert(WithId(ds_[5], 900002)).ok());
  auto third = service_->Execute(req);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(service_->cache_hits(), 1u);
  EXPECT_NE(third->neighbors, first->neighbors);
}

TEST_F(AnswerCacheTest, CollidingKeysNeverAlias) {
  // Two different requests forced under one digest: the stored request
  // bytes, not the digest, decide a hit.
  AnswerCache cache;
  cache.Configure(4, nullptr);
  const QueryRequest a = SearchReq(Trajectory(1, {{0, 0}, {1, 1}}), 0.05);
  const QueryRequest b = SearchReq(Trajectory(1, {{0, 0}, {1, 1}}), 0.08);
  ASSERT_NE(AnswerCache::RequestBytes(a), AnswerCache::RequestBytes(b));
  const AnswerCache::Key forced{1, 2};
  QueryResult ra;
  ra.ids = {7};
  cache.Store(forced, AnswerCache::RequestBytes(a), 3, ra);

  QueryResult out;
  EXPECT_FALSE(cache.Lookup(forced, AnswerCache::RequestBytes(b), 3, &out));
  EXPECT_TRUE(out.ids.empty());
  ASSERT_TRUE(cache.Lookup(forced, AnswerCache::RequestBytes(a), 3, &out));
  EXPECT_EQ(out.ids, ra.ids);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);

  // Storing b under the same digest replaces a's entry; a now misses.
  QueryResult rb;
  rb.ids = {8, 9};
  cache.Store(forced, AnswerCache::RequestBytes(b), 3, rb);
  EXPECT_FALSE(cache.Lookup(forced, AnswerCache::RequestBytes(a), 3, &out));
  ASSERT_TRUE(cache.Lookup(forced, AnswerCache::RequestBytes(b), 3, &out));
  EXPECT_EQ(out.ids, rb.ids);
}

TEST_F(AnswerCacheTest, ContextCarryingRequestsBypassTheCache) {
  StartService(16);
  QueryContext ctx;
  QueryRequest req = SearchReq(ds_[15]);
  req.ctx = &ctx;
  ASSERT_TRUE(service_->Execute(req).ok());
  ASSERT_TRUE(service_->Execute(req).ok());
  EXPECT_EQ(service_->cache_hits(), 0u);
  EXPECT_EQ(service_->cache_misses(), 0u);
}

}  // namespace
}  // namespace dita
