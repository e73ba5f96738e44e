#include "cluster/cluster.h"

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <utility>

#include <gtest/gtest.h>

#include "util/timer.h"

namespace dita {
namespace {

double SpinFor(double target_cpu_seconds) {
  // Burn CPU deterministically; returns a value to defeat optimization.
  volatile double acc = 0.0;
  CpuTimer timer;
  while (timer.Seconds() < target_cpu_seconds) {
    for (int i = 0; i < 1000; ++i) acc = acc + std::sin(i);
  }
  return acc;
}

TEST(ClusterTest, RejectsBadConfigs) {
  ClusterConfig cfg;
  cfg.num_workers = 2;
  Cluster cluster(cfg);
  Cluster::Task bad_worker{5, [] { return Status::OK(); }};
  EXPECT_FALSE(cluster.RunStage({bad_worker}).ok());
  Cluster::Task no_fn;
  no_fn.worker = 0;
  EXPECT_FALSE(cluster.RunStage({no_fn}).ok());
}

TEST(ClusterTest, RunsTasksAndChargesWorkers) {
  ClusterConfig cfg;
  cfg.num_workers = 2;
  Cluster cluster(cfg);
  std::atomic<int> ran{0};
  std::vector<Cluster::Task> tasks;
  tasks.push_back({0, [&] { ran++; SpinFor(0.01); return Status::OK(); }});
  tasks.push_back({1, [&] { ran++; SpinFor(0.02); return Status::OK(); }});
  ASSERT_TRUE(cluster.RunStage(std::move(tasks)).ok());
  EXPECT_EQ(ran.load(), 2);
  EXPECT_GT(cluster.worker_stats()[0].compute_seconds, 0.005);
  EXPECT_GT(cluster.worker_stats()[1].compute_seconds,
            cluster.worker_stats()[0].compute_seconds);
}

TEST(ClusterTest, ChargeCurrentTaskInflatesTaskSeconds) {
  // Task bodies that offload DP work to helper threads report the helpers'
  // CPU via ChargeCurrentTask; it must be folded into the task's virtual
  // time on both execution paths (inline and pooled).
  for (size_t exec_threads : {size_t(0), size_t(2)}) {
    ClusterConfig cfg;
    cfg.num_workers = 2;
    cfg.execution_threads = exec_threads;
    Cluster cluster(cfg);
    std::vector<Cluster::Task> tasks;
    tasks.push_back({0, [] {
      Cluster::ChargeCurrentTask(0.5);
      return Status::OK();
    }});
    tasks.push_back({1, [] { return Status::OK(); }});
    ASSERT_TRUE(cluster.RunStage(std::move(tasks)).ok());
    EXPECT_GE(cluster.worker_stats()[0].compute_seconds, 0.5);
    EXPECT_LT(cluster.worker_stats()[1].compute_seconds, 0.5);
  }
  // Outside any task the charge has no ledger to land in: must be a no-op.
  Cluster::ChargeCurrentTask(1.0);
}

TEST(ClusterTest, MakespanIsDriverPlusSlowestWorker) {
  ClusterConfig cfg;
  cfg.num_workers = 3;
  Cluster cluster(cfg);
  std::vector<Cluster::Task> tasks;
  tasks.push_back({0, [] { SpinFor(0.01); return Status::OK(); }});
  tasks.push_back({2, [] { SpinFor(0.03); return Status::OK(); }});
  ASSERT_TRUE(cluster.RunStage(std::move(tasks)).ok());
  cluster.RecordDriverCompute(0.5);
  const double slowest = cluster.worker_stats()[2].TotalSeconds();
  EXPECT_NEAR(cluster.MakespanSeconds(), 0.5 + slowest, 1e-9);
}

TEST(ClusterTest, TransfersChargeSenderOnly) {
  ClusterConfig cfg;
  cfg.num_workers = 2;
  cfg.bandwidth_bytes_per_sec = 1000.0;
  Cluster cluster(cfg);
  cluster.RecordTransfer(0, 1, 500);
  EXPECT_EQ(cluster.worker_stats()[0].bytes_sent, 500u);
  EXPECT_NEAR(cluster.worker_stats()[0].network_seconds, 0.5, 1e-12);
  EXPECT_EQ(cluster.worker_stats()[1].bytes_sent, 0u);
  EXPECT_EQ(cluster.total_bytes_sent(), 500u);
}

TEST(ClusterTest, SameWorkerTransferIsFree) {
  ClusterConfig cfg;
  cfg.num_workers = 2;
  Cluster cluster(cfg);
  cluster.RecordTransfer(1, 1, 1 << 20);
  EXPECT_EQ(cluster.total_bytes_sent(), 0u);
  EXPECT_DOUBLE_EQ(cluster.MakespanSeconds(), 0.0);
}

TEST(ClusterTest, LoadRatioReflectsImbalance) {
  ClusterConfig cfg;
  cfg.num_workers = 2;
  cfg.bandwidth_bytes_per_sec = 1.0;  // 1 byte/sec for easy math
  Cluster cluster(cfg);
  EXPECT_DOUBLE_EQ(cluster.LoadRatio(), 1.0);  // all idle
  cluster.RecordTransfer(0, 1, 9);
  cluster.RecordTransfer(1, 0, 3);
  EXPECT_NEAR(cluster.LoadRatio(), 3.0, 1e-9);
}

TEST(ClusterTest, ResetStatsClearsEverything) {
  ClusterConfig cfg;
  cfg.num_workers = 2;
  Cluster cluster(cfg);
  cluster.RecordTransfer(0, 1, 100);
  cluster.RecordDriverCompute(1.0);
  cluster.ResetStats();
  EXPECT_DOUBLE_EQ(cluster.MakespanSeconds(), 0.0);
  EXPECT_EQ(cluster.total_bytes_sent(), 0u);
}

TEST(ClusterTest, DriverTransferChargesWorkerAndDriver) {
  ClusterConfig cfg;
  cfg.num_workers = 2;
  cfg.bandwidth_bytes_per_sec = 100.0;
  Cluster cluster(cfg);
  cluster.RecordDriverTransfer(1, 50);  // 0.5s each way
  EXPECT_NEAR(cluster.worker_stats()[1].network_seconds, 0.5, 1e-12);
  EXPECT_NEAR(cluster.driver_seconds(), 0.5, 1e-12);
  EXPECT_NEAR(cluster.MakespanSeconds(), 1.0, 1e-12);
}

TEST(ClusterTest, SnapshotDeltasIsolateOperations) {
  ClusterConfig cfg;
  cfg.num_workers = 2;
  cfg.bandwidth_bytes_per_sec = 1.0;
  Cluster cluster(cfg);
  cluster.RecordTransfer(0, 1, 10);  // pre-existing load: 10s on worker 0
  auto snap = cluster.Snapshot();
  cluster.RecordTransfer(1, 0, 4);
  cluster.RecordDriverCompute(1.0);
  EXPECT_NEAR(cluster.MakespanSince(snap), 1.0 + 4.0, 1e-12);
  EXPECT_NEAR(cluster.LoadRatioSince(snap), 1.0, 1e-12);  // one active worker
  cluster.RecordTransfer(0, 1, 8);
  EXPECT_NEAR(cluster.LoadRatioSince(snap), 2.0, 1e-12);  // 8s vs 4s
}

TEST(ClusterTest, WorkerOfRoundRobin) {
  ClusterConfig cfg;
  cfg.num_workers = 4;
  Cluster cluster(cfg);
  EXPECT_EQ(cluster.WorkerOf(0), 0u);
  EXPECT_EQ(cluster.WorkerOf(5), 1u);
  EXPECT_EQ(cluster.WorkerOf(11), 3u);
}

/// Makespan shrinks (weakly) as the same fixed task set spreads over more
/// workers — the shape behind the paper's scale-up plots.
TEST(ClusterPropertyTest, MakespanMonotoneInWorkers) {
  double prev = std::numeric_limits<double>::infinity();
  for (size_t workers : {1u, 2u, 4u, 8u}) {
    ClusterConfig cfg;
    cfg.num_workers = workers;
    Cluster cluster(cfg);
    std::vector<Cluster::Task> tasks;
    for (size_t p = 0; p < 8; ++p) {
      tasks.push_back(
          {cluster.WorkerOf(p), [] { SpinFor(0.004); return Status::OK(); }});
    }
    ASSERT_TRUE(cluster.RunStage(std::move(tasks)).ok());
    const double makespan = cluster.MakespanSeconds();
    // Allow 30% measurement noise; the trend (8x spread) dominates it.
    EXPECT_LT(makespan, prev * 1.3) << "workers=" << workers;
    prev = makespan;
  }
}

TEST(ClusterTest, SnapshotEdgeCasesAllIdle) {
  // A snapshot of an all-idle cluster, with no work afterwards: every delta
  // is zero and the load ratio degenerates to 1.
  ClusterConfig cfg;
  cfg.num_workers = 3;
  Cluster cluster(cfg);
  auto snap = cluster.Snapshot();
  EXPECT_DOUBLE_EQ(cluster.MakespanSince(snap), 0.0);
  EXPECT_DOUBLE_EQ(cluster.LoadRatioSince(snap), 1.0);
  EXPECT_DOUBLE_EQ(cluster.MakespanSeconds(), 0.0);
  EXPECT_DOUBLE_EQ(cluster.LoadRatio(), 1.0);
}

TEST(ClusterTest, SnapshotZeroDeltaAfterLoad) {
  // A snapshot taken after work, with nothing since: zero-delta makespan
  // even though absolute totals are nonzero.
  ClusterConfig cfg;
  cfg.num_workers = 2;
  cfg.bandwidth_bytes_per_sec = 1.0;
  Cluster cluster(cfg);
  cluster.RecordTransfer(0, 1, 7);
  cluster.RecordDriverCompute(2.0);
  auto snap = cluster.Snapshot();
  EXPECT_DOUBLE_EQ(cluster.MakespanSince(snap), 0.0);
  EXPECT_DOUBLE_EQ(cluster.LoadRatioSince(snap), 1.0);
  EXPECT_GT(cluster.MakespanSeconds(), 0.0);
}

TEST(ClusterTest, SnapshotSingleWorkerCluster) {
  // One worker: transfers are all local (free), so only driver and compute
  // time can move the delta; the load ratio is always 1.
  ClusterConfig cfg;
  cfg.num_workers = 1;
  Cluster cluster(cfg);
  auto snap = cluster.Snapshot();
  cluster.RecordTransfer(0, 0, 1 << 20);  // local => free
  EXPECT_DOUBLE_EQ(cluster.MakespanSince(snap), 0.0);
  std::vector<Cluster::Task> tasks;
  tasks.push_back({0, [] { SpinFor(0.005); return Status::OK(); }});
  ASSERT_TRUE(cluster.RunStage(std::move(tasks)).ok());
  EXPECT_GT(cluster.MakespanSince(snap), 0.0);
  EXPECT_DOUBLE_EQ(cluster.LoadRatioSince(snap), 1.0);
  EXPECT_DOUBLE_EQ(cluster.LoadRatio(), 1.0);
}

TEST(ClusterFaultTest, TaskErrorFailsStage) {
  ClusterConfig cfg;
  cfg.num_workers = 2;
  Cluster cluster(cfg);
  std::vector<Cluster::Task> tasks;
  tasks.push_back({0, [] { return Status::OK(); }});
  tasks.push_back({1, [] { return Status::Internal("partition corrupt"); }});
  Status s = cluster.RunStage(std::move(tasks));
  EXPECT_EQ(s.code(), Status::Code::kInternal);
}

TEST(ClusterFaultTest, ThrowingTaskSurfacesAsInternal) {
  for (size_t threads : {size_t{0}, size_t{4}}) {
    ClusterConfig cfg;
    cfg.num_workers = 2;
    cfg.execution_threads = threads;
    Cluster cluster(cfg);
    std::vector<Cluster::Task> tasks;
    tasks.push_back({0, []() -> Status { throw std::runtime_error("boom"); }});
    Status s = cluster.RunStage(std::move(tasks));
    EXPECT_EQ(s.code(), Status::Code::kInternal) << "threads=" << threads;
    // The cluster object stays usable after a throwing stage.
    std::vector<Cluster::Task> ok_tasks;
    ok_tasks.push_back({0, [] { return Status::OK(); }});
    EXPECT_TRUE(cluster.RunStage(std::move(ok_tasks)).ok());
  }
}

TEST(ClusterFaultTest, TransientFailuresRetryAndChargeBackoff) {
  ClusterConfig cfg;
  cfg.num_workers = 2;
  cfg.retry_backoff_seconds = 0.5;
  cfg.retry_backoff_cap_seconds = 1.0;
  Cluster cluster(cfg);
  FaultPlan plan;
  plan.seed = 7;
  plan.transient_failure_prob = 1.0;  // every retryable attempt fails
  cluster.InjectFaults(plan);
  std::vector<Cluster::Task> tasks;
  tasks.push_back({0, [] { SpinFor(0.002); return Status::OK(); }});
  ASSERT_TRUE(cluster.RunStage(std::move(tasks)).ok());
  const FaultStats fs = cluster.fault_stats();
  // max_task_attempts=4: attempts 1..3 fail, attempt 4 completes.
  EXPECT_EQ(fs.retries, 3u);
  EXPECT_EQ(fs.task_attempts, 4u);
  // Backoffs 0.5, 1.0 (capped), 1.0 (capped) = 2.5 virtual seconds.
  EXPECT_NEAR(fs.backoff_seconds, 2.5, 1e-12);
  EXPECT_NEAR(cluster.worker_stats()[0].backoff_seconds, 2.5, 1e-12);
  EXPECT_EQ(cluster.worker_stats()[0].task_retries, 3u);
}

TEST(ClusterFaultTest, FaultScheduleIsDeterministic) {
  auto run = [](uint64_t seed) {
    ClusterConfig cfg;
    cfg.num_workers = 4;
    Cluster cluster(cfg);
    FaultPlan plan;
    plan.seed = seed;
    plan.transient_failure_prob = 0.4;
    cluster.InjectFaults(plan);
    for (int stage = 0; stage < 5; ++stage) {
      std::vector<Cluster::Task> tasks;
      for (size_t t = 0; t < 8; ++t) {
        tasks.push_back({t % 4, [] { return Status::OK(); }});
      }
      EXPECT_TRUE(cluster.RunStage(std::move(tasks)).ok());
    }
    return cluster.fault_stats().retries;
  };
  EXPECT_EQ(run(11), run(11));  // same seed => same schedule
  EXPECT_NE(run(11), run(12));  // different seed => different schedule
}

TEST(ClusterFaultTest, WorkerCrashReassignsAndChargesRecovery) {
  ClusterConfig cfg;
  cfg.num_workers = 3;
  cfg.bandwidth_bytes_per_sec = 100.0;
  Cluster cluster(cfg);
  FaultPlan plan;
  plan.crash_worker = 1;
  plan.crash_at_stage = 0;
  cluster.InjectFaults(plan);

  std::atomic<int> ran{0};
  std::vector<Cluster::Task> tasks;
  for (size_t w = 0; w < 3; ++w) {
    tasks.push_back({w, [&] { ran++; return Status::OK(); }, 500});
  }
  ASSERT_TRUE(cluster.RunStage(std::move(tasks)).ok());
  EXPECT_EQ(ran.load(), 3);  // results unaffected by the crash
  EXPECT_EQ(cluster.num_live_workers(), 2u);
  EXPECT_FALSE(cluster.worker_stats()[1].alive);
  const FaultStats fs = cluster.fault_stats();
  EXPECT_EQ(fs.worker_crashes, 1u);
  EXPECT_EQ(fs.tasks_reassigned, 1u);
  EXPECT_EQ(fs.recovery_bytes, 500u);

  // Later stages never schedule onto the blacklisted worker.
  std::vector<Cluster::Task> more;
  more.push_back({1, [] { return Status::OK(); }, 250});
  ASSERT_TRUE(cluster.RunStage(std::move(more)).ok());
  EXPECT_EQ(cluster.fault_stats().tasks_reassigned, 2u);
  EXPECT_EQ(cluster.fault_stats().recovery_bytes, 750u);
}

TEST(ClusterFaultTest, LastWorkerIsNeverCrashed) {
  ClusterConfig cfg;
  cfg.num_workers = 1;
  Cluster cluster(cfg);
  FaultPlan plan;
  plan.crash_worker = 0;
  plan.crash_at_stage = 0;
  cluster.InjectFaults(plan);
  std::vector<Cluster::Task> tasks;
  tasks.push_back({0, [] { return Status::OK(); }});
  EXPECT_TRUE(cluster.RunStage(std::move(tasks)).ok());
  EXPECT_EQ(cluster.num_live_workers(), 1u);
}

TEST(ClusterFaultTest, StragglersSlowVirtualTimeAndSpeculationRecovers) {
  auto makespan = [](double speculation) {
    ClusterConfig cfg;
    cfg.num_workers = 4;
    cfg.speculation_multiplier = speculation;
    Cluster cluster(cfg);
    FaultPlan plan;
    plan.seed = 3;
    plan.straggler_prob = 0.25;
    plan.straggler_multiplier = 50.0;
    cluster.InjectFaults(plan);
    std::vector<Cluster::Task> tasks;
    for (size_t t = 0; t < 8; ++t) {
      tasks.push_back(
          {t % 4, [] { SpinFor(0.002); return Status::OK(); }, 100});
    }
    EXPECT_TRUE(cluster.RunStage(std::move(tasks)).ok());
    return std::make_pair(cluster.MakespanSeconds(), cluster.fault_stats());
  };
  auto [slow, slow_fs] = makespan(0.0);
  auto [spec, spec_fs] = makespan(2.0);
  EXPECT_EQ(slow_fs.speculative_launches, 0u);
  EXPECT_GT(spec_fs.speculative_launches, 0u);
  EXPECT_GT(spec_fs.speculative_wins, 0u);
  // The 50x straggler dominates the un-speculated makespan; the backup cuts
  // it down to roughly the healthy runtime.
  EXPECT_LT(spec, slow);
}

TEST(ClusterCancelTest, StoppedContextSkipsRemainingTasks) {
  // A context that stops mid-stage: the task that cancels runs, later task
  // bodies are skipped, and the stage surfaces the context's status.
  ClusterConfig cfg;
  cfg.num_workers = 1;
  Cluster cluster(cfg);
  QueryContext ctx;
  int ran = 0;
  std::vector<Cluster::Task> tasks;
  tasks.push_back({0, [&] {
    ++ran;
    return Status::OK();
  }});
  tasks.push_back({0, [&] {
    ++ran;
    ctx.Cancel();
    return Status::OK();
  }});
  tasks.push_back({0, [&] {
    ++ran;
    return Status::OK();
  }});
  StageOptions opts;
  opts.name = "search";
  opts.ctx = &ctx;
  Status s = cluster.RunStage(std::move(tasks), opts);
  EXPECT_EQ(s.code(), Status::Code::kCancelled);
  EXPECT_EQ(ran, 2);  // third body never executed
}

TEST(ClusterCancelTest, StoppedContextHaltsTransientRetries) {
  // Retry accounting stops once the query's context has stopped: no further
  // backoff or wasted-attempt charges accumulate for a dead query.
  ClusterConfig cfg;
  cfg.num_workers = 2;
  FaultPlan plan;
  plan.transient_failure_prob = 1.0;  // every permitted attempt fails
  std::vector<Cluster::Task> mk;

  Cluster with_cancel(cfg);
  with_cancel.InjectFaults(plan);
  QueryContext ctx;
  ctx.Cancel();
  std::vector<Cluster::Task> tasks;
  tasks.push_back({0, [] { return Status::OK(); }});
  StageOptions opts;
  opts.ctx = &ctx;
  (void)with_cancel.RunStage(std::move(tasks), opts);
  // The task was skipped outright (ctx stopped before the stage), so no
  // attempts and no backoff were charged at all.
  EXPECT_EQ(with_cancel.fault_stats().retries, 0u);
  EXPECT_EQ(with_cancel.fault_stats().backoff_seconds, 0.0);

  Cluster no_cancel(cfg);
  no_cancel.InjectFaults(plan);
  std::vector<Cluster::Task> tasks2;
  tasks2.push_back({0, [] { return Status::OK(); }});
  ASSERT_TRUE(no_cancel.RunStage(std::move(tasks2)).ok());
  EXPECT_GT(no_cancel.fault_stats().retries, 0u);
  EXPECT_GT(no_cancel.fault_stats().backoff_seconds, 0.0);
}

TEST(ClusterTest, MultiThreadedExecutionAccountsSameTotals) {
  ClusterConfig cfg;
  cfg.num_workers = 4;
  cfg.execution_threads = 4;
  Cluster cluster(cfg);
  std::vector<Cluster::Task> tasks;
  std::atomic<int> ran{0};
  for (size_t p = 0; p < 16; ++p) {
    tasks.push_back({p % 4, [&] { ran++; return Status::OK(); }});
  }
  ASSERT_TRUE(cluster.RunStage(std::move(tasks)).ok());
  EXPECT_EQ(ran.load(), 16);
}

}  // namespace
}  // namespace dita
