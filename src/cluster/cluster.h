#ifndef DITA_CLUSTER_CLUSTER_H_
#define DITA_CLUSTER_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/fault_injector.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/query_context.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace dita {

/// Virtual time accumulated by one simulated worker.
struct WorkerStats {
  /// Measured CPU seconds of tasks executed on this worker.
  double compute_seconds = 0.0;
  /// Bytes this worker shipped to other workers.
  uint64_t bytes_sent = 0;
  /// Simulated transmission time (bytes_sent / bandwidth).
  double network_seconds = 0.0;
  /// Virtual seconds this worker sat in retry backoff waits.
  double backoff_seconds = 0.0;
  /// Task attempts executed here (first tries + retries + speculative
  /// backups).
  uint64_t task_attempts = 0;
  /// Attempts beyond the first for a task charged to this worker.
  uint64_t task_retries = 0;
  /// False once the worker has been crashed by fault injection.
  bool alive = true;

  double TotalSeconds() const {
    return compute_seconds + network_seconds + backoff_seconds;
  }
};

/// Aggregate fault-handling counters for a cluster (or, as a delta, for one
/// operation on a shared cluster). All costs here are *also* charged into
/// the per-worker virtual totals; this is the observability summary.
struct FaultStats {
  /// Task attempts across all stages (>= number of tasks run).
  uint64_t task_attempts = 0;
  /// Injected transient attempt failures.
  uint64_t transient_failures = 0;
  /// Retries performed after transient failures.
  uint64_t retries = 0;
  /// Workers permanently lost to injected crashes.
  uint64_t worker_crashes = 0;
  /// Tasks moved off a dead worker onto a survivor.
  uint64_t tasks_reassigned = 0;
  /// Bytes re-shipped to rebuild lost partitions on survivors.
  uint64_t recovery_bytes = 0;
  /// CPU seconds of lineage-style recomputation charged to survivors.
  double recovery_seconds = 0.0;
  /// Virtual seconds spent in retry backoff waits.
  double backoff_seconds = 0.0;
  /// Speculative backup tasks launched / backups that beat the original.
  uint64_t speculative_launches = 0;
  uint64_t speculative_wins = 0;
};

/// Configuration of the simulated cluster.
struct ClusterConfig {
  /// Number of workers ("cores" in the paper's scale-up plots: each Spark
  /// core executes one partition task at a time, which is exactly what a
  /// worker models here).
  size_t num_workers = 16;
  /// Simulated network bandwidth per worker, bytes/second. The default
  /// models the paper's Gigabit Ethernet (~125 MB/s).
  double bandwidth_bytes_per_sec = 125e6;
  /// Real execution threads used to run tasks; accounting is independent of
  /// this, so answers and virtual times do not depend on it. 0 means one
  /// thread.
  size_t execution_threads = 0;

  /// Fault-handling policy (mirrors Spark's spark.task.maxFailures and
  /// speculation knobs). A task attempt that fails transiently is retried
  /// up to `max_task_attempts` total attempts, waiting an exponentially
  /// growing backoff (charged as virtual time) between attempts.
  size_t max_task_attempts = 4;
  double retry_backoff_seconds = 0.05;
  double retry_backoff_cap_seconds = 1.0;
  /// Speculative execution: when a task's virtual runtime exceeds
  /// `speculation_multiplier` x the stage median, a backup attempt is
  /// launched on the least-loaded live worker and the first finisher wins.
  /// 0 disables speculation.
  double speculation_multiplier = 0.0;
};

/// Per-stage execution options.
struct StageOptions {
  /// Stage label used in error messages and trace spans.
  std::string name;
  /// Optional cooperative stop token for the query this stage belongs to.
  /// Once it reads stopped, task bodies that have not started yet are
  /// skipped (their TaskRun is marked skipped, no virtual time charged,
  /// no retries or speculation), the transient-retry loop stops retrying,
  /// and RunStage reports the token's status instead of OK. Task bodies
  /// themselves are expected to observe the same token at their own charge
  /// points; the stage-level checks only bound the scheduling overhead.
  QueryContext* ctx = nullptr;
};

/// A deterministic in-process substitute for the paper's Spark cluster.
///
/// Tasks are executed for real; each task's measured CPU time is charged to
/// the worker that owns it, and every cross-worker byte is charged as
/// simulated network time. Experiment latency is then reported as the
/// *makespan* under the paper's own cost model (§6.2):
///     time = driver_seconds + max_w (compute_w + network_w)
/// which preserves scale-up / scale-out / load-balance behaviour without
/// real parallel hardware.
///
/// Fault tolerance mirrors Spark's: an installed FaultInjector (see
/// InjectFaults) deterministically fails task attempts, crashes workers, and
/// slows stragglers. Each task's *function runs exactly once* — like a
/// deterministic Spark lineage recomputation, a retried or recovered task
/// recomputes the identical result — and all failure handling (wasted
/// attempts, backoff waits, recovery re-shipping, speculative backups) is
/// charged in virtual time. Query and join answers are therefore invariant
/// under any injected fault schedule; only the cost model output changes.
class Cluster {
 public:
  /// A unit of work bound to a worker, mirroring a Spark partition task.
  struct Task {
    size_t worker = 0;
    /// The task body. Runs exactly once; a non-OK return fails the stage
    /// (application errors are not retried — they are deterministic).
    std::function<Status()> fn;
    /// Bytes that must be re-shipped to a survivor if this task's worker is
    /// lost (the owning partition's data, i.e. its lineage materialization).
    uint64_t input_bytes = 0;
  };

  explicit Cluster(const ClusterConfig& config);

  size_t num_workers() const { return config_.num_workers; }
  const ClusterConfig& config() const { return config_; }

  /// Round-robin home worker for partition `partition_id`.
  size_t WorkerOf(size_t partition_id) const {
    return partition_id % config_.num_workers;
  }

  /// Installs a deterministic fault schedule; replaces any previous one.
  void InjectFaults(const FaultPlan& plan);
  /// Removes the fault schedule (dead workers stay dead; see ResetStats).
  void ClearFaults();

  /// Turns on span tracing (idempotent) and returns the tracer. Stages,
  /// task attempts, retries, and speculative backups are recorded as spans
  /// on virtual-time ticks (see obs::Tracer for the determinism contract).
  /// Must be called before the cluster is used from multiple threads.
  obs::Tracer* EnableTracing();
  /// Turns on metrics (idempotent) and returns the registry. Cluster-level
  /// counters (cluster.stage.retries, cluster.task.attempts, ...) start
  /// accumulating from this point. Must be called before concurrent use.
  obs::MetricsRegistry* EnableMetrics();
  /// Null when tracing / metrics are disabled: every instrumentation site
  /// then reduces to one null-pointer branch.
  obs::Tracer* tracer() const { return tracer_.get(); }
  obs::MetricsRegistry* metrics() const { return metrics_.get(); }

  /// Executes all tasks (possibly concurrently), charging each task's CPU
  /// time to its worker. Returns after every task completes or is skipped.
  /// Tasks must not touch shared mutable state without their own
  /// synchronization.
  ///
  /// With faults injected, failed attempts are retried with capped
  /// exponential backoff, tasks on crashed workers are recovered on
  /// survivors (recomputation time plus `input_bytes` re-shipped), and
  /// stragglers may be speculatively duplicated. If every worker a stage
  /// needs is dead, returns Status::Unavailable. Once `options.ctx` reads
  /// stopped, task bodies not yet started are skipped and the stage returns
  /// the context's status; a skipped body never runs, so a caller tells
  /// which outputs to keep from what the bodies themselves recorded (a
  /// completion flag set as the body's last step).
  Status RunStage(std::vector<Task> tasks, const StageOptions& options = {});

  /// Adds CPU seconds to the cluster task currently executing on this
  /// thread. Task bodies that offload work to helper threads (e.g. batched
  /// verification chunked over an engine-local pool) must call this with the
  /// helpers' measured CPU time: task runtimes are measured with a
  /// per-thread clock, so offloaded work would otherwise escape the
  /// virtual-time ledger and deflate simulated makespans. No-op when no task
  /// is executing on the calling thread.
  static void ChargeCurrentTask(double seconds);

  /// Charges `bytes` of traffic from `from` to `to`. Same-worker transfers
  /// are free (in-memory). Thread-safe.
  void RecordTransfer(size_t from, size_t to, uint64_t bytes);

  /// Charges sequential driver-side work (global index probing, planning,
  /// collecting results).
  void RecordDriverCompute(double seconds);

  /// Charges a transfer between a worker and the driver (e.g. DFT's bitmap
  /// collection barrier). Both the worker's send time and the driver's
  /// sequential receive time are charged, making the barrier visible in the
  /// makespan.
  void RecordDriverTransfer(size_t worker, uint64_t bytes);

  /// Makespan under the cost model: driver + slowest worker.
  double MakespanSeconds() const;

  /// Ratio of the busiest to the least-busy worker's total virtual time
  /// (the paper's "un-balanced ratio", Fig. 16). Workers with no recorded
  /// time count as idle; if any worker is fully idle the ratio is computed
  /// against the smallest non-zero load.
  double LoadRatio() const;

  double driver_seconds() const { return driver_seconds_; }
  uint64_t total_bytes_sent() const;
  const std::vector<WorkerStats>& worker_stats() const { return stats_; }

  /// Fault-handling counters accumulated since construction / ResetStats.
  FaultStats fault_stats() const;

  /// Number of stages executed so far; the next RunStage call will be stage
  /// `stages_run()` in FaultPlan coordinates.
  uint64_t stages_run() const;

  /// Workers still alive (not crashed by fault injection).
  size_t num_live_workers() const;

  /// Point-in-time copy of per-worker virtual totals, for measuring the
  /// incremental cost of one operation (a query, a join) on a shared
  /// cluster.
  struct CostSnapshot {
    std::vector<double> worker_totals;
    double driver_seconds = 0.0;
    FaultStats faults;
  };
  CostSnapshot Snapshot() const;

  /// Makespan of the work recorded since `snap`: driver delta plus the
  /// largest per-worker delta.
  double MakespanSince(const CostSnapshot& snap) const;

  /// Load ratio (busiest / least-busy non-idle worker) of the work recorded
  /// since `snap`.
  double LoadRatioSince(const CostSnapshot& snap) const;

  /// Fault counters accumulated since `snap` (element-wise difference).
  FaultStats FaultsSince(const CostSnapshot& snap) const;

  /// Clears all accumulated accounting (stats only, not configuration) and
  /// resurrects crashed workers; the stage counter restarts at 0.
  void ResetStats();

 private:
  /// Per-task result of the single real execution pass.
  struct TaskRun {
    double seconds = 0.0;
    Status status;
    /// True when the task body was skipped because the stage's QueryContext
    /// had already stopped when the task came up for execution.
    bool skipped = false;
  };

  /// Runs every task function exactly once (inline or on the pool),
  /// recording measured CPU seconds and returned status. Tasks coming up
  /// after `ctx` (may be null) reads stopped are skipped.
  Status ExecuteTasks(std::vector<Task>* tasks, QueryContext* ctx,
                      std::vector<TaskRun>* runs);

  /// Runs one task body on the calling thread, on the owning worker's trace
  /// lane, recording its measured seconds and returned status in `run`. A
  /// throwing body is caught here and returned as Internal, so no exception
  /// crosses threads on the pooled path.
  static Status RunTaskBody(const Task& task, size_t index,
                            obs::Tracer* tracer, TaskRun* run);

  /// Least-loaded live worker (ties broken by lowest id), excluding
  /// `exclude` (pass num_workers to exclude nobody). Returns num_workers if
  /// no live worker qualifies. Caller holds mu_.
  size_t LeastLoadedLiveLocked(size_t exclude) const;

  /// Moves a task off its dead worker: picks a survivor, charges the
  /// lineage re-shipping of `input_bytes` from a live peer, and bumps the
  /// recovery counters. Returns the new owner. Caller holds mu_.
  size_t RecoverTaskLocked(uint64_t input_bytes);

  /// Charges a cross-worker transfer. Caller holds mu_.
  void RecordTransferLocked(size_t from, size_t to, uint64_t bytes);

  ClusterConfig config_;
  std::vector<WorkerStats> stats_;
  double driver_seconds_ = 0.0;
  FaultStats fault_stats_;
  uint64_t stages_run_ = 0;
  std::unique_ptr<FaultInjector> injector_;
  /// Observability is opt-in; null means disabled (the default). Set once by
  /// EnableTracing / EnableMetrics before concurrent use, then read-only.
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  obs::CounterHandle m_stages_run_;
  obs::CounterHandle m_task_attempts_;
  obs::CounterHandle m_stage_retries_;
  obs::CounterHandle m_worker_crashes_;
  obs::CounterHandle m_spec_launches_;
  obs::CounterHandle m_bytes_shipped_;
  mutable std::mutex mu_;
};

}  // namespace dita

#endif  // DITA_CLUSTER_CLUSTER_H_
