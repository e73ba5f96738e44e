#include "cluster/cluster.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/logging.h"
#include "util/timer.h"

namespace dita {

namespace {
// Per-thread ledger of helper-thread CPU charged to the task currently
// running on this thread (Cluster::ChargeCurrentTask). ExecuteTasks zeroes
// it before each task body and folds it into the task's measured seconds
// after, so retries and speculation both see the inflated runtime.
thread_local double t_task_offloaded_seconds = 0.0;
}  // namespace

void Cluster::ChargeCurrentTask(double seconds) {
  if (seconds > 0.0) t_task_offloaded_seconds += seconds;
}

Cluster::Cluster(const ClusterConfig& config) : config_(config) {
  DITA_CHECK(config_.num_workers > 0);
  DITA_CHECK(config_.bandwidth_bytes_per_sec > 0);
  DITA_CHECK(config_.max_task_attempts > 0);
  stats_.resize(config_.num_workers);
}

void Cluster::InjectFaults(const FaultPlan& plan) {
  std::lock_guard<std::mutex> lock(mu_);
  injector_ = std::make_unique<FaultInjector>(plan);
}

void Cluster::ClearFaults() {
  std::lock_guard<std::mutex> lock(mu_);
  injector_.reset();
}

obs::Tracer* Cluster::EnableTracing() {
  std::lock_guard<std::mutex> lock(mu_);
  if (tracer_ == nullptr) tracer_ = std::make_unique<obs::Tracer>();
  return tracer_.get();
}

obs::MetricsRegistry* Cluster::EnableMetrics() {
  std::lock_guard<std::mutex> lock(mu_);
  if (metrics_ == nullptr) {
    metrics_ = std::make_unique<obs::MetricsRegistry>();
    obs::MetricsRegistry* m = metrics_.get();
    m_stages_run_ = {m, "cluster.stages_run"};
    m_task_attempts_ = {m, "cluster.task.attempts"};
    m_stage_retries_ = {m, "cluster.stage.retries"};
    m_worker_crashes_ = {m, "cluster.worker.crashes"};
    m_spec_launches_ = {m, "cluster.speculative.launches"};
    m_bytes_shipped_ = {m, "cluster.bytes_shipped"};
  }
  return metrics_.get();
}

Status Cluster::RunTaskBody(const Task& task, size_t index,
                            obs::Tracer* tracer, TaskRun* run) {
  // Nested spans opened by the task body (verification, candidate
  // collection) land on the owning worker's lane.
  obs::Tracer::ScopedLane lane(obs::WorkerLane(task.worker));
  obs::SpanGuard span(tracer, "task");
  span.Arg("task", index);
  span.Arg("worker", task.worker);
  CpuTimer timer;
  t_task_offloaded_seconds = 0.0;
  Status thrown;
  try {
    run->status = task.fn();
  } catch (const std::exception& e) {
    thrown = Status::Internal(std::string("task threw: ") + e.what());
  } catch (...) {
    thrown = Status::Internal("task threw");
  }
  run->seconds = timer.Seconds() + t_task_offloaded_seconds;
  return thrown;
}

Status Cluster::ExecuteTasks(std::vector<Task>* tasks, QueryContext* ctx,
                             std::vector<TaskRun>* runs) {
  runs->resize(tasks->size());
  const size_t threads =
      config_.execution_threads == 0 ? 1 : config_.execution_threads;
  obs::Tracer* tracer = tracer_.get();
  // One slot per task, written only by the thread running that task; the
  // first failure in task order is the stage's error on both paths.
  std::vector<Status> thrown(tasks->size());
  const auto run_one = [&](size_t i) {
    if (ctx != nullptr && ctx->stopped()) {
      // The query stopped before this task started; skip the body. The
      // accounting pass charges nothing for skipped tasks, so the stop
      // point also bounds the query's virtual cost.
      (*runs)[i].skipped = true;
      return;
    }
    thrown[i] = RunTaskBody((*tasks)[i], i, tracer, &(*runs)[i]);
  };
  if (threads == 1) {
    // Fast path: run inline, no pool overhead.
    for (size_t i = 0; i < tasks->size(); ++i) run_one(i);
  } else {
    ThreadPool pool(threads);
    for (size_t i = 0; i < tasks->size(); ++i) {
      pool.Submit([&run_one, i] { run_one(i); });
    }
    pool.Wait();
  }
  for (const Status& s : thrown) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

size_t Cluster::LeastLoadedLiveLocked(size_t exclude) const {
  size_t best = config_.num_workers;
  double best_load = std::numeric_limits<double>::infinity();
  for (size_t w = 0; w < config_.num_workers; ++w) {
    if (!stats_[w].alive || w == exclude) continue;
    const double load = stats_[w].TotalSeconds();
    if (load < best_load) {
      best_load = load;
      best = w;
    }
  }
  return best;
}

void Cluster::RecordTransferLocked(size_t from, size_t to, uint64_t bytes) {
  if (from == to) return;  // local, in-memory
  m_bytes_shipped_.Add(bytes);
  stats_[from].bytes_sent += bytes;
  stats_[from].network_seconds +=
      static_cast<double>(bytes) / config_.bandwidth_bytes_per_sec;
}

size_t Cluster::RecoverTaskLocked(uint64_t input_bytes) {
  const size_t to = LeastLoadedLiveLocked(config_.num_workers);
  if (to == config_.num_workers) return to;  // nobody left
  ++fault_stats_.tasks_reassigned;
  if (input_bytes > 0) {
    // Lineage re-materialization: the partition's bytes ship to the new
    // owner from a surviving peer (the dead worker's copy is gone).
    size_t src = config_.num_workers;
    for (size_t w = 0; w < config_.num_workers; ++w) {
      if (stats_[w].alive && w != to) {
        src = w;
        break;
      }
    }
    if (src != config_.num_workers) {
      RecordTransferLocked(src, to, input_bytes);
    }
    fault_stats_.recovery_bytes += input_bytes;
  }
  return to;
}

Status Cluster::RunStage(std::vector<Task> tasks, const StageOptions& options) {
  for (const Task& t : tasks) {
    if (t.worker >= config_.num_workers) {
      return Status::InvalidArgument("task bound to nonexistent worker");
    }
    if (!t.fn) return Status::InvalidArgument("task without a function");
  }

  // The stage span wraps both passes, so task / retry / backup spans nest
  // inside it by tick containment.
  obs::SpanGuard stage_span(
      tracer_.get(),
      options.name.empty() ? "stage" : "stage:" + options.name);
  stage_span.Arg("tasks", tasks.size());
  m_stages_run_.Increment();

  // Pass 1: every task function runs exactly once, for real. Retries,
  // recoveries, and speculative backups below recompute *deterministically
  // identical* results (Spark lineage semantics), so re-running the closure
  // is unnecessary — and would duplicate its side effects.
  std::vector<TaskRun> runs;
  const Status exec_status = ExecuteTasks(&tasks, options.ctx, &runs);

  // Pass 2: deterministic virtual-time accounting, including fault
  // handling. Single-threaded under the lock; injection decisions depend
  // only on (seed, stage, task index, attempt), never on scheduling.
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t stage = stages_run_++;
  stage_span.Arg("stage", stage);

  // Permanent worker crash: fires as the stage starts, so this stage's
  // tasks on the victim are lost mid-flight and recovered on survivors.
  size_t crashed_this_stage = config_.num_workers;
  if (injector_ != nullptr) {
    for (size_t w = 0; w < config_.num_workers; ++w) {
      if (!stats_[w].alive || !injector_->CrashesWorkerAt(stage, w)) continue;
      size_t live = 0;
      for (const WorkerStats& s : stats_) live += s.alive ? 1 : 0;
      if (live <= 1) break;  // never kill the last worker
      stats_[w].alive = false;
      ++fault_stats_.worker_crashes;
      m_worker_crashes_.Increment();
      if (tracer_ != nullptr) {
        tracer_->Instant("worker.crash", obs::WorkerLane(w));
      }
      crashed_this_stage = w;
    }
  }

  Status app_error = exec_status;
  std::vector<size_t> owners(tasks.size());
  std::vector<double> runtimes(tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    if (app_error.ok() && !runs[i].status.ok()) app_error = runs[i].status;
    size_t w = tasks[i].worker;
    if (runs[i].skipped) {
      // Never executed (query stopped first): no attempts, no retries, no
      // recovery, no speculation, zero virtual time.
      owners[i] = w;
      runtimes[i] = 0.0;
      continue;
    }

    if (!stats_[w].alive) {
      if (w == crashed_this_stage && injector_ != nullptr) {
        // In-flight work lost with the worker: a deterministic fraction of
        // the task had completed when the crash hit.
        stats_[w].compute_seconds +=
            injector_->LostWorkFraction(stage, i, 0) * runs[i].seconds;
      }
      const size_t recovered = RecoverTaskLocked(tasks[i].input_bytes);
      if (recovered == config_.num_workers) {
        return Status::Unavailable("no live worker to recover task in stage " +
                                   options.name);
      }
      fault_stats_.recovery_seconds += runs[i].seconds;
      w = recovered;
    }

    // Transient attempt failures: charge the wasted partial attempt plus a
    // capped exponential backoff wait, then retry on the same worker. The
    // fault is transient, so the final permitted attempt always completes.
    uint64_t attempt = 1;
    if (injector_ != nullptr) {
      while (attempt < config_.max_task_attempts &&
             injector_->TransientFailure(stage, i, attempt)) {
        // Cancellation observed between retries: a stopped query does not
        // keep burning backoff waits and wasted attempts on virtual time.
        if (options.ctx != nullptr && options.ctx->stopped()) break;
        ++fault_stats_.transient_failures;
        ++fault_stats_.retries;
        ++stats_[w].task_retries;
        m_stage_retries_.Increment();
        if (tracer_ != nullptr) {
          // One span per retried attempt, on the retrying worker's lane.
          const uint64_t id =
              tracer_->BeginSpan("task.retry", obs::WorkerLane(w));
          tracer_->AddArg(id, "task", i);
          tracer_->AddArg(id, "attempt", attempt);
          tracer_->EndSpan(id);
        }
        stats_[w].compute_seconds +=
            injector_->LostWorkFraction(stage, i, attempt) * runs[i].seconds;
        const double backoff =
            std::min(config_.retry_backoff_cap_seconds,
                     config_.retry_backoff_seconds *
                         std::pow(2.0, static_cast<double>(attempt - 1)));
        stats_[w].backoff_seconds += backoff;
        fault_stats_.backoff_seconds += backoff;
        ++attempt;
      }
    }
    stats_[w].task_attempts += attempt;
    fault_stats_.task_attempts += attempt;
    m_task_attempts_.Add(attempt);

    double runtime = runs[i].seconds;
    if (injector_ != nullptr && injector_->IsStraggler(stage, i)) {
      runtime *= injector_->plan().straggler_multiplier;
    }
    owners[i] = w;
    runtimes[i] = runtime;
  }

  // Speculative execution: tasks far beyond the stage median get a backup
  // on the least-loaded live worker; both attempts stop when the first one
  // finishes, so each side is charged the winner's runtime.
  std::vector<bool> speculated(tasks.size(), false);
  if (config_.speculation_multiplier > 0.0 && tasks.size() >= 2) {
    std::vector<double> sorted = runtimes;
    std::sort(sorted.begin(), sorted.end());
    const double median = sorted[sorted.size() / 2];
    if (median > 0.0) {
      for (size_t i = 0; i < tasks.size(); ++i) {
        if (runtimes[i] <= config_.speculation_multiplier * median) continue;
        const size_t backup = LeastLoadedLiveLocked(owners[i]);
        if (backup == config_.num_workers) continue;
        speculated[i] = true;
        ++fault_stats_.speculative_launches;
        ++stats_[backup].task_attempts;
        ++fault_stats_.task_attempts;
        m_spec_launches_.Increment();
        m_task_attempts_.Add(1);
        if (tracer_ != nullptr) {
          const uint64_t id =
              tracer_->BeginSpan("task.backup", obs::WorkerLane(backup));
          tracer_->AddArg(id, "task", i);
          tracer_->AddArg(id, "original_worker", owners[i]);
          tracer_->EndSpan(id);
        }
        RecordTransferLocked(owners[i], backup, tasks[i].input_bytes);
        // The backup runs on a healthy node at the task's measured speed.
        const double backup_runtime = runs[i].seconds;
        if (backup_runtime < runtimes[i]) ++fault_stats_.speculative_wins;
        const double winner = std::min(runtimes[i], backup_runtime);
        stats_[owners[i]].compute_seconds += winner;
        stats_[backup].compute_seconds += winner;
      }
    }
  }
  for (size_t i = 0; i < tasks.size(); ++i) {
    if (speculated[i]) continue;
    if (runs[i].skipped) continue;
    stats_[owners[i]].compute_seconds += runtimes[i];
  }

  if (!app_error.ok()) return app_error;

  if (options.ctx != nullptr && options.ctx->stopped()) {
    // The query's own token stopped the stage; its cause (cancel, deadline,
    // budget) tells the caller how to degrade.
    return options.ctx->ToStatus();
  }
  return Status::OK();
}

void Cluster::RecordTransfer(size_t from, size_t to, uint64_t bytes) {
  DITA_CHECK(from < config_.num_workers && to < config_.num_workers);
  std::lock_guard<std::mutex> lock(mu_);
  RecordTransferLocked(from, to, bytes);
}

void Cluster::RecordDriverCompute(double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  driver_seconds_ += seconds;
}

void Cluster::RecordDriverTransfer(size_t worker, uint64_t bytes) {
  DITA_CHECK(worker < config_.num_workers);
  std::lock_guard<std::mutex> lock(mu_);
  const double secs =
      static_cast<double>(bytes) / config_.bandwidth_bytes_per_sec;
  m_bytes_shipped_.Add(bytes);
  stats_[worker].bytes_sent += bytes;
  stats_[worker].network_seconds += secs;
  driver_seconds_ += secs;
}

double Cluster::MakespanSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  double worst = 0.0;
  for (const WorkerStats& w : stats_) worst = std::max(worst, w.TotalSeconds());
  return driver_seconds_ + worst;
}

double Cluster::LoadRatio() const {
  std::lock_guard<std::mutex> lock(mu_);
  double worst = 0.0;
  double best = std::numeric_limits<double>::infinity();
  for (const WorkerStats& w : stats_) {
    const double t = w.TotalSeconds();
    worst = std::max(worst, t);
    if (t > 0.0) best = std::min(best, t);
  }
  if (worst == 0.0) return 1.0;
  if (!std::isfinite(best)) return 1.0;
  return worst / best;
}

uint64_t Cluster::total_bytes_sent() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const WorkerStats& w : stats_) total += w.bytes_sent;
  return total;
}

FaultStats Cluster::fault_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fault_stats_;
}

uint64_t Cluster::stages_run() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stages_run_;
}

size_t Cluster::num_live_workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t live = 0;
  for (const WorkerStats& w : stats_) live += w.alive ? 1 : 0;
  return live;
}

Cluster::CostSnapshot Cluster::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  CostSnapshot snap;
  snap.worker_totals.reserve(stats_.size());
  for (const WorkerStats& w : stats_) snap.worker_totals.push_back(w.TotalSeconds());
  snap.driver_seconds = driver_seconds_;
  snap.faults = fault_stats_;
  return snap;
}

double Cluster::MakespanSince(const CostSnapshot& snap) const {
  std::lock_guard<std::mutex> lock(mu_);
  DITA_CHECK(snap.worker_totals.size() == stats_.size());
  double worst = 0.0;
  for (size_t i = 0; i < stats_.size(); ++i) {
    worst = std::max(worst, stats_[i].TotalSeconds() - snap.worker_totals[i]);
  }
  return (driver_seconds_ - snap.driver_seconds) + worst;
}

double Cluster::LoadRatioSince(const CostSnapshot& snap) const {
  std::lock_guard<std::mutex> lock(mu_);
  DITA_CHECK(snap.worker_totals.size() == stats_.size());
  double worst = 0.0;
  double best = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < stats_.size(); ++i) {
    const double delta = stats_[i].TotalSeconds() - snap.worker_totals[i];
    worst = std::max(worst, delta);
    if (delta > 0.0) best = std::min(best, delta);
  }
  if (worst == 0.0 || !std::isfinite(best)) return 1.0;
  return worst / best;
}

FaultStats Cluster::FaultsSince(const CostSnapshot& snap) const {
  std::lock_guard<std::mutex> lock(mu_);
  FaultStats d;
  const FaultStats& a = fault_stats_;
  const FaultStats& b = snap.faults;
  d.task_attempts = a.task_attempts - b.task_attempts;
  d.transient_failures = a.transient_failures - b.transient_failures;
  d.retries = a.retries - b.retries;
  d.worker_crashes = a.worker_crashes - b.worker_crashes;
  d.tasks_reassigned = a.tasks_reassigned - b.tasks_reassigned;
  d.recovery_bytes = a.recovery_bytes - b.recovery_bytes;
  d.recovery_seconds = a.recovery_seconds - b.recovery_seconds;
  d.backoff_seconds = a.backoff_seconds - b.backoff_seconds;
  d.speculative_launches = a.speculative_launches - b.speculative_launches;
  d.speculative_wins = a.speculative_wins - b.speculative_wins;
  return d;
}

void Cluster::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  for (WorkerStats& w : stats_) w = WorkerStats{};
  driver_seconds_ = 0.0;
  fault_stats_ = FaultStats{};
  stages_run_ = 0;
}

}  // namespace dita
