#ifndef DITA_PERFBENCH_COMMON_H_
#define DITA_PERFBENCH_COMMON_H_

// Shared plumbing of the repository benchmark: command line, clocks and
// percentiles, seeded randomness, the result report, and the span log of
// the traced run. Everything here sits outside the library and only calls
// its public API.

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/engine.h"
#include "workload/dataset.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small tables and short windows: every workload in a few seconds, with
  /// the same metric set (numbers are not comparable to full runs).
  bool smoke = false;
  /// serve-ingest's offered read rate, reads per second (0: the workload's
  /// own). Set far above capacity, it shows that ops_per_s is the achieved
  /// rate rather than the offered one.
  double read_rate = 0.0;
  /// Where the full report and the traced run's spans are written (empty:
  /// not written).
  std::string report_path;
  std::string spans_path;
  /// Provenance handed in by run.py (the binary cannot see the checkout).
  std::string git_sha = "unknown";
};

/// Parses the flags; exits with code 2 on anything unknown or malformed.
Args ParseArgs(int argc, char** argv);

// ------------------------------------------------------------- clocks --

/// Seconds on the steady clock since process start.
double Now();

/// Busy-free sleep until steady time `t` (seconds, Now() timebase).
void SleepUntil(double t);

// ---------------------------------------------------------- statistics --

double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);

/// A latency distribution as the benchmark reports it: the median and the
/// highest of p99.9 / p99 / p95 / p90 that still has at least ten samples
/// above it, with the sample count. `tail_q` is 0 when even p90 has fewer
/// than ten samples beyond it; `tail` is then the maximum.
struct Dist {
  size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_q = 0.0;
  double p90 = 0.0;  // nearest-rank, regardless of sample count
  double p99 = 0.0;
  double max = 0.0;
  double mean = 0.0;

  /// The tail the end-to-end metric reports: p99 when at least ten samples
  /// lie beyond it, else p90 (the batch join runs a few dozen joins, whose
  /// maximum reads too unsteadily). Fixed rather than "highest qualifying
  /// percentile": deeper percentiles read too unsteadily on a shared host.
  double E2ETail() const {
    return static_cast<double>(n) * 0.01 >= 10.0 ? p99 : p90;
  }
};
Dist Summarize(std::vector<double> v);

/// Peak resident set size of this process, MiB.
double PeakRssMb();

// -------------------------------------------------------- host speed --

/// Host speed per measurement slice, probed only while the workload's own
/// load is paused.
///
/// Why: on a shared host the speed of a core drifts by 10-30% over minutes
/// (other tenants on sibling hardware threads, frequency changes), which
/// would swamp any regression bound. End-to-end times are reported scaled
/// to the reference speed (time x speed; rates / speed), with the raw values
/// in the report file.
///
/// How: every workload cuts its measured time into slices (a set-up, a
/// join, a second of traffic) and stops all of its load between them:
/// clients, generator and writer stop, queued requests drain, a running
/// merge finishes. In that pause it calls Boundary(), which runs a fixed
/// dynamic-programming kernel (benchmark code, L1-resident, ~1 ms) on every
/// core at once, timed in thread CPU time. 1.0 is the reference core; 0.8
/// means the cores currently run 20% slow. A slice's speed is the mean of
/// the probes at its two ends. Because no thread of the program runs during
/// a probe, a change that makes the program slow itself down (contending
/// for cores, sibling hardware threads, caches or memory) cannot also slow
/// the probe and cancel itself out.
class SliceSpeeds {
 public:
  /// Probes now. The caller's load must be paused.
  void Boundary();
  /// Slices measured so far: one fewer than the boundaries.
  size_t slices() const { return probes_.size() < 2 ? 0 : probes_.size() - 1; }
  /// Speed of slice `i`, between boundaries i and i + 1.
  double Of(size_t i) const { return 0.5 * (probes_[i] + probes_[i + 1]); }
  /// Mean speed over all slices (1.0 before there is one).
  double Mean() const;

 private:
  std::vector<double> probes_;
};

// --------------------------------------------------------- randomness --

/// A deterministic stream derived from (seed, stream): independent draws for
/// each thread / purpose without sharing a generator.
std::mt19937_64 Stream(uint64_t seed, uint64_t stream);

/// The table a workload runs on: the Beijing-like generator at `scale`
/// (12000 x scale trajectories) with its own fixed seed. The table stays
/// the same across runs and the run's seed draws the traffic (queries,
/// writes, checked samples): with a table generated from the run's seed,
/// kNN cost alone moved by 22% (IQR / median over ten seeds) from one
/// table to the next.
dita::Dataset MakeTable(double scale);

/// `count` query trajectories drawn with replacement from `table`.
std::vector<dita::Trajectory> DrawQueries(const dita::Dataset& table,
                                          size_t count, std::mt19937_64* rng);

// ------------------------------------------------------------- setup --

/// The configuration every workload runs: the shipped library defaults.
inline dita::DitaConfig ShippedConfig() { return dita::DitaConfig{}; }

/// A cluster with the shipped defaults, except `execution_threads` when
/// non-zero.
std::shared_ptr<dita::Cluster> MakeCluster(size_t execution_threads = 0);

/// JSON object describing the effective configuration.
std::string ConfigJson(const dita::DitaConfig& c, const dita::Cluster& cl,
                       const dita::IndexStats& index);

// ------------------------------------------------------------- report --

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Everything one run reports. `end_to_end` metrics go on the last line of
/// an untraced run, `per_layer` ones on the last line of a traced run; the
/// report file carries both plus provenance and details.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Extra numbers for the report file only (sample counts, per-operation
  /// latency series, table sizes ...).
  std::vector<Metric> details;
  std::string config_json = "{}";
  std::vector<std::string> problems;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void E2E(std::string name, std::string unit, double v) {
    end_to_end.push_back({std::move(name), std::move(unit), v});
  }
  void Layer(std::string name, std::string unit, double v) {
    per_layer.push_back({std::move(name), std::move(unit), v});
  }
  void Detail(std::string name, std::string unit, double v) {
    details.push_back({std::move(name), std::move(unit), v});
  }
  /// Records a failed check: counts it and keeps the first few messages.
  void Fail(const std::string& why);
  /// Adds the latency series `name` (µs samples) to the details.
  void DetailDist(const std::string& name, const Dist& d);
  /// Fails the run for every metric that is not a finite number.
  void CheckFinite();

  bool correct() const { return failed == 0; }
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string ResultLine(bool trace) const;
  /// The full report document.
  std::string FullJson(const Args& args) const;
};

// -------------------------------------------------------------- spans --

/// In-memory span log of the traced run. Each sampled request gets one id;
/// its spans carry name, start, end and the index of their parent span
/// within the same request (-1 for the root). A request's spans are
/// appended in one locked step; the log is written out once, at the end of
/// the run.
class SpanLog {
 public:
  struct Span {
    uint64_t request = 0;
    const char* name = "";
    double start = 0.0;
    double end = 0.0;
    int32_t parent = -1;
    uint32_t thread = 0;
  };

  /// Spans kept in memory at most; requests arriving once the log is full
  /// are dropped whole (the ledger still counts them).
  static constexpr size_t kMaxSpans = 200000;

  /// Appends one request's spans.
  void Append(const std::vector<Span>& spans);

  uint64_t NextRequestId();
  /// Writes every span as Chrome trace-event JSON. Returns false on I/O
  /// failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
};

/// Builds one sampled request's span tree: the root is created first and
/// children refer to it. Buffered locally, flushed to the log on Commit so
/// the hot path takes the log's lock once per request.
class RequestTrace {
 public:
  RequestTrace(SpanLog* log, uint32_t thread)
      : log_(log), id_(log->NextRequestId()), thread_(thread) {}
  /// Records [start, end) as a child of `parent` (-1: root). Returns the
  /// span's index in this request.
  int32_t Span(const char* name, double start, double end, int32_t parent);
  /// A span whose children are recorded before it ends: Open, record the
  /// children with the returned index as parent, then Close.
  int32_t Open(const char* name, double start, int32_t parent) {
    return Span(name, start, start, parent);
  }
  void Close(int32_t span, double end) { local_[span].end = end; }
  void Commit();

 private:
  SpanLog* log_;
  uint64_t id_;
  uint32_t thread_;
  std::vector<SpanLog::Span> local_;
};

// ------------------------------------------------------------ threads --

/// Runs fn(i) for i in [0, n) on up to `threads` threads and joins them.
void ParallelFor(size_t n, size_t threads, const std::function<void(size_t)>& fn);

}  // namespace perfbench

#endif  // DITA_PERFBENCH_COMMON_H_
