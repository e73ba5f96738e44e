#ifndef DITA_PERFBENCH_WORKLOADS_H_
#define DITA_PERFBENCH_WORKLOADS_H_

#include <functional>
#include <vector>

#include "common.h"
#include "core/engine.h"

namespace perfbench {

class Shadow;

/// Each workload fills `rep` (and, traced, `spans`) and returns a process
/// exit code: 0, or 1 when it could not run at all (no result is printed).
int RunServeSearch(const Args& args, Report* rep, SpanLog* spans);
int RunServeIngest(const Args& args, Report* rep, SpanLog* spans);
int RunBatchJoin(const Args& args, Report* rep, SpanLog* spans);

/// The end-to-end metrics of one measured window.
struct EndToEnd {
  double setup_s = 0.0;
  double ops_per_s = 0.0;
  double lat_p50_ms = 0.0;
  double lat_tail_ms = 0.0;
  double peak_rss_mb = 0.0;
};

/// `plain` goes on the result line; a traced run also reports traced minus
/// plain for every metric as trace.overhead.*.
void EmitEndToEnd(Report* rep, const EndToEnd& plain, const EndToEnd* traced);

/// Sums of the verify-funnel counters of the threshold searches (or joins)
/// a traced window ran, for the core.verifier.* and cluster.makespan_s
/// metrics (means per operation).
struct FunnelSums {
  double ops = 0.0;
  double pairs = 0.0;
  double pruned_mbr = 0.0;
  double pruned_cell = 0.0;
  double dp_computed = 0.0;
  double accepted = 0.0;
  double makespan_s = 0.0;
  double load_ratio = 0.0;

  void Add(const dita::VerifyStats& v, double makespan, double load = 0.0);
  void Merge(const FunnelSums& o);
  void Emit(Report* rep) const;
};

/// The shadow build's per-step times and the engine's index size.
void EmitBuildLayers(Report* rep, const Shadow& shadow,
                     const dita::IndexStats& index);

/// Every traced run reports every per-layer metric, and run.py fails a run
/// that leaves one out, so a layer that stops being measured shows up as a
/// failure. Layers a workload does not run at all are reported as 0 here,
/// by name: the join planner's counters (serve workloads), the writer,
/// merge and kNN figures (serve-search, batch-join), and the service's
/// own latency series and counters (batch-join).
void EmitIdleJoinLayers(Report* rep);
void EmitIdleIngestLayers(Report* rep);
void EmitIdleServiceLayers(Report* rep);

/// Set-up repetitions, in reference-speed seconds: traced runs alternate
/// plain and traced (span recorded) repetitions, so both medians come from
/// one process. Each repetition is one slice of `speeds`.
struct SetupTimes {
  std::vector<double> plain;
  std::vector<double> traced;
  SliceSpeeds speeds;
};

/// Runs `setup` `reps` times (twice as often when traced). Each call times
/// its own set-up (leaving out tearing down the previous one) and returns
/// the seconds, or a negative value on failure; the time is scaled by the
/// host speed probed just before and after. Returns false as soon as one
/// repetition fails.
bool TimeSetups(int reps, bool trace, SpanLog* spans,
                const std::function<double()>& setup, SetupTimes* out);

}  // namespace perfbench

#endif  // DITA_PERFBENCH_WORKLOADS_H_
