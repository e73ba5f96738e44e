#ifndef DITA_PERFBENCH_REPLAY_H_
#define DITA_PERFBENCH_REPLAY_H_

// Per-layer replays of sampled threshold searches in the traced run, and the
// ledger that turns them into per-layer metrics. For every sampled request
// the layers telescope to the measured latency:
//   service = serving.overhead + serving.delta + cluster.stage
//             + probe + collect + filter + dp
// where overhead = service - engine - delta, stage = engine - shadow
// (probe + collect + verify), filter = verify - dp. The ledger reports the
// mean of each term over the samples, so the means add up exactly.

#include <string>
#include <vector>

#include "common.h"
#include "serving/service.h"
#include "shadow.h"

namespace perfbench {

struct SearchLedger {
  uint64_t samples = 0;
  double service_us = 0.0;   // the measured request (0 without a service)
  double engine_us = 0.0;    // DitaEngine::Execute on the same base
  double withstats_us = 0.0; // the service request replayed, stats on
  double nostats_us = 0.0;   // ... and with collect_stats off
  double delta_us = 0.0;     // VerifyPrecomp + Verify over the delta inserts
  double probe_us = 0.0;
  double collect_us = 0.0;
  double verify_us = 0.0;
  double dp_us = 0.0;
  double partitions = 0.0;
  double nodes_visited = 0.0;
  double candidates = 0.0;
  double dp_calls = 0.0;
  double dp_cells = 0.0;
  // Shadow minus engine work (the sketch tier the shadow does not replay).
  double partition_gap = 0.0;
  double candidate_gap = 0.0;
  uint64_t failures = 0;
  std::vector<std::string> problems;

  void Fail(const std::string& why) {
    ++failures;
    if (problems.size() < 5) problems.push_back(why);
  }
  void Merge(const SearchLedger& o);
  /// Emits the per-layer metrics; `service` false leaves the serving terms
  /// at 0 and telescopes to the engine time instead. Negative derived
  /// layers are reported as failures.
  void Emit(Report* rep, bool service) const;
};

/// Runs (or hands back) the measured request: fills its result and its
/// latency in µs, returns false when it failed.
using MeasuredRequest = std::function<bool(dita::QueryResult*, double*)>;

/// Replays one sampled service search answered from `snap`: the engine on
/// `snap.base`, the delta scan, the service request with stats on and off,
/// and the shadow (which must mirror snap.base). The measured request runs
/// just before the engine replay, or just after it when `measured_first`
/// is false, so first-touch cache misses do not always land on one side.
/// Checks that the engine, shadow and service answers agree.
void ReplayServiceSearch(const dita::DitaService& svc,
                         const dita::TableSnapshot& snap, const Shadow& shadow,
                         const dita::QueryRequest& req,
                         const MeasuredRequest& measured, bool measured_first,
                         RequestTrace* trace, int32_t root, SearchLedger* ledger);

/// Replays one engine search through the engine and the shadow.
void ReplayEngineSearch(const dita::DitaEngine& engine, const Shadow& shadow,
                        const dita::QueryRequest& req, RequestTrace* trace,
                        int32_t root, SearchLedger* ledger);

/// Engine-only closed-loop scaling: qps with `threads` threads over qps with
/// one, divided by `threads`.
double ScalingEfficiency(const dita::DitaEngine& engine,
                         const std::vector<dita::QueryRequest>& reqs,
                         size_t threads, double seconds_each);

}  // namespace perfbench

#endif  // DITA_PERFBENCH_REPLAY_H_
