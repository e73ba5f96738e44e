#include "replay.h"

#include <algorithm>
#include <atomic>
#include <thread>

namespace perfbench {

void SearchLedger::Merge(const SearchLedger& o) {
  samples += o.samples;
  service_us += o.service_us;
  engine_us += o.engine_us;
  withstats_us += o.withstats_us;
  nostats_us += o.nostats_us;
  delta_us += o.delta_us;
  probe_us += o.probe_us;
  collect_us += o.collect_us;
  verify_us += o.verify_us;
  dp_us += o.dp_us;
  partitions += o.partitions;
  nodes_visited += o.nodes_visited;
  candidates += o.candidates;
  dp_calls += o.dp_calls;
  dp_cells += o.dp_cells;
  partition_gap += o.partition_gap;
  candidate_gap += o.candidate_gap;
  failures += o.failures;
  for (const std::string& p : o.problems) {
    if (problems.size() < 5) problems.push_back(p);
  }
}

void SearchLedger::Emit(Report* rep, bool service) const {
  const double n = static_cast<double>(std::max<uint64_t>(samples, 1));
  const auto mean = [n](double sum) { return sum / n; };
  const double overhead = service ? mean(service_us - engine_us - delta_us) : 0.0;
  const double stats = service ? mean(withstats_us - nostats_us) : 0.0;
  const double stage = mean(engine_us - probe_us - collect_us - verify_us);
  const double filter = mean(verify_us - dp_us);
  rep->Layer("serving.overhead_us", "us", overhead);
  rep->Layer("serving.stats_us", "us", stats);
  rep->Layer("serving.delta_us", "us", mean(delta_us));
  rep->Layer("cluster.stage_us", "us", stage);
  rep->Layer("core.global_index.probe_us", "us", mean(probe_us));
  rep->Layer("core.global_index.partitions", "count", mean(partitions));
  rep->Layer("index.trie.collect_us", "us", mean(collect_us));
  rep->Layer("index.trie.nodes_visited", "count", mean(nodes_visited));
  rep->Layer("index.trie.candidates", "count", mean(candidates));
  rep->Layer("core.verifier.filter_us", "us", filter);
  rep->Layer("distance.dp_us", "us", mean(dp_us));
  rep->Layer("distance.dp_calls", "count", mean(dp_calls));
  rep->Layer("distance.dp_cells", "count", mean(dp_cells));
  rep->Layer("ledger.total_us", "us", mean(service ? service_us : engine_us));
  rep->Layer("ledger.samples", "count", static_cast<double>(samples));
  rep->Layer("shadow.partition_gap", "count", mean(partition_gap));
  rep->Layer("shadow.candidate_gap", "count", mean(candidate_gap));
  rep->Layer("shadow.mismatches", "count", static_cast<double>(failures));
  for (const std::string& p : problems) rep->problems.push_back(p);
  rep->failed += failures;
  if (samples == 0) rep->Fail("the traced run replayed no searches");
  const std::pair<const char*, double> derived[] = {
      {"serving.overhead_us", overhead},
      {"serving.stats_us", stats},
      {"cluster.stage_us", stage},
      {"core.verifier.filter_us", filter}};
  for (const auto& [name, v] : derived) {
    if (v < 0.0) rep->Fail(std::string("derived layer ") + name + " is negative");
  }
}

namespace {

/// Replays `req` through the shadow, records its layer sums in `ledger`,
/// and reconciles it with the engine's answer for the same base.
void ShadowReplay(const Shadow& shadow, const dita::QueryRequest& req,
                  const dita::QueryResult& engine_res, RequestTrace* trace,
                  int32_t root, SearchLedger* ledger) {
  const int32_t span = trace != nullptr ? trace->Open("replay.shadow", Now(), root) : -1;
  const Shadow::Replay r = shadow.Search(req.query, req.tau, trace, span);
  if (trace != nullptr) trace->Close(span, Now());
  ledger->probe_us += r.probe_us;
  ledger->collect_us += r.collect_us;
  ledger->verify_us += r.verify_us;
  ledger->dp_us += r.dp_us;
  ledger->partitions += static_cast<double>(r.partitions);
  ledger->nodes_visited += static_cast<double>(r.nodes_visited);
  ledger->candidates += static_cast<double>(r.candidates);
  ledger->dp_calls += static_cast<double>(r.dp_calls);
  ledger->dp_cells += static_cast<double>(r.dp_cells);
  const dita::QueryStats& es = engine_res.search_stats;
  ledger->partition_gap +=
      static_cast<double>(r.partitions) - static_cast<double>(es.partitions_probed);
  ledger->candidate_gap +=
      static_cast<double>(r.candidates) - static_cast<double>(es.candidates);
  const std::string diff = Shadow::Reconcile(r, engine_res.ids, es);
  if (!diff.empty()) ledger->Fail(diff);
}

}  // namespace

void ReplayServiceSearch(const dita::DitaService& svc,
                         const dita::TableSnapshot& snap, const Shadow& shadow,
                         const dita::QueryRequest& req,
                         const MeasuredRequest& measured, bool measured_first,
                         RequestTrace* trace, int32_t root, SearchLedger* ledger) {
  if (snap.base == nullptr) return;
  dita::QueryResult res;
  double service_us = 0.0;
  bool measured_ok = true;
  if (measured_first) measured_ok = measured(&res, &service_us);
  const double e0 = Now();
  const dita::Result<dita::QueryResult> er = snap.base->Execute(req);
  const double e1 = Now();
  if (trace != nullptr) trace->Span("replay.engine", e0, e1, root);
  if (!measured_first) measured_ok = measured(&res, &service_us);
  if (!measured_ok) return;  // the caller counts the failed request
  if (!er.ok()) {
    ledger->Fail("engine replay failed: " + er.status().ToString());
    return;
  }

  // The delta scan as the service defines it: each pending insert's
  // verification summary, then the verify predicate against the query.
  std::vector<dita::TrajectoryId> delta_ids;
  const double d0 = Now();
  if (!snap.inserts.empty()) {
    const double cell = shadow.config().verify.cell_size;
    const dita::VerifyPrecomp qp = dita::VerifyPrecomp::For(req.query, cell);
    for (const dita::Trajectory& t : snap.inserts) {
      const dita::VerifyPrecomp tp = dita::VerifyPrecomp::For(t, cell);
      if (shadow.verifier().Verify(t, tp, req.query, qp, req.tau, nullptr)) {
        delta_ids.push_back(t.id());
      }
    }
  }
  const double d1 = Now();
  if (trace != nullptr) trace->Span("replay.delta", d0, d1, root);

  // The same service request with stats on and off; the order alternates
  // so neither side always runs on warmer caches.
  dita::QueryRequest off = req;
  off.collect_stats = false;
  dita::QueryRequest on = req;
  on.collect_stats = true;
  const bool on_first = (ledger->samples % 2) == 0;
  double on_us = 0.0;
  double off_us = 0.0;
  for (int k = 0; k < 2; ++k) {
    const bool is_on = (k == 0) == on_first;
    const double s0 = Now();
    const auto sr = svc.Execute(is_on ? on : off);
    const double s1 = Now();
    if (trace != nullptr) {
      trace->Span(is_on ? "replay.service_stats" : "replay.service_nostats", s0,
                  s1, root);
    }
    if (!sr.ok()) ledger->Fail("service replay failed: " + sr.status().ToString());
    (is_on ? on_us : off_us) = (s1 - s0) * 1e6;
  }

  ShadowReplay(shadow, req, *er, trace, root, ledger);

  // The service answer is the base answer minus deleted ids plus the delta
  // matches.
  std::vector<dita::TrajectoryId> want;
  for (const dita::TrajectoryId id : er->ids) {
    if (snap.deleted.count(id) == 0) want.push_back(id);
  }
  want.insert(want.end(), delta_ids.begin(), delta_ids.end());
  std::sort(want.begin(), want.end());
  std::vector<dita::TrajectoryId> got = res.ids;
  std::sort(got.begin(), got.end());
  if (want != got) ledger->Fail("service answer differs from engine + delta");

  ++ledger->samples;
  ledger->service_us += service_us;
  ledger->engine_us += (e1 - e0) * 1e6;
  ledger->delta_us += (d1 - d0) * 1e6;
  ledger->withstats_us += on_us;
  ledger->nostats_us += off_us;
}

void ReplayEngineSearch(const dita::DitaEngine& engine, const Shadow& shadow,
                        const dita::QueryRequest& req, RequestTrace* trace,
                        int32_t root, SearchLedger* ledger) {
  const double e0 = Now();
  const dita::Result<dita::QueryResult> er = engine.Execute(req);
  const double e1 = Now();
  if (trace != nullptr) trace->Span("replay.engine", e0, e1, root);
  if (!er.ok()) {
    ledger->Fail("engine replay failed: " + er.status().ToString());
    return;
  }
  ShadowReplay(shadow, req, *er, trace, root, ledger);
  ++ledger->samples;
  ledger->engine_us += (e1 - e0) * 1e6;
}

double ScalingEfficiency(const dita::DitaEngine& engine,
                         const std::vector<dita::QueryRequest>& reqs,
                         size_t threads, double seconds_each) {
  const auto qps = [&](size_t n) {
    std::atomic<uint64_t> done{0};
    std::atomic<bool> stop{false};
    std::vector<std::thread> pool;
    const double t0 = Now();
    for (size_t t = 0; t < n; ++t) {
      pool.emplace_back([&, t] {
        uint64_t local = 0;
        for (size_t i = t; !stop.load(std::memory_order_relaxed); i += n) {
          if (engine.Execute(reqs[i % reqs.size()]).ok()) ++local;
        }
        done.fetch_add(local);
      });
    }
    SleepUntil(t0 + seconds_each);
    stop.store(true);
    for (std::thread& th : pool) th.join();
    return static_cast<double>(done.load()) / (Now() - t0);
  };
  const double one = qps(1);
  const double many = qps(threads);
  return one > 0.0 ? many / (static_cast<double>(threads) * one) : 0.0;
}

}  // namespace perfbench
