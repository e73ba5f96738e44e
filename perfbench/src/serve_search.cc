// serve-search: closed-loop threshold searches against a static table
// through DitaService::Execute — the serving read path with little DP work.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <thread>

#include "oracle.h"
#include "replay.h"
#include "serving/service.h"
#include "shadow.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr double kTau = 0.003;
constexpr size_t kClients = 4;
constexpr size_t kPool = 4096;
/// In the traced window one request in this many is replayed layer by layer.
constexpr size_t kSampleEvery = 16;

/// The first answer each client saw for every checked pool entry.
class CheckLog {
 public:
  explicit CheckLog(size_t slots) : answers_(slots) {}
  size_t slots() const { return answers_.size(); }
  void Record(size_t slot, const std::vector<dita::TrajectoryId>& ids) {
    std::lock_guard<std::mutex> lock(mu_);
    answers_[slot].push_back(ids);
  }
  const std::vector<std::vector<dita::TrajectoryId>>& answers(size_t slot) const {
    return answers_[slot];
  }

 private:
  std::mutex mu_;
  std::vector<std::vector<std::vector<dita::TrajectoryId>>> answers_;
};

/// One client's state, kept across the slices of a window.
struct Client {
  std::mt19937_64 rng;
  std::vector<bool> seen;
  uint64_t measured = 0;
  uint64_t sampled = 0;
};

/// What one client did in one slice.
struct ClientSlice {
  std::vector<double> lat_us;
  uint64_t errors = 0;
  double last_end = 0.0;
  FunnelSums funnel;
  SearchLedger ledger;
  double delta_scanned = 0.0;
};

/// What one measured window produced. The window runs in slices; between
/// two slices every client stops and the cores are probed (SliceSpeeds).
/// Throughput is the median slice's, so a burst of co-tenant load on a
/// shared host moves one slice rather than the whole figure.
struct Window {
  std::vector<std::vector<double>> slice_us;  // latencies as measured
  std::vector<double> slice_s;                // how long each slice's load ran
  SliceSpeeds speeds;
  uint64_t ok = 0;
  uint64_t errors = 0;
  FunnelSums funnel;
  SearchLedger ledger;
  double delta_scanned = 0.0;

  /// Every latency, scaled to the reference speed of its slice (`raw`:
  /// as measured).
  std::vector<double> Latencies(bool raw) const {
    std::vector<double> out;
    for (size_t i = 0; i < slice_us.size(); ++i) {
      const double s = raw ? 1.0 : speeds.Of(i);
      for (const double us : slice_us[i]) out.push_back(us * s);
    }
    return out;
  }

  /// Median slice throughput, scaled to the reference speed (`raw`: as
  /// measured).
  double Qps(bool raw) const {
    std::vector<double> qps;
    for (size_t i = 0; i < slice_us.size(); ++i) {
      const double s = raw ? 1.0 : speeds.Of(i);
      qps.push_back(static_cast<double>(slice_us[i].size()) / slice_s[i] / s);
    }
    return Median(std::move(qps));
  }
};

/// Closed loop: kClients threads, each sending its next search as soon as
/// the previous one returns, for an unmeasured warm-up and then `slices`
/// measured slices of `slice` seconds. With `shadow` set the window is
/// traced.
Window RunWindow(const dita::DitaService& svc,
                 const std::vector<dita::QueryRequest>& reqs, uint64_t seed,
                 uint64_t window_no, double warmup, size_t slices, double slice,
                 const Shadow* shadow, SpanLog* spans, CheckLog* checks) {
  std::vector<Client> clients(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients[c].rng = Stream(seed, 100 + window_no * kClients + c);
    clients[c].seen.assign(checks->slots(), false);
  }

  // Every client sends searches until `length` seconds have passed, then
  // finishes the one in flight. Returns when all have stopped.
  const auto run_slice = [&](double length, bool measured,
                             std::vector<ClientSlice>* outs) {
    outs->assign(kClients, ClientSlice{});
    const double t_end = Now() + length;
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        Client& cl = clients[c];
        ClientSlice& out = (*outs)[c];
        std::uniform_int_distribution<size_t> pick(0, reqs.size() - 1);
        while (Now() < t_end) {
          const size_t idx = pick(cl.rng);
          const dita::QueryRequest& req = reqs[idx];
          dita::QueryResult res;
          double us = 0.0;
          bool ok = false;
          const auto run = [&](dita::QueryResult* r_out, double* out_us) {
            const double t0 = Now();
            auto r = svc.Execute(req);
            const double t1 = Now();
            *out_us = (t1 - t0) * 1e6;
            if (!r.ok()) return false;
            *r_out = std::move(*r);
            return true;
          };
          if (measured && shadow != nullptr && ++cl.measured % kSampleEvery == 0) {
            RequestTrace tr(spans, static_cast<uint32_t>(c));
            const int32_t root = tr.Open("request", Now(), -1);
            const std::shared_ptr<const dita::TableSnapshot> snap = svc.Pin();
            ReplayServiceSearch(
                svc, *snap, *shadow, req,
                [&](dita::QueryResult* r_out, double* out_us) {
                  const double t0 = Now();
                  ok = run(r_out, out_us);
                  tr.Span("service.execute", t0, Now(), root);
                  res = *r_out;
                  us = *out_us;
                  return ok;
                },
                cl.sampled++ % 2 == 0, &tr, root, &out.ledger);
            tr.Close(root, Now());
            tr.Commit();
          } else {
            ok = run(&res, &us);
          }
          if (!measured) continue;
          if (!ok) {
            ++out.errors;
            continue;
          }
          out.lat_us.push_back(us);
          if (shadow != nullptr) {
            out.funnel.Add(res.search_stats.verify, res.search_stats.makespan_seconds);
            out.delta_scanned += static_cast<double>(res.serving.delta_scanned);
          }
          if (idx < cl.seen.size() && !cl.seen[idx]) {
            cl.seen[idx] = true;
            checks->Record(idx, res.ids);
          }
        }
        out.last_end = Now();
      });
    }
    for (std::thread& t : threads) t.join();
  };

  std::vector<ClientSlice> outs;
  run_slice(warmup, false, &outs);
  Window w;
  w.speeds.Boundary();
  for (size_t s = 0; s < slices; ++s) {
    const double t_start = Now();
    run_slice(slice, true, &outs);
    w.speeds.Boundary();
    std::vector<double> lat;
    double last_end = t_start;
    for (ClientSlice& o : outs) {
      lat.insert(lat.end(), o.lat_us.begin(), o.lat_us.end());
      last_end = std::max(last_end, o.last_end);
      w.errors += o.errors;
      w.funnel.Merge(o.funnel);
      w.ledger.Merge(o.ledger);
      w.delta_scanned += o.delta_scanned;
    }
    w.ok += lat.size();
    w.slice_us.push_back(std::move(lat));
    w.slice_s.push_back(last_end - t_start);
  }
  return w;
}

EndToEnd Summary(const Window& w, double setup_s) {
  const Dist d = Summarize(w.Latencies(false));
  return EndToEnd{setup_s, w.Qps(false), d.p50 / 1e3, d.E2ETail() / 1e3,
                  PeakRssMb()};
}

}  // namespace

int RunServeSearch(const Args& args, Report* rep, SpanLog* spans) {
  const double scale = args.smoke ? 0.25 : 8.0;
  const double warmup = args.smoke ? 0.1 : 1.0;
  const double slice = args.smoke ? 0.25 : 1.0;
  const double seconds = args.smoke ? std::min(args.seconds, 1.0) : args.seconds;
  const size_t slices = std::max<size_t>(
      1, static_cast<size_t>(std::lround((args.trace ? seconds / 2 : seconds) / slice)));
  const dita::Dataset table = MakeTable(scale);
  const dita::DitaConfig config = ShippedConfig();
  const std::shared_ptr<dita::Cluster> cluster = MakeCluster();

  std::unique_ptr<dita::DitaService> svc;
  std::string err;
  SetupTimes setup;
  const bool started = TimeSetups(
      args.smoke ? 2 : 5, args.trace, spans,
      [&] {
        svc.reset();
        svc = std::make_unique<dita::DitaService>(cluster, config);
        const double t0 = Now();
        const dita::Status st = svc->Start(table);
        const double t1 = Now();
        if (!st.ok()) err = st.ToString();
        return st.ok() ? t1 - t0 : -1.0;
      },
      &setup);
  if (!started) {
    std::fprintf(stderr, "serve-search: DitaService::Start failed: %s\n", err.c_str());
    return 1;
  }
  const std::shared_ptr<const dita::TableSnapshot> snap = svc->Pin();
  const dita::IndexStats& index = snap->base->index_stats();
  rep->config_json = ConfigJson(config, *cluster, index);

  std::mt19937_64 rng = Stream(args.seed, 1);
  std::vector<dita::QueryRequest> reqs;
  for (dita::Trajectory& q : DrawQueries(table, kPool, &rng)) {
    dita::QueryRequest r;
    r.kind = dita::QueryKind::kSearch;
    r.query = std::move(q);
    r.tau = kTau;
    reqs.push_back(std::move(r));
  }
  CheckLog checks(args.smoke ? 8 : 48);

  const Window plain = RunWindow(*svc, reqs, args.seed, 0, warmup, slices, slice,
                                 nullptr, spans, &checks);
  const EndToEnd e_plain = Summary(plain, Median(setup.plain));
  rep->attempted += plain.ok + plain.errors;
  for (uint64_t i = 0; i < plain.errors; ++i) rep->Fail("a search returned an error");
  // Per-layer and detail figures are as measured; only the end-to-end
  // metrics are scaled to the reference speed.
  const Dist plain_dist = Summarize(plain.Latencies(/*raw=*/true));
  rep->DetailDist("search_us", plain_dist);
  rep->Detail("raw.ops_per_s", "1/s", plain.Qps(/*raw=*/true));
  rep->Detail("host.speed", "ratio", plain.speeds.Mean());
  rep->Detail("host.setup_speed", "ratio", setup.speeds.Mean());

  if (args.trace) {
    std::unique_ptr<Shadow> shadow = Shadow::Build(*snap->base_data, config, &err);
    if (shadow == nullptr) {
      std::fprintf(stderr, "serve-search: shadow build failed: %s\n", err.c_str());
      return 1;
    }
    const Window traced = RunWindow(*svc, reqs, args.seed, 1, warmup, slices, slice,
                                    shadow.get(), spans, &checks);
    const EndToEnd e_traced = Summary(traced, Median(setup.traced));
    rep->attempted += traced.ok + traced.errors;
    for (uint64_t i = 0; i < traced.errors; ++i) rep->Fail("a search returned an error");
    EmitEndToEnd(rep, e_plain, &e_traced);
    traced.ledger.Emit(rep, /*service=*/true);
    traced.funnel.Emit(rep);
    EmitBuildLayers(rep, *shadow, index);
    EmitIdleIngestLayers(rep);
    EmitIdleJoinLayers(rep);
    rep->Layer("host.speed", "ratio", traced.speeds.Mean());
    const double n = std::max<double>(1.0, static_cast<double>(traced.ok));
    rep->Layer("serving.delta_scanned", "count", traced.delta_scanned / n);
    const dita::DitaService::ServiceStats st = svc->Stats();
    rep->Layer("serving.queue_wait_us", "us",
               st.queue_wait.count == 0
                   ? 0.0
                   : st.queue_wait.sum / static_cast<double>(st.queue_wait.count) * 1e6);
    rep->Layer("serving.search_p50_us", "us", plain_dist.p50);
    rep->Layer("serving.search_tail_us", "us", plain_dist.tail);
    rep->Layer("cluster.scaling_eff", "ratio",
               ScalingEfficiency(*snap->base, reqs, kClients, args.smoke ? 0.1 : 0.5));
  } else {
    EmitEndToEnd(rep, e_plain, nullptr);
  }

  // Correctness: every recorded answer for the checked pool entries against
  // a naive scan of the table.
  const std::shared_ptr<dita::TrajectoryDistance> dist =
      *dita::MakeDistance(config.distance, config.distance_params);
  Live live;
  for (const dita::Trajectory& t : table.trajectories()) live.push_back(&t);
  std::vector<std::string> wrong(checks.slots());
  std::atomic<uint64_t> compared{0};
  ParallelFor(checks.slots(), kClients, [&](size_t slot) {
    const std::vector<dita::TrajectoryId> want =
        NaiveSearch(*dist, live, reqs[slot].query, kTau);
    std::vector<std::vector<dita::TrajectoryId>> got = checks.answers(slot);
    if (got.empty()) {
      // Never drawn during the windows: ask the service now.
      auto r = svc->Execute(reqs[slot]);
      got.push_back(r.ok() ? r->ids : std::vector<dita::TrajectoryId>{-1});
    }
    for (const auto& ids : got) {
      compared.fetch_add(1);
      const std::string diff = DiffIds(want, ids);
      if (!diff.empty()) wrong[slot] = "search answer wrong: " + diff;
    }
  });
  for (const std::string& w : wrong) {
    if (!w.empty()) rep->Fail(w);
  }
  rep->Detail("check.compared", "count", static_cast<double>(compared.load()));
  rep->Detail("table.trajectories", "count", static_cast<double>(table.size()));
  rep->Detail("tau", "deg", kTau);
  rep->Detail("clients", "count", kClients);
  return 0;
}

}  // namespace perfbench
