// batch-join: the paper's headline operation — an engine self-join
// (DitaEngine::Execute, kJoin) over the 96k table, repeated after one build.
// DP kernels, verify filters, the join planner and the cluster stages carry
// it; the serving layer is not involved.

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "oracle.h"
#include "replay.h"
#include "shadow.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr double kTau = 0.005;
/// Cluster execution threads for the join: the load-thread budget.
constexpr size_t kJoinThreads = 4;

using Pairs = std::vector<std::pair<dita::TrajectoryId, dita::TrajectoryId>>;

uint64_t Digest(const Pairs& pairs) {
  uint64_t h = 1469598103934665603ull;
  for (const auto& [a, b] : pairs) {
    h = (h ^ static_cast<uint64_t>(a)) * 1099511628211ull;
    h = (h ^ static_cast<uint64_t>(b)) * 1099511628211ull;
  }
  return h;
}

/// The joins of one window: seconds each (scaled to the reference speed,
/// and as measured), and, traced, each join's stats.
struct Window {
  std::vector<double> join_s;
  std::vector<double> raw_join_s;
  std::vector<dita::JoinStats> stats;
  /// One slice per join: nothing else runs between joins, so the cores are
  /// probed there.
  SliceSpeeds speeds;
  uint64_t errors = 0;
};

/// Runs self-joins back to back until the next one would end past
/// `seconds` (at least `min_joins`). The first answer lands in `first`;
/// every later one must be identical to it.
Window RunJoins(const dita::DitaEngine& engine, double seconds, size_t min_joins,
                bool traced, SpanLog* spans, Pairs* first, Report* rep) {
  dita::QueryRequest req;
  req.kind = dita::QueryKind::kJoin;
  req.tau = kTau;
  Window w;
  const double t_begin = Now();
  w.speeds.Boundary();
  while (true) {
    const double elapsed = Now() - t_begin;
    const double last = w.raw_join_s.empty() ? 0.0 : w.raw_join_s.back();
    if (w.raw_join_s.size() >= min_joins && elapsed + last > seconds) break;
    const double t0 = Now();
    dita::Result<dita::QueryResult> r = engine.Execute(req);
    const double t1 = Now();
    w.speeds.Boundary();
    if (!r.ok()) {
      ++w.errors;
      rep->Fail("join failed: " + r.status().ToString());
      if (w.errors > 2) break;
      continue;
    }
    w.raw_join_s.push_back(t1 - t0);
    w.join_s.push_back((t1 - t0) * w.speeds.Of(w.speeds.slices() - 1));
    if (traced) {
      RequestTrace tr(spans, 0);
      tr.Span("engine.join", t0, t1, -1);
      tr.Commit();
      w.stats.push_back(r->join_stats);
    }
    if (first->empty()) {
      *first = std::move(r->pairs);
    } else if (r->pairs.size() != first->size() || Digest(r->pairs) != Digest(*first)) {
      rep->Fail("a repeated join returned a different answer");
    }
  }
  return w;
}

EndToEnd Summary(const Window& w, double setup_s) {
  const Dist d = Summarize(w.join_s);
  double busy = 0.0;
  for (const double s : w.join_s) busy += s;
  return EndToEnd{setup_s, static_cast<double>(w.join_s.size()) / busy,
                  d.p50 * 1e3, d.E2ETail() * 1e3, PeakRssMb()};
}

}  // namespace

int RunBatchJoin(const Args& args, Report* rep, SpanLog* spans) {
  const double scale = args.smoke ? 0.25 : 8.0;
  const size_t min_joins = args.smoke ? 1 : 2;
  const dita::Dataset table = MakeTable(scale);
  const dita::DitaConfig config = ShippedConfig();
  // The one setting off its default: the cluster runs each stage's tasks on
  // kJoinThreads threads (ClusterConfig::execution_threads defaults to one,
  // for single-core hosts). A batch join is meant to use the machine, and
  // on a shared host four cores' drift partly averages out where one core's
  // does not: over 24 back-to-back joins, IQR / median was 0.13 on four
  // threads against 0.27 on one.
  const std::shared_ptr<dita::Cluster> cluster = MakeCluster(kJoinThreads);

  std::unique_ptr<dita::DitaEngine> engine;
  std::string err;
  SetupTimes setup;
  const bool built = TimeSetups(
      args.smoke ? 2 : 5, args.trace, spans,
      [&] {
        engine.reset();
        engine = std::make_unique<dita::DitaEngine>(cluster, config);
        const double t0 = Now();
        const dita::Status st = engine->BuildIndex(table);
        const double t1 = Now();
        if (!st.ok()) err = st.ToString();
        return st.ok() ? t1 - t0 : -1.0;
      },
      &setup);
  if (!built) {
    std::fprintf(stderr, "batch-join: BuildIndex failed: %s\n", err.c_str());
    return 1;
  }
  rep->config_json = ConfigJson(config, *cluster, engine->index_stats());

  const double seconds = args.smoke ? std::min(args.seconds, 1.0) : args.seconds;
  Pairs pairs;
  const Window plain = RunJoins(*engine, args.trace ? seconds / 2 : seconds,
                                min_joins, false, spans, &pairs, rep);
  if (plain.join_s.empty()) {
    std::fprintf(stderr, "batch-join: no join completed\n");
    return 1;
  }
  const EndToEnd e_plain = Summary(plain, Median(setup.plain));
  rep->attempted += plain.join_s.size() + plain.errors;
  const Dist join_d = Summarize(plain.raw_join_s);
  rep->Detail("join_s.p50", "s", join_d.p50);
  rep->Detail("join_s.max", "s", join_d.max);
  rep->Detail("join_s.samples", "count", static_cast<double>(join_d.n));
  rep->Detail("host.speed", "ratio", plain.speeds.Mean());
  rep->Detail("host.setup_speed", "ratio", setup.speeds.Mean());
  rep->Detail("join.result_pairs", "count", static_cast<double>(pairs.size()));

  // Seeded left trajectories: the rows the correctness check covers, and
  // the searches the traced run replays through the shadow.
  std::mt19937_64 rng = Stream(args.seed, 4);
  const std::vector<dita::Trajectory> rows =
      DrawQueries(table, args.smoke ? 8 : 24, &rng);

  if (args.trace) {
    const Window traced =
        RunJoins(*engine, seconds / 2, min_joins, true, spans, &pairs, rep);
    rep->attempted += traced.join_s.size() + traced.errors;
    const EndToEnd e_traced = Summary(traced, Median(setup.traced));
    EmitEndToEnd(rep, e_plain, &e_traced);
    rep->Layer("host.speed", "ratio", traced.speeds.Mean());
    EmitIdleIngestLayers(rep);
    EmitIdleServiceLayers(rep);

    FunnelSums funnel;
    double cand = 0.0, bytes = 0.0, edges = 0.0, divided = 0.0;
    for (const dita::JoinStats& js : traced.stats) {
      funnel.Add(js.verify, js.makespan_seconds, js.load_ratio);
      cand += static_cast<double>(js.candidate_pairs);
      bytes += static_cast<double>(js.bytes_shipped);
      edges += static_cast<double>(js.graph_edges);
      divided += static_cast<double>(js.divided_partitions);
    }
    const double n = std::max<double>(1.0, static_cast<double>(traced.stats.size()));
    funnel.Emit(rep);
    rep->Layer("core.join.candidate_pairs", "count", cand / n);
    rep->Layer("core.join.bytes_shipped", "bytes", bytes / n);
    rep->Layer("core.join.graph_edges", "count", edges / n);
    rep->Layer("core.join.divided_partitions", "count", divided / n);

    std::unique_ptr<Shadow> shadow = Shadow::Build(table.trajectories(), config, &err);
    if (shadow == nullptr) {
      std::fprintf(stderr, "batch-join: shadow build failed: %s\n", err.c_str());
      return 1;
    }
    EmitBuildLayers(rep, *shadow, engine->index_stats());
    std::vector<dita::QueryRequest> searches;
    for (const dita::Trajectory& q : DrawQueries(table, args.smoke ? 32 : 400, &rng)) {
      dita::QueryRequest s;
      s.kind = dita::QueryKind::kSearch;
      s.query = q;
      s.tau = kTau;
      searches.push_back(std::move(s));
    }
    SearchLedger ledger;
    for (const dita::QueryRequest& s : searches) {
      RequestTrace tr(spans, 0);
      const int32_t root = tr.Open("request", Now(), -1);
      ReplayEngineSearch(*engine, *shadow, s, &tr, root, &ledger);
      tr.Close(root, Now());
      tr.Commit();
    }
    ledger.Emit(rep, /*service=*/false);
    rep->Layer("cluster.scaling_eff", "ratio",
               ScalingEfficiency(*engine, searches, 4, args.smoke ? 0.1 : 0.5));
  } else {
    EmitEndToEnd(rep, e_plain, nullptr);
  }

  // Correctness: the sampled left rows of the join against a naive scan.
  // The join evaluates a pair in either orientation, so a pair whose two
  // orientations disagree at the threshold may go either way.
  const std::shared_ptr<dita::TrajectoryDistance> dist =
      *dita::MakeDistance(config.distance, config.distance_params);
  std::vector<std::string> wrong(rows.size());
  ParallelFor(rows.size(), 4, [&](size_t i) {
    const dita::Trajectory& left = rows[i];
    const auto lo = std::lower_bound(pairs.begin(), pairs.end(),
                                     std::make_pair(left.id(), dita::TrajectoryId{-1}));
    std::vector<dita::TrajectoryId> got;
    for (auto it = lo; it != pairs.end() && it->first == left.id(); ++it) {
      got.push_back(it->second);
    }
    std::sort(got.begin(), got.end());
    std::vector<dita::TrajectoryId> must;
    std::vector<dita::TrajectoryId> may;
    for (const dita::Trajectory& right : table.trajectories()) {
      const bool a = dist->WithinThreshold(left, right, kTau);
      const bool b = dist->WithinThreshold(right, left, kTau);
      if (a && b) must.push_back(right.id());
      if (a || b) may.push_back(right.id());
    }
    std::sort(must.begin(), must.end());
    std::sort(may.begin(), may.end());
    if (!std::includes(got.begin(), got.end(), must.begin(), must.end()) ||
        !std::includes(may.begin(), may.end(), got.begin(), got.end())) {
      wrong[i] = "join row of id " + std::to_string(left.id()) + " wrong: " +
                 DiffIds(must, got);
    }
  });
  for (const std::string& w : wrong) {
    if (!w.empty()) rep->Fail(w);
  }
  rep->Detail("check.rows", "count", static_cast<double>(rows.size()));
  rep->Detail("table.trajectories", "count", static_cast<double>(table.size()));
  rep->Detail("tau", "deg", kTau);
  return 0;
}

}  // namespace perfbench
