// serve-ingest: open-loop reads (threshold searches plus ~10% kNN) submitted
// to DitaService on a fixed-rate schedule, beside one writer streaming
// inserts and deletes into the queried region. The delta scan, snapshot
// copy-on-write, background epoch merges and kNN expansion carry it.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <limits>
#include <mutex>
#include <random>
#include <thread>
#include <unordered_map>

#include "oracle.h"
#include "replay.h"
#include "serving/service.h"
#include "shadow.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr double kTau = 0.003;
constexpr size_t kKnnK = 10;
constexpr double kKnnShare = 0.10;
constexpr size_t kPool = 4096;
/// New trajectories get ids from here up, clear of the generated table's.
constexpr dita::TrajectoryId kInsertIdBase = 1000000000;
/// Traced window: one search in this many is replayed layer by layer.
constexpr uint64_t kSampleEvery = 4;
/// The longest a pause waits for a running merge to publish.
constexpr double kMergeWaitSeconds = 1.0;
/// Marks a read sent in the warm-up slice.
constexpr size_t kWarmup = std::numeric_limits<size_t>::max();

/// One pre-generated write: an insert of `traj` or a delete of `id`.
struct WriteOp {
  bool insert = false;
  dita::Trajectory traj;
  dita::TrajectoryId id = -1;
};

/// Writes a seeded mix of inserts and deletes. Inserts are noisy copies of
/// table trajectories (so they land where the queries look); deletes pick a
/// live id, base or inserted.
std::vector<WriteOp> MakeWrites(const dita::Dataset& table, size_t count,
                                uint64_t seed) {
  std::mt19937_64 rng = Stream(seed, 2);
  std::uniform_int_distribution<size_t> pick(0, table.size() - 1);
  std::normal_distribution<double> noise(0.0, 5e-5);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<dita::TrajectoryId> live;
  for (const dita::Trajectory& t : table.trajectories()) live.push_back(t.id());
  std::vector<WriteOp> ops(count);
  for (size_t i = 0; i < count; ++i) {
    WriteOp& op = ops[i];
    if (coin(rng) < 0.5) {
      op.insert = true;
      op.id = kInsertIdBase + static_cast<dita::TrajectoryId>(i);
      std::vector<dita::Point> pts = table[pick(rng)].points();
      for (dita::Point& p : pts) p = dita::Point{p.x + noise(rng), p.y + noise(rng)};
      op.traj = dita::Trajectory(op.id, std::move(pts));
      live.push_back(op.id);
    } else {
      const size_t j = std::uniform_int_distribution<size_t>(0, live.size() - 1)(rng);
      op.id = live[j];
      live[j] = live.back();
      live.pop_back();
    }
  }
  return ops;
}

/// One read of the schedule, on the load-time axis (pauses left out).
struct Arrival {
  double t = 0.0;
  bool knn = false;
  size_t idx = 0;
};

/// Reads at a fixed `rate` over [0, load_s): read i is sent at a seeded
/// point of its own 1/rate interval, and every (1/kKnnShare)-th read, from a
/// seeded phase on, is a kNN search. Evenly spread arrivals keep the ~10 ms
/// kNN searches from bunching up: with Poisson arrivals, bursts queued kNN
/// behind kNN, and the read p99 spread by 30% (IQR / median) over ten seeds.
std::vector<Arrival> MakeArrivals(double rate, double load_s, uint64_t seed) {
  std::mt19937_64 rng = Stream(seed, 3);
  std::uniform_real_distribution<double> within(0.0, 1.0);
  std::uniform_int_distribution<size_t> pick(0, kPool - 1);
  const size_t every = static_cast<size_t>(std::lround(1.0 / kKnnShare));
  const size_t phase = std::uniform_int_distribution<size_t>(0, every - 1)(rng);
  const size_t n = static_cast<size_t>(std::llround(rate * load_s));
  std::vector<Arrival> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i].t = (static_cast<double>(i) + within(rng)) / rate;
    out[i].knn = i % every == phase;
    out[i].idx = pick(rng);
  }
  return out;
}

/// A submitted read waiting for its answer.
struct Pending {
  uint64_t seq = 0;
  bool knn = false;
  size_t idx = 0;
  double scheduled = 0.0;
  double sent = 0.0;
  /// Measured slice it was sent in (plain and traced windows numbered on),
  /// or kWarmup.
  size_t slice = kWarmup;
  bool traced = false;
  std::future<dita::Result<dita::QueryResult>> fut;
};

/// A read answer kept for the correctness check.
struct CheckItem {
  bool knn = false;
  size_t idx = 0;
  uint64_t writes_applied = 0;
  std::vector<dita::TrajectoryId> ids;
  std::vector<std::pair<dita::TrajectoryId, double>> neighbors;
};

/// Per-thread tallies, merged at the end.
struct Tally {
  std::vector<double> read_us[2];       // by window: plain, traced
  std::vector<size_t> read_slice[2];    // the measured slice each was sent in
  std::vector<double> last_done;        // by measured slice: its last answer
  std::vector<double> search_us[2];
  std::vector<double> knn_us[2];
  std::vector<double> write_us[2];   // from the schedule
  std::vector<double> write_call_us;
  std::vector<double> late_us;
  std::vector<double> read_sched_us;  // both windows, from the schedule
  uint64_t errors = 0;
  uint64_t skipped_replays = 0;
  FunnelSums funnel;
  double searches_traced = 0.0;
  double delta_scanned = 0.0;
  double knn_traced = 0.0;
  double knn_partitions = 0.0;
  double knn_candidates = 0.0;
  SearchLedger ledger;
  std::vector<CheckItem> checks;
  std::vector<std::string> problems;

  void Merge(Tally& o) {
    for (int w = 0; w < 2; ++w) {
      read_us[w].insert(read_us[w].end(), o.read_us[w].begin(), o.read_us[w].end());
      read_slice[w].insert(read_slice[w].end(), o.read_slice[w].begin(),
                           o.read_slice[w].end());
      search_us[w].insert(search_us[w].end(), o.search_us[w].begin(), o.search_us[w].end());
      knn_us[w].insert(knn_us[w].end(), o.knn_us[w].begin(), o.knn_us[w].end());
      write_us[w].insert(write_us[w].end(), o.write_us[w].begin(), o.write_us[w].end());
    }
    if (last_done.size() < o.last_done.size()) last_done.resize(o.last_done.size(), 0.0);
    for (size_t s = 0; s < o.last_done.size(); ++s) {
      last_done[s] = std::max(last_done[s], o.last_done[s]);
    }
    write_call_us.insert(write_call_us.end(), o.write_call_us.begin(),
                         o.write_call_us.end());
    late_us.insert(late_us.end(), o.late_us.begin(), o.late_us.end());
    read_sched_us.insert(read_sched_us.end(), o.read_sched_us.begin(),
                         o.read_sched_us.end());
    errors += o.errors;
    skipped_replays += o.skipped_replays;
    funnel.Merge(o.funnel);
    searches_traced += o.searches_traced;
    delta_scanned += o.delta_scanned;
    knn_traced += o.knn_traced;
    knn_partitions += o.knn_partitions;
    knn_candidates += o.knn_candidates;
    ledger.Merge(o.ledger);
    for (CheckItem& c : o.checks) checks.push_back(std::move(c));
    for (const std::string& p : o.problems) problems.push_back(p);
  }
};

}  // namespace

int RunServeIngest(const Args& args, Report* rep, SpanLog* spans) {
  const double scale = args.smoke ? 0.25 : 1.0;
  const double default_rate = args.smoke ? 300.0 : 250.0;
  const double read_rate = args.read_rate > 0.0 ? args.read_rate : default_rate;
  const double write_rate = 200.0;
  const double slice = args.smoke ? 0.25 : 1.0;
  const double seconds = args.smoke ? std::min(args.seconds, 1.0) : args.seconds;
  // Correctness checks per second stay the same at any offered rate.
  const uint64_t check_every = static_cast<uint64_t>(
      (args.smoke ? 8 : 32) * std::max(1.0, std::round(read_rate / default_rate)));
  // One warm-up slice, then the plain window's slices, then (traced) as
  // many traced ones.
  const size_t window_slices = std::max<size_t>(
      1, static_cast<size_t>(std::lround((args.trace ? seconds / 2 : seconds) / slice)));
  const size_t total_slices = 1 + (args.trace ? 2 : 1) * window_slices;
  const double load_s = static_cast<double>(total_slices) * slice;
  const dita::Dataset table = MakeTable(scale);
  const dita::DitaConfig config = ShippedConfig();
  const std::shared_ptr<dita::Cluster> cluster = MakeCluster();

  std::unique_ptr<dita::DitaService> svc;
  std::string err;
  SetupTimes setup;
  const bool started = TimeSetups(
      args.smoke ? 2 : 21, args.trace, spans,
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
    std::fprintf(stderr, "serve-ingest: DitaService::Start failed: %s\n", err.c_str());
    return 1;
  }
  rep->config_json = ConfigJson(config, *cluster, svc->Pin()->base->index_stats());

  std::mt19937_64 qrng = Stream(args.seed, 1);
  std::vector<dita::QueryRequest> searches;
  std::vector<dita::QueryRequest> knns;
  for (dita::Trajectory& q : DrawQueries(table, kPool, &qrng)) {
    dita::QueryRequest s;
    s.kind = dita::QueryKind::kSearch;
    s.query = q;
    s.tau = kTau;
    searches.push_back(std::move(s));
    dita::QueryRequest k;
    k.kind = dita::QueryKind::kKnnSearch;
    k.query = std::move(q);
    k.k = kKnnK;
    knns.push_back(std::move(k));
  }
  const std::vector<Arrival> arrivals = MakeArrivals(read_rate, load_s, args.seed);
  const std::vector<WriteOp> writes = MakeWrites(
      table, static_cast<size_t>(write_rate * load_s), args.seed);

  std::mutex q_mu;
  std::condition_variable q_cv;
  std::deque<Pending> queue;
  bool generator_done = false;
  /// Reads submitted and not yet fully handled by a collector.
  std::atomic<uint64_t> outstanding{0};
  std::atomic<uint64_t> writes_done{0};
  /// The shadow mirrors the newest epoch's base. It is rebuilt only in the
  /// pauses between traced slices, while no collector reads it; a merge
  /// within a slice leaves it behind until the next pause, and the replays
  /// in between are skipped.
  std::shared_ptr<const Shadow> shadow;
  std::shared_ptr<const Shadow> first_shadow;

  // Collectors: wait for answers in submission order. One more collector
  // than executors, so every request in flight has a collector on it even
  // while one of them replays a sampled search.
  const size_t ncollect = std::max<size_t>(2, config.serving.scheduler_threads) + 1;
  std::vector<Tally> tallies(ncollect);
  std::vector<std::thread> collectors;
  for (size_t c = 0; c < ncollect; ++c) {
    collectors.emplace_back([&, c] {
      Tally& tally = tallies[c];
      while (true) {
        Pending p;
        {
          std::unique_lock<std::mutex> lock(q_mu);
          q_cv.wait(lock, [&] { return !queue.empty() || generator_done; });
          if (queue.empty()) return;
          p = std::move(queue.front());
          queue.pop_front();
        }
        struct Handled {
          std::atomic<uint64_t>& n;
          ~Handled() { n.fetch_sub(1, std::memory_order_release); }
        } handled{outstanding};
        dita::Result<dita::QueryResult> r = p.fut.get();
        const double done = Now();
        if (p.slice == kWarmup) continue;
        const int w = p.traced ? 1 : 0;
        if (!r.ok()) {
          ++tally.errors;
          if (tally.problems.size() < 3) {
            tally.problems.push_back("read failed: " + r.status().ToString());
          }
          continue;
        }
        // Timed from the actual send. Submit never blocks on the service,
        // so how late the generator sent is the host's scheduling noise,
        // not backpressure: counted in, it swung the read p50 by 27%
        // across seeds. It is reported apart (serving.late_ms), and the
        // from-schedule series stays in the details (read_sched_us).
        const double us = (done - p.sent) * 1e6;
        tally.read_sched_us.push_back((done - p.scheduled) * 1e6);
        tally.read_us[w].push_back(us);
        tally.read_slice[w].push_back(p.slice);
        if (tally.last_done.size() <= p.slice) tally.last_done.resize(p.slice + 1, 0.0);
        tally.last_done[p.slice] = std::max(tally.last_done[p.slice], done);
        (p.knn ? tally.knn_us : tally.search_us)[w].push_back(us);
        if (p.seq % check_every == 0) {
          CheckItem item;
          item.knn = p.knn;
          item.idx = p.idx;
          item.writes_applied = r->serving.version - r->serving.epoch;
          item.ids = r->ids;
          item.neighbors = r->neighbors;
          tally.checks.push_back(std::move(item));
        }
        if (w == 0) continue;
        const dita::QueryStats& qs = r->search_stats;
        if (p.knn) {
          tally.knn_traced += 1.0;
          tally.knn_partitions += static_cast<double>(qs.partitions_probed);
          tally.knn_candidates += static_cast<double>(qs.candidates);
          continue;
        }
        tally.funnel.Add(qs.verify, qs.makespan_seconds);
        tally.searches_traced += 1.0;
        tally.delta_scanned += static_cast<double>(r->serving.delta_scanned);
        if (p.seq % kSampleEvery != 0) continue;
        // Replay only when the snapshot the answer came from is still the
        // newest one and the shadow mirrors its base.
        const std::shared_ptr<const dita::TableSnapshot> snap = svc->Pin();
        if (snap->version != r->serving.version || shadow == nullptr ||
            shadow->tag != snap->epoch) {
          ++tally.skipped_replays;
          continue;
        }
        RequestTrace tr(spans, static_cast<uint32_t>(c));
        const int32_t root = tr.Open("request", p.scheduled, -1);
        tr.Span("service.submit_to_answer", p.scheduled, done, root);
        ReplayServiceSearch(
            *svc, *snap, *shadow, searches[p.idx],
            [&](dita::QueryResult* out, double* out_us) {
              *out = *r;
              *out_us = us;
              return true;
            },
            true, &tr, root, &tally.ledger);
        tr.Close(root, Now());
        tr.Commit();
      }
    });
  }

  // The load runs in slices. After each one the generator and the writer
  // stop, every read in flight is answered, a running merge publishes, and
  // then the cores are probed with nothing of the program running.
  Tally gen_tally;
  Tally writer_tally;
  SliceSpeeds speeds;
  std::vector<double> slice_start;  // by measured slice
  double rss_at_half = 0.0;
  size_t next_arrival = 0;
  size_t next_write = 0;
  uint64_t merge_wait_timeouts = 0;
  bool aborted = false;
  for (size_t s = 0; s < total_slices; ++s) {
    const bool warm = s == 0;
    const bool traced = s > window_slices;
    const size_t measured = warm ? kWarmup : s - 1;
    if (traced && s == window_slices + 1) rss_at_half = PeakRssMb();
    if (traced) {
      const std::shared_ptr<const dita::TableSnapshot> snap = svc->Pin();
      if (snap->base_data != nullptr &&
          (shadow == nullptr || shadow->tag != snap->epoch)) {
        std::shared_ptr<Shadow> built = Shadow::Build(*snap->base_data, config, &err);
        if (built == nullptr) {
          std::fprintf(stderr, "serve-ingest: shadow build failed: %s\n", err.c_str());
          aborted = true;
          break;
        }
        built->tag = snap->epoch;
        if (first_shadow == nullptr) first_shadow = built;
        shadow = std::move(built);
      }
    }
    const double load0 = static_cast<double>(s) * slice;
    const double load1 = load0 + slice;
    const double wall0 = Now() + 1e-3;
    if (!warm) slice_start.push_back(wall0);

    // Reads: arrivals submitted on schedule, never waiting for answers.
    std::thread generator([&] {
      for (; next_arrival < arrivals.size() && arrivals[next_arrival].t < load1;
           ++next_arrival) {
        const Arrival& a = arrivals[next_arrival];
        const double t = wall0 + (a.t - load0);
        SleepUntil(t);
        Pending p;
        p.seq = next_arrival;
        p.knn = a.knn;
        p.idx = a.idx;
        p.scheduled = t;
        p.sent = Now();
        p.slice = measured;
        p.traced = traced;
        outstanding.fetch_add(1);
        p.fut = svc->Submit(a.knn ? knns[a.idx] : searches[a.idx]);
        if (!warm) gen_tally.late_us.push_back((p.sent - t) * 1e6);
        {
          std::lock_guard<std::mutex> lock(q_mu);
          queue.push_back(std::move(p));
        }
        q_cv.notify_one();
      }
    });
    // The writer: inserts and deletes at a fixed rate, timed from schedule.
    std::thread writer([&] {
      for (; next_write < writes.size(); ++next_write) {
        const double at = static_cast<double>(next_write + 1) / write_rate;
        if (at >= load1) break;
        const double t = wall0 + (at - load0);
        SleepUntil(t);
        const WriteOp& op = writes[next_write];
        const double c0 = Now();
        const dita::Status st = op.insert ? svc->Insert(op.traj) : svc->Delete(op.id);
        const double c1 = Now();
        writes_done.fetch_add(1);
        if (!st.ok()) {
          ++writer_tally.errors;
          writer_tally.problems.push_back("write failed: " + st.ToString());
          continue;
        }
        if (warm) continue;
        writer_tally.write_us[traced ? 1 : 0].push_back((c1 - t) * 1e6);
        writer_tally.write_call_us.push_back((c1 - c0) * 1e6);
      }
    });
    generator.join();
    writer.join();

    // The pause.
    while (outstanding.load(std::memory_order_acquire) > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    const double give_up = Now() + kMergeWaitSeconds;
    while (svc->delta_ops() >= config.serving.merge_threshold) {
      if (Now() >= give_up) {
        ++merge_wait_timeouts;
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    speeds.Boundary();
  }
  {
    std::lock_guard<std::mutex> lock(q_mu);
    generator_done = true;
  }
  q_cv.notify_all();
  for (std::thread& t : collectors) t.join();
  if (aborted) return 1;
  const double rss_end = PeakRssMb();

  Tally all;
  all.Merge(gen_tally);
  all.Merge(writer_tally);
  for (Tally& t : tallies) all.Merge(t);
  for (const std::string& p : all.problems) rep->Fail(p);
  for (uint64_t i = all.problems.size(); i < all.errors; ++i) {
    rep->Fail("an operation returned an error");
  }
  for (int w = 0; w < 2; ++w) {
    rep->attempted += all.read_us[w].size() + all.write_us[w].size();
  }
  rep->attempted += all.errors;

  // Read latencies are scaled to the reference speed of the slice they were
  // sent in. The achieved read rate is the reads answered per second of the
  // time it took to answer them: each slice counts from its start to its
  // last answer. A service that keeps up reads about the offered rate; one
  // that falls behind drains each slice late and reads its capacity. It is
  // a wall-clock rate against a wall-clock schedule and is not scaled.
  all.last_done.resize(slice_start.size(), 0.0);
  const auto e2e = [&](int w, double setup_s, double rss) {
    std::vector<double> scaled(all.read_us[w].size());
    for (size_t i = 0; i < scaled.size(); ++i) {
      scaled[i] = all.read_us[w][i] * speeds.Of(all.read_slice[w][i]);
    }
    const Dist d = Summarize(std::move(scaled));
    double busy_s = 0.0;
    for (size_t s = w * window_slices; s < (w + 1) * window_slices; ++s) {
      busy_s += std::max(0.0, all.last_done[s] - slice_start[s]);
    }
    const double rate = busy_s > 0.0 ? static_cast<double>(d.n) / busy_s : 0.0;
    return EndToEnd{setup_s, rate, d.p50 / 1e3, d.E2ETail() / 1e3, rss};
  };
  {  // EXPERIMENT: alternative estimators
    const size_t groups = 5;
    std::vector<std::vector<double>> g(groups), gk(groups);
    std::vector<double> scaled_all, knn_scaled;
    for (size_t i = 0; i < all.read_us[0].size(); ++i) {
      const double v = all.read_us[0][i] * speeds.Of(all.read_slice[0][i]);
      g[all.read_slice[0][i] * groups / window_slices].push_back(v);
      scaled_all.push_back(v);
    }
    std::vector<double> gp99, gp50;
    for (auto& x : g) {
      Dist d = Summarize(x);
      gp99.push_back(d.p99);
      gp50.push_back(d.p50);
    }
    rep->Detail("x.grp_p99", "us", Median(gp99));
    rep->Detail("x.grp_p50", "us", Median(gp50));
    std::sort(scaled_all.begin(), scaled_all.end());
    rep->Detail("x.p95", "us", scaled_all[scaled_all.size() * 95 / 100]);
    rep->Detail("x.p98", "us", scaled_all[scaled_all.size() * 98 / 100]);
    std::vector<double> ks;
    for (size_t i = 0; i < all.knn_us[0].size(); ++i) ks.push_back(all.knn_us[0][i]);
    rep->Detail("x.knn_mean_raw", "us", Mean(ks));
    std::vector<std::vector<double>> per(window_slices);
    for (size_t i = 0; i < all.read_us[0].size(); ++i) {
      per[all.read_slice[0][i]].push_back(all.read_us[0][i] * speeds.Of(all.read_slice[0][i]));
    }
    std::vector<double> smax, sp99, sp98;
    for (auto& x : per) {
      if (x.empty()) continue;
      std::sort(x.begin(), x.end());
      smax.push_back(x.back());
      sp99.push_back(x[x.size() * 99 / 100]);
      sp98.push_back(x[x.size() * 98 / 100]);
    }
    rep->Detail("x.slice_max_med", "us", Median(smax));
    rep->Detail("x.slice_p99_med", "us", Median(sp99));
    rep->Detail("x.slice_p98_med", "us", Median(sp98));
    rep->Detail("x.tail_runscaled", "us", Summarize(all.read_us[0]).p99 * speeds.Mean());
    if (std::FILE* f = std::fopen(".bench_build/x_lat.txt", "w")) {
      for (double v : all.knn_us[0]) std::fprintf(f, "k %.1f\n", v);
      for (double v : all.search_us[0]) std::fprintf(f, "s %.1f\n", v);
      std::fclose(f);
    }
  }
  rep->Detail("host.speed", "ratio", speeds.Mean());
  rep->Detail("host.setup_speed", "ratio", setup.speeds.Mean());
  const EndToEnd e_plain =
      e2e(0, Median(setup.plain), args.trace ? rss_at_half : rss_end);
  const Dist search_d = Summarize(all.search_us[0]);
  const Dist knn_d = Summarize(all.knn_us[0]);
  const Dist write_d = Summarize(all.write_us[0]);
  rep->DetailDist("read_us", Summarize(all.read_us[0]));
  rep->DetailDist("read_sched_us", Summarize(all.read_sched_us));
  rep->DetailDist("search_us", search_d);
  rep->DetailDist("knn_us", knn_d);
  rep->DetailDist("write_us", write_d);

  if (args.trace) {
    const EndToEnd e_traced = e2e(1, Median(setup.traced), rss_end);
    EmitEndToEnd(rep, e_plain, &e_traced);
    rep->Layer("host.speed", "ratio", speeds.Mean());
    all.ledger.Emit(rep, /*service=*/true);
    all.funnel.Emit(rep);
    const std::shared_ptr<const dita::TableSnapshot> snap = svc->Pin();
    if (first_shadow != nullptr) {
      EmitBuildLayers(rep, *first_shadow, snap->base->index_stats());
    }
    EmitIdleJoinLayers(rep);
    const auto per = [](double sum, double n) { return n > 0.0 ? sum / n : 0.0; };
    rep->Layer("serving.delta_scanned", "count",
               per(all.delta_scanned, all.searches_traced));
    rep->Layer("serving.write_us", "us", Mean(all.write_call_us));
    const dita::DitaService::ServiceStats st = svc->Stats();
    rep->Layer("serving.merges", "count", static_cast<double>(st.merges));
    rep->Layer("serving.merge_busy_s", "s", st.merge_busy_seconds);
    rep->Layer("serving.queue_wait_us", "us",
               per(st.queue_wait.sum, static_cast<double>(st.queue_wait.count)) * 1e6);
    rep->Layer("serving.late_ms", "ms", Summarize(all.late_us).p99 / 1e3);
    rep->Layer("serving.search_p50_us", "us", search_d.p50);
    rep->Layer("serving.search_tail_us", "us", search_d.tail);
    rep->Layer("serving.knn_p50_us", "us", knn_d.p50);
    rep->Layer("serving.knn_tail_us", "us", knn_d.tail);
    rep->Layer("serving.write_p50_us", "us", write_d.p50);
    rep->Layer("serving.write_tail_us", "us", write_d.tail);
    rep->Layer("core.knn.partitions_probed", "count",
               per(all.knn_partitions, all.knn_traced));
    rep->Layer("core.knn.candidates", "count", per(all.knn_candidates, all.knn_traced));
    rep->Layer("cluster.scaling_eff", "ratio",
               ScalingEfficiency(*snap->base, searches, 4, args.smoke ? 0.1 : 0.5));
    rep->Detail("ledger.skipped_replays", "count",
                static_cast<double>(all.skipped_replays));
  } else {
    EmitEndToEnd(rep, e_plain, nullptr);
  }
  const dita::DitaService::ServiceStats st = svc->Stats();
  rep->Detail("merges", "count", static_cast<double>(st.merges));
  rep->Detail("writes", "count", static_cast<double>(writes_done.load()));
  rep->Detail("late_p99_us", "us", Summarize(all.late_us).p99);
  rep->Detail("table.trajectories", "count", static_cast<double>(table.size()));
  rep->Detail("read_rate", "1/s", read_rate);
  rep->Detail("write_rate", "1/s", write_rate);
  rep->Detail("reads_answered", "count", static_cast<double>(all.read_us[0].size()));
  rep->Detail("merge_wait_timeouts", "count", static_cast<double>(merge_wait_timeouts));

  // Correctness: each checked answer against a naive scan of the live set
  // of the snapshot it reports. Only the writer publishes besides merges,
  // and both bump the version by one (merges also bump the epoch), so that
  // live set is the table plus the first (version - epoch) writes.
  svc->Stop();
  std::sort(all.checks.begin(), all.checks.end(),
            [](const CheckItem& a, const CheckItem& b) {
              return a.writes_applied < b.writes_applied;
            });
  std::unordered_map<dita::TrajectoryId, const dita::Trajectory*> live_map;
  for (const dita::Trajectory& t : table.trajectories()) live_map[t.id()] = &t;
  std::vector<std::shared_ptr<const Live>> lives(all.checks.size());
  uint64_t applied = 0;
  std::shared_ptr<const Live> live;
  for (size_t i = 0; i < all.checks.size(); ++i) {
    const uint64_t want = all.checks[i].writes_applied;
    if (want > writes_done.load()) {
      rep->Fail("an answer reports more writes than were made");
      continue;
    }
    if (live == nullptr || applied != want) {
      for (; applied < want; ++applied) {
        const WriteOp& op = writes[applied];
        if (op.insert) {
          live_map[op.id] = &op.traj;
        } else {
          live_map.erase(op.id);
        }
      }
      auto l = std::make_shared<Live>();
      l->reserve(live_map.size());
      for (const auto& [id, t] : live_map) l->push_back(t);
      live = std::move(l);
    }
    lives[i] = live;
  }
  const std::shared_ptr<dita::TrajectoryDistance> dist =
      *dita::MakeDistance(config.distance, config.distance_params);
  std::vector<std::string> wrong(all.checks.size());
  ParallelFor(all.checks.size(), 4, [&](size_t i) {
    const CheckItem& c = all.checks[i];
    if (lives[i] == nullptr) return;
    if (c.knn) {
      wrong[i] = CheckKnn(*dist, *lives[i], knns[c.idx].query, kKnnK, c.neighbors);
    } else {
      std::vector<dita::TrajectoryId> got = c.ids;
      std::sort(got.begin(), got.end());
      const std::string diff =
          DiffIds(NaiveSearch(*dist, *lives[i], searches[c.idx].query, kTau), got);
      if (!diff.empty()) wrong[i] = "search answer wrong: " + diff;
    }
  });
  for (const std::string& w : wrong) {
    if (!w.empty()) rep->Fail(w);
  }
  rep->Detail("check.compared", "count", static_cast<double>(all.checks.size()));
  return 0;
}

}  // namespace perfbench
