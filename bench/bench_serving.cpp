// Two serving-layer A/Bs that the repo benchmark (perfbench/) does not
// cover: the answer cache on against off under a skewed repeating read
// workload with epoch publishes mid-stream, and the observability plane on
// against off under a closed-loop read workload. Every answer in both is
// compared against ground truth captured before the measured windows, so
// wrong_answers must print 0. Open-loop search/kNN traffic against a writer
// with background merges is perfbench's serve-ingest workload.
//
// Emits BENCH_serving.json next to the other BENCH_*.json files.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "serving/service.h"
#include "util/logging.h"
#include "util/timer.h"
#include "workload/generator.h"

namespace dita {
namespace {

Dataset Region(size_t n, uint64_t seed, double lo, double hi) {
  GeneratorConfig cfg;
  cfg.cardinality = n;
  cfg.region = MBR(Point{lo, lo}, Point{hi, hi});
  cfg.step = 0.01;
  cfg.avg_len = 24;
  cfg.min_len = 6;
  cfg.max_len = 64;
  cfg.seed = seed;
  return GenerateTaxiDataset(cfg);
}

/// Answer-cache A/B (DESIGN.md §5g): the same skewed repeating read
/// workload — 80% of traffic on 4 hot probes, the rest on a 12-probe warm
/// set — against two otherwise-identical services, one with the answer
/// cache off (the default) and one holding 256 entries. A far-region
/// insert lands every burst, so the on-mode run pays an epoch publish and
/// a full cache invalidation per burst and still has to win. Every answer
/// is compared against ground truth captured before the window (far-region
/// writes cannot change base-region answers), so the gain is for
/// bit-identical results.
struct CacheResult {
  double off_qps = 0.0;
  double on_qps = 0.0;
  double gain = 0.0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t invalidations = 0;
  size_t wrong_answers = 0;
};

CacheResult RunCache(const bench::Args& args) {
  CacheResult out;
  const size_t base_n = static_cast<size_t>(1200 * args.scale);
  const Dataset base = Region(base_n, 53, 0.0, 1.0);
  const Dataset far = Region(256, 54, 10.0, 11.0);
  const double tau = 0.003;
  const double window_s = args.quick ? 0.3 : 1.5;
  constexpr size_t kProbes = 16;
  constexpr size_t kBurst = 256;

  auto run_mode = [&](size_t cache_entries, uint64_t* hits, uint64_t* misses,
                      uint64_t* invalidations, size_t* wrong) -> double {
    DitaConfig config = bench::DefaultConfig();
    config.serving.scheduler_threads = 2;
    config.serving.answer_cache_entries = cache_entries;
    auto cluster = bench::MakeCluster(args.workers);
    DitaService service(cluster, config);
    DITA_CHECK(service.Start(base).ok());

    std::vector<const Trajectory*> probes;
    std::vector<std::vector<TrajectoryId>> expect(kProbes);
    for (size_t i = 0; i < kProbes; ++i) {
      probes.push_back(&base[(i * 211) % base.size()]);
      QueryRequest req;
      req.kind = QueryKind::kSearch;
      req.query = *probes[i];
      req.tau = tau;
      auto r = service.Execute(req);
      DITA_CHECK(r.ok());
      expect[i] = r->ids;
    }

    size_t done = 0;
    size_t writes = 0;
    std::mt19937_64 rng(5678);
    WallTimer timer;
    while (timer.Seconds() < window_s) {
      // One far-region insert per burst: the epoch bump invalidates the
      // whole cache mid-stream without changing any base-region answer.
      if (writes < far.size()) {
        DITA_CHECK(service
                       .Insert(Trajectory(TrajectoryId(70000 + writes),
                                          far[writes].points()))
                       .ok());
        ++writes;
      }
      for (size_t i = 0; i < kBurst; ++i) {
        const size_t pi = (rng() % 10) < 8 ? rng() % 4 : 4 + rng() % 12;
        QueryRequest req;
        req.kind = QueryKind::kSearch;
        req.query = *probes[pi];
        req.tau = tau;
        auto r = service.Execute(req);
        ++done;
        if (!r.ok() || r->ids != expect[pi]) ++*wrong;
      }
    }
    const double qps = double(done) / timer.Seconds();
    *hits = service.cache_hits();
    *misses = service.cache_misses();
    *invalidations = service.cache_invalidations();
    service.Stop();
    return qps;
  };

  uint64_t off_hits = 0, off_misses = 0, off_inval = 0;
  out.off_qps =
      run_mode(0, &off_hits, &off_misses, &off_inval, &out.wrong_answers);
  out.on_qps = run_mode(256, &out.hits, &out.misses, &out.invalidations,
                        &out.wrong_answers);
  out.gain = out.off_qps > 0.0 ? out.on_qps / out.off_qps : 0.0;
  return out;
}

/// Observability overhead A/B: an identical closed-loop read workload
/// against a service with everything that is on by default (registry
/// metrics, a large flight recorder, and per-query stats with the EXPLAIN
/// record, i.e. QueryRequest::collect_stats) and one with all of it off
/// (metrics disabled, recorder capacity 0, collect_stats false — the
/// lifecycle stamping itself cannot be turned off and is charged to both
/// sides). Tracing is excluded: its global span mutex is a known
/// serializer and it is a debugging tool, not a production default
/// (DESIGN.md §5h). The overhead is reported, not gated.
struct ObsOverheadResult {
  double off_qps = 0.0;
  double on_qps = 0.0;
  double overhead_pct = 0.0;
  size_t wrong_answers = 0;
};

ObsOverheadResult RunObsOverhead(const bench::Args& args) {
  ObsOverheadResult out;
  const size_t base_n = static_cast<size_t>(1200 * args.scale);
  const Dataset base = Region(base_n, 61, 0.0, 1.0);
  const double tau = 0.003;
  const double window_s = args.quick ? 0.15 : 0.3;
  constexpr size_t kProbes = 16;

  struct Mode {
    bool obs_on = false;
    std::shared_ptr<Cluster> cluster;
    std::unique_ptr<DitaService> service;
    std::vector<const Trajectory*> probes;
    std::vector<std::vector<TrajectoryId>> expect;
  };
  auto make_mode = [&](bool obs_on) -> Mode {
    Mode m;
    m.obs_on = obs_on;
    DitaConfig config = bench::DefaultConfig();
    config.enable_metrics = obs_on;
    config.serving.flight_recorder_entries = obs_on ? 1024 : 0;
    config.serving.scheduler_threads = 2;
    m.cluster = bench::MakeCluster(args.workers);
    m.service = std::make_unique<DitaService>(m.cluster, config);
    DITA_CHECK(m.service->Start(base).ok());
    m.expect.resize(kProbes);
    for (size_t i = 0; i < kProbes; ++i) {
      m.probes.push_back(&base[(i * 197) % base.size()]);
      QueryRequest req;
      req.kind = QueryKind::kSearch;
      req.query = *m.probes[i];
      req.tau = tau;
      auto r = m.service->Execute(req);
      DITA_CHECK(r.ok());
      m.expect[i] = r->ids;
    }
    return m;
  };
  auto measure = [&](Mode& m, size_t* wrong) -> double {
    size_t done = 0;
    std::mt19937_64 rng(4242);
    WallTimer timer;
    while (timer.Seconds() < window_s) {
      const size_t pi = size_t(rng()) % kProbes;
      QueryRequest req;
      req.kind = QueryKind::kSearch;
      req.query = *m.probes[pi];
      req.tau = tau;
      req.collect_stats = m.obs_on;
      auto r = m.service->Execute(req);
      ++done;
      if (!r.ok() || r->ids != m.expect[pi]) ++*wrong;
    }
    return double(done) / timer.Seconds();
  };

  // Both services live across the whole measurement; each rep measures the
  // two modes back-to-back (order flipping every rep) and contributes one
  // *paired* overhead sample, so drift that is slow against a rep —
  // allocator state, frequency scaling, a noisy neighbor's burst — hits
  // both sides of the ratio and cancels. The reported numbers are medians
  // over reps, so a mean or best-of cannot let one burst-hit window swing
  // the figure.
  const int reps = args.quick ? 7 : 15;
  Mode off = make_mode(false);
  Mode on = make_mode(true);
  std::vector<double> off_r, on_r, over_r;
  for (int rep = 0; rep < reps; ++rep) {
    double o, n;
    if (rep % 2 == 0) {
      o = measure(off, &out.wrong_answers);
      n = measure(on, &out.wrong_answers);
    } else {
      n = measure(on, &out.wrong_answers);
      o = measure(off, &out.wrong_answers);
    }
    off_r.push_back(o);
    on_r.push_back(n);
    over_r.push_back(o > 0.0 ? (o - n) / o * 100.0 : 0.0);
  }
  off.service->Stop();
  on.service->Stop();
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  out.off_qps = median(off_r);
  out.on_qps = median(on_r);
  out.overhead_pct = median(over_r);
  return out;
}

void WriteJson(const char* path, const bench::Args& args, const CacheResult& c,
               const ObsOverheadResult& o) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "  \"workload\": {\"scale\": %.2f, \"workers\": %zu},\n"
      "  \"obs_overhead\": {\"off_qps\": %.1f, \"on_qps\": %.1f, "
      "\"overhead_pct\": %.2f, \"wrong_answers\": %zu},\n"
      "  \"cache\": {\"off_qps\": %.1f, \"on_qps\": %.1f, \"gain\": %.2f, "
      "\"hits\": %llu, \"misses\": %llu, \"invalidations\": %llu, "
      "\"wrong_answers\": %zu}\n}\n",
      args.scale, args.workers, o.off_qps, o.on_qps, o.overhead_pct,
      o.wrong_answers, c.off_qps, c.on_qps, c.gain,
      static_cast<unsigned long long>(c.hits),
      static_cast<unsigned long long>(c.misses),
      static_cast<unsigned long long>(c.invalidations), c.wrong_answers);
  const std::string json =
      "{\n  \"meta\": " + bench::MetaJson() + ",\n" + buf;
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace
}  // namespace dita

int main(int argc, char** argv) {
  auto args = dita::bench::ParseArgs(argc, argv);
  std::printf("Serving-layer A/Bs (scale=%.2f workers=%zu)\n", args.scale,
              args.workers);
  const auto c = dita::RunCache(args);
  std::printf(
      "cache:    off=%.1f qps on=%.1f qps gain=%.2fx | hits=%llu misses=%llu "
      "invalidations=%llu wrong=%zu\n",
      c.off_qps, c.on_qps, c.gain, static_cast<unsigned long long>(c.hits),
      static_cast<unsigned long long>(c.misses),
      static_cast<unsigned long long>(c.invalidations), c.wrong_answers);
  const auto o = dita::RunObsOverhead(args);
  std::printf(
      "obs:      off=%.1f qps on=%.1f qps overhead=%.2f%% wrong=%zu\n",
      o.off_qps, o.on_qps, o.overhead_pct, o.wrong_answers);
  const std::string out_path =
      args.out.empty() ? "BENCH_serving.json" : args.out;
  dita::WriteJson(out_path.c_str(), args, c, o);
  return c.wrong_answers + o.wrong_answers == 0 ? 0 : 1;
}
