// Micro-benchmarks (google-benchmark) for the distance kernels and the
// filtering primitives: the building blocks whose constants determine every
// experiment above. Run: ./build/bench/bench_micro_distance
//
// Before running the google-benchmark suite, the binary times the kernels on
// fixed-length trajectory pairs and writes a machine-readable
// BENCH_micro_distance.json (ns/pair per distance type and trajectory length,
// DTW WithinThreshold ns/pair per threshold regime, and verification
// throughput in pairs/sec) so the perf trajectory of the verification layer
// is tracked across PRs, then runs the google-benchmark suite.
//
// Flags: the common bench CLI (bench::ParseArgs). --out=PATH moves the JSON
// (default BENCH_micro_distance.json in the working directory); --quick
// shortens every timing window to 10 ms and skips the google-benchmark
// suite. google-benchmark's own --benchmark_* flags pass through.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/verifier.h"
#include "distance/distance.h"
#include "distance/dtw.h"
#include "index/cell.h"
#include "index/pivot.h"
#include "index/trie_index.h"
#include "util/rng.h"
#include "util/timer.h"
#include "workload/generator.h"

namespace dita {
namespace {

Dataset MicroDataset(size_t n = 512, double avg_len = 40) {
  GeneratorConfig cfg;
  cfg.cardinality = n;
  cfg.avg_len = avg_len;
  cfg.min_len = 8;
  cfg.max_len = static_cast<size_t>(avg_len * 4);
  cfg.seed = 71;
  return GenerateTaxiDataset(cfg);
}

void BM_DistanceCompute(benchmark::State& state, DistanceType type) {
  Dataset ds = MicroDataset();
  auto dist = *MakeDistance(type);
  size_t i = 0;
  for (auto _ : state) {
    const auto& a = ds[i % ds.size()];
    const auto& b = ds[(i * 7 + 1) % ds.size()];
    benchmark::DoNotOptimize(dist->Compute(a, b));
    ++i;
  }
}
BENCHMARK_CAPTURE(BM_DistanceCompute, DTW, DistanceType::kDTW);
BENCHMARK_CAPTURE(BM_DistanceCompute, Frechet, DistanceType::kFrechet);
BENCHMARK_CAPTURE(BM_DistanceCompute, EDR, DistanceType::kEDR);
BENCHMARK_CAPTURE(BM_DistanceCompute, LCSS, DistanceType::kLCSS);
BENCHMARK_CAPTURE(BM_DistanceCompute, ERP, DistanceType::kERP);

void BM_DtwWithinThreshold(benchmark::State& state) {
  Dataset ds = MicroDataset();
  Dtw dtw;
  const double tau = state.range(0) / 1000.0;
  size_t i = 0;
  for (auto _ : state) {
    const auto& a = ds[i % ds.size()];
    const auto& b = ds[(i * 7 + 1) % ds.size()];
    benchmark::DoNotOptimize(dtw.WithinThreshold(a, b, tau));
    ++i;
  }
}
BENCHMARK(BM_DtwWithinThreshold)->Arg(1)->Arg(5)->Arg(50);

void BM_Pamd(benchmark::State& state) {
  Dataset ds = MicroDataset();
  std::vector<IndexingSequence> seqs;
  for (const auto& t : ds.trajectories()) {
    seqs.push_back(BuildIndexingSequence(t, 4, PivotStrategy::kNeighborDistance));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Pamd(seqs[i % seqs.size()], ds[(i * 7 + 1) % ds.size()]));
    ++i;
  }
}
BENCHMARK(BM_Pamd);

void BM_CellLowerBound(benchmark::State& state) {
  Dataset ds = MicroDataset();
  std::vector<CellSummary> cells;
  for (const auto& t : ds.trajectories()) cells.push_back(CompressToCells(t, 0.005));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(CellLowerBoundDtw(cells[i % cells.size()],
                                               cells[(i * 7 + 1) % cells.size()],
                                               0.003));
    ++i;
  }
}
BENCHMARK(BM_CellLowerBound);

void BM_TrieProbe(benchmark::State& state) {
  Dataset ds = MicroDataset(2048);
  TrieIndex trie;
  TrieIndex::Options opts;
  opts.num_pivots = 4;
  opts.align_fanout = 8;
  opts.pivot_fanout = 4;
  opts.leaf_capacity = 4;
  if (!trie.Build(ds.trajectories(), opts).ok()) {
    state.SkipWithError("trie build failed");
    return;
  }
  size_t i = 0;
  for (auto _ : state) {
    TrieIndex::SearchSpec spec;
    const Trajectory& q = ds[i % ds.size()];
    spec.query = &q;
    spec.tau = 0.003;
    spec.mode = PruneMode::kAccumulate;
    std::vector<uint32_t> out;
    trie.CollectCandidates(spec, &out);
    benchmark::DoNotOptimize(out.size());
    ++i;
  }
}
BENCHMARK(BM_TrieProbe);

// ---------------------------------------------------------------------------
// Machine-readable kernel timings: BENCH_micro_distance.json.
// ---------------------------------------------------------------------------

/// Fixed-length workload: half the trajectories are noisy resamplings of a
/// shared route (pairs land near the DTW threshold band), half independent
/// walks (pairs reject quickly), mirroring what verification actually sees.
std::vector<Trajectory> FixedLengthWorkload(size_t count, size_t len,
                                            uint64_t seed) {
  Rng rng(seed);
  std::vector<Trajectory> out;
  out.reserve(count);
  // A handful of canonical routes; even-indexed trips resample route
  // (i/2 % routes), odd-indexed trips are independent walks.
  const size_t num_routes = 8;
  std::vector<std::vector<Point>> routes;
  for (size_t r = 0; r < num_routes; ++r) {
    std::vector<Point> route;
    Point pos{rng.Uniform(116.0, 116.8), rng.Uniform(39.6, 40.2)};
    double hx = rng.Uniform(-1.0, 1.0), hy = rng.Uniform(-1.0, 1.0);
    for (size_t i = 0; i < len; ++i) {
      route.push_back(pos);
      hx += rng.Gaussian(0, 0.4);
      hy += rng.Gaussian(0, 0.4);
      pos.x += 0.002 * hx / (1.0 + std::abs(hx));
      pos.y += 0.002 * hy / (1.0 + std::abs(hy));
    }
    routes.push_back(std::move(route));
  }
  for (size_t i = 0; i < count; ++i) {
    Trajectory t;
    t.set_id(static_cast<TrajectoryId>(i));
    if (i % 2 == 0) {
      const auto& route = routes[(i / 2) % num_routes];
      for (const Point& p : route) {
        t.mutable_points().push_back(
            Point{p.x + rng.Gaussian(0, 0.0002), p.y + rng.Gaussian(0, 0.0002)});
      }
    } else {
      Point pos{rng.Uniform(116.0, 116.8), rng.Uniform(39.6, 40.2)};
      for (size_t j = 0; j < len; ++j) {
        t.mutable_points().push_back(pos);
        pos.x += rng.Gaussian(0, 0.002);
        pos.y += rng.Gaussian(0, 0.002);
      }
    }
    out.push_back(std::move(t));
  }
  return out;
}

struct Pair {
  const Trajectory* a;
  const Trajectory* b;
};

std::vector<Pair> MakePairs(const std::vector<Trajectory>& ts) {
  std::vector<Pair> pairs;
  for (size_t i = 0; i < ts.size(); ++i) {
    pairs.push_back(Pair{&ts[i], &ts[(i * 7 + 1) % ts.size()]});
  }
  return pairs;
}

/// Wall-clock window of each JSON timing loop; --quick shrinks it.
double g_measure_seconds = 0.08;

/// Times `fn` over the pair list until ~g_measure_seconds of wall clock has
/// elapsed; returns ns per pair.
template <typename Fn>
double NsPerPair(const std::vector<Pair>& pairs, Fn&& fn) {
  // Warm-up pass (also faults in memory / populates scratch buffers).
  for (const Pair& p : pairs) fn(*p.a, *p.b);
  size_t done = 0;
  WallTimer timer;
  do {
    for (const Pair& p : pairs) fn(*p.a, *p.b);
    done += pairs.size();
  } while (timer.Seconds() < g_measure_seconds);
  return timer.Seconds() * 1e9 / static_cast<double>(done);
}

double Percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

void WriteMicroJson(const char* path) {
  const std::vector<size_t> lengths = {32, 64, 128, 256};
  const std::vector<DistanceType> types = {
      DistanceType::kDTW, DistanceType::kFrechet, DistanceType::kEDR,
      DistanceType::kLCSS, DistanceType::kERP};

  std::string json = "{\n";
  json += "  \"meta\": " + bench::MetaJson() + ",\n";

  // --- Compute ns/pair per distance type and length. ---
  json += "  \"compute_ns_per_pair\": {\n";
  for (size_t ti = 0; ti < types.size(); ++ti) {
    auto dist = *MakeDistance(types[ti]);
    json += std::string("    \"") + DistanceTypeName(types[ti]) + "\": {";
    for (size_t li = 0; li < lengths.size(); ++li) {
      const auto ts = FixedLengthWorkload(64, lengths[li], 9000 + lengths[li]);
      const auto pairs = MakePairs(ts);
      const double ns = NsPerPair(pairs, [&](const Trajectory& a,
                                             const Trajectory& b) {
        benchmark::DoNotOptimize(dist->Compute(a, b));
      });
      char buf[64];
      std::snprintf(buf, sizeof(buf), "\"%zu\": %.1f", lengths[li], ns);
      json += buf;
      if (li + 1 < lengths.size()) json += ", ";
      std::printf("compute %-7s len=%-4zu %10.1f ns/pair\n",
                  DistanceTypeName(types[ti]), lengths[li], ns);
    }
    json += ti + 1 < types.size() ? "},\n" : "}\n";
  }
  json += "  },\n";

  // --- DTW WithinThreshold ns/pair per length and threshold regime. ---
  // tau at the p25/p50/p75 of the workload's actual DTW distances, so each
  // regime mixes accepts and rejects the way live verification does.
  json += "  \"dtw_within_threshold_ns_per_pair\": {\n";
  Dtw dtw;
  for (size_t li = 0; li < lengths.size(); ++li) {
    const auto ts = FixedLengthWorkload(64, lengths[li], 9000 + lengths[li]);
    const auto pairs = MakePairs(ts);
    std::vector<double> dists;
    for (const Pair& p : pairs) dists.push_back(dtw.Compute(*p.a, *p.b));
    char buf[160];
    std::snprintf(buf, sizeof(buf), "    \"%zu\": {", lengths[li]);
    json += buf;
    const std::pair<const char*, double> regimes[] = {
        {"p25", Percentile(dists, 0.25)},
        {"p50", Percentile(dists, 0.50)},
        {"p75", Percentile(dists, 0.75)}};
    for (size_t ri = 0; ri < 3; ++ri) {
      const double tau = regimes[ri].second;
      const double ns = NsPerPair(pairs, [&](const Trajectory& a,
                                             const Trajectory& b) {
        benchmark::DoNotOptimize(dtw.WithinThreshold(a, b, tau));
      });
      std::snprintf(buf, sizeof(buf), "\"%s\": %.1f", regimes[ri].first, ns);
      json += buf;
      if (ri + 1 < 3) json += ", ";
      std::printf("dtw-wt  len=%-4zu %s tau=%.5f %10.1f ns/pair\n",
                  lengths[li], regimes[ri].first, tau, ns);
    }
    json += li + 1 < lengths.size() ? "},\n" : "}\n";
  }
  json += "  },\n";

  // --- Verification throughput (filter + DP) in pairs/sec per distance. ---
  json += "  \"verify_throughput_pairs_per_sec\": {\n";
  for (size_t ti = 0; ti < types.size(); ++ti) {
    DitaConfig config;
    config.distance = types[ti];
    auto dist = *MakeDistance(types[ti], config.distance_params);
    Verifier verifier(dist, config);
    const auto ts = FixedLengthWorkload(64, 64, 1234);
    const auto pairs = MakePairs(ts);
    std::vector<VerifyPrecomp> pre;
    pre.reserve(ts.size());
    for (const auto& t : ts) pre.push_back(VerifyPrecomp::For(t, 0.01));
    std::vector<double> dists;
    for (const Pair& p : pairs) dists.push_back(dist->Compute(*p.a, *p.b));
    const double tau = Percentile(dists, 0.5);
    // Index pairs so precomp lines up with trajectories.
    std::vector<std::pair<size_t, size_t>> idx_pairs;
    for (size_t i = 0; i < ts.size(); ++i) {
      idx_pairs.emplace_back(i, (i * 7 + 1) % ts.size());
    }
    for (const auto& [i, j] : idx_pairs) {  // warm-up
      verifier.Verify(ts[i], pre[i], ts[j], pre[j], tau, nullptr);
    }
    size_t done = 0;
    WallTimer timer;
    do {
      for (const auto& [i, j] : idx_pairs) {
        benchmark::DoNotOptimize(
            verifier.Verify(ts[i], pre[i], ts[j], pre[j], tau, nullptr));
      }
      done += idx_pairs.size();
    } while (timer.Seconds() < g_measure_seconds);
    const double pairs_per_sec = static_cast<double>(done) / timer.Seconds();
    char buf[96];
    std::snprintf(buf, sizeof(buf), "    \"%s\": %.0f",
                  DistanceTypeName(types[ti]), pairs_per_sec);
    json += buf;
    json += ti + 1 < types.size() ? ",\n" : "\n";
    std::printf("verify  %-7s len=64   %12.0f pairs/sec\n",
                DistanceTypeName(types[ti]), pairs_per_sec);
  }
  json += "  }\n}\n";

  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace
}  // namespace dita

int main(int argc, char** argv) {
  std::vector<char*> gbench;
  const dita::bench::Args args =
      dita::bench::ParseArgsWithBenchmarkFlags(argc, argv, &gbench);
  if (args.quick) dita::g_measure_seconds = 0.01;
  dita::WriteMicroJson(
      args.out.empty() ? "BENCH_micro_distance.json" : args.out.c_str());
  if (args.quick) return 0;  // smoke mode: JSON only
  int gargc = static_cast<int>(gbench.size());
  benchmark::Initialize(&gargc, gbench.data());
  if (benchmark::ReportUnrecognizedArguments(gargc, gbench.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
