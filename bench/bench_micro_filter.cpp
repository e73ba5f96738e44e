// Micro-benchmarks for the filter side of DITA: trie candidate collection,
// global R-tree probes, and index construction throughput — the §5 filtering
// costs that PR 2's verification work exposed as the new bottleneck.
//
// Before the google-benchmark suite runs, the binary times these primitives
// on a fixed generated workload and writes a machine-readable
// BENCH_micro_filter.json (trie CollectCandidates ns/query per prune mode and
// threshold, R-tree probe ns/query, trie/partition build wall time and
// trajectories/sec) so filter performance is tracked across PRs next to
// BENCH_micro_distance.json, then runs the google-benchmark suite.
//
// Every JSON timing is the median of five windows of 0.1 s. Flags: the
// common bench CLI (bench::ParseArgs). --out=PATH moves the JSON (default
// BENCH_micro_filter.json in the working directory); --quick shortens every
// timing window to 10 ms and skips the google-benchmark suite.
// google-benchmark's own --benchmark_* flags pass through.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/partitioner.h"
#include "index/cell.h"
#include "index/rtree.h"
#include "index/trie_index.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "workload/generator.h"

namespace dita {
namespace {

Dataset FilterDataset(size_t n, uint64_t seed = 71) {
  GeneratorConfig cfg;
  cfg.cardinality = n;
  cfg.avg_len = 40;
  cfg.min_len = 8;
  cfg.max_len = 160;
  cfg.seed = seed;
  return GenerateTaxiDataset(cfg);
}

TrieIndex::Options FilterTrieOptions() {
  TrieIndex::Options opts;
  opts.num_pivots = 4;
  opts.align_fanout = 8;
  opts.pivot_fanout = 4;
  opts.leaf_capacity = 4;
  return opts;
}

/// Measurement window per timed primitive; --quick shrinks it so the JSON
/// write finishes in about a second (numbers get noisy, schema stays
/// complete — ci.sh bench-smoke gates on shape, not precision).
double g_measure_seconds = 0.1;

/// Windows per timed primitive. Single 0.1 s windows read the same trie
/// collect anywhere in a ±30 % band run to run; the median of five holds
/// still.
constexpr int kWindows = 5;

/// Median ns per call of `fn` over kWindows windows of g_measure_seconds.
template <typename Fn>
double NsPerCall(Fn&& fn) {
  return bench::MedianNsPerCall(fn, g_measure_seconds, kWindows);
}

// ---------------------------------------------------------------------------
// google-benchmark registrations.
// ---------------------------------------------------------------------------

void BM_TrieCollect(benchmark::State& state, PruneMode mode) {
  Dataset ds = FilterDataset(2048);
  TrieIndex trie;
  if (!trie.Build(ds.trajectories(), FilterTrieOptions()).ok()) {
    state.SkipWithError("trie build failed");
    return;
  }
  std::vector<uint32_t> out;
  size_t i = 0;
  for (auto _ : state) {
    TrieIndex::SearchSpec spec;
    const Trajectory& q = ds[i % ds.size()];
    spec.query = &q;
    spec.tau = mode == PruneMode::kEditCount ? 4.0 : 0.01;
    spec.mode = mode;
    spec.epsilon = 0.005;
    out.clear();
    trie.CollectCandidates(spec, &out);
    benchmark::DoNotOptimize(out.size());
    ++i;
  }
}
BENCHMARK_CAPTURE(BM_TrieCollect, Accumulate, PruneMode::kAccumulate);
BENCHMARK_CAPTURE(BM_TrieCollect, Max, PruneMode::kMax);
BENCHMARK_CAPTURE(BM_TrieCollect, EditCount, PruneMode::kEditCount);

void BM_RTreeProbe(benchmark::State& state) {
  Rng rng(17);
  std::vector<RTree::Entry> entries;
  for (uint32_t i = 0; i < 4096; ++i) {
    const Point lo{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)};
    const Point hi{lo.x + rng.Uniform(0.0, 0.02), lo.y + rng.Uniform(0.0, 0.02)};
    entries.push_back(RTree::Entry{MBR(lo, hi), i});
  }
  RTree tree;
  tree.Build(std::move(entries), 16);
  std::vector<uint32_t> out;
  size_t i = 0;
  for (auto _ : state) {
    const Point p{0.001 * static_cast<double>(i % 1000), 0.5};
    out.clear();
    tree.SearchWithinDistance(p, 0.05, &out);
    benchmark::DoNotOptimize(out.size());
    ++i;
  }
}
BENCHMARK(BM_RTreeProbe);

void BM_TrieBuild(benchmark::State& state) {
  Dataset ds = FilterDataset(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    TrieIndex trie;
    benchmark::DoNotOptimize(
        trie.Build(ds.trajectories(), FilterTrieOptions()).ok());
  }
}
BENCHMARK(BM_TrieBuild)->Arg(1024)->Arg(4096);

// ---------------------------------------------------------------------------
// Machine-readable filter timings: BENCH_micro_filter.json.
// ---------------------------------------------------------------------------

void WriteFilterJson(const char* path) {
  std::string json = "{\n";
  json += "  \"meta\": " + bench::MetaJson() + ",\n";
  char buf[160];

  // --- Trie candidate collection, ns/query. ---
  // 4096 trajectories, the engine-default trie shape, 64 query trajectories
  // drawn from the dataset; taus span prune-heavy to scan-heavy regimes.
  Dataset ds = FilterDataset(4096);
  TrieIndex trie;
  if (!trie.Build(ds.trajectories(), FilterTrieOptions()).ok()) {
    std::fprintf(stderr, "trie build failed\n");
    return;
  }
  const size_t num_queries = 64;
  std::vector<const Trajectory*> queries;
  for (size_t i = 0; i < num_queries; ++i) {
    queries.push_back(&ds[(i * 61) % ds.size()]);
  }
  std::vector<uint32_t> out;
  auto collect_ns = [&](PruneMode mode, double tau, double epsilon) {
    return NsPerCall([&] {
             for (const Trajectory* q : queries) {
               TrieIndex::SearchSpec spec;
               spec.query = q;
               spec.tau = tau;
               spec.mode = mode;
               spec.epsilon = epsilon;
               out.clear();
               trie.CollectCandidates(spec, &out);
               benchmark::DoNotOptimize(out.size());
             }
           }) /
           static_cast<double>(num_queries);
  };

  json += "  \"trie_collect_ns_per_query\": {\n";
  const std::pair<const char*, double> acc_taus[] = {
      {"tau_tight", 0.003}, {"tau_mid", 0.01}, {"tau_wide", 0.05}};
  json += "    \"accumulate\": {";
  for (size_t i = 0; i < 3; ++i) {
    const double ns = collect_ns(PruneMode::kAccumulate, acc_taus[i].second, 0.0);
    std::snprintf(buf, sizeof(buf), "\"%s\": %.1f", acc_taus[i].first, ns);
    json += buf;
    if (i + 1 < 3) json += ", ";
    std::printf("trie accumulate %-9s tau=%.3f %10.1f ns/query\n",
                acc_taus[i].first, acc_taus[i].second, ns);
  }
  json += "},\n";
  {
    const double ns = collect_ns(PruneMode::kMax, 0.01, 0.0);
    std::snprintf(buf, sizeof(buf), "    \"max\": {\"tau_mid\": %.1f},\n", ns);
    json += buf;
    std::printf("trie max       tau_mid   tau=0.010 %10.1f ns/query\n", ns);
  }
  {
    const double ns = collect_ns(PruneMode::kEditCount, 4.0, 0.005);
    std::snprintf(buf, sizeof(buf), "    \"edit\": {\"budget4\": %.1f}\n", ns);
    json += buf;
    std::printf("trie edit      budget=4            %10.1f ns/query\n", ns);
  }
  json += "  },\n";

  // --- Trie candidate-collection throughput, queries/sec (headline). ---
  {
    const double ns = collect_ns(PruneMode::kAccumulate, 0.01, 0.0);
    const double single_qps = 1e9 / ns;
    std::snprintf(buf, sizeof(buf),
                  "  \"trie_collect_queries_per_sec\": %.0f,\n", single_qps);
    json += buf;
    std::printf("trie throughput (accumulate, tau=0.01) %12.0f queries/sec\n",
                single_qps);
  }

  // --- Global R-tree probe, ns/query. ---
  {
    Rng rng(17);
    std::vector<RTree::Entry> entries;
    for (uint32_t i = 0; i < 4096; ++i) {
      const Point lo{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)};
      const Point hi{lo.x + rng.Uniform(0.0, 0.02),
                     lo.y + rng.Uniform(0.0, 0.02)};
      entries.push_back(RTree::Entry{MBR(lo, hi), i});
    }
    RTree tree;
    tree.Build(std::move(entries), 16);
    std::vector<uint32_t> hits;
    size_t qi = 0;
    const double within_ns = NsPerCall([&] {
      const Point p{0.001 * static_cast<double>(qi % 1000), 0.5};
      hits.clear();
      tree.SearchWithinDistance(p, 0.05, &hits);
      benchmark::DoNotOptimize(hits.size());
      ++qi;
    });
    const MBR range(Point{0.4, 0.4}, Point{0.6, 0.6});
    const double isect_ns = NsPerCall([&] {
      hits.clear();
      tree.SearchIntersecting(range, &hits);
      benchmark::DoNotOptimize(hits.size());
    });
    std::snprintf(buf, sizeof(buf),
                  "  \"rtree_probe_ns_per_query\": {\"within\": %.1f, "
                  "\"intersect\": %.1f},\n",
                  within_ns, isect_ns);
    json += buf;
    std::printf("rtree within   %10.1f ns/query\nrtree intersect%10.1f ns/query\n",
                within_ns, isect_ns);
  }

  // --- Index build wall time. ---
  json += "  \"index_build\": {\n";
  {
    // Trie build over 4096 trajectories (the per-partition build unit),
    // best of 3 to shed timer noise.
    double best_ms = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      TrieIndex t;
      WallTimer timer;
      if (!t.Build(ds.trajectories(), FilterTrieOptions()).ok()) return;
      best_ms = std::min(best_ms, timer.Millis());
    }
    std::snprintf(buf, sizeof(buf), "    \"trie_build_ms_4096\": %.2f,\n",
                  best_ms);
    json += buf;
    std::snprintf(buf, sizeof(buf), "    \"trie_build_traj_per_sec\": %.0f,\n",
                  4096.0 / (best_ms / 1e3));
    json += buf;
    std::printf("trie build     4096 traj %10.2f ms  (%.0f traj/sec)\n",
                best_ms, 4096.0 / (best_ms / 1e3));
  }
  {
    // Same build fanned over a pool (DitaConfig::build_threads): the digest
    // check proves the parallel path builds the identical structure while
    // it is being timed.
    const size_t threads =
        std::max<size_t>(2, std::thread::hardware_concurrency());
    ThreadPool pool(threads);
    TrieIndex serial;
    if (!serial.Build(ds.trajectories(), FilterTrieOptions()).ok()) return;
    double best_ms = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      TrieIndex t;
      WallTimer timer;
      if (!t.Build(ds.trajectories(), FilterTrieOptions(), &pool).ok()) return;
      best_ms = std::min(best_ms, timer.Millis());
      if (t.StructureDigest() != serial.StructureDigest()) {
        std::fprintf(stderr, "parallel build diverged from serial\n");
        return;
      }
    }
    std::snprintf(buf, sizeof(buf),
                  "    \"trie_build_parallel_ms_4096\": %.2f,\n", best_ms);
    json += buf;
    std::printf("trie build     4096 traj %10.2f ms  (pool of %zu)\n", best_ms,
                threads);
  }
  {
    // Two-level STR partitioning of 16384 trajectories (the driver-side
    // bulk sort the engine runs before any trie exists).
    Dataset big = FilterDataset(16384, 72);
    double best_ms = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      WallTimer timer;
      auto parts = PartitionByFirstLast(big.trajectories(), 8);
      if (!parts.ok()) return;
      benchmark::DoNotOptimize(parts->size());
      best_ms = std::min(best_ms, timer.Millis());
    }
    std::snprintf(buf, sizeof(buf), "    \"partition_ms_16384\": %.2f\n",
                  best_ms);
    json += buf;
    std::printf("partition      16384 traj %9.2f ms\n", best_ms);
  }
  json += "  },\n";

  // --- Cell lower bound early abandonment (Lemma 5.6). ---
  // ns/pair for the DTW and Frechet cell bounds with abandon_above = tau
  // versus an unbounded scan over the same random summary pairs. The
  // abandoning scan returns a partial sum that is still a valid lower
  // bound, so verification's accept/reject decision is unchanged — the
  // speedup is pure.
  {
    std::vector<CellSummary> sums;
    for (size_t i = 0; i < 256; ++i) {
      sums.push_back(CompressToCells(ds[i], 0.01));
    }
    double sink = 0.0;
    auto pair_ns = [&](bool frechet, double abandon) {
      size_t idx = 0;
      return NsPerCall([&] {
        const CellSummary& a = sums[idx % sums.size()];
        const CellSummary& b = sums[(idx * 7 + 13) % sums.size()];
        sink += frechet ? CellLowerBoundFrechet(a, b, abandon)
                        : CellLowerBoundDtw(a, b, abandon);
        ++idx;
      });
    };
    const double inf = std::numeric_limits<double>::infinity();
    const double tau = 0.05;  // the trie sweep's tau_wide: abandon-friendly
    const double dtw_full = pair_ns(false, inf);
    const double dtw_ab = pair_ns(false, tau);
    const double fr_full = pair_ns(true, inf);
    const double fr_ab = pair_ns(true, tau);
    benchmark::DoNotOptimize(sink);
    json += "  \"cell_bound\": {\n";
    std::snprintf(buf, sizeof(buf),
                  "    \"dtw_ns_per_pair\": {\"no_abandon\": %.1f, "
                  "\"abandon_tau\": %.1f},\n",
                  dtw_full, dtw_ab);
    json += buf;
    std::snprintf(buf, sizeof(buf),
                  "    \"frechet_ns_per_pair\": {\"no_abandon\": %.1f, "
                  "\"abandon_tau\": %.1f},\n",
                  fr_full, fr_ab);
    json += buf;
    std::snprintf(buf, sizeof(buf), "    \"dtw_abandon_speedup\": %.2f,\n",
                  dtw_full / dtw_ab);
    json += buf;
    std::snprintf(buf, sizeof(buf), "    \"frechet_abandon_speedup\": %.2f\n",
                  fr_full / fr_ab);
    json += buf;
    json += "  }\n";
    std::printf("cell bound dtw     %8.1f -> %8.1f ns/pair (%.2fx)\n",
                dtw_full, dtw_ab, dtw_full / dtw_ab);
    std::printf("cell bound frechet %8.1f -> %8.1f ns/pair (%.2fx)\n",
                fr_full, fr_ab, fr_full / fr_ab);
  }

  json += "}\n";

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
  dita::WriteFilterJson(
      args.out.empty() ? "BENCH_micro_filter.json" : args.out.c_str());
  if (args.quick) return 0;  // smoke mode: JSON only
  int gargc = static_cast<int>(gbench.size());
  benchmark::Initialize(&gargc, gbench.data());
  if (benchmark::ReportUnrecognizedArguments(gargc, gbench.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
