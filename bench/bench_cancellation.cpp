// Cancellation responsiveness and token-check overhead, the two numbers the
// cooperative-cancellation design trades against each other:
//
//  * time-to-stop: how much work runs *after* a stop is requested. A second
//    thread calls Cancel() at a random instant while the workload loops;
//    `ops_observed() - ops_at_stop()` is the work charged between the cancel
//    and the loop observing it, in the charge points' own units (trie node
//    visits; DP rows). Reported as p50/p99 over repeated trials. The bound
//    is the checkpoint stride: 256 node visits in the trie traversal, 32
//    rows in the DP kernels, plus whatever one stride batch spans.
//
//  * token-check overhead: throughput of the two hottest instrumented loops
//    (trie CollectCandidates, DtwWithin) with a never-stopping context
//    attached versus no context. The two sides run in 15 interleaved pairs
//    of 100 ms windows; the overhead is the median of the per-pair ratios,
//    so host drift that spans a pair cancels out, and the reported rates
//    are each side's median window.
//
// Emits BENCH_cancellation.json next to the other BENCH_*.json files.
// Flags: the common bench CLI (bench::ParseArgs). --out=PATH moves the JSON;
// --quick runs 16 cancel trials instead of 128 and 5 pairs of 10 ms
// windows instead of 15 of 100 ms (smoke mode; noisy numbers).

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "distance/dp_scratch.h"
#include "distance/kernels.h"
#include "index/trie_index.h"
#include "util/query_context.h"
#include "workload/generator.h"

namespace dita {
namespace {

Dataset BenchDataset(size_t n, uint64_t seed = 71) {
  GeneratorConfig cfg;
  cfg.cardinality = n;
  cfg.avg_len = 40;
  cfg.min_len = 8;
  cfg.max_len = 160;
  cfg.seed = seed;
  return GenerateTaxiDataset(cfg);
}

TrieIndex::Options BenchTrieOptions() {
  TrieIndex::Options opts;
  opts.num_pivots = 4;
  opts.align_fanout = 8;
  opts.pivot_fanout = 4;
  opts.leaf_capacity = 4;
  return opts;
}

/// Measurement effort; --quick shrinks all three.
double g_window_seconds = 0.1;
int g_pairs = 15;
int g_cancel_trials = 128;

/// Paired timing of two loops: each side's median ns per call, and the
/// median over pairs of b's window divided by a's.
struct PairedNs {
  double a_ns;
  double b_ns;
  double b_over_a;
};

/// Runs g_pairs pairs of back-to-back windows of `a` and `b`, alternating
/// which side goes first. A pair's two windows see nearly the same host, so
/// drift slower than a pair cancels in its ratio; single runs of the median
/// ratio still spread over a few percent on a shared host.
template <typename FnA, typename FnB>
PairedNs MedianPairNs(FnA&& a, FnB&& b) {
  std::vector<double> na, nb, ratio;
  for (int i = 0; i < g_pairs; ++i) {
    double ta, tb;
    if (i % 2 == 0) {
      ta = bench::MedianNsPerCall(a, g_window_seconds, 1);
      tb = bench::MedianNsPerCall(b, g_window_seconds, 1);
    } else {
      tb = bench::MedianNsPerCall(b, g_window_seconds, 1);
      ta = bench::MedianNsPerCall(a, g_window_seconds, 1);
    }
    na.push_back(ta);
    nb.push_back(tb);
    ratio.push_back(tb / ta);
  }
  return {bench::Median(na), bench::Median(nb), bench::Median(ratio)};
}

uint64_t Percentile(std::vector<uint64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(p * double(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

// Keeps results alive without google-benchmark's DoNotOptimize.
volatile uint64_t g_sink = 0;

/// Runs `body` in a loop on a worker thread until a randomly-timed Cancel()
/// lands; returns the per-trial overshoot (ops charged after the cancel).
template <typename Body>
std::vector<uint64_t> AsyncCancelOvershoot(int trials, std::mt19937& rng,
                                           Body&& body) {
  std::uniform_int_distribution<int> delay_us(20, 2000);
  std::vector<uint64_t> overshoot;
  for (int t = 0; t < trials; ++t) {
    QueryContext ctx;
    std::thread worker([&] {
      while (!ctx.stopped()) body(ctx);
    });
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us(rng)));
    ctx.Cancel();
    worker.join();
    overshoot.push_back(ctx.ops_observed() - ctx.ops_at_stop());
  }
  return overshoot;
}

std::string OvershootJson(const char* key, const std::vector<uint64_t>& v) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "  \"%s\": {\"p50\": %llu, \"p99\": %llu, \"trials\": %zu},\n",
                key, static_cast<unsigned long long>(Percentile(v, 0.50)),
                static_cast<unsigned long long>(Percentile(v, 0.99)),
                v.size());
  return buf;
}

void WriteCancellationJson(const char* path) {
  std::string json = "{\n";
  json += "  \"meta\": " + bench::MetaJson() + ",\n";
  char buf[200];
  std::mt19937 rng(20260808);

  Dataset ds = BenchDataset(4096);
  TrieIndex trie;
  if (!trie.Build(ds.trajectories(), BenchTrieOptions()).ok()) {
    std::fprintf(stderr, "trie build failed\n");
    return;
  }
  const size_t num_queries = 64;
  std::vector<const Trajectory*> queries;
  for (size_t i = 0; i < num_queries; ++i) {
    queries.push_back(&ds[(i * 61) % ds.size()]);
  }
  auto collect_batch = [&](QueryContext* ctx, double tau,
                           std::vector<uint32_t>& out) {
    for (const Trajectory* q : queries) {
      if (ctx != nullptr && ctx->stopped()) break;
      TrieIndex::SearchSpec spec;
      spec.query = q;
      spec.tau = tau;
      spec.mode = PruneMode::kAccumulate;
      spec.ctx = ctx;
      out.clear();
      trie.CollectCandidates(spec, &out);
      g_sink += out.size();
    }
  };

  // --- Time-to-stop in the trie traversal, on a deliberately heavy tau:
  // selective queries finish within a stride anyway, so responsiveness only
  // matters when traversals are long. Overshoot p50 is usually 0 — cancels
  // that land in the per-query setup (suffix MBRs, stack reset) cost no
  // visits at all — and the tail is bounded by the checkpoint stride.
  {
    const double tau = 0.2;
    std::vector<uint32_t> out;
    const std::vector<uint64_t> overshoot =
        AsyncCancelOvershoot(g_cancel_trials, rng, [&](QueryContext& ctx) {
          collect_batch(&ctx, tau, out);
        });
    json += OvershootJson("time_to_stop_trie_node_visits", overshoot);
    std::printf("time-to-stop   trie (tau=%.2f) p50=%llu p99=%llu node "
                "visits (%zu trials)\n",
                tau,
                static_cast<unsigned long long>(Percentile(overshoot, 0.50)),
                static_cast<unsigned long long>(Percentile(overshoot, 0.99)),
                overshoot.size());
  }

  // --- Time-to-stop in the DP kernel: DtwWithin polls the scratch-attached
  // context every 32 rows, so overshoot is bounded by the poll stride times
  // the columns one poll batch spans.
  {
    const std::vector<uint64_t> overshoot =
        AsyncCancelOvershoot(g_cancel_trials, rng, [&](QueryContext& ctx) {
          // Scratch is thread-local to the worker: extract inside the body.
          static thread_local DpScratch scratch;
          scratch.SetQueryContext(&ctx);
          const TrajView va = scratch.ExtractA(ds[1]);
          const TrajView vb = scratch.ExtractB(ds[8]);
          for (int i = 0; i < 64 && !ctx.stopped(); ++i) {
            g_sink += kernels::DtwWithin(va, vb, 1e9, scratch) ? 1 : 0;
          }
          scratch.SetQueryContext(nullptr);
        });
    json += OvershootJson("time_to_stop_dp_rows", overshoot);
    std::printf("time-to-stop   dp kernel p50=%llu p99=%llu rows "
                "(%zu trials)\n",
                static_cast<unsigned long long>(Percentile(overshoot, 0.50)),
                static_cast<unsigned long long>(Percentile(overshoot, 0.99)),
                overshoot.size());
  }

  // --- Token-check overhead: never-stopping context vs no context. ---
  {
    std::vector<uint32_t> out;
    QueryContext ctx;  // no budgets, no deadlines: every check is a no-op
    const PairedNs t =
        MedianPairNs([&] { collect_batch(nullptr, 0.01, out); },
                     [&] { collect_batch(&ctx, 0.01, out); });
    const double off_ns = t.a_ns / static_cast<double>(num_queries);
    const double on_ns = t.b_ns / static_cast<double>(num_queries);
    const double overhead_pct = (t.b_over_a - 1.0) * 100.0;
    std::snprintf(buf, sizeof(buf),
                  "  \"trie_collect_queries_per_sec\": "
                  "{\"ctx_off\": %.0f, \"ctx_on\": %.0f, "
                  "\"overhead_pct\": %.2f},\n",
                  1e9 / off_ns, 1e9 / on_ns, overhead_pct);
    json += buf;
    std::printf("trie collect   ctx off %.0f q/s, ctx on %.0f q/s "
                "(%.2f%% overhead)\n",
                1e9 / off_ns, 1e9 / on_ns, overhead_pct);
  }
  {
    DpScratch scratch;
    const TrajView va = scratch.ExtractA(ds[1]);
    const TrajView vb = scratch.ExtractB(ds[8]);
    QueryContext ctx;
    const PairedNs t = MedianPairNs(
        [&] {
          scratch.SetQueryContext(nullptr);
          g_sink += kernels::DtwWithin(va, vb, 1e9, scratch) ? 1 : 0;
        },
        [&] {
          scratch.SetQueryContext(&ctx);
          g_sink += kernels::DtwWithin(va, vb, 1e9, scratch) ? 1 : 0;
        });
    scratch.SetQueryContext(nullptr);
    const double off_ns = t.a_ns;
    const double on_ns = t.b_ns;
    const double overhead_pct = (t.b_over_a - 1.0) * 100.0;
    std::snprintf(buf, sizeof(buf),
                  "  \"dtw_within_calls_per_sec\": "
                  "{\"ctx_off\": %.0f, \"ctx_on\": %.0f, "
                  "\"overhead_pct\": %.2f}\n",
                  1e9 / off_ns, 1e9 / on_ns, overhead_pct);
    json += buf;
    std::printf("dtw within     ctx off %.0f c/s, ctx on %.0f c/s "
                "(%.2f%% overhead)\n",
                1e9 / off_ns, 1e9 / on_ns, overhead_pct);
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
  const dita::bench::Args args = dita::bench::ParseArgs(argc, argv);
  if (args.quick) {
    dita::g_window_seconds = 0.01;
    dita::g_pairs = 5;
    dita::g_cancel_trials = 16;
  }
  dita::WriteCancellationJson(
      args.out.empty() ? "BENCH_cancellation.json" : args.out.c_str());
  return 0;
}
