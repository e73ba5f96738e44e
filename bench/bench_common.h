#ifndef DITA_BENCH_BENCH_COMMON_H_
#define DITA_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "core/engine.h"
#include "obs/export.h"
#include "workload/generator.h"

// Provenance injected by bench/CMakeLists.txt at configure time; the
// fallbacks keep the header usable from targets that skip the stamping.
#ifndef DITA_GIT_SHA
#define DITA_GIT_SHA "unknown"
#endif
#ifndef DITA_BUILD_TYPE
#define DITA_BUILD_TYPE "unspecified"
#endif
#ifndef DITA_SANITIZE_STAMP
#define DITA_SANITIZE_STAMP "none"
#endif
#ifndef DITA_NATIVE_STAMP
#define DITA_NATIVE_STAMP "off"
#endif

namespace dita::bench {

/// UTC wall-clock "now" in ISO-8601 (e.g. "2026-02-14T09:31:07Z"). The one
/// deliberately nondeterministic field in a bench JSON — provenance of WHEN
/// the numbers were taken; schema checks assert presence/shape only.
inline std::string IsoTimestampUtc() {
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &utc);
  return buf;
}

/// Provenance stamp embedded in every BENCH_*.json file: which commit and
/// build flavour produced the numbers (including sanitizer / -march=native
/// stamps, so a sanitized run can never be mistaken for a perf baseline),
/// when, and how many hardware threads the machine had. Emitted as one JSON
/// object (no trailing newline) so callers can splice it in as
/// `"meta": <this>`.
inline std::string MetaJson() {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("git_sha");
  w.String(DITA_GIT_SHA);
  w.Key("build_type");
  w.String(DITA_BUILD_TYPE);
  w.Key("sanitize");
  w.String(DITA_SANITIZE_STAMP);
  w.Key("native");
  w.String(DITA_NATIVE_STAMP);
  w.Key("timestamp_utc");
  w.String(IsoTimestampUtc());
  w.Key("hardware_threads");
  w.UInt(std::thread::hardware_concurrency());
  w.EndObject();
  return w.Take();
}

/// Common command-line knobs for the experiment harnesses.
///
///   --scale=<float>    dataset scale multiplier (default 1.0 = the bench's
///                      default size, far below the paper's but same shapes)
///   --queries=<int>    queries per measurement point (default 50)
///   --workers=<int>    default simulated worker count (default 16)
///   --quick            smoke mode: shrink measurement windows / loads so the
///                      bench finishes in seconds (numbers are noisy but the
///                      JSON schema is complete — ci.sh bench-smoke gates on
///                      shape, not precision)
///   --out=<path>       where to write the bench's BENCH_*.json (default:
///                      the bench's usual name in the working directory)
struct Args {
  double scale = 1.0;
  size_t queries = 50;
  size_t workers = 16;
  bool quick = false;
  std::string out;
};

inline Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      args.scale = std::atof(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--queries=", 10) == 0) {
      args.queries = static_cast<size_t>(std::atoi(argv[i] + 10));
    } else if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      args.workers = static_cast<size_t>(std::atoi(argv[i] + 10));
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      args.quick = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      args.out = argv[i] + 6;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      std::exit(2);
    }
  }
  return args;
}

/// ParseArgs for the benches built on google-benchmark: its --benchmark_*
/// flags are set aside in `gbench`, after argv[0], for
/// benchmark::Initialize; every other flag is the common CLI.
inline Args ParseArgsWithBenchmarkFlags(int argc, char** argv,
                                        std::vector<char*>* gbench) {
  std::vector<char*> ours = {argv[0]};
  *gbench = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    (std::strncmp(argv[i], "--benchmark_", 12) == 0 ? *gbench : ours)
        .push_back(argv[i]);
  }
  return ParseArgs(static_cast<int>(ours.size()), ours.data());
}

inline std::shared_ptr<Cluster> MakeCluster(size_t workers) {
  ClusterConfig cfg;
  cfg.num_workers = workers;
  return std::make_shared<Cluster>(cfg);
}

/// The paper's default thresholds (Table 3): 0.001 is roughly 111 meters.
inline std::vector<double> PaperTaus() {
  return {0.001, 0.002, 0.003, 0.004, 0.005};
}

/// Default DITA configuration at bench scale. The paper's N_G = 64 / N_L =
/// 32 / leaf 16 target 10M+ trajectories; these are the equivalent knee
/// values at this repository's dataset sizes (partitions must stay large
/// enough for the pivot levels of the trie to engage).
inline DitaConfig DefaultConfig() {
  DitaConfig config;
  config.build.ng = 4;
  config.build.trie.num_pivots = 4;
  config.build.trie.align_fanout = 8;
  config.build.trie.pivot_fanout = 4;
  config.build.trie.leaf_capacity = 4;
  config.verify.cell_size = 0.005;
  return config;
}

/// A search engine adapter so one measurement loop covers DITA and every
/// baseline.
using SearchFn = std::function<Result<std::vector<TrajectoryId>>(
    const Trajectory&, double, DitaEngine::QueryStats*)>;

/// Average per-query cost-model latency (milliseconds) over `queries`.
inline double AvgSearchMs(const SearchFn& search,
                          const std::vector<Trajectory>& queries, double tau) {
  double total_ms = 0.0;
  size_t counted = 0;
  for (const auto& q : queries) {
    DitaEngine::QueryStats stats;
    auto r = search(q, tau, &stats);
    if (!r.ok()) {
      std::fprintf(stderr, "search failed: %s\n", r.status().ToString().c_str());
      std::exit(1);
    }
    total_ms += stats.makespan_seconds * 1e3;
    ++counted;
  }
  return counted == 0 ? 0.0 : total_ms / static_cast<double>(counted);
}

/// Prints one table row: a label followed by numeric cells.
inline void PrintRow(const std::string& label, const std::vector<double>& cells,
                     const char* fmt = "%12.3f") {
  std::printf("%-28s", label.c_str());
  for (double c : cells) std::printf(fmt, c);
  std::printf("\n");
}

inline void PrintHeader(const std::string& title,
                        const std::vector<std::string>& columns) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-28s", "");
  for (const auto& c : columns) std::printf("%12s", c.c_str());
  std::printf("\n");
}

inline void PrintNote(const std::string& note) {
  std::printf("  note: %s\n", note.c_str());
}

}  // namespace dita::bench

#endif  // DITA_BENCH_BENCH_COMMON_H_
