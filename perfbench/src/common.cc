#include "common.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "cluster/cluster.h"
#include "obs/export.h"
#include "workload/generator.h"

namespace perfbench {

namespace {

const auto kStart = std::chrono::steady_clock::now();

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "dita_perfbench: %s\n"
               "usage: dita_perfbench --workload <serve-search|serve-ingest|"
               "batch-join> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n"
               "       [--read-rate <1/s>] [--report <path>] [--spans <path>]\n"
               "       [--git-sha <sha>]\n",
               why.c_str());
  std::exit(2);
}

bool ParseU64(const char* s, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

bool ParsePositive(const char* s, double max, double* out) {
  char* end = nullptr;
  *out = std::strtod(s, &end);
  return end != s && *end == '\0' && *out > 0.0 && *out <= max;
}

}  // namespace

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const char* v = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseU64(v, &a.seed)) Usage("--seed needs a non-negative integer");
    } else if (flag == "--seconds") {
      if (!ParsePositive(v, 600.0, &a.seconds)) {
        Usage("--seconds needs a number in (0, 600]");
      }
    } else if (flag == "--read-rate") {
      if (!ParsePositive(v, 1e6, &a.read_rate)) {
        Usage("--read-rate needs a number in (0, 1e6]");
      }
    } else if (flag == "--trace") {
      if (!ParseU64(v, &n) || n > 1) Usage("--trace needs 0 or 1");
      a.trace = n == 1;
    } else if (flag == "--report") {
      a.report_path = v;
    } else if (flag == "--spans") {
      a.spans_path = v;
    } else if (flag == "--git-sha") {
      a.git_sha = v;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_workload) Usage("--workload is required");
  return a;
}

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - kStart)
      .count();
}

void SleepUntil(double t) {
  // Sleep to just short of the deadline, then spin: a plain sleep overshoots
  // by tens of microseconds, which an open-loop generator would report as
  // lateness (and charge to every request timed from its schedule).
  constexpr double kSpin = 100e-6;
  const double now = Now();
  if (t - now > kSpin) {
    std::this_thread::sleep_for(std::chrono::duration<double>(t - now - kSpin));
  }
  while (Now() < t) {
  }
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

Dist Summarize(std::vector<double> v) {
  Dist d;
  d.n = v.size();
  if (v.empty()) return d;
  d.mean = Mean(v);
  d.p50 = Median(v);
  std::sort(v.begin(), v.end());
  const auto nearest_rank = [&](double q) {
    const size_t rank =
        static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
  };
  d.p90 = nearest_rank(0.90);
  d.p99 = nearest_rank(0.99);
  d.max = v.back();
  d.tail = v.back();
  for (const double q : {0.999, 0.99, 0.95, 0.90}) {
    if (static_cast<double>(v.size()) * (1.0 - q) >= 10.0) {
      d.tail = nearest_rank(q);
      d.tail_q = q;
      break;
    }
  }
  return d;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

/// Probe kernel size: 64x64 DP cells, kProbeReps times (~1 ms).
constexpr int kProbeLen = 64;
constexpr int kProbeReps = 100;
/// Thread CPU seconds of one probe on the reference core (the median on the
/// 4-vCPU Xeon host the benchmark was tuned on).
constexpr double kProbeReferenceSeconds = 1.0e-3;
/// Cores probed at each boundary: the workloads' load-thread budget.
constexpr size_t kProbeThreads = 4;

volatile double probe_sink = 0.0;

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// One probe on the calling thread's core: the kernel's reference time over
/// the thread CPU time it took.
double ProbeSpeed() {
  // Inputs come from a fixed LCG at run time, so nothing folds away.
  static const std::vector<double> input = [] {
    std::vector<double> v(2 * kProbeLen);
    uint64_t x = 88172645463325252ull;
    for (double& d : v) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      d = static_cast<double>(x >> 11) * 0x1.0p-53;
    }
    return v;
  }();
  const double* a = input.data();
  const double* b = input.data() + kProbeLen;
  double prev[kProbeLen + 1];
  double row[kProbeLen + 1];
  double acc = 0.0;
  const double t0 = ThreadCpuSeconds();
  for (int rep = 0; rep < kProbeReps; ++rep) {
    const double shift = rep * 1e-9;  // a different problem every repetition
    prev[0] = 0.0;
    for (int j = 1; j <= kProbeLen; ++j) prev[j] = 1e300;
    for (int i = 1; i <= kProbeLen; ++i) {
      row[0] = 1e300;
      for (int j = 1; j <= kProbeLen; ++j) {
        const double d = std::fabs(a[i - 1] - b[j - 1] + shift);
        row[j] = d + std::min(prev[j - 1], std::min(prev[j], row[j - 1]));
      }
      std::copy(row, row + kProbeLen + 1, prev);
    }
    acc += prev[kProbeLen];
  }
  const double seconds = ThreadCpuSeconds() - t0;
  probe_sink = acc;
  return seconds > 0.0 ? kProbeReferenceSeconds / seconds : 1.0;
}

}  // namespace

void SliceSpeeds::Boundary() {
  // Each core takes the median of three probes: steadier where one probe
  // would land on a frequency ramp after the core sat idle.
  const size_t threads = std::max<size_t>(
      1, std::min<size_t>(kProbeThreads, std::thread::hardware_concurrency()));
  std::vector<double> speeds(threads, 1.0);
  ParallelFor(threads, threads, [&](size_t i) {
    speeds[i] = Median({ProbeSpeed(), ProbeSpeed(), ProbeSpeed()});
  });
  probes_.push_back(perfbench::Mean(speeds));
}

double SliceSpeeds::Mean() const {
  if (slices() == 0) return 1.0;
  double sum = 0.0;
  for (size_t i = 0; i < slices(); ++i) sum += Of(i);
  return sum / static_cast<double>(slices());
}

std::mt19937_64 Stream(uint64_t seed, uint64_t stream) {
  // SplitMix64 over (seed, stream) so nearby seeds give unrelated streams.
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull +
               0x94d049bb133111ebull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return std::mt19937_64(z);
}

dita::Dataset MakeTable(double scale) { return dita::GenerateBeijingLike(scale); }

std::vector<dita::Trajectory> DrawQueries(const dita::Dataset& table,
                                          size_t count, std::mt19937_64* rng) {
  std::uniform_int_distribution<size_t> pick(0, table.size() - 1);
  std::vector<dita::Trajectory> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) out.push_back(table[pick(*rng)]);
  return out;
}

std::shared_ptr<dita::Cluster> MakeCluster(size_t execution_threads) {
  dita::ClusterConfig config;
  if (execution_threads > 0) config.execution_threads = execution_threads;
  return std::make_shared<dita::Cluster>(config);
}

std::string ConfigJson(const dita::DitaConfig& c, const dita::Cluster& cl,
                       const dita::IndexStats& index) {
  dita::obs::JsonWriter j;
  const auto field = [&j](const char* key, uint64_t v) {
    j.Key(key);
    j.UInt(v);
  };
  const auto flag = [&j](const char* key, bool v) {
    j.Key(key);
    j.Raw(v ? "true" : "false");
  };
  j.BeginObject();
  j.Key("distance");
  j.String(dita::DistanceTypeName(c.distance));
  field("build.ng", c.build.ng);
  field("build.threads", c.build.threads);
  field("trie.num_pivots", c.build.trie.num_pivots);
  field("trie.align_fanout", c.build.trie.align_fanout);
  field("trie.pivot_fanout", c.build.trie.pivot_fanout);
  field("trie.leaf_capacity", c.build.trie.leaf_capacity);
  j.Key("verify.cell_size");
  j.Double(c.verify.cell_size);
  field("verify.threads", c.verify.threads);
  flag("verify.enable_mbr", c.verify.enable_mbr);
  flag("verify.enable_cell", c.verify.enable_cell);
  field("serving.merge_threshold", c.serving.merge_threshold);
  field("serving.scheduler_threads", c.serving.scheduler_threads);
  field("serving.scheduler_slots", c.serving.scheduler_slots);
  field("serving.max_inflight_queries", c.serving.max_inflight_queries);
  field("serving.answer_cache_entries", c.serving.answer_cache_entries);
  flag("enable_tracing", c.enable_tracing);
  flag("enable_metrics", c.enable_metrics);
  field("cluster.num_workers", cl.config().num_workers);
  field("cluster.execution_threads", cl.config().execution_threads);
  field("index.num_partitions", index.num_partitions);
  field("index.num_trajectories", index.num_trajectories);
  j.EndObject();
  return j.str();
}

// -------------------------------------------------------------- Report --

void Report::Fail(const std::string& why) {
  ++failed;
  if (problems.size() < 20) problems.push_back(why);
}

void Report::DetailDist(const std::string& name, const Dist& d) {
  Detail(name + ".p50", "us", d.p50);
  Detail(name + ".tail", "us", d.tail);
  Detail(name + ".tail_quantile", "ratio", d.tail_q);
  Detail(name + ".mean", "us", d.mean);
  Detail(name + ".samples", "count", static_cast<double>(d.n));
}

void Report::CheckFinite() {
  for (std::vector<Metric>* ms : {&end_to_end, &per_layer, &details}) {
    for (Metric& m : *ms) {
      if (std::isfinite(m.value)) continue;
      Fail("metric " + m.name + " is not a finite number");
      m.value = 0.0;  // keeps the JSON valid; the run is already failed
    }
  }
}

namespace {

void WriteMetrics(dita::obs::JsonWriter* j, const std::vector<Metric>& ms) {
  j->BeginObject();
  for (const Metric& m : ms) {
    j->Key(m.name);
    j->BeginObject();
    j->Key("value");
    j->Double(m.value);
    j->Key("unit");
    j->String(m.unit);
    j->EndObject();
  }
  j->EndObject();
}

}  // namespace

std::string Report::ResultLine(bool trace) const {
  dita::obs::JsonWriter j;
  j.BeginObject();
  j.Key("correct");
  j.Raw(correct() ? "true" : "false");
  j.Key("attempted");
  j.UInt(std::max<uint64_t>(attempted, 1));
  j.Key("failed");
  j.UInt(failed);
  j.Key("metrics");
  WriteMetrics(&j, trace ? per_layer : end_to_end);
  j.EndObject();
  return j.str();
}

std::string Report::FullJson(const Args& args) const {
  dita::obs::JsonWriter j;
  const auto flag = [&j](const char* key, bool v) {
    j.Key(key);
    j.Raw(v ? "true" : "false");
  };
  j.BeginObject();
  j.Key("meta");
  j.BeginObject();
  j.Key("git_sha");
  j.String(args.git_sha);
  j.Key("build_type");
  j.String(PERFBENCH_BUILD_TYPE);
  j.Key("hardware_threads");
  j.UInt(std::thread::hardware_concurrency());
  j.Key("workload");
  j.String(args.workload);
  j.Key("seed");
  j.UInt(args.seed);
  j.Key("seconds");
  j.Double(args.seconds);
  flag("trace", args.trace);
  flag("smoke", args.smoke);
  j.EndObject();
  j.Key("config");
  j.Raw(config_json);
  flag("correct", correct());
  j.Key("attempted");
  j.UInt(attempted);
  j.Key("failed");
  j.UInt(failed);
  j.Key("fail_frac");
  j.Double(attempted == 0 ? 0.0
                          : static_cast<double>(failed) / static_cast<double>(attempted));
  j.Key("problems");
  j.BeginArray();
  for (const std::string& p : problems) j.String(p);
  j.EndArray();
  j.Key("end_to_end");
  WriteMetrics(&j, end_to_end);
  j.Key("per_layer");
  WriteMetrics(&j, per_layer);
  j.Key("details");
  WriteMetrics(&j, details);
  j.EndObject();
  return j.str();
}

// ------------------------------------------------------------- SpanLog --

uint64_t SpanLog::NextRequestId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanLog::Append(const std::vector<Span>& spans) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() + spans.size() > kMaxSpans) return;
  spans_.insert(spans_.end(), spans.begin(), spans.end());
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans_) {
    if (!first) f << ",\n";
    first = false;
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                  "\"parent\":%d}}",
                  s.name, s.thread, s.start * 1e6, (s.end - s.start) * 1e6,
                  static_cast<unsigned long long>(s.request), s.parent);
    f << buf;
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

int32_t RequestTrace::Span(const char* name, double start, double end,
                           int32_t parent) {
  local_.push_back(SpanLog::Span{id_, name, start, end, parent, thread_});
  return static_cast<int32_t>(local_.size() - 1);
}

void RequestTrace::Commit() {
  log_->Append(local_);
  local_.clear();
}

// ------------------------------------------------------------- threads --

void ParallelFor(size_t n, size_t threads,
                 const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  threads = std::max<size_t>(1, std::min(threads, n));
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
    });
  }
  for (std::thread& th : pool) th.join();
}

}  // namespace perfbench
