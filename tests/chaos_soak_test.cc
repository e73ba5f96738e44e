// Seeded chaos/soak harness: injected cluster faults + randomized mid-flight
// cancellations + tight resource budgets + concurrent queries through
// DitaService's scheduler. Run by ci.sh's `chaos` pass under both ASan/UBSan
// and TSan across a fixed seed matrix, so "no leaks, no deadlocks, budgets
// released on every exit path" is machine-checked, not asserted in prose.
//
// Determinism contract: with serial execution (execution_threads = 0) and
// only virtual-clock stop causes (self-cancel ops triggers, resource
// budgets, extreme virtual deadlines — never the wall clock), a soak run is
// a pure function of its seed: repeating it must reproduce every partial
// result bit-for-bit.

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "serving/service.h"
#include "workload/generator.h"
#include "test_data.h"

namespace dita {
namespace {

constexpr uint64_t kSeedMatrix[] = {11, 22, 33, 44, 55};

FaultPlan ChaosPlan(uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.transient_failure_prob = 0.2;
  plan.straggler_prob = 0.1;
  plan.straggler_multiplier = 4.0;
  plan.crash_worker = 2;
  plan.crash_at_stage = 3;  // stage 0 is the index build
  return plan;
}

template <typename T>
bool IsSubsetOf(const std::vector<T>& sub, const std::vector<T>& super) {
  const std::set<T> all(super.begin(), super.end());
  for (const T& x : sub) {
    if (all.find(x) == all.end()) return false;
  }
  return true;
}

/// Applies one seeded constraint mix to a fresh context. Only virtual-clock
/// causes, so serial soak runs stay deterministic.
void ConstrainContext(QueryContext* ctx, std::mt19937_64* rng) {
  switch ((*rng)() % 6) {
    case 0:  // unconstrained
      break;
    case 1:
      ctx->CancelAfterOps(1 + (*rng)() % 8192);
      break;
    case 2: {
      ResourceBudget b;
      b.max_candidates = 1 + (*rng)() % 64;
      ctx->set_budget(b);
      break;
    }
    case 3: {
      ResourceBudget b;
      b.max_dp_cells = 1 + (*rng)() % 4096;
      ctx->set_budget(b);
      break;
    }
    case 4: {
      ResourceBudget b;
      b.max_scratch_bytes = 1 + (*rng)() % 2048;
      ctx->set_budget(b);
      break;
    }
    case 5:
      // Extreme virtual deadline: trips deterministically at the first
      // stage boundary (any positive makespan exceeds it).
      ctx->set_virtual_deadline_seconds(1e-12);
      break;
  }
}

/// The oracles a chaotic run's answers must be subsets of. Computed once on
/// a fault-free cluster; fault invariance (fault_tolerance_test) guarantees
/// the chaotic cluster's *complete* answers match these exactly.
struct Oracles {
  std::vector<std::vector<TrajectoryId>> search;  // per probe trajectory
  std::vector<std::pair<TrajectoryId, TrajectoryId>> join;
  std::vector<std::vector<std::pair<TrajectoryId, double>>> knn;
};

constexpr size_t kProbes = 6;
constexpr double kTau = 0.05;
constexpr size_t kKnnK = 5;

size_t ProbeIndex(size_t probe) { return probe * 29 + 3; }

Oracles ComputeOracles(const Dataset& ds) {
  ClusterConfig ccfg;
  ccfg.num_workers = 4;
  auto cluster = std::make_shared<Cluster>(ccfg);
  DitaEngine engine(cluster, SmallConfig());
  EXPECT_TRUE(engine.BuildIndex(ds).ok());
  Oracles o;
  for (size_t p = 0; p < kProbes; ++p) {
    auto r = engine.Search(ds[ProbeIndex(p)], kTau);
    EXPECT_TRUE(r.ok());
    o.search.push_back(*r);
    auto kr = engine.KnnSearch(ds[ProbeIndex(p)], kKnnK);
    EXPECT_TRUE(kr.ok());
    o.knn.push_back(*kr);
  }
  auto j = engine.Join(engine, kTau);
  EXPECT_TRUE(j.ok());
  o.join = *j;
  return o;
}

/// One serial soak run: a seeded sequence of constrained queries against a
/// faulty cluster. Returns a transcript string capturing every decision and
/// every (partial) answer, for bit-exact repeat-run comparison.
std::string RunSerialSoak(const Dataset& ds, const Oracles& oracles,
                          uint64_t seed) {
  ClusterConfig ccfg;
  ccfg.num_workers = 4;
  ccfg.execution_threads = 0;  // serial: required for determinism
  auto cluster = std::make_shared<Cluster>(ccfg);
  cluster->InjectFaults(ChaosPlan(seed));
  DitaEngine engine(cluster, SmallConfig());
  EXPECT_TRUE(engine.BuildIndex(ds).ok());

  std::mt19937_64 rng(seed);
  std::ostringstream transcript;
  for (int i = 0; i < 18; ++i) {
    const size_t probe = rng() % kProbes;
    QueryContext ctx;
    ConstrainContext(&ctx, &rng);
    transcript << "q" << i << " probe=" << probe;
    switch (rng() % 3) {
      case 0: {
        DitaEngine::QueryStats stats;
        auto r = engine.Search(ds[ProbeIndex(probe)], kTau, &stats, &ctx);
        EXPECT_TRUE(r.ok()) << r.status().ToString();
        if (!r.ok()) return transcript.str();
        EXPECT_TRUE(IsSubsetOf(*r, oracles.search[probe])) << "seed=" << seed;
        if (!ctx.stopped()) EXPECT_EQ(*r, oracles.search[probe]);
        EXPECT_TRUE(stats.funnel.MonotonicallyNonIncreasing());
        EXPECT_EQ(stats.funnel.FinalSurvivors(), r->size());
        transcript << " search cause=" << static_cast<int>(ctx.stop_cause())
                   << " n=" << r->size() << " ids=";
        for (TrajectoryId id : *r) transcript << id << ",";
        break;
      }
      case 1: {
        DitaEngine::QueryStats stats;
        auto r =
            engine.KnnSearch(ds[ProbeIndex(probe)], kKnnK, &stats, &ctx);
        EXPECT_TRUE(r.ok()) << r.status().ToString();
        if (!r.ok()) return transcript.str();
        if (ctx.stopped()) {
          // Prefix of the full kNN answer.
          EXPECT_LE(r->size(), oracles.knn[probe].size());
          const size_t upto = std::min(r->size(), oracles.knn[probe].size());
          for (size_t x = 0; x < upto; ++x) {
            EXPECT_EQ((*r)[x].first, oracles.knn[probe][x].first);
          }
        } else {
          EXPECT_EQ(*r, oracles.knn[probe]);
        }
        transcript << " knn cause=" << static_cast<int>(ctx.stop_cause())
                   << " n=" << r->size() << " ids=";
        for (const auto& [id, d] : *r) transcript << id << ",";
        break;
      }
      case 2: {
        DitaEngine::JoinStats stats;
        auto r = engine.Join(engine, kTau, &stats, &ctx);
        EXPECT_TRUE(r.ok()) << r.status().ToString();
        if (!r.ok()) return transcript.str();
        EXPECT_TRUE(IsSubsetOf(*r, oracles.join)) << "seed=" << seed;
        if (!ctx.stopped()) EXPECT_EQ(*r, oracles.join);
        EXPECT_TRUE(stats.funnel.MonotonicallyNonIncreasing());
        EXPECT_EQ(stats.funnel.FinalSurvivors(), r->size());
        transcript << " join cause=" << static_cast<int>(ctx.stop_cause())
                   << " n=" << r->size() << " pairs=";
        for (const auto& [a, b] : *r) transcript << a << ":" << b << ",";
        break;
      }
    }
    // Budgets only ever stop a query for the cause they configure: a
    // candidate-budget stop implies the charge crossed the cap.
    if (ctx.stop_cause() == QueryContext::StopCause::kCandidateBudget) {
      EXPECT_GE(ctx.candidates_charged(), ctx.budget().max_candidates);
    }
    if (ctx.stop_cause() == QueryContext::StopCause::kDpCellBudget) {
      EXPECT_GE(ctx.dp_cells_charged(), ctx.budget().max_dp_cells);
    }
    transcript << "\n";
  }
  return transcript.str();
}

/// Serial chaos soak across the fixed seed matrix: subset invariants, funnel
/// balance, budget causality — and repeating each seed reproduces the exact
/// transcript (deterministic decisions under the virtual clock).
TEST(ChaosSoakTest, SerialSoakIsSubsetCorrectAndDeterministic) {
  const Dataset ds = CityDataset(200, 7);
  const Oracles oracles = ComputeOracles(ds);
  for (uint64_t seed : kSeedMatrix) {
    const std::string first = RunSerialSoak(ds, oracles, seed);
    const std::string second = RunSerialSoak(ds, oracles, seed);
    EXPECT_EQ(first, second) << "seed=" << seed
                             << ": chaos soak is not deterministic";
  }
}

/// Concurrent soak: several threads hammer one DitaService with a tight
/// scheduler (2 running, 2 queued) while a chaos thread cancels in-flight
/// contexts at random times. Checks the scheduler's high-water invariant,
/// that every query exits with a sane status, and that all slots are
/// released. ASan/TSan (ci.sh chaos) add the leak, lifetime, and race
/// checking on top.
TEST(ChaosSoakTest, ConcurrentSoakUnderGateAndRandomCancellation) {
  const Dataset ds = CityDataset(200, 7);
  const Oracles oracles = ComputeOracles(ds);
  for (uint64_t seed : kSeedMatrix) {
    ClusterConfig ccfg;
    ccfg.num_workers = 4;
    ccfg.execution_threads = 2;
    auto cluster = std::make_shared<Cluster>(ccfg);
    cluster->InjectFaults(ChaosPlan(seed));
    DitaConfig config = SmallConfig();
    config.serving.max_inflight_queries = 2;
    config.serving.max_queued_queries = 2;
    DitaService service(cluster, config);
    ASSERT_TRUE(service.Start(ds).ok());

    constexpr size_t kThreads = 4;
    constexpr int kQueriesPerThread = 6;
    // Slots the chaos thread cancels. Publication, cancellation, and
    // unpublication all happen under one mutex so the canceller can never
    // touch a context after its owning iteration destroyed it.
    std::mutex live_mu;
    std::vector<QueryContext*> live(kThreads, nullptr);
    std::atomic<bool> done{false};

    std::thread chaos([&] {
      std::mt19937_64 rng(seed ^ 0xC4A05u);
      while (!done.load(std::memory_order_acquire)) {
        {
          std::lock_guard<std::mutex> lock(live_mu);
          QueryContext* ctx = live[rng() % kThreads];
          if (ctx != nullptr && (rng() % 4) == 0) ctx->Cancel();
        }
        std::this_thread::yield();
      }
    });

    std::vector<std::thread> workers;
    std::atomic<size_t> completed{0}, shed{0};
    for (size_t tid = 0; tid < kThreads; ++tid) {
      workers.emplace_back([&, tid] {
        std::mt19937_64 rng(seed * 1000 + tid);
        for (int i = 0; i < kQueriesPerThread; ++i) {
          QueryContext ctx;
          ConstrainContext(&ctx, &rng);
          if ((rng() % 3) == 0) ctx.SetWallDeadlineSeconds(0.005);
          const size_t probe = rng() % kProbes;
          {
            std::lock_guard<std::mutex> lock(live_mu);
            live[tid] = &ctx;
          }
          QueryRequest req;
          req.kind = QueryKind::kSearch;
          req.query = ds[ProbeIndex(probe)];
          req.tau = kTau;
          req.ctx = &ctx;
          req.collect_stats = false;
          const auto r = service.Execute(req);
          {
            std::lock_guard<std::mutex> lock(live_mu);
            live[tid] = nullptr;
          }
          if (r.ok()) {
            ++completed;
            EXPECT_TRUE(IsSubsetOf(r->ids, oracles.search[probe]))
                << "seed=" << seed << " tid=" << tid;
          } else {
            // Shed by the scheduler or abandoned while queued; never an
            // internal error.
            const Status::Code c = r.status().code();
            EXPECT_TRUE(c == Status::Code::kUnavailable ||
                        c == Status::Code::kCancelled ||
                        c == Status::Code::kDeadlineExceeded ||
                        c == Status::Code::kResourceExhausted)
                << r.status().ToString();
            ++shed;
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    done.store(true, std::memory_order_release);
    chaos.join();

    const QueryScheduler& sched = service.scheduler();
    EXPECT_LE(sched.active_high_water(), config.serving.max_inflight_queries)
        << "seed=" << seed;
    EXPECT_EQ(sched.active(), 0u) << "seed=" << seed;
    EXPECT_EQ(sched.queued(), 0u) << "seed=" << seed;
    EXPECT_EQ(completed.load() + shed.load(), kThreads * kQueriesPerThread);
    EXPECT_GE(completed.load(), 1u) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace dita
