// Cooperative cancellation, deadlines and resource budgets. Admission
// (queueing, shedding) is DitaService's scheduler, tested in serving_test.cc.
// The load-bearing invariant everywhere: a query stopped mid-flight degrades
// gracefully — it returns OK with a *subset* of the unconstrained answer,
// tags QueryStats::termination / completeness, and its filter funnel still
// balances (monotone, final level == returned count).

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "workload/generator.h"
#include "test_data.h"

namespace dita {
namespace {

template <typename T>
bool IsSubsetOf(const std::vector<T>& sub, const std::vector<T>& super) {
  const std::set<T> all(super.begin(), super.end());
  for (const T& x : sub) {
    if (all.find(x) == all.end()) return false;
  }
  return true;
}

class CancellationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = CityDataset(200, 77);
    cluster_ = MakeCluster();
    engine_ = std::make_unique<DitaEngine>(cluster_, SmallConfig());
    ASSERT_TRUE(engine_->BuildIndex(ds_).ok());
  }

  Dataset ds_;
  std::shared_ptr<Cluster> cluster_;
  std::unique_ptr<DitaEngine> engine_;
  const double tau_ = 0.05;
};

/// An unconstrained context changes nothing: same answer as no context,
/// termination OK, completeness 1.0.
TEST_F(CancellationTest, UnconstrainedContextMatchesOracle) {
  const auto oracle = engine_->Search(ds_[3], tau_);
  ASSERT_TRUE(oracle.ok());
  QueryContext ctx;
  DitaEngine::QueryStats stats;
  const auto r = engine_->Search(ds_[3], tau_, &stats, &ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, *oracle);
  EXPECT_TRUE(stats.termination.ok());
  EXPECT_DOUBLE_EQ(stats.completeness, 1.0);
  EXPECT_TRUE(stats.funnel.MonotonicallyNonIncreasing());
  EXPECT_EQ(stats.funnel.FinalSurvivors(), r->size());
}

/// Search under a tight candidate budget: partial subset of the oracle,
/// ResourceExhausted termination, balanced funnel.
TEST_F(CancellationTest, SearchSubsetUnderCandidateBudget) {
  const auto oracle = engine_->Search(ds_[3], tau_);
  ASSERT_TRUE(oracle.ok());
  ASSERT_FALSE(oracle->empty());

  QueryContext ctx;
  ResourceBudget budget;
  budget.max_candidates = 4;
  ctx.set_budget(budget);
  DitaEngine::QueryStats stats;
  const auto r = engine_->Search(ds_[3], tau_, &stats, &ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(ctx.stopped());
  EXPECT_EQ(ctx.stop_cause(), QueryContext::StopCause::kCandidateBudget);
  EXPECT_EQ(stats.termination.code(), Status::Code::kResourceExhausted);
  EXPECT_LT(stats.completeness, 1.0);
  EXPECT_TRUE(IsSubsetOf(*r, *oracle));
  EXPECT_LT(r->size(), oracle->size());
  EXPECT_TRUE(stats.funnel.MonotonicallyNonIncreasing())
      << stats.funnel.ToTable();
  EXPECT_EQ(stats.funnel.FinalSurvivors(), r->size());
}

/// Search under a DP-cell budget: same degradation contract via the
/// verification charge point.
TEST_F(CancellationTest, SearchSubsetUnderDpCellBudget) {
  const auto oracle = engine_->Search(ds_[5], tau_);
  ASSERT_TRUE(oracle.ok());

  QueryContext ctx;
  ResourceBudget budget;
  budget.max_dp_cells = 64;
  ctx.set_budget(budget);
  DitaEngine::QueryStats stats;
  const auto r = engine_->Search(ds_[5], tau_, &stats, &ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(ctx.stop_cause(), QueryContext::StopCause::kDpCellBudget);
  EXPECT_EQ(stats.termination.code(), Status::Code::kResourceExhausted);
  EXPECT_TRUE(IsSubsetOf(*r, *oracle));
  EXPECT_TRUE(stats.funnel.MonotonicallyNonIncreasing());
  EXPECT_EQ(stats.funnel.FinalSurvivors(), r->size());
}

/// Mid-flight cancellations placed at many deterministic points: every
/// partial answer is a subset of the oracle, and the funnel balances at
/// every cut point.
TEST_F(CancellationTest, SearchSubsetUnderCancelAtEveryPoint) {
  const auto oracle = engine_->Search(ds_[9], tau_);
  ASSERT_TRUE(oracle.ok());

  for (uint64_t cancel_at : {1u, 64u, 256u, 1024u, 4096u, 16384u}) {
    QueryContext ctx;
    ctx.CancelAfterOps(cancel_at);
    DitaEngine::QueryStats stats;
    const auto r = engine_->Search(ds_[9], tau_, &stats, &ctx);
    ASSERT_TRUE(r.ok()) << "cancel_at=" << cancel_at;
    EXPECT_TRUE(IsSubsetOf(*r, *oracle)) << "cancel_at=" << cancel_at;
    if (ctx.stopped()) {
      EXPECT_EQ(stats.termination.code(), Status::Code::kCancelled);
      EXPECT_LE(stats.completeness, 1.0);
    } else {
      EXPECT_EQ(*r, *oracle);
      EXPECT_TRUE(stats.termination.ok());
    }
    EXPECT_TRUE(stats.funnel.MonotonicallyNonIncreasing())
        << "cancel_at=" << cancel_at << "\n"
        << stats.funnel.ToTable();
    EXPECT_EQ(stats.funnel.FinalSurvivors(), r->size())
        << "cancel_at=" << cancel_at;
  }
}

/// A context cancelled before the query starts returns an empty partial
/// result (completeness 0), still OK.
TEST_F(CancellationTest, PreCancelledContextReturnsEmptyPartial) {
  QueryContext ctx;
  ctx.Cancel();
  DitaEngine::QueryStats stats;
  const auto r = engine_->Search(ds_[3], tau_, &stats, &ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
  EXPECT_EQ(stats.termination.code(), Status::Code::kCancelled);
  EXPECT_DOUBLE_EQ(stats.completeness, 0.0);
}

/// Virtual-time deadline: deterministic under the simulated clock — two
/// identical runs stop at the same place with the same partial answer.
TEST_F(CancellationTest, VirtualDeadlineIsDeterministic) {
  auto run = [&](std::vector<TrajectoryId>* out, DitaEngine::QueryStats* stats) {
    auto cluster = MakeCluster();
    DitaEngine engine(cluster, SmallConfig());
    ASSERT_TRUE(engine.BuildIndex(ds_).ok());
    QueryContext ctx;
    ctx.set_virtual_deadline_seconds(1e-9);
    const auto r = engine.Search(ds_[3], tau_, stats, &ctx);
    ASSERT_TRUE(r.ok());
    *out = *r;
    // The virtual deadline is observed at stage boundaries, after the search
    // stage itself ran; it stops follow-up work, not the current stage.
    EXPECT_TRUE(ctx.stopped());
    EXPECT_EQ(ctx.stop_cause(), QueryContext::StopCause::kVirtualDeadline);
    EXPECT_EQ(stats->termination.code(), Status::Code::kDeadlineExceeded);
  };
  std::vector<TrajectoryId> a, b;
  DitaEngine::QueryStats sa, sb;
  run(&a, &sa);
  run(&b, &sb);
  EXPECT_EQ(a, b);
  EXPECT_DOUBLE_EQ(sa.completeness, sb.completeness);
}

/// kNN under cancellation: the partial answer is a true prefix of the full
/// kNN set (the answers below the smallest unswept partition bound),
/// completeness = found/k.
TEST_F(CancellationTest, KnnPartialIsPrefixOfFullAnswer) {
  const size_t k = 8;
  const auto full = engine_->KnnSearch(ds_[11], k);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->size(), k);

  for (uint64_t cancel_at : {1u, 512u, 2048u, 8192u}) {
    QueryContext ctx;
    ctx.CancelAfterOps(cancel_at);
    DitaEngine::QueryStats stats;
    const auto r = engine_->KnnSearch(ds_[11], k, &stats, &ctx);
    ASSERT_TRUE(r.ok()) << "cancel_at=" << cancel_at;
    if (!ctx.stopped()) {
      EXPECT_EQ(*r, *full);
      continue;
    }
    EXPECT_EQ(stats.termination.code(), Status::Code::kCancelled);
    EXPECT_LE(r->size(), k);
    EXPECT_DOUBLE_EQ(stats.completeness,
                     static_cast<double>(r->size()) / static_cast<double>(k));
    // Prefix property: the i-th partial answer is the i-th full answer.
    for (size_t i = 0; i < r->size(); ++i) {
      EXPECT_EQ((*r)[i].first, (*full)[i].first)
          << "cancel_at=" << cancel_at << " i=" << i;
      EXPECT_DOUBLE_EQ((*r)[i].second, (*full)[i].second);
    }
  }
}

/// Join under budgets / cancellation: pairs are a subset of the full join,
/// termination is tagged, and the join funnel balances.
TEST_F(CancellationTest, JoinSubsetUnderBudgetAndCancel) {
  const auto full = engine_->Join(*engine_, tau_);
  ASSERT_TRUE(full.ok());
  ASSERT_FALSE(full->empty());

  {
    QueryContext ctx;
    ResourceBudget budget;
    budget.max_dp_cells = 256;
    ctx.set_budget(budget);
    DitaEngine::JoinStats stats;
    const auto r = engine_->Join(*engine_, tau_, &stats, &ctx);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(ctx.stopped());
    EXPECT_EQ(stats.termination.code(), Status::Code::kResourceExhausted);
    EXPECT_LT(stats.completeness, 1.0);
    EXPECT_TRUE(IsSubsetOf(*r, *full));
    EXPECT_TRUE(stats.funnel.MonotonicallyNonIncreasing())
        << stats.funnel.ToTable();
    EXPECT_EQ(stats.funnel.FinalSurvivors(), r->size());
  }
  for (uint64_t cancel_at : {1u, 1024u, 16384u}) {
    QueryContext ctx;
    ctx.CancelAfterOps(cancel_at);
    DitaEngine::JoinStats stats;
    const auto r = engine_->Join(*engine_, tau_, &stats, &ctx);
    ASSERT_TRUE(r.ok()) << "cancel_at=" << cancel_at;
    EXPECT_TRUE(IsSubsetOf(*r, *full)) << "cancel_at=" << cancel_at;
    if (ctx.stopped()) {
      EXPECT_EQ(stats.termination.code(), Status::Code::kCancelled);
    } else {
      EXPECT_EQ(*r, *full);
    }
    EXPECT_TRUE(stats.funnel.MonotonicallyNonIncreasing());
    EXPECT_EQ(stats.funnel.FinalSurvivors(), r->size());
  }
}

/// Join with an unconstrained context still equals the full join.
TEST_F(CancellationTest, JoinUnconstrainedContextMatchesOracle) {
  const auto full = engine_->Join(*engine_, tau_);
  ASSERT_TRUE(full.ok());
  QueryContext ctx;
  DitaEngine::JoinStats stats;
  const auto r = engine_->Join(*engine_, tau_, &stats, &ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, *full);
  EXPECT_TRUE(stats.termination.ok());
  EXPECT_DOUBLE_EQ(stats.completeness, 1.0);
}

}  // namespace
}  // namespace dita
