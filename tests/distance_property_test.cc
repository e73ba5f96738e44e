#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "distance/distance.h"
#include "distance/dp_scratch.h"
#include "distance/dtw.h"
#include "distance/frechet.h"
#include "distance/lcss.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace dita {
namespace {

/// Cross-distance invariants exercised on realistic generated trajectories
/// rather than the synthetic random walks used in the per-distance tests.
class GeneratedDataProperty
    : public ::testing::TestWithParam<DistanceType> {
 protected:
  static Dataset SmallDataset() {
    GeneratorConfig cfg;
    cfg.cardinality = 60;
    cfg.avg_len = 14;
    cfg.min_len = 4;
    cfg.max_len = 40;
    cfg.seed = 7;
    return GenerateTaxiDataset(cfg);
  }
};

TEST_P(GeneratedDataProperty, WithinThresholdAgreesWithCompute) {
  DistanceParams params;
  params.epsilon = 0.004;
  params.delta = 3;
  auto dist = *MakeDistance(GetParam(), params);
  Dataset ds = SmallDataset();
  for (size_t i = 0; i < 25; ++i) {
    for (size_t j = i; j < 25; ++j) {
      const double d = dist->Compute(ds[i], ds[j]);
      for (double factor : {0.5, 0.95, 1.0, 1.05, 2.0}) {
        const double tau = d * factor + (GetParam() == DistanceType::kEDR ||
                                                 GetParam() == DistanceType::kLCSS
                                             ? (factor - 1.0)
                                             : 0.0);
        if (tau < 0) continue;
        // Exact ties are sensitive to float summation order; skip them.
        if (std::abs(d - tau) <= 1e-9 * (1.0 + d)) continue;
        EXPECT_EQ(dist->WithinThreshold(ds[i], ds[j], tau), d <= tau)
            << dist->name() << " i=" << i << " j=" << j << " d=" << d
            << " tau=" << tau;
      }
    }
  }
}

TEST_P(GeneratedDataProperty, SelfDistanceIsZero) {
  DistanceParams params;
  params.epsilon = 0.004;
  auto dist = *MakeDistance(GetParam(), params);
  Dataset ds = SmallDataset();
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(dist->Compute(ds[i], ds[i]), 0.0) << dist->name();
    EXPECT_TRUE(dist->WithinThreshold(ds[i], ds[i], 0.0));
  }
}

INSTANTIATE_TEST_SUITE_P(AllDistances, GeneratedDataProperty,
                         ::testing::Values(DistanceType::kDTW,
                                           DistanceType::kFrechet,
                                           DistanceType::kEDR,
                                           DistanceType::kLCSS,
                                           DistanceType::kERP),
                         [](const auto& info) {
                           return DistanceTypeName(info.param);
                         });

TEST(AmdOnGeneratedData, LowerBoundsHoldEverywhere) {
  Dtw dtw;
  GeneratorConfig cfg;
  cfg.cardinality = 40;
  cfg.seed = 9;
  Dataset ds = GenerateTaxiDataset(cfg);
  for (size_t i = 0; i < ds.size(); ++i) {
    for (size_t j = i + 1; j < std::min(ds.size(), i + 6); ++j) {
      EXPECT_LE(Dtw::AccumulatedMinDistance(ds[i], ds[j]),
                dtw.Compute(ds[i], ds[j]) + 1e-9);
    }
  }
}

// ---------------------------------------------------------------------------
// Naive O(m*n) oracles. These are the textbook full-matrix recurrences with
// no rolling arrays, no banding, no pruning, and no squared-distance
// shortcuts — deliberately the dumbest possible implementations, so the
// optimized kernels have an independent ground truth. Every comparison below
// is exact (EXPECT_EQ on doubles): the kernels are required to be
// bit-compatible with these recurrences.
// ---------------------------------------------------------------------------

constexpr double kInf = std::numeric_limits<double>::infinity();

double PointDist(const Point& p, const Point& q) {
  const double dx = p.x - q.x;
  const double dy = p.y - q.y;
  return std::sqrt(dx * dx + dy * dy);
}

using Matrix = std::vector<std::vector<double>>;

double NaiveDtw(const Trajectory& a, const Trajectory& b) {
  const size_t m = a.size(), n = b.size();
  if (m == 0 || n == 0) return m == n ? 0.0 : kInf;
  Matrix d(m + 1, std::vector<double>(n + 1, kInf));
  d[0][0] = 0.0;
  for (size_t i = 1; i <= m; ++i) {
    for (size_t j = 1; j <= n; ++j) {
      d[i][j] = PointDist(a[i - 1], b[j - 1]) +
                std::min({d[i - 1][j - 1], d[i - 1][j], d[i][j - 1]});
    }
  }
  return d[m][n];
}

double NaiveFrechet(const Trajectory& a, const Trajectory& b) {
  const size_t m = a.size(), n = b.size();
  if (m == 0 || n == 0) return m == n ? 0.0 : kInf;
  Matrix d(m + 1, std::vector<double>(n + 1, kInf));
  d[0][0] = 0.0;
  for (size_t i = 1; i <= m; ++i) {
    for (size_t j = 1; j <= n; ++j) {
      d[i][j] = std::max(PointDist(a[i - 1], b[j - 1]),
                         std::min({d[i - 1][j - 1], d[i - 1][j], d[i][j - 1]}));
    }
  }
  return d[m][n];
}

double NaiveEdr(const Trajectory& a, const Trajectory& b, double eps) {
  const size_t m = a.size(), n = b.size();
  Matrix d(m + 1, std::vector<double>(n + 1, 0.0));
  for (size_t i = 0; i <= m; ++i) d[i][0] = double(i);
  for (size_t j = 0; j <= n; ++j) d[0][j] = double(j);
  for (size_t i = 1; i <= m; ++i) {
    for (size_t j = 1; j <= n; ++j) {
      const double sub = PointDist(a[i - 1], b[j - 1]) <= eps ? 0.0 : 1.0;
      d[i][j] = std::min(
          {d[i - 1][j - 1] + sub, d[i - 1][j] + 1.0, d[i][j - 1] + 1.0});
    }
  }
  return d[m][n];
}

size_t NaiveLcssSimilarity(const Trajectory& a, const Trajectory& b,
                           double eps, long delta) {
  const size_t m = a.size(), n = b.size();
  std::vector<std::vector<size_t>> d(m + 1, std::vector<size_t>(n + 1, 0));
  for (size_t i = 1; i <= m; ++i) {
    for (size_t j = 1; j <= n; ++j) {
      const bool in_band = std::labs(long(i) - long(j)) <= delta;
      if (in_band && PointDist(a[i - 1], b[j - 1]) <= eps) {
        d[i][j] = d[i - 1][j - 1] + 1;
      } else {
        d[i][j] = std::max(d[i - 1][j], d[i][j - 1]);
      }
    }
  }
  return d[m][n];
}

double NaiveLcss(const Trajectory& a, const Trajectory& b, double eps,
                 long delta) {
  const size_t shorter = std::min(a.size(), b.size());
  return double(shorter - std::min(shorter, NaiveLcssSimilarity(a, b, eps, delta)));
}

double NaiveErp(const Trajectory& a, const Trajectory& b, const Point& g) {
  const size_t m = a.size(), n = b.size();
  Matrix d(m + 1, std::vector<double>(n + 1, 0.0));
  for (size_t i = 1; i <= m; ++i) d[i][0] = d[i - 1][0] + PointDist(a[i - 1], g);
  for (size_t j = 1; j <= n; ++j) d[0][j] = d[0][j - 1] + PointDist(b[j - 1], g);
  for (size_t i = 1; i <= m; ++i) {
    for (size_t j = 1; j <= n; ++j) {
      d[i][j] = std::min({d[i - 1][j - 1] + PointDist(a[i - 1], b[j - 1]),
                          d[i - 1][j] + PointDist(a[i - 1], g),
                          d[i][j - 1] + PointDist(b[j - 1], g)});
    }
  }
  return d[m][n];
}

Trajectory RandomWalk(Rng& rng, size_t len, TrajectoryId id) {
  Trajectory t;
  t.set_id(id);
  Point pos{rng.Uniform(0, 2), rng.Uniform(0, 2)};
  for (size_t i = 0; i < len; ++i) {
    pos.x += rng.Gaussian(0, 0.15);
    pos.y += rng.Gaussian(0, 0.15);
    t.mutable_points().push_back(pos);
  }
  return t;
}

/// Random pairs covering degenerate lengths (1, 2) up to mid-size DP grids.
std::vector<std::pair<Trajectory, Trajectory>> OraclePairs() {
  Rng rng(1234);
  std::vector<std::pair<Trajectory, Trajectory>> pairs;
  const size_t lens[] = {1, 2, 3, 5, 9, 17, 33};
  TrajectoryId id = 0;
  for (size_t la : lens) {
    for (size_t lb : lens) {
      Trajectory a = RandomWalk(rng, la, id++);
      Trajectory b = RandomWalk(rng, lb, id++);
      pairs.emplace_back(std::move(a), std::move(b));
    }
  }
  for (int k = 0; k < 20; ++k) {
    const size_t la = size_t(rng.UniformInt(1, 48));
    const size_t lb = size_t(rng.UniformInt(1, 48));
    Trajectory a = RandomWalk(rng, la, id++);
    Trajectory b = RandomWalk(rng, lb, id++);
    pairs.emplace_back(std::move(a), std::move(b));
  }
  return pairs;
}

class OracleEquivalence : public ::testing::Test {
 protected:
  static DistanceParams Params() {
    DistanceParams p;
    p.epsilon = 0.15;  // ~ one step of the random walk, so matches do occur
    p.delta = 3;
    p.erp_gap = Point{0.5, 0.5};
    return p;
  }
};

TEST_F(OracleEquivalence, DtwIsBitIdenticalToNaive) {
  auto dist = *MakeDistance(DistanceType::kDTW, Params());
  for (const auto& [a, b] : OraclePairs()) {
    EXPECT_EQ(dist->Compute(a, b), NaiveDtw(a, b))
        << "len " << a.size() << " x " << b.size();
  }
}

TEST_F(OracleEquivalence, FrechetIsBitIdenticalToNaive) {
  auto dist = *MakeDistance(DistanceType::kFrechet, Params());
  for (const auto& [a, b] : OraclePairs()) {
    EXPECT_EQ(dist->Compute(a, b), NaiveFrechet(a, b))
        << "len " << a.size() << " x " << b.size();
  }
}

TEST_F(OracleEquivalence, EdrIsBitIdenticalToNaive) {
  auto dist = *MakeDistance(DistanceType::kEDR, Params());
  for (const auto& [a, b] : OraclePairs()) {
    EXPECT_EQ(dist->Compute(a, b), NaiveEdr(a, b, Params().epsilon))
        << "len " << a.size() << " x " << b.size();
  }
}

TEST_F(OracleEquivalence, LcssIsBitIdenticalToNaive) {
  auto dist = *MakeDistance(DistanceType::kLCSS, Params());
  Lcss lcss(Params().epsilon, Params().delta);
  for (const auto& [a, b] : OraclePairs()) {
    EXPECT_EQ(dist->Compute(a, b),
              NaiveLcss(a, b, Params().epsilon, Params().delta))
        << "len " << a.size() << " x " << b.size();
    EXPECT_EQ(lcss.Similarity(a, b),
              NaiveLcssSimilarity(a, b, Params().epsilon, Params().delta));
  }
}

TEST_F(OracleEquivalence, ErpIsBitIdenticalToNaive) {
  auto dist = *MakeDistance(DistanceType::kERP, Params());
  for (const auto& [a, b] : OraclePairs()) {
    EXPECT_EQ(dist->Compute(a, b), NaiveErp(a, b, Params().erp_gap))
        << "len " << a.size() << " x " << b.size();
  }
}

TEST_F(OracleEquivalence, WithinThresholdMatchesNaiveOracle) {
  // The threshold kernels prune aggressively (anchor bounds, column windows,
  // row-min abandons); their boolean answer must still match the naive
  // distance for thresholds on both sides of it. Exact ties are skipped as
  // elsewhere: they are sensitive to summation order by construction.
  const DistanceParams params = Params();
  for (DistanceType type :
       {DistanceType::kDTW, DistanceType::kFrechet, DistanceType::kEDR,
        DistanceType::kLCSS, DistanceType::kERP}) {
    auto dist = *MakeDistance(type, params);
    for (const auto& [a, b] : OraclePairs()) {
      double d;
      switch (type) {
        case DistanceType::kDTW: d = NaiveDtw(a, b); break;
        case DistanceType::kFrechet: d = NaiveFrechet(a, b); break;
        case DistanceType::kEDR: d = NaiveEdr(a, b, params.epsilon); break;
        case DistanceType::kLCSS:
          d = NaiveLcss(a, b, params.epsilon, params.delta);
          break;
        default: d = NaiveErp(a, b, params.erp_gap); break;
      }
      for (double tau : {0.0, d * 0.5, d - 0.5, d * 0.95, d, d + 0.5,
                         d * 1.05, d * 2.0 + 0.25}) {
        if (tau < 0 || std::isinf(d)) continue;
        if (std::abs(d - tau) <= 1e-9 * (1.0 + d)) continue;  // float tie
        EXPECT_EQ(dist->WithinThreshold(a, b, tau), d <= tau)
            << dist->name() << " len " << a.size() << " x " << b.size()
            << " d=" << d << " tau=" << tau;
      }
    }
  }
}

TEST(ThresholdEdge, IntegerGridExactBoundaries) {
  // 3-4-5 grids make every distance, sum, and threshold exactly
  // representable, so accept/reject at tau == d is deterministic — no
  // float-tie skip needed here.
  const Trajectory a(0, {{0, 0}, {3, 4}});
  const Trajectory b(1, {{0, 0}, {0, 0}});
  Dtw dtw;
  EXPECT_EQ(dtw.Compute(a, b), 5.0);
  EXPECT_TRUE(dtw.WithinThreshold(a, b, 5.0));
  EXPECT_FALSE(dtw.WithinThreshold(a, b, 4.5));
  Frechet frechet;
  EXPECT_EQ(frechet.Compute(a, b), 5.0);
  EXPECT_TRUE(frechet.WithinThreshold(a, b, 5.0));
  EXPECT_FALSE(frechet.WithinThreshold(a, b, 4.5));

  // Deeper grid: the optimal warping path must pay 5 then 10.
  const Trajectory c(2, {{0, 0}, {3, 4}, {6, 8}});
  const Trajectory z(3, {{0, 0}, {0, 0}, {0, 0}});
  EXPECT_EQ(dtw.Compute(c, z), 15.0);
  EXPECT_TRUE(dtw.WithinThreshold(c, z, 15.0));
  EXPECT_FALSE(dtw.WithinThreshold(c, z, 14.5));
  EXPECT_EQ(frechet.Compute(c, z), 10.0);
  EXPECT_TRUE(frechet.WithinThreshold(c, z, 10.0));
  EXPECT_FALSE(frechet.WithinThreshold(c, z, 9.5));

  // Edit distances at an exact epsilon boundary: dist((0,0),(3,4)) == 5.
  DistanceParams on;
  on.epsilon = 5.0;
  DistanceParams off;
  off.epsilon = 4.9;
  const Trajectory p(4, {{0, 0}});
  const Trajectory q(5, {{3, 4}});
  auto edr_on = *MakeDistance(DistanceType::kEDR, on);
  auto edr_off = *MakeDistance(DistanceType::kEDR, off);
  EXPECT_EQ(edr_on->Compute(p, q), 0.0);
  EXPECT_EQ(edr_off->Compute(p, q), 1.0);
  EXPECT_TRUE(edr_on->WithinThreshold(p, q, 0.0));
  EXPECT_FALSE(edr_off->WithinThreshold(p, q, 0.0));
  EXPECT_TRUE(edr_off->WithinThreshold(p, q, 1.0));
  auto lcss_on = *MakeDistance(DistanceType::kLCSS, on);
  auto lcss_off = *MakeDistance(DistanceType::kLCSS, off);
  EXPECT_EQ(lcss_on->Compute(p, q), 0.0);
  EXPECT_EQ(lcss_off->Compute(p, q), 1.0);
  EXPECT_TRUE(lcss_on->WithinThreshold(p, q, 0.0));
  EXPECT_FALSE(lcss_off->WithinThreshold(p, q, 0.0));
}

/// A self-join decides each unordered pair once and emits it in both
/// orientations, so its exactness rests on every kernel being symmetric bit
/// for bit. Pairs of lengths 2-120: random walks, duplicates (a copy, and a
/// copy with every point repeated), constant-point trajectories and walks
/// shifted to huge coordinates, where a contracted multiply-add would round
/// differently in the two orientations.
std::vector<std::pair<Trajectory, Trajectory>> SymmetryPairs() {
  Rng rng(4711);
  std::vector<std::pair<Trajectory, Trajectory>> pairs;
  TrajectoryId id = 0;
  auto length = [&rng] { return static_cast<size_t>(rng.UniformInt(2, 120)); };
  auto shifted = [](Trajectory t, double scale, Point offset) {
    for (Point& p : t.mutable_points()) {
      p = Point{p.x * scale + offset.x, p.y * scale + offset.y};
    }
    return t;
  };
  for (int k = 0; k < 120; ++k) {
    const size_t la = length();
    const size_t lb = k % 3 == 0 ? la : length();
    pairs.emplace_back(RandomWalk(rng, la, id), RandomWalk(rng, lb, id + 1));
    id += 2;
  }
  for (int k = 0; k < 12; ++k) {
    const Trajectory a = RandomWalk(rng, length(), id++);
    Trajectory copy = a;
    copy.set_id(id++);
    Trajectory doubled;
    doubled.set_id(id++);
    for (const Point& p : a.points()) {
      doubled.mutable_points().push_back(p);
      doubled.mutable_points().push_back(p);
    }
    const Point c{rng.Uniform(0, 2), rng.Uniform(0, 2)};
    Trajectory constant;
    constant.set_id(id++);
    constant.mutable_points().assign(length(), c);
    Trajectory other_constant = constant;
    other_constant.set_id(id++);
    other_constant.mutable_points().assign(length(), Point{c.x + 0.1, c.y});
    pairs.emplace_back(a, copy);
    pairs.emplace_back(a, doubled);
    pairs.emplace_back(a, constant);
    pairs.emplace_back(constant, other_constant);
    const Point far{1.0e9 + 0.37, -3.0e8 - 0.11};
    pairs.emplace_back(shifted(a, 1.0, far),
                       shifted(RandomWalk(rng, length(), id++), 1.0, far));
    pairs.emplace_back(shifted(a, 1.0e6, far), shifted(doubled, 1.0e6, far));
  }
  return pairs;
}

class DistanceSymmetryProperty
    : public ::testing::TestWithParam<DistanceType> {};

TEST_P(DistanceSymmetryProperty, ComputeAndWithinThresholdAreSymmetric) {
  DistanceParams params;
  params.epsilon = 0.15;  // ~ one step of the random walk
  params.delta = 3;
  params.erp_gap = Point{0.5, 0.5};
  const auto dist = *MakeDistance(GetParam(), params);
  const double inf = std::numeric_limits<double>::infinity();
  size_t accepted_both_ways = 0;
  for (const auto& [a, b] : SymmetryPairs()) {
    const double ab = dist->Compute(a, b);
    const double ba = dist->Compute(b, a);
    uint64_t ab_bits, ba_bits;
    std::memcpy(&ab_bits, &ab, sizeof(ab));
    std::memcpy(&ba_bits, &ba, sizeof(ba));
    ASSERT_EQ(ab_bits, ba_bits)
        << dist->name() << " |a|=" << a.size() << " |b|=" << b.size()
        << " ab=" << ab << " ba=" << ba;
    for (const double tau : {ab, std::nextafter(ab, inf),
                             std::nextafter(ab, -inf), 0.7 * ab, 1.3 * ab}) {
      const bool forward = dist->WithinThreshold(a, b, tau);
      EXPECT_EQ(forward, dist->WithinThreshold(b, a, tau))
          << dist->name() << " |a|=" << a.size() << " |b|=" << b.size()
          << " d=" << ab << " tau=" << tau;
      accepted_both_ways += forward;
    }
    // Clear of the boundary, the threshold test must also agree with d.
    EXPECT_TRUE(dist->WithinThreshold(a, b, 1.3 * ab)) << dist->name();
    if (ab > 0.0) {
      EXPECT_FALSE(dist->WithinThreshold(a, b, 0.7 * ab)) << dist->name();
    }
  }
  EXPECT_GT(accepted_both_ways, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllDistances, DistanceSymmetryProperty,
                         ::testing::Values(DistanceType::kDTW,
                                           DistanceType::kFrechet,
                                           DistanceType::kEDR,
                                           DistanceType::kLCSS,
                                           DistanceType::kERP),
                         [](const auto& info) {
                           return DistanceTypeName(info.param);
                         });

TEST(DpScratchTest, SteadyStateComputationsAreAllocationFree) {
  // First pass sizes the thread-local scratch lanes; afterwards the kernels
  // must run with zero heap growth. reallocations() counts every lane
  // resize, so a flat count across repeated passes proves the hot verify
  // path is allocation-free in steady state.
  DistanceParams params;
  params.epsilon = 0.15;
  params.delta = 3;
  params.erp_gap = Point{0.5, 0.5};
  std::vector<std::shared_ptr<TrajectoryDistance>> dists;
  for (DistanceType type :
       {DistanceType::kDTW, DistanceType::kFrechet, DistanceType::kEDR,
        DistanceType::kLCSS, DistanceType::kERP}) {
    dists.push_back(*MakeDistance(type, params));
  }
  Rng rng(99);
  std::vector<std::pair<Trajectory, Trajectory>> pairs;
  for (int k = 0; k < 8; ++k) {
    pairs.emplace_back(RandomWalk(rng, 64, 2 * k), RandomWalk(rng, 64, 2 * k + 1));
  }
  auto pass = [&] {
    for (const auto& dist : dists) {
      for (const auto& [a, b] : pairs) {
        const double d = dist->Compute(a, b);
        (void)dist->WithinThreshold(a, b, d * 0.9);
        (void)dist->WithinThreshold(a, b, d * 1.1);
      }
    }
    for (const auto& [a, b] : pairs) {
      (void)Dtw::AccumulatedMinDistance(a, b);
    }
  };
  pass();  // warm-up: lanes grow to their high-water marks
  const size_t before = DpScratch::ThreadLocal().reallocations();
  pass();
  pass();
  EXPECT_EQ(DpScratch::ThreadLocal().reallocations(), before)
      << "DP kernels allocated on a warm scratch";
}

}  // namespace
}  // namespace dita
