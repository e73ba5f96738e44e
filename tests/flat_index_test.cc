// Equivalence and determinism tests for the flat (CSR/SoA) index layouts
// (DESIGN.md §5c): the iterative flat traversals must emit bit-identical
// candidate sets — content AND order — to the recursive reference
// formulations, across every prune mode, metric quirk (ERP gap, LCSS delta
// window), fanout, and leaf capacity, with the same probe counters (the
// EXPLAIN funnel's trie levels); and parallel builds must produce
// byte-identical structures to serial ones.

#include <algorithm>
#include <limits>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "index/rtree.h"
#include "index/str_tile.h"
#include "index/trie_index.h"
#include "util/query_context.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/generator.h"

namespace dita {
namespace {

std::vector<Trajectory> TestTrajectories(size_t n, uint64_t seed) {
  GeneratorConfig cfg;
  cfg.cardinality = n;
  cfg.avg_len = 30.0;
  cfg.seed = seed;
  return GenerateTaxiDataset(cfg).trajectories();
}

TrieIndex::Options TrieOptions(size_t align_fanout, size_t pivot_fanout,
                               size_t leaf_capacity) {
  TrieIndex::Options opts;
  opts.num_pivots = 3;
  opts.align_fanout = align_fanout;
  opts.pivot_fanout = pivot_fanout;
  opts.leaf_capacity = leaf_capacity;
  return opts;
}

/// Exercises one (index, spec) pair: the flat traversal must match the
/// recursive reference exactly, including emission order, with and without
/// probe counters and with a context that never stops; the counters must
/// match the reference's too. Under a minimum item, the reference must be
/// the unrestricted output's items at or after it, in the same order.
/// Returns the reference output.
std::vector<uint32_t> ExpectTraversalsAgree(const TrieIndex& index,
                                            TrieIndex::SearchSpec spec) {
  std::vector<uint32_t> reference;
  TrieIndex::ProbeStats ref_stats;
  ref_stats.Reset(index.num_levels());
  index.CollectCandidatesReference(spec, &reference, &ref_stats);
  if (spec.min_item != 0) {
    TrieIndex::SearchSpec all = spec;
    all.min_item = 0;
    std::vector<uint32_t> unrestricted;
    index.CollectCandidatesReference(all, &unrestricted);
    std::vector<uint32_t> tail;
    for (uint32_t pos : unrestricted) {
      if (index.ItemIndex(pos) >= spec.min_item) tail.push_back(pos);
    }
    EXPECT_EQ(reference, tail) << "min_item=" << spec.min_item;
  }

  std::vector<uint32_t> flat;
  index.CollectCandidates(spec, &flat);
  EXPECT_EQ(flat, reference);

  std::vector<uint32_t> counted;
  TrieIndex::ProbeStats stats;
  stats.Reset(index.num_levels());
  index.CollectCandidates(spec, &counted, &stats);
  EXPECT_EQ(counted, reference);
  EXPECT_EQ(stats.nodes_visited, ref_stats.nodes_visited);
  EXPECT_EQ(stats.nodes_pruned, ref_stats.nodes_pruned);
  EXPECT_EQ(stats.pruned_members, ref_stats.pruned_members);

  QueryContext never_stops;
  spec.ctx = &never_stops;
  std::vector<uint32_t> governed;
  index.CollectCandidates(spec, &governed);
  EXPECT_EQ(governed, reference);
  EXPECT_FALSE(never_stops.stopped());
  return reference;
}

/// Every prune mode and metric quirk for one (query, tau): accumulate, ERP,
/// max, edit count and the LCSS delta window. Returns how many of the
/// outputs were non-empty.
size_t ExpectAllModesAgree(const TrieIndex& index, const Trajectory& q,
                           double tau, uint32_t min_item = 0) {
  static const Point gap{116.4, 39.9};
  size_t nonempty = 0;
  TrieIndex::SearchSpec spec;
  spec.query = &q;
  spec.tau = tau;
  spec.min_item = min_item;
  spec.mode = PruneMode::kAccumulate;
  nonempty += !ExpectTraversalsAgree(index, spec).empty();
  spec.erp_gap = &gap;  // ERP: gap matching, no endpoint alignment
  nonempty += !ExpectTraversalsAgree(index, spec).empty();
  spec.erp_gap = nullptr;
  spec.mode = PruneMode::kMax;
  nonempty += !ExpectTraversalsAgree(index, spec).empty();
  spec.mode = PruneMode::kEditCount;
  spec.epsilon = 0.05;
  spec.tau = tau * 40.0;  // edit budgets, not distances
  nonempty += !ExpectTraversalsAgree(index, spec).empty();
  spec.lcss_delta = 5;  // adds the |i - j| <= delta window
  nonempty += !ExpectTraversalsAgree(index, spec).empty();
  return nonempty;
}

TEST(FlatTrieTest, MatchesReferenceAcrossModesAndShapes) {
  const std::vector<Trajectory> data = TestTrajectories(400, 91);
  const std::vector<Trajectory> queries = TestTrajectories(12, 17);

  const struct {
    size_t align, pivot, leaf;
  } shapes[] = {{2, 2, 1}, {8, 4, 4}, {32, 16, 16}};

  for (const auto& shape : shapes) {
    TrieIndex index;
    ASSERT_TRUE(
        index.Build(data, TrieOptions(shape.align, shape.pivot, shape.leaf))
            .ok());
    size_t nonempty = 0;
    for (const Trajectory& q : queries) {
      for (double tau : {0.0, 0.02, 0.1, 0.5}) {
        nonempty += ExpectAllModesAgree(index, q, tau);
      }
    }
    // Guard against the vacuous pass where every traversal prunes at the
    // root and both sides trivially emit nothing.
    EXPECT_GT(nonempty, 0u);
  }
}

TEST(FlatTrieTest, EmptyAndSingletonPartitions) {
  TrieIndex empty;
  ASSERT_TRUE(empty.Build({}, TrieOptions(8, 4, 4)).ok());
  EXPECT_EQ(empty.size(), 0u);

  TrieIndex single;
  ASSERT_TRUE(
      single.Build({Trajectory(7, {{0, 0}, {1, 1}, {2, 0}})}, TrieOptions(8, 4, 4))
          .ok());
  ASSERT_EQ(single.size(), 1u);

  const Trajectory q(99, {{0, 0}, {1, 1}, {2, 0}});
  for (PruneMode mode :
       {PruneMode::kAccumulate, PruneMode::kMax, PruneMode::kEditCount}) {
    TrieIndex::SearchSpec spec;
    spec.query = &q;
    spec.tau = mode == PruneMode::kEditCount ? 1.0 : 0.5;
    spec.mode = mode;
    spec.epsilon = 0.1;
    ExpectTraversalsAgree(empty, spec);
    ExpectTraversalsAgree(single, spec);

    std::vector<uint32_t> out;
    empty.CollectCandidates(spec, &out);
    EXPECT_TRUE(out.empty());
    out.clear();
    single.CollectCandidates(spec, &out);
    EXPECT_EQ(out, std::vector<uint32_t>{0});  // exact self-match survives
  }
}

TEST(FlatTrieTest, ShippedShapeWithOneTrajectoryLeavesMatchesReference) {
  // The engine's default trie options over a partition-sized table: each
  // first-point group is split once more at the last point, and those
  // groups hold about one trajectory each, so level 1 is (almost) all
  // one-trajectory leaves that the traversal emits in place.
  const std::vector<Trajectory> data = TestTrajectories(1200, 44);
  TrieIndex index;
  ASSERT_TRUE(index.Build(data, TrieIndex::Options{}).ok());
  // More nodes than trajectories: the leaves are about one per trajectory.
  EXPECT_GT(index.NodeCount(), index.size());

  const std::vector<Trajectory> queries = TestTrajectories(10, 3);
  size_t nonempty = 0;
  for (size_t i = 0; i < 20; ++i) {
    const Trajectory& q = i < 10 ? queries[i] : data[(i * 97) % data.size()];
    for (double tau : {0.0, 0.002, 0.005, 0.02, 0.1}) {
      nonempty += ExpectAllModesAgree(index, q, tau);
    }
  }
  EXPECT_GT(nonempty, 0u);
}

TEST(FlatTrieTest, LeafAfterInternalSiblingKeepsDfsOrder) {
  // STR tiling with fanout 4 cuts 18 first points into groups of 5, 4, 5
  // and 4. With leaf capacity 4 the level-0 run is internal, leaf,
  // internal, leaf: each leaf must wait for the internal subtree before it.
  // With leaf capacity 1 every level-0 node is internal and the first one's
  // level-1 run (groups of 2, 1, 1, 1) mixes the same way one level down.
  const std::vector<Trajectory> data = TestTrajectories(18, 8);
  const std::vector<Trajectory> queries = TestTrajectories(6, 9);
  for (size_t leaf : {4u, 1u}) {
    TrieIndex index;
    ASSERT_TRUE(index.Build(data, TrieOptions(4, 2, leaf)).ok());
    // BFS numbering: nodes 1-4 are level 0, 5-8 the first one's children.
    ASSERT_EQ(index.SubtreeCount(1), 5u);
    ASSERT_EQ(index.SubtreeCount(2), 4u);
    ASSERT_EQ(index.SubtreeCount(3), 5u);
    ASSERT_EQ(index.SubtreeCount(4), 4u);
    if (leaf == 1) {
      ASSERT_EQ(index.SubtreeCount(5), 2u);
      ASSERT_EQ(index.SubtreeCount(6), 1u);
      ASSERT_EQ(index.SubtreeCount(7), 1u);
      ASSERT_EQ(index.SubtreeCount(8), 1u);
    }
    // An unbounded budget passes every node: the output is the whole table
    // in DFS leaf order, which in-place emission must not reorder.
    TrieIndex::SearchSpec spec;
    spec.query = &queries[0];
    spec.tau = std::numeric_limits<double>::infinity();
    for (PruneMode mode : {PruneMode::kAccumulate, PruneMode::kMax}) {
      spec.mode = mode;
      EXPECT_EQ(ExpectTraversalsAgree(index, spec).size(), data.size());
    }
    for (const Trajectory& q : queries) {
      for (double tau : {0.0, 0.02, 0.1, 0.5}) ExpectAllModesAgree(index, q, tau);
    }
  }
}

TEST(FlatTrieTest, TauExactlyAtEndpointMinDistIsKept) {
  // A trajectory whose endpoint node is its own one-point MBR sits exactly
  // on the prune boundary when tau equals that endpoint's MinDist: the
  // squared pre-filter must admit it and the exact test keep it, as in the
  // reference (d <= tau passes).
  const std::vector<Trajectory> data = TestTrajectories(1200, 61);
  const Point off{0.0137, -0.0071};  // shifts an endpoint off its node

  // Level 1: the shipped shape, whose level-1 nodes hold one trajectory.
  // The query starts at t's first point (level 0 costs nothing, so the
  // accumulate budget at level 1 is still tau) and ends off t's last one.
  TrieIndex shipped;
  ASSERT_TRUE(shipped.Build(data, TrieIndex::Options{}).ok());
  // Level 0: one first-point group per trajectory, so every level-0 node is
  // a one-trajectory leaf; the query starts off t's first point.
  const std::vector<Trajectory> few(data.begin(), data.begin() + 64);
  TrieIndex wide;
  ASSERT_TRUE(wide.Build(few, TrieOptions(64, 4, 1)).ok());

  size_t kept = 0;
  for (size_t i = 0; i < few.size(); ++i) {
    const Trajectory& t = few[i];
    std::vector<Point> back_pts = t.points();
    back_pts.back() = Point{t.back().x + off.x, t.back().y + off.y};
    const Trajectory back_query(9000 + i, back_pts);
    std::vector<Point> front_pts = t.points();
    front_pts.front() = Point{t.front().x + off.x, t.front().y + off.y};
    const Trajectory front_query(9500 + i, front_pts);

    for (PruneMode mode : {PruneMode::kAccumulate, PruneMode::kMax}) {
      TrieIndex::SearchSpec spec;
      spec.mode = mode;
      spec.query = &back_query;
      spec.tau = MBR::FromPoint(t.back()).MinDist(back_query.back());
      std::vector<uint32_t> out = ExpectTraversalsAgree(shipped, spec);
      kept += std::find(out.begin(), out.end(), i) != out.end();

      spec.query = &front_query;
      spec.tau = MBR::FromPoint(t.front()).MinDist(front_query.front());
      out = ExpectTraversalsAgree(wide, spec);
      kept += std::find(out.begin(), out.end(), i) != out.end();
    }
  }
  // Most boundary trajectories are kept (those whose endpoint node is
  // shared with a neighbour are kept too, with d < tau).
  EXPECT_GT(kept, few.size());
}

TEST(FlatTrieTest, MinItemMatchesReferenceAcrossModesAndShapes) {
  // A self-join's diagonal probe collects only the items after its own.
  // Minimum items 0, 1, mid-range and the last item, and in the multi-item
  // shapes, items inside a leaf, which the traversal must clamp.
  const std::vector<Trajectory> data = TestTrajectories(400, 91);
  const std::vector<Trajectory> queries = TestTrajectories(6, 17);
  const TrieIndex::Options shapes[] = {TrieOptions(2, 2, 1),
                                       TrieOptions(8, 4, 4),
                                       TrieOptions(32, 16, 16),
                                       TrieIndex::Options{}};
  for (const TrieIndex::Options& shape : shapes) {
    TrieIndex index;
    ASSERT_TRUE(index.Build(data, shape).ok());
    const uint32_t n = static_cast<uint32_t>(index.size());
    size_t nonempty = 0;
    for (size_t i = 0; i < queries.size() + 4; ++i) {
      const Trajectory& q =
          i < queries.size() ? queries[i] : data[(i * 89) % data.size()];
      for (uint32_t min_item : {0u, 1u, 2u, 7u, n / 2, n / 2 + 1, n - 1}) {
        for (double tau : {0.0, 0.02, 0.1, 0.5}) {
          nonempty += ExpectAllModesAgree(index, q, tau, min_item);
        }
      }
    }
    EXPECT_GT(nonempty, 0u);
  }
}

TEST(FlatTrieTest, MinItemInsideMultiItemLeafIsClamped) {
  // The LeafAfterInternalSiblingKeepsDfsOrder shape at leaf capacity 4:
  // level-0 nodes of 5, 4, 5 and 4 trajectories, the 4s being leaves, so
  // items [5, 9) are one leaf. An unbounded budget passes every node: the
  // output is exactly the items from the minimum on, in DFS order.
  const std::vector<Trajectory> data = TestTrajectories(18, 8);
  TrieIndex index;
  ASSERT_TRUE(index.Build(data, TrieOptions(4, 2, 4)).ok());
  ASSERT_EQ(index.SubtreeCount(1), 5u);
  ASSERT_EQ(index.SubtreeCount(2), 4u);
  ASSERT_EQ(index.SubtreeCount(0), 18u);
  TrieIndex::SearchSpec spec;
  spec.query = &data[0];
  spec.tau = std::numeric_limits<double>::infinity();
  for (PruneMode mode : {PruneMode::kAccumulate, PruneMode::kMax}) {
    spec.mode = mode;
    for (uint32_t min_item = 0; min_item <= 18; ++min_item) {
      spec.min_item = min_item;
      const std::vector<uint32_t> out = ExpectTraversalsAgree(index, spec);
      ASSERT_EQ(out.size(), 18u - min_item) << "min_item=" << min_item;
      for (size_t k = 0; k < out.size(); ++k) {
        EXPECT_EQ(index.ItemIndex(out[k]), min_item + k);
      }
    }
  }
}

TEST(FlatTrieTest, MinItemNeverDropsATrueMatchAtOrAfterIt) {
  // The diagonal probe's contract: every true match at item >= the minimum
  // is a candidate, and nothing before it is.
  const std::vector<Trajectory> data = TestTrajectories(300, 29);
  DistanceParams params;
  params.epsilon = 0.004;
  params.delta = 3;
  const TrieIndex::Options shapes[] = {TrieOptions(8, 4, 4),
                                       TrieIndex::Options{}};
  for (const TrieIndex::Options& shape : shapes) {
    TrieIndex index;
    ASSERT_TRUE(index.Build(data, shape).ok());
    for (DistanceType type :
         {DistanceType::kDTW, DistanceType::kFrechet, DistanceType::kEDR,
          DistanceType::kLCSS, DistanceType::kERP}) {
      const auto dist = *MakeDistance(type, params);
      const bool edit =
          type == DistanceType::kEDR || type == DistanceType::kLCSS;
      size_t kept = 0;
      for (uint32_t pos = 0; pos < index.size(); pos += 13) {
        const Trajectory& q = index.trajectory(pos);
        TrieIndex::SearchSpec spec;
        spec.query = &q;
        spec.tau = edit ? 3.0 : 0.02;
        spec.mode = dist->prune_mode();
        spec.epsilon = dist->matching_epsilon();
        if (type == DistanceType::kLCSS) spec.lcss_delta = params.delta;
        if (type == DistanceType::kERP) spec.erp_gap = &params.erp_gap;
        for (uint32_t min_item : {index.ItemIndex(pos),
                                  index.ItemIndex(pos) + 1, pos / 2}) {
          spec.min_item = min_item;
          std::vector<uint32_t> out;
          index.CollectCandidates(spec, &out);
          const std::set<uint32_t> got(out.begin(), out.end());
          for (uint32_t c : out) EXPECT_GE(index.ItemIndex(c), min_item);
          for (uint32_t t = 0; t < index.size(); ++t) {
            if (index.ItemIndex(t) < min_item ||
                dist->Compute(index.trajectory(t), q) > spec.tau) {
              continue;
            }
            ++kept;
            EXPECT_TRUE(got.count(t))
                << dist->name() << " dropped item " << index.ItemIndex(t)
                << " at min_item " << min_item;
          }
        }
      }
      EXPECT_GT(kept, 0u) << dist->name();
    }
  }
}

TEST(FlatTrieTest, ParallelBuildIsBitIdenticalToSerial) {
  const std::vector<Trajectory> data = TestTrajectories(600, 23);
  const TrieIndex::Options opts = TrieOptions(8, 4, 4);

  TrieIndex serial;
  ASSERT_TRUE(serial.Build(data, opts).ok());

  ThreadPool pool(4);
  for (int run = 0; run < 3; ++run) {
    TrieIndex parallel;
    double offloaded = 0.0;
    ASSERT_TRUE(parallel.Build(data, opts, &pool, &offloaded).ok());
    EXPECT_EQ(parallel.StructureDigest(), serial.StructureDigest());
    EXPECT_EQ(parallel.ByteSize(), serial.ByteSize());
    EXPECT_GE(offloaded, 0.0);
  }
}

TEST(FlatTrieTest, ByteSizeCountsFlatArraysAndSequences) {
  const std::vector<Trajectory> data = TestTrajectories(200, 5);
  TrieIndex small, large;
  ASSERT_TRUE(small.Build({data.begin(), data.begin() + 20}, TrieOptions(8, 4, 4))
                  .ok());
  ASSERT_TRUE(large.Build(data, TrieOptions(8, 4, 4)).ok());
  EXPECT_GT(small.ByteSize(), 0u);
  EXPECT_GT(large.ByteSize(), small.ByteSize());
  // The node arrays alone put a floor under the footprint: 4 MBR planes of
  // doubles plus 6 uint32 spans per node.
  EXPECT_GE(large.ByteSize(),
            large.NodeCount() * (4 * sizeof(double) + 6 * sizeof(uint32_t)));
}

std::vector<RTree::Entry> RandomEntries(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<RTree::Entry> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Point lo{rng.Uniform(0.0, 10.0), rng.Uniform(0.0, 10.0)};
    const Point hi{lo.x + rng.Uniform(0.0, 0.5), lo.y + rng.Uniform(0.0, 0.5)};
    MBR mbr;
    mbr.Expand(lo);
    mbr.Expand(hi);
    entries.push_back(RTree::Entry{mbr, static_cast<uint32_t>(i)});
  }
  return entries;
}

TEST(FlatRTreeTest, MatchesReferenceAcrossFanouts) {
  Rng rng(7);
  for (size_t n : {0ul, 1ul, 5ul, 64ul, 500ul}) {
    const std::vector<RTree::Entry> entries = RandomEntries(n, 31 + n);
    for (size_t fanout : {2ul, 4ul, 16ul}) {
      RTree tree;
      tree.Build(entries, fanout);
      EXPECT_EQ(tree.size(), n);
      for (int probe = 0; probe < 20; ++probe) {
        const Point p{rng.Uniform(-1.0, 11.0), rng.Uniform(-1.0, 11.0)};
        const double tau = rng.Uniform(0.0, 3.0);
        std::vector<uint32_t> flat, reference;
        tree.SearchWithinDistance(p, tau, &flat);
        tree.SearchWithinDistanceReference(p, tau, &reference);
        EXPECT_EQ(flat, reference);

        MBR range;
        range.Expand(p);
        range.Expand(Point{p.x + rng.Uniform(0.0, 4.0),
                           p.y + rng.Uniform(0.0, 4.0)});
        flat.clear();
        reference.clear();
        tree.SearchIntersecting(range, &flat);
        tree.SearchIntersectingReference(range, &reference);
        EXPECT_EQ(flat, reference);
      }
    }
  }
}

TEST(FlatRTreeTest, RebuildsAreBitIdentical) {
  const std::vector<RTree::Entry> entries = RandomEntries(300, 3);
  RTree a, b;
  a.Build(entries, 8);
  b.Build(entries, 8);
  EXPECT_EQ(a.StructureDigest(), b.StructureDigest());
  EXPECT_GT(a.ByteSize(), 0u);

  // Duplicate-coordinate entries exercise the index tie-breaker: entries
  // with identical MBRs must still pack in a reproducible order.
  std::vector<RTree::Entry> dupes = entries;
  for (auto& e : dupes) e.mbr = entries[0].mbr;
  RTree c, d;
  c.Build(dupes, 8);
  d.Build(dupes, 8);
  EXPECT_EQ(c.StructureDigest(), d.StructureDigest());
  std::vector<uint32_t> hits;
  c.SearchIntersecting(entries[0].mbr, &hits);
  EXPECT_EQ(hits.size(), dupes.size());
}

TEST(FlatStrTileTest, ParallelTilingMatchesSerialWithTies) {
  // Many items share coordinates, so without the index tie-breaker the sort
  // order (and thus the grouping) would be unspecified.
  std::vector<Point> keys;
  Rng rng(11);
  const size_t n = 1 << 15;  // above the parallel-sort threshold
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    keys.push_back(Point{static_cast<double>(rng.UniformInt(0, 15)),
                         static_cast<double>(rng.UniformInt(0, 15))});
  }
  std::vector<uint32_t> items(n);
  for (size_t i = 0; i < n; ++i) items[i] = static_cast<uint32_t>(i);
  auto key_of = [&](uint32_t i) { return keys[i]; };

  const auto serial = StrTile(items, key_of, 8);
  ThreadPool pool(4);
  for (int run = 0; run < 3; ++run) {
    double offloaded = 0.0;
    const auto parallel = StrTile(items, key_of, 8, &pool, &offloaded);
    EXPECT_EQ(parallel, serial);
  }
}

}  // namespace
}  // namespace dita
