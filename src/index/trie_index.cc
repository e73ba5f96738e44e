#include "index/trie_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "index/soa_planes.h"
#include "index/str_tile.h"
#include "util/logging.h"

namespace dita {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Stride between QueryContext checkpoints, in node visits. Large enough
/// that the counter update is invisible next to the MBR tests it meters,
/// small enough to bound time-to-stop (bench_cancellation measures it).
constexpr uint32_t kCheckStride = 256;

/// Bound for a squared-distance pre-filter against `limit`: whenever
/// dsq > SquaredLimit(limit), sqrt(dsq) > limit as well. The relative margin
/// covers the few ulps the squared expressions can round apart, and the
/// DBL_MIN term covers subnormal squares, so the pre-filter only ever
/// over-admits; an exact sqrt re-test settles what it admits.
inline double SquaredLimit(double limit) {
  return limit * limit * (1.0 + 1e-14) + std::numeric_limits<double>::min();
}

/// The endpoint-level node test (level 0 against the query's first point,
/// level 1 against its last) under kAccumulate without an ERP gap and under
/// kMax. `dsq` is the node's PlaneMinDistSq to that point and `limit_sq` is
/// SquaredLimit(limit). On pass, *d is the node's PlaneMinDist, bit for
/// bit, so the budget the children inherit is exact. TestNode and the
/// sibling scan in CollectCandidates both decide endpoint levels here.
inline bool EndpointWithin(double dsq, double limit, double limit_sq,
                           double* d) {
  if (dsq > limit_sq) return false;  // the common prune: no sqrt
  *d = std::sqrt(dsq);
  return !(*d > limit);
}

template <typename T>
size_t VecBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

template <typename T>
void FreeVec(std::vector<T>& v) {
  std::vector<T>().swap(v);
}
}  // namespace

TrieIndex::Scratch& TrieIndex::Scratch::ThreadLocal() {
  static thread_local Scratch s;
  return s;
}

size_t TrieIndex::Scratch::ByteSize() const {
  return VecBytes(suffix_mbrs) + VecBytes(stack) + VecBytes(survivors);
}

void TrieIndex::Scratch::Release() {
  FreeVec(suffix_mbrs);
  FreeVec(stack);
  FreeVec(survivors);
}

Status TrieIndex::Build(std::vector<Trajectory> trajectories,
                        const Options& options, ThreadPool* pool,
                        double* offloaded_seconds) {
  if (options.align_fanout < 2 || options.pivot_fanout < 2) {
    return Status::InvalidArgument("trie fanouts must be at least 2");
  }
  if (options.leaf_capacity < 1) {
    return Status::InvalidArgument("leaf capacity must be at least 1");
  }
  for (const Trajectory& t : trajectories) {
    if (t.empty()) return Status::InvalidArgument("empty trajectory in build set");
  }
  options_ = options;
  trajectories_ = std::move(trajectories);
  double off = 0.0;

  // Fan out only when every pool thread gets enough items to amortize the
  // dispatch; below the threshold the serial path is strictly faster (the
  // build is identical either way, so this is purely a scheduling choice).
  ThreadPool* build_pool = pool;
  if (pool != nullptr &&
      trajectories_.size() < kMinBuildItemsPerThread * pool->num_threads()) {
    build_pool = nullptr;
  }

  // Indexing-sequence extraction is independent per trajectory; chunk it
  // across the pool. Every chunk writes only its own slots, so the result
  // is position-for-position identical to the serial loop.
  sequences_.assign(trajectories_.size(), IndexingSequence{});
  off += ThreadPool::ParallelFor(
      build_pool, trajectories_.size(), /*min_parallel=*/256,
      [this](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          sequences_[i] = BuildIndexingSequence(
              trajectories_[i], options_.num_pivots, options_.strategy);
        }
      });

  const int num_levels = static_cast<int>(options_.num_pivots) + 2;

  xlo_.clear(); ylo_.clear(); xhi_.clear(); yhi_.clear();
  level_.clear();
  first_child_.clear(); child_count_.clear();
  items_begin_.clear(); items_end_.clear();
  src_lo_.clear(); src_hi_.clear();
  chargeable_.clear();
  items_.clear();

  auto add_node = [this](int32_t level) -> uint32_t {
    const uint32_t idx = static_cast<uint32_t>(level_.size());
    xlo_.push_back(kInf);
    ylo_.push_back(kInf);
    xhi_.push_back(-kInf);
    yhi_.push_back(-kInf);
    level_.push_back(level);
    first_child_.push_back(0);
    child_count_.push_back(0);
    items_begin_.push_back(0);
    items_end_.push_back(0);
    src_lo_.push_back(0);
    src_hi_.push_back(0);
    chargeable_.push_back(1);
    return idx;
  };

  // BFS construction: the work list is processed FIFO, so each node's
  // children are appended consecutively — the CSR layout needs only a
  // (first_child, count) pair per node. Leaf member lists are stashed per
  // node and laid out into the global items array in DFS order afterwards.
  struct Pending {
    uint32_t node;
    int level;
    std::vector<uint32_t> members;
  };
  std::vector<Pending> queue;
  std::vector<std::vector<uint32_t>> leaf_members;
  leaf_members.emplace_back();
  add_node(/*level=*/-1);  // root
  {
    std::vector<uint32_t> all(trajectories_.size());
    for (uint32_t i = 0; i < all.size(); ++i) all[i] = i;
    queue.push_back(Pending{0, -1, std::move(all)});
  }

  for (size_t head = 0; head < queue.size(); ++head) {
    Pending cur = std::move(queue[head]);
    const int child_level = cur.level + 1;
    // Leaf when all indexing levels are consumed or the population is small.
    if (child_level >= num_levels ||
        cur.members.size() <= options_.leaf_capacity) {
      leaf_members[cur.node] = std::move(cur.members);
      continue;
    }

    const size_t fanout =
        child_level < 2 ? options_.align_fanout : options_.pivot_fanout;
    auto level_point = [&](uint32_t traj_pos) -> Point {
      return sequences_[traj_pos].points[static_cast<size_t>(child_level)];
    };

    auto groups =
        StrTile(std::move(cur.members), level_point, fanout, build_pool, &off);
    first_child_[cur.node] = static_cast<uint32_t>(level_.size());
    child_count_[cur.node] = static_cast<uint32_t>(groups.size());
    for (auto& group : groups) {
      const uint32_t child = add_node(child_level);
      leaf_members.emplace_back();
      uint32_t lo = std::numeric_limits<uint32_t>::max();
      uint32_t hi = 0;
      for (uint32_t pos : group) {
        const Point p = level_point(pos);
        xlo_[child] = std::min(xlo_[child], p.x);
        ylo_[child] = std::min(ylo_[child], p.y);
        xhi_[child] = std::max(xhi_[child], p.x);
        yhi_[child] = std::max(yhi_[child], p.y);
        const uint32_t src = static_cast<uint32_t>(
            sequences_[pos].source_indices[static_cast<size_t>(child_level)]);
        lo = std::min(lo, src);
        hi = std::max(hi, src);
        if (!sequences_[pos].chargeable[static_cast<size_t>(child_level)]) {
          chargeable_[child] = 0;
        }
      }
      src_lo_[child] = lo;
      src_hi_[child] = hi;
      queue.push_back(Pending{child, child_level, std::move(group)});
    }
  }

  // DFS pass assigns every leaf an items span in traversal-emission order,
  // so the search appends strictly increasing ranges of one flat array.
  items_.reserve(trajectories_.size());
  std::vector<uint32_t> stack = {0};
  while (!stack.empty()) {
    const uint32_t n = stack.back();
    stack.pop_back();
    if (child_count_[n] == 0) {
      items_begin_[n] = static_cast<uint32_t>(items_.size());
      items_.insert(items_.end(), leaf_members[n].begin(), leaf_members[n].end());
      items_end_[n] = static_cast<uint32_t>(items_.size());
      continue;
    }
    for (uint32_t c = first_child_[n] + child_count_[n];
         c-- > first_child_[n];) {
      stack.push_back(c);
    }
  }

  // Internal nodes' spans: BFS numbering puts every child after its
  // parent, so one reverse sweep folds the leaf spans up to the root. The
  // children of a node hold consecutive spans, so its span runs from its
  // first child's begin to its last child's end.
  for (uint32_t n = static_cast<uint32_t>(level_.size()); n-- > 0;) {
    if (child_count_[n] == 0) continue;
    items_begin_[n] = items_begin_[first_child_[n]];
    items_end_[n] = items_end_[first_child_[n] + child_count_[n] - 1];
  }
  item_index_.assign(items_.size(), 0);
  for (uint32_t k = 0; k < items_.size(); ++k) item_index_[items_[k]] = k;

  if (offloaded_seconds != nullptr) *offloaded_seconds += off;
  return Status::OK();
}

double TrieIndex::SuffixMinDist(const Trajectory& q, size_t suffix_start,
                                uint32_t n, double limit,
                                size_t* next_suffix_start) const {
  const auto& pts = q.points();
  const double xlo = xlo_[n], ylo = ylo_[n], xhi = xhi_[n], yhi = yhi_[n];
  // The scan minimises squared distances and takes one sqrt at the end —
  // bit-identical to a per-point sqrt (see PlaneMinDistSq) but off the
  // loop-carried min. The within-limit test stays exact: the squared
  // pre-filter over-covers by a few ulps, and the sqrt re-test settles the
  // boundary cases it admits.
  double best_sq = kInf;
  size_t first_within = pts.size();
  const double limit_sq_ub = SquaredLimit(limit);
  for (size_t j = suffix_start; j < pts.size(); ++j) {
    const double dsq = PlaneMinDistSq(xlo, ylo, xhi, yhi, pts[j]);
    best_sq = std::min(best_sq, dsq);
    if (first_within == pts.size() && dsq <= limit_sq_ub &&
        std::sqrt(dsq) <= limit) {
      first_within = j;
    }
    if (best_sq == 0.0 && first_within != pts.size()) break;  // cannot improve
  }
  // Lemma 5.1: query points before the first one within `limit` of this
  // pivot MBR cannot align to this pivot nor to any later one.
  if (next_suffix_start != nullptr) {
    *next_suffix_start = first_within == pts.size() ? suffix_start : first_within;
  }
  return std::sqrt(best_sq);
}

bool TrieIndex::TestNode(uint32_t n, const SearchSpec& spec,
                         const MBR* suffix_mbrs, double* budget,
                         uint32_t* suffix_start) const {
  const int32_t level = level_[n];
  if (level < 0) return true;  // root
  const Trajectory& q = *spec.query;
  const double xlo = xlo_[n], ylo = ylo_[n], xhi = xhi_[n], yhi = yhi_[n];

  switch (spec.mode) {
    case PruneMode::kAccumulate: {
      // Non-chargeable levels (padded repeats of an earlier source point)
      // must not contribute to the accumulated bound.
      if (!chargeable_[n]) return true;
      if (spec.erp_gap != nullptr) {
        // ERP: a row may match the gap point; no alignment, no trimming.
        double dsq = PlaneMinDistSq(xlo, ylo, xhi, yhi, *spec.erp_gap);
        for (const Point& p : q.points()) {
          if (dsq == 0.0) break;
          dsq = std::min(dsq, PlaneMinDistSq(xlo, ylo, xhi, yhi, p));
        }
        const double d = std::sqrt(dsq);
        if (d > *budget) return false;
        *budget -= d;
        return true;
      }
      double d;
      if (level < 2) {
        const double dsq = PlaneMinDistSq(xlo, ylo, xhi, yhi,
                                          level == 0 ? q.front() : q.back());
        if (!EndpointWithin(dsq, *budget, SquaredLimit(*budget), &d)) {
          return false;
        }
      } else {
        // O(1) pre-test before the O(n) suffix scan.
        if (PlaneMinDistRect(xlo, ylo, xhi, yhi, suffix_mbrs[*suffix_start]) >
            *budget) {
          return false;
        }
        size_t next = *suffix_start;
        d = SuffixMinDist(q, *suffix_start, n, *budget, &next);
        *suffix_start = static_cast<uint32_t>(next);
        if (d > *budget) return false;
      }
      *budget -= d;
      return true;
    }
    case PruneMode::kMax: {
      // The budget stays tau for max-style distances.
      if (level < 2) {
        const double dsq = PlaneMinDistSq(xlo, ylo, xhi, yhi,
                                          level == 0 ? q.front() : q.back());
        double d;
        return EndpointWithin(dsq, *budget, SquaredLimit(*budget), &d);
      }
      if (PlaneMinDistRect(xlo, ylo, xhi, yhi, suffix_mbrs[*suffix_start]) >
          *budget) {
        return false;
      }
      size_t next = *suffix_start;
      const double d = SuffixMinDist(q, *suffix_start, n, *budget, &next);
      *suffix_start = static_cast<uint32_t>(next);
      return d <= *budget;
    }
    case PruneMode::kEditCount: {
      // A level whose indexing point cannot match any (eligible) query
      // point within epsilon forces at least one edit (Appendix A).
      double dsq = kInf;
      size_t j_lo = 0;
      size_t j_hi = q.size();
      if (level >= 2 && spec.lcss_delta >= 0) {
        // LCSS index constraint: pivot at source index s may only match
        // query indices within delta of it.
        const size_t delta = static_cast<size_t>(spec.lcss_delta);
        const size_t lo = src_lo_[n];
        j_lo = lo > delta ? lo - delta : 0;
        j_hi = std::min(q.size(), static_cast<size_t>(src_hi_[n]) + delta + 1);
      }
      for (size_t j = j_lo; j < j_hi; ++j) {
        dsq = std::min(dsq, PlaneMinDistSq(xlo, ylo, xhi, yhi, q[j]));
        if (dsq == 0.0) break;
      }
      if (std::sqrt(dsq) > spec.epsilon && chargeable_[n]) *budget -= 1.0;
      return *budget >= 0.0;
    }
  }
  return true;
}

void TrieIndex::CollectCandidates(const SearchSpec& spec,
                                  std::vector<uint32_t>* out,
                                  ProbeStats* stats, Scratch* scratch) const {
  DITA_CHECK(spec.query != nullptr);
  if (trajectories_.empty() || spec.query->empty()) return;
  const uint32_t min_item = spec.min_item;
  if (min_item >= trajectories_.size()) return;
  double budget = spec.tau;
  if (spec.mode == PruneMode::kEditCount) budget = std::floor(spec.tau);
  const Trajectory& q = *spec.query;
  const bool accumulate = spec.mode == PruneMode::kAccumulate;
  const bool inline_endpoints =
      spec.mode == PruneMode::kMax || (accumulate && spec.erp_gap == nullptr);
  // suffix_mbrs[j] covers query points [j, n). Only the pivot-level tests
  // of those same modes read it, so it is built only when the trie has
  // pivot levels (BFS numbering puts the deepest level last); a trie whose
  // last-point groups are all leaves skips the O(n) setup. Traversal
  // buffers live in a caller-owned (or per-thread default) Scratch reused
  // across calls: CollectCandidates runs once per (query, partition) inside
  // hot search/join loops, and per-call allocations show up in
  // filter-dominated profiles.
  Scratch& s = scratch != nullptr ? *scratch : Scratch::ThreadLocal();
  const MBR* suffix_mbrs = nullptr;
  if (inline_endpoints && level_.back() >= 2) {
    const auto& pts = q.points();
    s.suffix_mbrs.assign(pts.size() + 1, MBR{});
    for (size_t j = pts.size(); j-- > 0;) {
      s.suffix_mbrs[j] = s.suffix_mbrs[j + 1];
      s.suffix_mbrs[j].Expand(pts[j]);
    }
    suffix_mbrs = s.suffix_mbrs.data();
  }

  // Iterative DFS. A frame is a node whose own test passed; popping an
  // internal node scans its children. They are one contiguous id range at
  // one level, so the prune mode, the level and the query point are decided
  // once per run of siblings, not once per node: endpoint levels under
  // kAccumulate without an ERP gap, and under kMax, are tested inline on the
  // SoA planes (EndpointWithin, TestNode's own endpoint test); pivot levels,
  // kEditCount and ERP go through TestNode. A passing leaf is emitted in
  // place while no internal sibling before it has survived (that subtree
  // comes first in DFS order); the other survivors are pushed in reverse, so
  // emission order matches the recursive reference. Under a minimum item,
  // a frame first skips its leading children whose span ends at or before
  // it; every frame on the stack ends after it, so only the frames on the
  // path to that item skip anything, and only a leaf on that path is
  // clamped.
  std::vector<Frame>& stack = s.stack;
  std::vector<Frame>& survivors = s.survivors;
  // Appends leaf n's members; false when the candidate budget stops the
  // traversal.
  auto emit = [&](uint32_t n) {
    const uint32_t lo = std::max(items_begin_[n], min_item);
    const uint32_t hi = items_end_[n];
    if (spec.ctx != nullptr && spec.ctx->ChargeCandidates(hi - lo)) {
      return false;
    }
    if (hi - lo == 1) {
      out->push_back(items_[lo]);  // the common one-trajectory leaf
    } else {
      out->insert(out->end(), items_.begin() + lo, items_.begin() + hi);
    }
    return true;
  };
  // A child that passed its test with budget `b` and suffix start `st`.
  auto admit = [&](uint32_t c, uint32_t st, double b) {
    if (child_count_[c] == 0 && survivors.empty()) return emit(c);
    survivors.push_back(Frame{c, st, b});
    return true;
  };
  auto prune = [&](uint32_t c) {
    if (stats != nullptr) {
      ++stats->nodes_pruned;
      stats->pruned_members[static_cast<size_t>(level_[c])] +=
          items_end_[c] - std::max(items_begin_[c], min_item);
    }
  };
  // Local plane pointers: the scan's stores into `out` and `survivors`
  // would otherwise force the member vectors' data pointers to be reloaded
  // for every child.
  const double* xlo = xlo_.data();
  const double* ylo = ylo_.data();
  const double* xhi = xhi_.data();
  const double* yhi = yhi_.data();
  const uint8_t* chargeable = chargeable_.data();
  stack.clear();
  stack.push_back(Frame{0, 0, budget});
  uint32_t visits_since_check = 0;
  while (!stack.empty()) {
    if (spec.ctx != nullptr && visits_since_check >= kCheckStride) {
      if (spec.ctx->CheckPoint(visits_since_check)) return;
      visits_since_check = 0;
    }
    const Frame f = stack.back();
    stack.pop_back();
    const uint32_t cnt = child_count_[f.node];
    if (cnt == 0) {
      if (!emit(f.node)) return;
      continue;
    }
    const uint32_t end = first_child_[f.node] + cnt;
    uint32_t fc = first_child_[f.node];
    if (min_item != 0) {
      while (items_end_[fc] <= min_item) ++fc;  // the last child ends after
    }
    const int32_t level = level_[fc];
    survivors.clear();
    visits_since_check += end - fc;
    if (stats != nullptr) stats->nodes_visited += end - fc;
    if (inline_endpoints && level < 2) {
      const Point p = level == 0 ? q.front() : q.back();
      const double limit_sq = SquaredLimit(f.budget);
      for (uint32_t c = fc; c < end; ++c) {
        double b = f.budget;
        // TestNode charges nothing at a non-chargeable accumulate level.
        if (!accumulate || chargeable[c]) {
          double d;
          if (!EndpointWithin(PlaneMinDistSq(xlo[c], ylo[c], xhi[c], yhi[c], p),
                              f.budget, limit_sq, &d)) {
            prune(c);
            continue;
          }
          if (accumulate) b -= d;
        }
        if (!admit(c, f.suffix_start, b)) return;
      }
    } else {
      for (uint32_t c = fc; c < end; ++c) {
        double b = f.budget;
        uint32_t st = f.suffix_start;
        if (!TestNode(c, spec, suffix_mbrs, &b, &st)) {
          prune(c);
          continue;
        }
        if (!admit(c, st, b)) return;
      }
    }
    for (size_t i = survivors.size(); i-- > 0;) stack.push_back(survivors[i]);
  }
  // Flush the sub-stride remainder so ops accounting is exact per traversal:
  // without this, a selective query (< kCheckStride visits) charges nothing,
  // leaving CancelAfterOps triggers unreachable and time-to-stop unmeasured.
  if (spec.ctx != nullptr && visits_since_check > 0) {
    spec.ctx->CheckPoint(visits_since_check);
  }
}

void TrieIndex::CollectCandidatesReference(const SearchSpec& spec,
                                           std::vector<uint32_t>* out,
                                           ProbeStats* stats) const {
  DITA_CHECK(spec.query != nullptr);
  if (trajectories_.empty() || spec.query->empty()) return;
  if (spec.min_item >= trajectories_.size()) return;
  double budget = spec.tau;
  if (spec.mode == PruneMode::kEditCount) budget = std::floor(spec.tau);
  const auto& pts = spec.query->points();
  std::vector<MBR> suffix_mbrs(pts.size() + 1, MBR{});
  for (size_t j = pts.size(); j-- > 0;) {
    suffix_mbrs[j] = suffix_mbrs[j + 1];
    suffix_mbrs[j].Expand(pts[j]);
  }
  SearchNodeReference(0, spec, suffix_mbrs.data(), budget, /*suffix_start=*/0,
                      out, stats);
}

void TrieIndex::SearchNodeReference(uint32_t n, const SearchSpec& spec,
                                    const MBR* suffix_mbrs, double budget,
                                    uint32_t suffix_start,
                                    std::vector<uint32_t>* out,
                                    ProbeStats* stats) const {
  const bool pass = TestNode(n, spec, suffix_mbrs, &budget, &suffix_start);
  if (stats != nullptr && n != 0) {  // the root is never tested
    ++stats->nodes_visited;
    if (!pass) {
      ++stats->nodes_pruned;
      stats->pruned_members[static_cast<size_t>(level_[n])] +=
          items_end_[n] - std::max(items_begin_[n], spec.min_item);
    }
  }
  if (!pass) return;
  const uint32_t cnt = child_count_[n];
  if (cnt == 0) {
    out->insert(out->end(),
                items_.begin() + std::max(items_begin_[n], spec.min_item),
                items_.begin() + items_end_[n]);
    return;
  }
  for (uint32_t c = first_child_[n]; c < first_child_[n] + cnt; ++c) {
    // Items before the minimum are neither tested nor emitted.
    if (items_end_[c] <= spec.min_item) continue;
    SearchNodeReference(c, spec, suffix_mbrs, budget, suffix_start, out,
                        stats);
  }
}

size_t TrieIndex::ByteSize() const {
  const size_t n = level_.size();
  size_t bytes = 4 * n * sizeof(double)       // xlo/ylo/xhi/yhi planes
                 + n * sizeof(int32_t)        // level
                 + 6 * n * sizeof(uint32_t)   // child/items spans, src range
                 + n * sizeof(uint8_t)        // chargeable mask
                 + 2 * items_.size() * sizeof(uint32_t);  // + inverse
  for (const IndexingSequence& s : sequences_) {
    bytes += s.points.size() * sizeof(Point) +
             s.source_indices.size() * sizeof(size_t) +
             (s.chargeable.size() + 7) / 8;  // packed bitmask
  }
  return bytes;
}

uint64_t TrieIndex::StructureDigest() const {
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  auto mix_bytes = [&h](const void* data, size_t len) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  auto mix = [&](const auto& vec) {
    const uint64_t n = vec.size();
    mix_bytes(&n, sizeof(n));
    if (!vec.empty()) mix_bytes(vec.data(), vec.size() * sizeof(vec[0]));
  };
  mix(xlo_); mix(ylo_); mix(xhi_); mix(yhi_);
  mix(level_);
  mix(first_child_); mix(child_count_);
  mix(items_begin_); mix(items_end_);
  mix(src_lo_); mix(src_hi_);
  mix(chargeable_);
  mix(items_);
  return h;
}

}  // namespace dita
