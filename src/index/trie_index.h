#ifndef DITA_INDEX_TRIE_INDEX_H_
#define DITA_INDEX_TRIE_INDEX_H_

#include <cstdint>
#include <vector>

#include "distance/distance.h"
#include "geom/trajectory.h"
#include "index/pivot.h"
#include "util/query_context.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace dita {

/// DITA's local index (§4.2.3): a (K+2)-level trie of MBRs over each
/// trajectory's indexing sequence (first point, last point, K pivots). The
/// index is clustered — trajectories are stored inside it, aligned with the
/// leaves — so candidates are verified without an extra lookup (a point the
/// paper stresses against DFT's non-clustered design).
///
/// The trie is stored flat (DESIGN.md §5c), not as a pointer graph: nodes
/// are numbered in BFS order so every node's children occupy a contiguous
/// id range, per-node MBRs live in SoA planes (xlo/ylo/xhi/yhi arrays that
/// sibling scans walk sequentially), and leaf members are spans into one
/// global items array laid out in DFS order. CollectCandidates is an
/// iterative, allocation-free traversal over these arrays; the recursive
/// formulation is kept as CollectCandidatesReference, the equivalence
/// oracle for tests.
class TrieIndex {
 public:
  struct Options {
    /// K, the number of pivot points per trajectory.
    size_t num_pivots = 4;
    /// N_L for the two align levels (first/last point).
    size_t align_fanout = 32;
    /// N_L for the K pivot levels; the paper uses a smaller fanout at the
    /// bottom where fewer trajectories remain.
    size_t pivot_fanout = 16;
    /// Stop splitting a node with at most this many trajectories
    /// (Appendix B: "too few trajectories (by default 16)").
    size_t leaf_capacity = 16;
    PivotStrategy strategy = PivotStrategy::kNeighborDistance;
  };

  /// Filtering request. `tau` is interpreted per `mode`:
  /// kAccumulate — remaining distance budget, reduced level by level;
  /// kMax — fixed per-level bound; kEditCount — edit budget, where a level
  /// farther than `epsilon` from the query costs one edit. `lcss_delta >= 0`
  /// additionally restricts pivot levels to the query index window allowed
  /// by LCSS's |i - j| <= delta constraint.
  struct SearchSpec {
    const Trajectory* query = nullptr;
    double tau = 0.0;
    PruneMode mode = PruneMode::kAccumulate;
    double epsilon = 0.0;
    int lcss_delta = -1;
    /// ERP only: the gap point g. When set, every level's bound becomes
    /// min(MinDist(Q, MBR), MinDist(g, MBR)) — a row of T may match the gap
    /// instead of a query point — and endpoint alignment and suffix
    /// trimming are disabled (gap matches consume no query points).
    const Point* erp_gap = nullptr;
    /// Emit only items at DFS item index >= `min_item` (0 = all; see
    /// ItemIndex). A self-join's diagonal probe passes the item after its
    /// own, so each unordered pair of one partition is collected once. The
    /// traversal skips the leading children whose subtree span ends at or
    /// before it and clamps the leaf that straddles it; every other node is
    /// scanned as without it.
    uint32_t min_item = 0;
    /// Optional cooperative stop token. CollectCandidates checkpoints it
    /// every few hundred node visits and charges emitted candidates against
    /// its budget; on stop the traversal abandons the remaining subtrees
    /// (the partial output is discarded by the caller, never mixed into
    /// results). The reference traversal ignores it — it is the oracle.
    QueryContext* ctx = nullptr;
  };

  /// Per-probe traversal counters, filled by CollectCandidates when a
  /// non-null pointer is passed. `pruned_members[l]` counts trajectories
  /// eliminated by a failed node test at trie level l (the whole pruned
  /// subtree's membership), so the filter funnel can report survivors after
  /// each level: population − Σ_{l' <= l} pruned_members[l'].
  struct ProbeStats {
    uint64_t nodes_visited = 0;
    uint64_t nodes_pruned = 0;
    std::vector<uint64_t> pruned_members;  // indexed by level, num_levels()

    void Reset(size_t num_levels) {
      nodes_visited = 0;
      nodes_pruned = 0;
      pruned_members.assign(num_levels, 0);
    }
    void Merge(const ProbeStats& o) {
      nodes_visited += o.nodes_visited;
      nodes_pruned += o.nodes_pruned;
      if (pruned_members.size() < o.pruned_members.size()) {
        pruned_members.resize(o.pruned_members.size(), 0);
      }
      for (size_t l = 0; l < o.pruned_members.size(); ++l) {
        pruned_members[l] += o.pruned_members[l];
      }
    }
  };

 private:
  /// A traversal frame: a node whose own level test already passed, with
  /// the budget and query-suffix start that survive it (Lemma 5.1).
  struct Frame {
    uint32_t node;
    uint32_t suffix_start;
    double budget;
  };

 public:
  /// Reusable traversal scratch for CollectCandidates. This replaces the
  /// function-local `static thread_local` buffers the traversal used to
  /// hide: ownership is now explicit, so callers can hold one scratch per
  /// worker, measure it (ByteSize), and Release() it between bursts instead
  /// of every thread retaining the high-water mark of its largest query
  /// until thread exit. Passing nullptr to the traversal falls back to
  /// ThreadLocal(), preserving the old zero-ceremony behavior.
  class Scratch {
   public:
    Scratch() = default;
    Scratch(const Scratch&) = delete;
    Scratch& operator=(const Scratch&) = delete;

    /// The per-thread default instance used when no scratch is passed.
    static Scratch& ThreadLocal();

    /// Heap bytes currently retained across all buffers.
    size_t ByteSize() const;

    /// Frees every buffer (ByteSize drops to zero); the next traversal
    /// re-grows them from scratch.
    void Release();

   private:
    friend class TrieIndex;

    // suffix_mbrs[j] covers query points [j, n).
    std::vector<MBR> suffix_mbrs;
    std::vector<Frame> stack;
    std::vector<Frame> survivors;
  };

  /// Minimum build items per pool thread before Build fans work out to the
  /// pool. Below this the chunk dispatch and cross-thread cache traffic
  /// cost more than the extraction loop they split — measured at bench
  /// scale, where a 4096-trajectory parallel build lost ~25% to the serial
  /// one — so small builds (every partition-local trie at default N_G)
  /// always take the serial path and `build.threads > 1` can no longer
  /// regress them.
  static constexpr size_t kMinBuildItemsPerThread = 4096;

  TrieIndex() = default;

  /// Builds the trie over `trajectories`, which the index takes ownership
  /// of. When `pool` is non-null and the build is large enough to amortize
  /// fan-out (see kMinBuildItemsPerThread), indexing-sequence extraction and
  /// the STR tiling sorts are chunked across it; the result is identical to
  /// the serial build (chunk boundaries only partition slot-indexed writes).
  /// Helper-thread CPU seconds land in `*offloaded_seconds` when provided,
  /// so builds running inside a cluster task can charge them back
  /// (Cluster::ChargeCurrentTask).
  Status Build(std::vector<Trajectory> trajectories, const Options& options,
               ThreadPool* pool = nullptr, double* offloaded_seconds = nullptr);

  /// Appends the positions (into trajectories()) of every trajectory that
  /// survives the trie filter. Never drops a true answer (Lemmas 4.3 / 5.1).
  /// Iterative flat traversal; bit-identical output (content and order) to
  /// CollectCandidatesReference. With `stats` non-null the traversal also
  /// tallies visited/pruned nodes and pruned subtree membership per level
  /// (stats are *added* to, call ProbeStats::Reset first); the stats == null
  /// hot path costs one predictable branch per sibling run and per pruned
  /// node. `scratch` may be null (the per-thread default is used).
  void CollectCandidates(const SearchSpec& spec, std::vector<uint32_t>* out,
                         ProbeStats* stats = nullptr,
                         Scratch* scratch = nullptr) const;

  /// The recursive reference traversal — the pre-flattening implementation
  /// ported onto the flat arrays, kept as the oracle for the equivalence
  /// tests. Not used on hot paths. `stats`, when non-null, is tallied the
  /// way CollectCandidates tallies it, so the tests can pin the funnel too.
  void CollectCandidatesReference(const SearchSpec& spec,
                                  std::vector<uint32_t>* out,
                                  ProbeStats* stats = nullptr) const;

  const std::vector<Trajectory>& trajectories() const { return trajectories_; }
  const Trajectory& trajectory(uint32_t pos) const { return trajectories_[pos]; }
  size_t size() const { return trajectories_.size(); }

  size_t NodeCount() const { return level_.size(); }
  size_t ByteSize() const;
  const Options& options() const { return options_; }

  /// Trie levels: first point, last point, K pivots.
  size_t num_levels() const { return options_.num_pivots + 2; }

  /// Trajectories stored under node `n` (== the whole population at the
  /// root): the length of its item span.
  uint32_t SubtreeCount(uint32_t n) const {
    return items_end_[n] - items_begin_[n];
  }

  /// The DFS item index of the trajectory at `pos`: the traversal emits
  /// position `pos` as item ItemIndex(pos). SearchSpec::min_item is in
  /// these units.
  uint32_t ItemIndex(uint32_t pos) const { return item_index_[pos]; }

  /// FNV-1a hash over every flat array (structure, MBR planes, spans,
  /// items). Two tries with equal digests were built identically; the
  /// parallel-vs-serial determinism tests compare digests.
  uint64_t StructureDigest() const;

 private:
  /// Evaluates node `n`'s level test for `spec`. Returns false when the
  /// subtree is pruned; otherwise updates *budget / *suffix_start with the
  /// values its children inherit. `suffix_mbrs` points at the query's
  /// suffix-MBR table (suffix_mbrs[j] covers query points [j, n)). The
  /// reference traversal tests every node here; CollectCandidates tests
  /// pivot levels, kEditCount and ERP here and endpoint levels inline,
  /// through the same endpoint helper this function uses.
  bool TestNode(uint32_t n, const SearchSpec& spec, const MBR* suffix_mbrs,
                double* budget, uint32_t* suffix_start) const;

  void SearchNodeReference(uint32_t n, const SearchSpec& spec,
                           const MBR* suffix_mbrs, double budget,
                           uint32_t suffix_start, std::vector<uint32_t>* out,
                           ProbeStats* stats) const;

  /// MinDist from the query's suffix [suffix_start, n) to node MBR `n`;
  /// also computes the next suffix start per Lemma 5.1 under threshold
  /// `limit`.
  double SuffixMinDist(const Trajectory& q, size_t suffix_start, uint32_t n,
                       double limit, size_t* next_suffix_start) const;

  Options options_;
  std::vector<Trajectory> trajectories_;
  std::vector<IndexingSequence> sequences_;  // parallel to trajectories_

  // --- Flat node arrays, BFS numbering (children contiguous). ---
  /// Per-node MBR planes. The root (node 0, level -1) stores an empty
  /// rectangle (+inf/-inf) but is never distance-tested.
  std::vector<double> xlo_, ylo_, xhi_, yhi_;
  /// Level of the node's MBR: 0 = first point, 1 = last point, 2 + i =
  /// pivot i; the root is -1.
  std::vector<int32_t> level_;
  /// Children of node n are nodes [first_child_[n], first_child_[n] +
  /// child_count_[n]); count 0 marks a leaf.
  std::vector<uint32_t> first_child_;
  std::vector<uint32_t> child_count_;
  /// Node n's subtree holds items_[items_begin_[n] .. items_end_[n]) (a
  /// leaf's members; an internal node's span covers its children's).
  /// Spans are assigned in DFS order so the traversal emits increasing
  /// ranges, and a node's children hold consecutive spans.
  std::vector<uint32_t> items_begin_;
  std::vector<uint32_t> items_end_;
  /// Source-index range of the grouped indexing points (pivot levels only;
  /// used by the LCSS delta-window restriction).
  std::vector<uint32_t> src_lo_;
  std::vector<uint32_t> src_hi_;
  /// 1 iff every member's indexing entry at this level references a source
  /// point not already used by an earlier level (padding repeats points for
  /// short trajectories). Accumulate/edit modes only charge chargeable
  /// levels to preserve the lower-bound property.
  std::vector<uint8_t> chargeable_;
  /// All leaf members, DFS leaf order, member order within a leaf.
  std::vector<uint32_t> items_;
  /// Inverse of items_: item_index_[items_[k]] == k.
  std::vector<uint32_t> item_index_;
};

}  // namespace dita

#endif  // DITA_INDEX_TRIE_INDEX_H_
