#ifndef DITA_CORE_VERIFIER_H_
#define DITA_CORE_VERIFIER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/config.h"
#include "distance/distance.h"
#include "geom/soa.h"
#include "geom/trajectory.h"
#include "index/cell.h"
#include "obs/trace.h"
#include "util/query_context.h"
#include "util/thread_pool.h"

namespace dita {

/// Per-trajectory data precomputed at index-build time so verification can
/// run its cheap filters without touching the raw points (§5.3.3:
/// "Computing MBRs and cells is pre-processed during creating the index").
/// The SoA copy of the coordinates feeds the DP kernels directly, keeping
/// their inner loops on contiguous lanes.
struct VerifyPrecomp {
  MBR mbr;
  CellSummary cells;
  SoaTrajectory soa;

  static VerifyPrecomp For(const Trajectory& t, double cell_size) {
    return VerifyPrecomp{t.ComputeMBR(), CompressToCells(t, cell_size),
                         SoaTrajectory(t)};
  }

  /// Heap bytes this precomp holds beyond the indexed trajectory itself;
  /// accumulated into IndexStats::local_index_bytes.
  size_t ByteSize() const {
    return sizeof(MBR) + cells.cells.size() * sizeof(CellSummary::Cell) +
           soa.ByteSize();
  }
};

/// Counters describing where candidate pairs were resolved; feeds Fig. 17's
/// candidate counts and the verification ablation.
struct VerifyStats {
  size_t pairs = 0;
  size_t pruned_by_mbr = 0;
  size_t pruned_by_cell = 0;
  size_t dp_computed = 0;
  size_t accepted = 0;
  /// DP matrix cells |T| x |Q| summed over pairs that reached the DP — the
  /// work the filters failed to prune (feeds the verify.dp.cells metric).
  uint64_t dp_cells = 0;

  void Merge(const VerifyStats& o) {
    pairs += o.pairs;
    pruned_by_mbr += o.pruned_by_mbr;
    pruned_by_cell += o.pruned_by_cell;
    dp_computed += o.dp_computed;
    dp_cells += o.dp_cells;
    accepted += o.accepted;
  }
};

/// The verification pipeline of §5.3.3, ordered cheapest first:
///  (1) MBR coverage filtering via extended MBRs (Lemma 5.4);
///  (2) cell-compression lower bound (Lemma 5.6);
///  (3) threshold-aware dynamic program on SoA kernels.
/// Steps (1)-(2) only apply to distances whose semantics support them (DTW,
/// Frechet — every point must align within tau); edit distances go straight
/// to their thresholded DP, which embeds the length filter.
class Verifier {
 public:
  /// One partition's worth of verification work against a single query:
  /// `candidates` indexes into `precomp` (positions within the partition).
  struct Batch {
    const std::vector<VerifyPrecomp>* precomp = nullptr;
    const std::vector<uint32_t>* candidates = nullptr;
    const VerifyPrecomp* query = nullptr;
    double tau = 0.0;
    /// Optional cooperative stop token. VerifyBatch checkpoints the filter
    /// scan, charges surviving DP cells against the budget, caps scratch
    /// growth, attaches the token to every DP scratch involved (kernels
    /// poll it per row block), and abandons the batch once stopped. The
    /// caller must then discard the batch's partial output.
    QueryContext* ctx = nullptr;
  };

  struct BatchResult {
    /// Candidates accepted by this batch.
    size_t accepted = 0;
    /// DP chunks dispatched to the pool (0 when the batch ran serially).
    size_t pool_chunks = 0;
    /// CPU seconds burned on pool threads. The caller must charge these to
    /// its cluster task (Cluster::ChargeCurrentTask) so the virtual-time
    /// ledger sees the same total work as a serial run.
    double offloaded_seconds = 0.0;
  };

  Verifier(std::shared_ptr<TrajectoryDistance> distance, const DitaConfig& config)
      : distance_(std::move(distance)),
        mbr_enabled_(config.verify.enable_mbr),
        cell_enabled_(config.verify.enable_cell) {}

  /// Returns true iff distance(t, q) <= tau. Never rejects a true answer.
  bool Verify(const Trajectory& t, const VerifyPrecomp& tp, const Trajectory& q,
              const VerifyPrecomp& qp, double tau, VerifyStats* stats) const;

  /// Verifies a whole candidate list: a tight first pass runs the MBR/cell
  /// filters, then the surviving DP work either runs serially on the calling
  /// thread or — when `pool` is non-null and at least `min_parallel`
  /// survivors remain — is chunked across the pool. Accepted positions are
  /// appended to `accepted` in candidate order regardless of the execution
  /// mode, so results are deterministic. Stats accumulation matches a loop
  /// of Verify() calls exactly. With `tracer` non-null the batch is wrapped
  /// in a "verify" span (on the calling thread's lane) carrying the batch's
  /// pair / survivor / accepted counts.
  BatchResult VerifyBatch(const Batch& batch, ThreadPool* pool,
                          size_t min_parallel, std::vector<uint32_t>* accepted,
                          VerifyStats* stats,
                          obs::Tracer* tracer = nullptr) const;

  const TrajectoryDistance& distance() const { return *distance_; }

 private:
  /// Filter steps (1)-(2) only; updates the prune counters.
  bool PassesFilters(const VerifyPrecomp& tp, const VerifyPrecomp& qp,
                     double tau, VerifyStats* stats) const;

  std::shared_ptr<TrajectoryDistance> distance_;
  bool mbr_enabled_;
  bool cell_enabled_;
};

}  // namespace dita

#endif  // DITA_CORE_VERIFIER_H_
