#ifndef DITA_DISTANCE_DP_SCRATCH_H_
#define DITA_DISTANCE_DP_SCRATCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/soa.h"
#include "util/query_context.h"

namespace dita {

/// Reusable dynamic-programming scratch space for the distance kernels and
/// batch verification. One instance lives per thread (ThreadLocal()); all
/// lanes grow monotonically and are never shrunk, so once a thread has seen
/// the largest trajectory it will verify, kernel calls perform zero heap
/// allocations. reallocations() counts actual capacity growths so tests can
/// assert steady-state allocation freedom.
///
/// Lanes are distinct by role; a kernel may use RowA/RowB/Dist/Gap
/// simultaneously, and batch verification uses the candidate/survivor/flag
/// lanes while kernels run on the row lanes, so none of these alias.
class DpScratch {
 public:
  static DpScratch& ThreadLocal();

  /// DP row lanes (double). Rolling rows for the five distance DPs.
  double* RowA(size_t n) { return Ensure(&row_a_, n); }
  double* RowB(size_t n) { return Ensure(&row_b_, n); }
  /// Per-row point-distance lane: one vectorizable distance pass per row,
  /// then a recurrence pass, keeps sqrt out of the dependent chain.
  double* Dist(size_t n) { return Ensure(&dist_, n); }
  /// ERP gap-distance lane: dist(b[j], gap) computed once per call.
  double* Gap(size_t n) { return Ensure(&gap_, n); }

  /// Integer DP rows (LCSS similarity counts).
  size_t* IRowA(size_t n) { return Ensure(&irow_a_, n); }
  size_t* IRowB(size_t n) { return Ensure(&irow_b_, n); }

  /// Per-survivor accept flags for parallel batch verification.
  uint8_t* Flags(size_t n) { return Ensure(&flags_, n); }

  /// Position buffers reused by search and batch verification. Callers clear
  /// before use; capacity is retained across calls.
  std::vector<uint32_t>& Candidates() { return candidates_; }
  std::vector<uint32_t>& Survivors() { return survivors_; }
  std::vector<uint32_t>& Accepted() { return accepted_; }

  /// Extract a trajectory into the A/B coordinate lanes. Entry points taking
  /// Trajectory arguments use these; callers holding a precomputed
  /// SoaTrajectory pass its view directly and skip the copy.
  TrajView ExtractA(const Trajectory& t) { return Extract(&ax_, &ay_, t); }
  TrajView ExtractB(const Trajectory& t) { return Extract(&bx_, &by_, t); }

  uint64_t reallocations() const { return reallocations_; }

  /// Cancellation hook for the DP kernels: the Verifier attaches the active
  /// QueryContext for the duration of a batch (including on pool threads),
  /// and the threshold kernels poll it every few rows via PollRows. Without
  /// a context the poll is one null-pointer branch. A kernel observing a
  /// stop abandons the DP and reports "not within" — safe because the
  /// stopped task's entire output is dropped by the engine.
  void SetQueryContext(QueryContext* ctx) { ctx_ = ctx; }
  QueryContext* query_context() const { return ctx_; }
  /// Charges `rows` DP rows; true when the query must stop.
  bool PollRows(uint64_t rows) {
    return ctx_ != nullptr && ctx_->CheckPoint(rows);
  }

  /// Heap bytes currently held across all lanes — the basis for the
  /// ResourceBudget::max_scratch_bytes cap.
  size_t ByteSize() const {
    return (row_a_.capacity() + row_b_.capacity() + dist_.capacity() +
            gap_.capacity() + ax_.capacity() + ay_.capacity() +
            bx_.capacity() + by_.capacity()) *
               sizeof(double) +
           (irow_a_.capacity() + irow_b_.capacity()) * sizeof(size_t) +
           flags_.capacity() * sizeof(uint8_t) +
           (candidates_.capacity() + survivors_.capacity() +
            accepted_.capacity()) *
               sizeof(uint32_t);
  }

 private:
  template <typename T>
  T* Ensure(std::vector<T>* v, size_t n) {
    if (v->size() < n) {
      if (v->capacity() < n) ++reallocations_;
      v->resize(n);
    }
    return v->data();
  }

  TrajView Extract(std::vector<double>* xs, std::vector<double>* ys,
                   const Trajectory& t) {
    const auto& pts = t.points();
    Ensure(xs, pts.size());
    Ensure(ys, pts.size());
    for (size_t i = 0; i < pts.size(); ++i) {
      (*xs)[i] = pts[i].x;
      (*ys)[i] = pts[i].y;
    }
    return TrajView{xs->data(), ys->data(), pts.size()};
  }

  std::vector<double> row_a_, row_b_, dist_, gap_;
  std::vector<size_t> irow_a_, irow_b_;
  std::vector<uint8_t> flags_;
  std::vector<double> ax_, ay_, bx_, by_;
  std::vector<uint32_t> candidates_, survivors_, accepted_;
  uint64_t reallocations_ = 0;
  QueryContext* ctx_ = nullptr;
};

}  // namespace dita

#endif  // DITA_DISTANCE_DP_SCRATCH_H_
