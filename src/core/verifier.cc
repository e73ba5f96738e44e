#include "core/verifier.h"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>

#include "distance/dp_scratch.h"
#include "util/timer.h"

namespace dita {

bool Verifier::PassesFilters(const VerifyPrecomp& tp, const VerifyPrecomp& qp,
                             double tau, VerifyStats* stats) const {
  const PruneMode mode = distance_->prune_mode();
  // DTW and Frechet align every point of T within tau of some point of Q,
  // which is what the MBR/cell bounds encode. Edit distances may delete
  // points and ERP may match the gap point, so neither bound applies there.
  const bool geometric = distance_->type() == DistanceType::kDTW ||
                         distance_->type() == DistanceType::kFrechet;

  if (geometric && mbr_enabled_) {
    // Lemma 5.4: if similar, EMBR_{T,tau} covers MBR_Q and vice versa. Both
    // DTW and Frechet align every point of one trajectory to within tau of
    // a point of the other, so the lemma applies to both.
    if (!tp.mbr.Extended(tau).Covers(qp.mbr) ||
        !qp.mbr.Extended(tau).Covers(tp.mbr)) {
      if (stats != nullptr) ++stats->pruned_by_mbr;
      return false;
    }
  }

  if (geometric && cell_enabled_) {
    const bool is_max = mode == PruneMode::kMax;
    const double lb_tq = is_max ? CellLowerBoundFrechet(tp.cells, qp.cells, tau)
                                : CellLowerBoundDtw(tp.cells, qp.cells, tau);
    if (lb_tq > tau) {
      if (stats != nullptr) ++stats->pruned_by_cell;
      return false;
    }
    const double lb_qt = is_max ? CellLowerBoundFrechet(qp.cells, tp.cells, tau)
                                : CellLowerBoundDtw(qp.cells, tp.cells, tau);
    if (lb_qt > tau) {
      if (stats != nullptr) ++stats->pruned_by_cell;
      return false;
    }
  }
  return true;
}

bool Verifier::Verify(const Trajectory&, const VerifyPrecomp& tp,
                      const Trajectory&, const VerifyPrecomp& qp, double tau,
                      VerifyStats* stats) const {
  if (stats != nullptr) ++stats->pairs;
  if (!PassesFilters(tp, qp, tau, stats)) return false;
  if (stats != nullptr) {
    ++stats->dp_computed;
    stats->dp_cells +=
        static_cast<uint64_t>(tp.soa.size()) * qp.soa.size();
  }
  const bool within = distance_->WithinThreshold(
      tp.soa.view(), qp.soa.view(), tau, &DpScratch::ThreadLocal());
  if (within && stats != nullptr) ++stats->accepted;
  return within;
}

Verifier::BatchResult Verifier::VerifyBatch(const Batch& batch,
                                            ThreadPool* pool,
                                            size_t min_parallel,
                                            std::vector<uint32_t>* accepted,
                                            VerifyStats* stats,
                                            obs::Tracer* tracer) const {
  obs::SpanGuard span(tracer, "verify");
  BatchResult out;
  const std::vector<VerifyPrecomp>& precomp = *batch.precomp;
  const std::vector<uint32_t>& candidates = *batch.candidates;
  const VerifyPrecomp& qp = *batch.query;
  const double tau = batch.tau;
  QueryContext* const ctx = batch.ctx;
  const size_t before = accepted->size();
  DpScratch& scratch = DpScratch::ThreadLocal();
  if (ctx != nullptr && ctx->stopped()) return out;

  if (stats != nullptr) stats->pairs += candidates.size();

  // Pass 1: cheap geometric filters only — a tight scan over the precomp
  // array that never touches DP state or raw coordinates. Checkpointed in
  // blocks: candidate filter tests are the unit of work charged here.
  std::vector<uint32_t>& survivors = scratch.Survivors();
  survivors.clear();
  constexpr size_t kFilterStride = 256;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (ctx != nullptr && (i % kFilterStride) == 0 && i != 0 &&
        ctx->CheckPoint(kFilterStride)) {
      return out;
    }
    const uint32_t pos = candidates[i];
    if (PassesFilters(precomp[pos], qp, tau, stats)) {
      survivors.push_back(pos);
    }
  }
  uint64_t batch_dp_cells = 0;
  for (const uint32_t pos : survivors) {
    batch_dp_cells +=
        static_cast<uint64_t>(precomp[pos].soa.size()) * qp.soa.size();
  }
  if (stats != nullptr) {
    stats->dp_computed += survivors.size();
    stats->dp_cells += batch_dp_cells;
  }
  // The whole batch's DP work is charged up front: exceeding max_dp_cells
  // skips the DP entirely instead of discovering the overrun halfway in.
  if (ctx != nullptr && ctx->ChargeDpCells(batch_dp_cells)) return out;
  if (ctx != nullptr && ctx->CheckScratchBytes(scratch.ByteSize())) return out;

  // Pass 2: thresholded DP on the survivors. The context rides along in the
  // scratch so the kernels' row-block polls see it; restored on every exit.
  struct ScratchCtxGuard {
    DpScratch* s;
    ~ScratchCtxGuard() { s->SetQueryContext(nullptr); }
  };
  const TrajView qv = qp.soa.view();
  const size_t count = survivors.size();
  const size_t min_par = std::max<size_t>(min_parallel, 2);
  if (pool == nullptr || pool->num_threads() < 2 || count < min_par) {
    scratch.SetQueryContext(ctx);
    ScratchCtxGuard guard{&scratch};
    for (const uint32_t pos : survivors) {
      if (ctx != nullptr && ctx->stopped()) break;
      if (distance_->WithinThreshold(precomp[pos].soa.view(), qv, tau,
                                     &scratch)) {
        accepted->push_back(pos);
      }
    }
  } else {
    // Chunk the DP work across the pool. Accept bits land in a flags lane
    // and are compacted serially afterwards, so the output order matches the
    // serial path. Each chunk measures its own CPU time (CpuTimer is
    // per-thread) and the sum is reported as offloaded_seconds for the
    // cluster's virtual-time ledger.
    uint8_t* flags = scratch.Flags(count);
    const size_t chunk_count = std::min(count, pool->num_threads() * 4);
    const size_t chunk_len = (count + chunk_count - 1) / chunk_count;
    double* chunk_cpu = scratch.Gap(chunk_count);
    const uint32_t* surv = survivors.data();

    struct Sync {
      std::mutex mu;
      std::condition_variable done;
      size_t remaining = 0;
      std::exception_ptr error;
    } sync;
    size_t launched = 0;
    for (size_t c = 0; c < chunk_count && c * chunk_len < count; ++c) {
      ++launched;
    }
    sync.remaining = launched;

    for (size_t c = 0; c < launched; ++c) {
      const size_t lo = c * chunk_len;
      const size_t hi = std::min(count, lo + chunk_len);
      pool->Submit([this, surv, flags, chunk_cpu, lo, hi, c, qv, tau, ctx,
                    &precomp, &sync] {
        CpuTimer timer;
        try {
          DpScratch& local = DpScratch::ThreadLocal();
          local.SetQueryContext(ctx);
          ScratchCtxGuard guard{&local};
          for (size_t k = lo; k < hi; ++k) {
            if (ctx != nullptr && ctx->stopped()) {
              // Remaining flags must not read as stale accepts.
              for (size_t r = k; r < hi; ++r) flags[r] = 0;
              break;
            }
            flags[k] = distance_->WithinThreshold(precomp[surv[k]].soa.view(),
                                                  qv, tau, &local)
                           ? 1
                           : 0;
          }
        } catch (...) {
          std::lock_guard<std::mutex> lock(sync.mu);
          if (!sync.error) sync.error = std::current_exception();
        }
        chunk_cpu[c] = timer.Seconds();
        std::lock_guard<std::mutex> lock(sync.mu);
        if (--sync.remaining == 0) sync.done.notify_all();
      });
    }
    {
      // Wait on our own latch rather than ThreadPool::Wait(): the pool is
      // shared, and Wait() would also wait on other callers' tasks.
      std::unique_lock<std::mutex> lock(sync.mu);
      sync.done.wait(lock, [&sync] { return sync.remaining == 0; });
    }
    if (sync.error) std::rethrow_exception(sync.error);

    out.pool_chunks = launched;
    for (size_t c = 0; c < launched; ++c) {
      out.offloaded_seconds += chunk_cpu[c];
    }
    for (size_t k = 0; k < count; ++k) {
      if (flags[k]) accepted->push_back(surv[k]);
    }
  }

  out.accepted = accepted->size() - before;
  if (stats != nullptr) stats->accepted += out.accepted;
  span.Arg("pairs", candidates.size());
  span.Arg("survivors", count);
  span.Arg("accepted", out.accepted);
  return out;
}

}  // namespace dita
