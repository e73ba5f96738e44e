#ifndef DITA_CORE_CONFIG_H_
#define DITA_CORE_CONFIG_H_

#include <cstddef>
#include <cstdint>

#include "distance/distance.h"
#include "index/trie_index.h"

namespace dita {

/// All tuning knobs of a DITA engine instance, grouped by lifecycle stage:
/// `build` governs index construction, `verify` the verification pipeline,
/// and `serving` the long-lived query runtime (admission, scheduling,
/// streaming ingest). Defaults follow the paper's defaults (Table 3) scaled
/// to this repository's laptop-size datasets.
struct DitaConfig {
  /// Index-construction knobs (§4).
  struct BuildOptions {
    /// N_G: trajectories are grouped into N_G buckets by first point and
    /// each bucket into N_G sub-buckets by last point, giving up to N_G^2
    /// partitions (§4.2.1). The paper uses 32-256 at 10M+ trajectories; at
    /// our scale the equivalent sweet spot is single digits.
    size_t ng = 8;

    /// Local index parameters: K (pivots), N_L (fanouts), leaf capacity,
    /// pivot selection strategy.
    TrieIndex::Options trie;

    /// Engine-local threads for index construction: indexing-sequence
    /// extraction, STR tiling sorts (partitioning and trie levels), and the
    /// verification precomputation are chunked across this pool. 0 builds
    /// serially. Parallel builds are bit-identical to serial ones — chunk
    /// boundaries only partition slot-indexed writes and merge sorted runs —
    /// and helper CPU is charged back into cluster virtual time the same way
    /// verify.threads charges DP work.
    size_t threads = 0;

    /// Ablation: replaces first/last STR partitioning with random placement
    /// (the Appendix B partitioning-scheme ablation, Fig. 13). Global
    /// pruning still works — the per-partition first/last MBRs are simply
    /// huge, so nearly everything is relevant, reproducing the ablation's
    /// penalty.
    bool random_partitioning = false;
  };

  /// Verification-pipeline knobs (§5.3.3).
  struct VerifyOptions {
    /// Cell side D for the cell-compression verification filter (§5.3.3).
    double cell_size = 0.01;

    /// Intra-task parallel verification: number of engine-local threads
    /// used to chunk a partition's surviving DP work inside one cluster
    /// task. 0 verifies serially on the task thread. Chunk CPU is charged
    /// back to the owning task's virtual time, so simulated makespans are
    /// unchanged — only wall-clock latency improves.
    size_t threads = 0;

    /// Minimum number of filter survivors before VerifyBatch fans out to
    /// the verify pool; below this the submit/latch overhead outweighs the
    /// DP.
    size_t parallel_min = 32;

    /// Ablation toggles for the MBR (Lemma 5.4) and cell (Lemma 5.6)
    /// verification filters. Both are sound, so neither changes an answer.
    /// The MBR filter is on by default. The cell bound is an ablation level,
    /// off by default: its O(c_T * c_Q) scan costs more than the
    /// early-abandoning DP it would save. Turning it off took perfbench's
    /// 96k self-join at tau 0.005 from 1.06 to 2.81 joins/s and
    /// serve-search from 68k to 99k searches/s (Release, 4-vCPU host).
    /// Precomps keep their cell summaries either way, so the toggle changes
    /// no index; bench_ablation_verification runs all four combinations.
    bool enable_mbr = true;
    bool enable_cell = false;
  };

  /// DitaService's serving runtime knobs: admission by the fair-share
  /// QueryScheduler, streaming ingest, background epoch merges and the
  /// answer cache. The bare engine has no admission control; a query's
  /// time limits (wall and virtual deadlines) travel on its QueryContext.
  struct ServingOptions {
    /// DitaService scheduler bounds: at most `max_inflight_queries`
    /// queries run concurrently (0 defaults to the scheduler's slot count);
    /// up to `max_queued_queries` more wait in FIFO order (0 defaults to
    /// 64); beyond that requests are shed with Status::Unavailable, so
    /// overload degrades into fast rejections rather than unbounded
    /// queueing.
    size_t max_inflight_queries = 0;
    size_t max_queued_queries = 0;

    /// DitaService scheduler: fair-share worker slots carved across
    /// concurrent queries (each query holds EstimateQueryCost slots while
    /// it runs). 0 defaults to the cluster's worker count.
    size_t scheduler_slots = 0;

    /// Threads executing queries submitted asynchronously via
    /// DitaService::Submit.
    size_t scheduler_threads = 2;

    /// Streaming ingest: once a snapshot's delta (inserts + deletes since
    /// the last base rebuild) reaches this many operations, an epoch merge
    /// rebuilds the base index with the delta folded in. Deltas below the
    /// threshold are linearly scanned by queries (exact, funnel-accounted).
    size_t merge_threshold = 64;

    /// true runs epoch merges inline in the write call that crossed the
    /// threshold (deterministic; tests and single-threaded harnesses);
    /// false runs them on DitaService's background merge thread.
    bool synchronous_merge = false;

    /// DitaService answer cache (DESIGN.md §5g): LRU entries keyed by a
    /// 128-bit digest of the canonical request bytes (kind, metric, tau, k,
    /// query points), serving repeat queries without touching the scheduler
    /// or the index. Each entry keeps its request bytes and a hit must match
    /// them exactly, so two requests whose digests collide never alias.
    /// Entries are version-tagged and the whole cache is invalidated on
    /// every snapshot publish (insert / delete / epoch merge), so a hit can
    /// never return a stale answer. 0 disables.
    size_t answer_cache_entries = 0;

    /// Always-on flight recorder: DitaService keeps the last N per-request
    /// lifecycle records (obs::RequestRecord) in a lock-free ring,
    /// independent of enable_tracing / enable_metrics, so the moments
    /// before an incident are always exportable
    /// (DitaService::DumpFlightRecorder). Rounded up to a power of two;
    /// 0 disables. The default costs ~32 KiB per service.
    size_t flight_recorder_entries = 256;
  };

  BuildOptions build;
  VerifyOptions verify;
  ServingOptions serving;

  /// Similarity function and its parameters.
  DistanceType distance = DistanceType::kDTW;
  DistanceParams distance_params;

  /// Observability (src/obs/): off by default, and when off every
  /// instrumentation site compiles down to one null-handle branch. Tracing
  /// records nested spans (query -> stage -> task -> verify) on the
  /// cluster's deterministic virtual-time ticks; metrics accumulate
  /// lock-free sharded counters/histograms (filter.trie.*, verify.dp.*,
  /// cluster.stage.*). Both attach to the engine's cluster, so engines
  /// sharing a cluster share one tracer and one registry.
  bool enable_tracing = false;
  bool enable_metrics = false;

  /// Join ablation toggles (defaults on; Fig. 16 turns some off).
  bool enable_graph_orientation = true;
  bool enable_division_balancing = true;
};

}  // namespace dita

#endif  // DITA_CORE_CONFIG_H_
