#ifndef DITA_PERFBENCH_SHADOW_H_
#define DITA_PERFBENCH_SHADOW_H_

// The shadow pipeline: the engine's search path rebuilt from the library's
// public pieces (PartitionByFirstLast, TrieIndex::Build, VerifyPrecomp::For,
// GlobalIndex::Build) with the same config, so the traced run can time each
// layer of a search from outside the program:
//   GlobalIndex::RelevantPartitions -> TrieIndex::CollectCandidates ->
//   Verifier::VerifyBatch -> TrajectoryDistance::WithinThreshold.
// It does not replay the engine's level-0 sketch prune (partition aggregate
// and per-candidate signature tests); see Reconcile for what that changes.

#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/config.h"
#include "core/engine.h"
#include "core/global_index.h"
#include "core/verifier.h"
#include "index/trie_index.h"

namespace perfbench {

class Shadow {
 public:
  /// Wall seconds of each build step.
  struct BuildTimes {
    double partition_s = 0.0;
    double trie_build_s = 0.0;
    double precomp_s = 0.0;
    double global_build_s = 0.0;
  };

  /// One replayed threshold search: the answer, the layer counters, and the
  /// wall time of each layer. `verify_us` covers the query's own
  /// VerifyPrecomp plus every VerifyBatch call (filters and DP);
  /// `dp_us` re-times only the DP on the pairs that reached it.
  struct Replay {
    std::vector<dita::TrajectoryId> ids;
    size_t partitions = 0;
    uint64_t nodes_visited = 0;
    size_t candidates = 0;
    dita::VerifyStats vstats;
    size_t dp_calls = 0;
    uint64_t dp_cells = 0;
    size_t dp_accepted = 0;
    double probe_us = 0.0;
    double collect_us = 0.0;
    double verify_us = 0.0;
    double dp_us = 0.0;
  };

  /// Builds over `data` (in the order given, as the engine would).
  static std::unique_ptr<Shadow> Build(const std::vector<dita::Trajectory>& data,
                                       const dita::DitaConfig& config,
                                       std::string* error);

  /// Replays one search. With `trace` non-null, records the layer spans as
  /// children of `parent`.
  Replay Search(const dita::Trajectory& q, double tau, RequestTrace* trace,
                int32_t parent) const;

  /// Compares the replay with the engine's answer and stats for the same
  /// query. Returns "" when they agree: identical ids and accepted counts,
  /// and the shadow's partition / candidate / DP counts at least the
  /// engine's (the sketch tier only ever removes work).
  static std::string Reconcile(const Replay& r,
                               const std::vector<dita::TrajectoryId>& engine_ids,
                               const dita::QueryStats& engine_stats);

  const BuildTimes& times() const { return times_; }
  const dita::Verifier& verifier() const { return *verifier_; }
  const dita::DitaConfig& config() const { return config_; }
  uint64_t tag = 0;  // owner-defined (the snapshot epoch it mirrors)

 private:
  dita::DitaConfig config_;
  std::shared_ptr<dita::TrajectoryDistance> distance_;
  std::unique_ptr<dita::Verifier> verifier_;
  std::vector<dita::TrieIndex> tries_;
  std::vector<std::vector<dita::VerifyPrecomp>> precomp_;
  dita::GlobalIndex global_;
  BuildTimes times_;
};

}  // namespace perfbench

#endif  // DITA_PERFBENCH_SHADOW_H_
