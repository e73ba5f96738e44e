#ifndef DITA_SERVING_SNAPSHOT_H_
#define DITA_SERVING_SNAPSHOT_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "core/engine.h"
#include "geom/trajectory.h"
#include "util/status.h"

namespace dita {

/// One write to a served table: insert `insert`, or delete the id `erase`.
struct WriteOp {
  bool is_insert = false;
  Trajectory insert;
  TrajectoryId erase = -1;
};

/// One immutable, consistent view of a served trajectory table: a base
/// engine (the flat trie / R-tree indexes of some epoch) plus the delta that
/// has accumulated on top of it — trajectories inserted since the epoch's
/// rebuild and base ids deleted since then. Queries pin a snapshot (one
/// shared_ptr copy) for their whole lifetime, so concurrent ingest and epoch
/// merges never change what an in-flight query sees; writers publish a new
/// snapshot instead of mutating this one (copy-on-write — the base engine,
/// base data, and base-id set are shared across versions of an epoch, only
/// the small delta vectors are copied per write).
///
/// Invariants, maintained by Apply (DitaService's one write path):
///  - `deleted` is a subset of `base_ids` (a deleted pending insert is
///    removed from `inserts` directly, it never reaches `deleted`);
///  - ids of `inserts` are disjoint from the live base ids
///    (`base_ids` minus `deleted`) and pairwise distinct;
///  - the live set is exactly (base_ids \ deleted) ∪ ids(inserts).
struct TableSnapshot {
  /// Base-index generation: bumped by every epoch merge (rebuild), never by
  /// plain ingest. QueryResult::serving.epoch reports the one a query ran
  /// against.
  uint64_t epoch = 0;
  /// Publish counter: bumped by every ingest operation *and* every merge,
  /// so equal versions imply identical live sets.
  uint64_t version = 0;

  /// The epoch's immutable base index; null when the base is empty (fresh
  /// service started without data, or a merge deleted everything).
  std::shared_ptr<const DitaEngine> base;
  /// The exact trajectories `base` indexes, in build order; the next epoch
  /// merge rebuilds from LiveTrajectories().
  std::shared_ptr<const std::vector<Trajectory>> base_data;
  /// Ids of `base_data`, for O(1) liveness checks.
  std::shared_ptr<const std::unordered_set<TrajectoryId>> base_ids;

  /// Delta: inserted since the epoch's rebuild, in insertion order (queries
  /// scan these linearly; merges append them to the new base in this
  /// order), and base ids deleted since the rebuild.
  std::vector<Trajectory> inserts;
  std::unordered_set<TrajectoryId> deleted;

  size_t base_size() const { return base_data == nullptr ? 0 : base_data->size(); }

  /// Trajectories a query over this snapshot answers about.
  size_t live_size() const {
    return base_size() - deleted.size() + inserts.size();
  }

  /// Delta operations accumulated since the epoch's rebuild; once this
  /// crosses ServingOptions::merge_threshold the service schedules a merge.
  size_t delta_ops() const { return inserts.size() + deleted.size(); }

  bool InBase(TrajectoryId id) const {
    return base_ids != nullptr && base_ids->count(id) > 0;
  }

  bool IsLive(TrajectoryId id) const {
    if (InBase(id) && deleted.count(id) == 0) return true;
    // A deleted base id may be live again as an insert.
    for (const Trajectory& t : inserts) {
      if (t.id() == id) return true;
    }
    return false;
  }

  /// The live set in merge order: base_data minus `deleted`, then `inserts`.
  std::vector<Trajectory> LiveTrajectories() const {
    std::vector<Trajectory> live;
    live.reserve(live_size());
    for (const Trajectory& t : *base_data) {
      if (deleted.count(t.id()) == 0) live.push_back(t);
    }
    live.insert(live.end(), inserts.begin(), inserts.end());
    return live;
  }

  /// Applies one write to the delta; `version` and `epoch` are the
  /// publisher's. An insert of a live id is InvalidArgument, a delete of an
  /// id that is not live is NotFound, and either leaves the snapshot as it
  /// was. A deleted pending insert leaves `inserts`; it never reaches
  /// `deleted`.
  Status Apply(const WriteOp& op) {
    if (op.is_insert) {
      if (IsLive(op.insert.id())) {
        return Status::InvalidArgument("trajectory id is already live");
      }
      inserts.push_back(op.insert);
      return Status::OK();
    }
    const auto it = std::find_if(
        inserts.begin(), inserts.end(),
        [&op](const Trajectory& t) { return t.id() == op.erase; });
    if (it != inserts.end()) {
      inserts.erase(it);
    } else if (InBase(op.erase) && deleted.count(op.erase) == 0) {
      deleted.insert(op.erase);
    } else {
      return Status::NotFound("trajectory id is not live");
    }
    return Status::OK();
  }
};

}  // namespace dita

#endif  // DITA_SERVING_SNAPSHOT_H_
