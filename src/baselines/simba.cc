#include "baselines/simba.h"

#include <algorithm>
#include <mutex>
#include <numeric>

#include "index/str_tile.h"
#include "util/logging.h"
#include "util/timer.h"

namespace dita {

SimbaEngine::SimbaEngine(std::shared_ptr<Cluster> cluster, DistanceType distance,
                         const DistanceParams& params)
    : cluster_(std::move(cluster)) {
  DITA_CHECK(cluster_ != nullptr);
  auto dist = MakeDistance(distance, params);
  DITA_CHECK(dist.ok());
  distance_ = *dist;
}

Status SimbaEngine::CheckDistance() const {
  if (distance_->type() != DistanceType::kDTW &&
      distance_->type() != DistanceType::kFrechet) {
    return Status::NotSupported(
        "Simba's first-point index only supports DTW and Frechet");
  }
  return Status::OK();
}

Status SimbaEngine::BuildIndex(const Dataset& data) {
  DITA_RETURN_IF_ERROR(CheckDistance());
  for (const Trajectory& t : data.trajectories()) {
    if (t.size() < 2) {
      return Status::InvalidArgument("trajectories need at least 2 points");
    }
  }
  // One-level STR partitioning by first point, one partition per worker
  // times a small factor (Simba defaults to on the order of worker count).
  const size_t target_partitions = cluster_->num_workers() * 4;
  std::vector<uint32_t> all(data.size());
  std::iota(all.begin(), all.end(), 0);
  auto groups = StrTile(
      std::move(all), [&](uint32_t i) { return data[i].front(); },
      target_partitions);

  partitions_.clear();
  partitions_.resize(groups.size());
  std::vector<Cluster::Task> tasks;
  for (size_t p = 0; p < groups.size(); ++p) {
    Partition& part = partitions_[p];
    const std::vector<uint32_t>* members = &groups[p];
    tasks.push_back({cluster_->WorkerOf(p), [&data, &part, members] {
                       std::vector<RTree::Entry> entries;
                       for (uint32_t i : *members) {
                         const Trajectory& t = data[i];
                         part.mbr_first.Expand(t.front());
                         part.bytes += t.ByteSize();
                         entries.push_back(
                             {MBR::FromPoint(t.front()),
                              static_cast<uint32_t>(part.trajectories.size())});
                         part.trajectories.push_back(t);
                       }
                       part.first_points.Build(std::move(entries));
                       return Status::OK();
                     }});
  }
  DITA_RETURN_IF_ERROR(cluster_->RunStage(std::move(tasks)));

  CpuTimer driver_timer;
  std::vector<RTree::Entry> global_entries;
  for (uint32_t p = 0; p < partitions_.size(); ++p) {
    global_entries.push_back({partitions_[p].mbr_first, p});
  }
  global_first_.Build(std::move(global_entries));
  cluster_->RecordDriverCompute(driver_timer.Seconds());
  indexed_ = true;
  return Status::OK();
}

Result<std::vector<TrajectoryId>> SimbaEngine::Search(
    const Trajectory& q, double tau, DitaEngine::QueryStats* stats) const {
  if (!indexed_) return Status::Internal("Search before BuildIndex");
  if (tau < 0) return Status::InvalidArgument("threshold must be non-negative");
  const Cluster::CostSnapshot snap = cluster_->Snapshot();

  CpuTimer driver_timer;
  std::vector<uint32_t> relevant;
  global_first_.SearchWithinDistance(q.front(), tau, &relevant);
  cluster_->RecordDriverCompute(driver_timer.Seconds());

  std::mutex mu;
  std::vector<TrajectoryId> results;
  size_t candidates = 0;
  std::vector<Cluster::Task> tasks;
  for (uint32_t p : relevant) {
    const Partition* part = &partitions_[p];
    tasks.push_back({cluster_->WorkerOf(p),
                     [&, part] {
                       std::vector<uint32_t> cands;
                       part->first_points.SearchWithinDistance(q.front(), tau,
                                                               &cands);
                       std::vector<TrajectoryId> local;
                       for (uint32_t pos : cands) {
                         const Trajectory& t = part->trajectories[pos];
                         if (distance_->WithinThreshold(t, q, tau)) {
                           local.push_back(t.id());
                         }
                       }
                       std::lock_guard<std::mutex> lock(mu);
                       candidates += cands.size();
                       results.insert(results.end(), local.begin(), local.end());
                       return Status::OK();
                     },
                     part->bytes});
  }
  DITA_RETURN_IF_ERROR(cluster_->RunStage(std::move(tasks)));

  if (stats != nullptr) {
    stats->makespan_seconds = cluster_->MakespanSince(snap);
    stats->partitions_probed = relevant.size();
    stats->candidates = candidates;
    stats->results = results.size();
  }
  std::sort(results.begin(), results.end());
  return results;
}

Result<std::vector<std::pair<TrajectoryId, TrajectoryId>>> SimbaEngine::SelfJoin(
    double tau, DitaEngine::JoinStats* stats) const {
  if (!indexed_) return Status::Internal("Join before BuildIndex");
  const Cluster::CostSnapshot snap = cluster_->Snapshot();
  const uint64_t bytes_before = cluster_->total_bytes_sent();

  // Relevant partition pairs: first MBRs within tau. As in DITA's
  // self-join, the pairs form a triangle (j >= i) and every accepted pair is
  // emitted in both orientations, since the distances are symmetric.
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  CpuTimer driver_timer;
  for (uint32_t i = 0; i < partitions_.size(); ++i) {
    for (uint32_t j = i; j < partitions_.size(); ++j) {
      if (partitions_[i].mbr_first.MinDist(partitions_[j].mbr_first) <= tau) {
        edges.emplace_back(i, j);
      }
    }
  }
  cluster_->RecordDriverCompute(driver_timer.Seconds());

  // Ship whole source partitions (no per-trajectory filtering).
  for (const auto& [src, dst] : edges) {
    cluster_->RecordTransfer(cluster_->WorkerOf(src), cluster_->WorkerOf(dst),
                             partitions_[src].bytes);
  }

  std::mutex mu;
  std::vector<std::pair<TrajectoryId, TrajectoryId>> results;
  size_t candidate_pairs = 0;
  std::vector<Cluster::Task> tasks;
  for (const auto& edge : edges) {
    const Partition* src = &partitions_[edge.first];
    const Partition* dst = &partitions_[edge.second];
    tasks.push_back({cluster_->WorkerOf(edge.second),
                     [&, src, dst] {
      std::vector<std::pair<TrajectoryId, TrajectoryId>> local;
      size_t local_pairs = 0;  // ordered pairs: a self-pair counts once
      const bool diagonal = src == dst;
      for (uint32_t a_pos = 0; a_pos < src->trajectories.size(); ++a_pos) {
        const Trajectory& a = src->trajectories[a_pos];
        std::vector<uint32_t> cands;
        dst->first_points.SearchWithinDistance(a.front(), tau, &cands);
        for (uint32_t pos : cands) {
          // A diagonal partition pair decides each unordered pair once.
          if (diagonal && pos < a_pos) continue;
          const bool self = diagonal && pos == a_pos;
          local_pairs += self ? 1 : 2;
          const Trajectory& b = dst->trajectories[pos];
          if (distance_->WithinThreshold(b, a, tau)) {
            local.emplace_back(a.id(), b.id());
            if (!self) local.emplace_back(b.id(), a.id());
          }
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      results.insert(results.end(), local.begin(), local.end());
      candidate_pairs += local_pairs;
      return Status::OK();
                     },
                     dst->bytes});
  }
  DITA_RETURN_IF_ERROR(cluster_->RunStage(std::move(tasks)));

  if (stats != nullptr) {
    stats->makespan_seconds = cluster_->MakespanSince(snap);
    stats->load_ratio = cluster_->LoadRatioSince(snap);
    stats->bytes_shipped = cluster_->total_bytes_sent() - bytes_before;
    stats->graph_edges = edges.size();
    stats->candidate_pairs = candidate_pairs;
    stats->result_pairs = results.size();
  }
  std::sort(results.begin(), results.end());
  return results;
}

size_t SimbaEngine::index_bytes() const {
  size_t bytes = global_first_.ByteSize();
  for (const Partition& p : partitions_) bytes += p.first_points.ByteSize();
  return bytes;
}

}  // namespace dita
