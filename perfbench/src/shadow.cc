#include "shadow.h"

#include <algorithm>

#include "core/partitioner.h"
#include "distance/dp_scratch.h"

namespace perfbench {

std::unique_ptr<Shadow> Shadow::Build(const std::vector<dita::Trajectory>& data,
                                      const dita::DitaConfig& config,
                                      std::string* error) {
  auto s = std::unique_ptr<Shadow>(new Shadow());
  s->config_ = config;
  auto dist = dita::MakeDistance(config.distance, config.distance_params);
  if (!dist.ok()) {
    *error = dist.status().ToString();
    return nullptr;
  }
  s->distance_ = *dist;
  s->verifier_ = std::make_unique<dita::Verifier>(s->distance_, config);

  double t0 = Now();
  auto parts = dita::PartitionByFirstLast(data, config.build.ng);
  if (!parts.ok()) {
    *error = parts.status().ToString();
    return nullptr;
  }
  std::vector<dita::GlobalIndex::PartitionSummary> summaries(parts->size());
  for (size_t p = 0; p < parts->size(); ++p) {
    for (const dita::Trajectory& t : (*parts)[p]) {
      summaries[p].mbr_first.Expand(t.front());
      summaries[p].mbr_last.Expand(t.back());
    }
  }
  double t1 = Now();
  s->times_.partition_s = t1 - t0;

  s->tries_.resize(parts->size());
  for (size_t p = 0; p < parts->size(); ++p) {
    const dita::Status st =
        s->tries_[p].Build(std::move((*parts)[p]), config.build.trie);
    if (!st.ok()) {
      *error = st.ToString();
      return nullptr;
    }
  }
  t0 = Now();
  s->times_.trie_build_s = t0 - t1;

  s->precomp_.resize(s->tries_.size());
  for (size_t p = 0; p < s->tries_.size(); ++p) {
    const auto& members = s->tries_[p].trajectories();
    s->precomp_[p].reserve(members.size());
    for (const dita::Trajectory& t : members) {
      s->precomp_[p].push_back(
          dita::VerifyPrecomp::For(t, config.verify.cell_size));
    }
  }
  t1 = Now();
  s->times_.precomp_s = t1 - t0;

  s->global_.Build(std::move(summaries));
  s->times_.global_build_s = Now() - t1;
  return s;
}

Shadow::Replay Shadow::Search(const dita::Trajectory& q, double tau,
                              RequestTrace* trace, int32_t parent) const {
  Replay r;
  const dita::Point* erp_gap = config_.distance == dita::DistanceType::kERP
                                   ? &config_.distance_params.erp_gap
                                   : nullptr;
  const double t0 = Now();
  const std::vector<uint32_t> relevant = global_.RelevantPartitions(
      q, tau, distance_->prune_mode(), distance_->matching_epsilon(), erp_gap);
  const double t1 = Now();
  r.partitions = relevant.size();

  // Collect every relevant partition's candidates, then verify them all:
  // the engine interleaves the two per partition, the shadow runs them as
  // separate phases so each layer is one span.
  dita::TrieIndex::SearchSpec spec;
  spec.query = &q;
  spec.tau = tau;
  spec.mode = distance_->prune_mode();
  spec.epsilon = distance_->matching_epsilon();
  if (config_.distance == dita::DistanceType::kLCSS) {
    spec.lcss_delta = config_.distance_params.delta;
  }
  spec.erp_gap = erp_gap;
  dita::TrieIndex::ProbeStats pstats;
  pstats.Reset(config_.build.trie.num_pivots + 2);
  std::vector<std::vector<uint32_t>> cands(relevant.size());
  for (size_t i = 0; i < relevant.size(); ++i) {
    tries_[relevant[i]].CollectCandidates(spec, &cands[i], &pstats);
  }
  const double t2 = Now();

  const dita::VerifyPrecomp qp =
      dita::VerifyPrecomp::For(q, config_.verify.cell_size);
  std::vector<std::vector<uint32_t>> accepted(relevant.size());
  for (size_t i = 0; i < relevant.size(); ++i) {
    dita::Verifier::Batch batch;
    batch.precomp = &precomp_[relevant[i]];
    batch.candidates = &cands[i];
    batch.query = &qp;
    batch.tau = tau;
    verifier_->VerifyBatch(batch, nullptr, config_.verify.parallel_min,
                           &accepted[i], &r.vstats);
  }
  const double t3 = Now();

  // Find the pairs that reached the DP (per-candidate Verify stats; not
  // timed), then time the DP alone on exactly those pairs.
  std::vector<std::pair<uint32_t, uint32_t>> dp_pairs;  // (partition, pos)
  for (size_t i = 0; i < relevant.size(); ++i) {
    const uint32_t pid = relevant[i];
    for (const uint32_t pos : cands[i]) {
      dita::VerifyStats one;
      verifier_->Verify(tries_[pid].trajectory(pos), precomp_[pid][pos], q, qp,
                        tau, &one);
      if (one.dp_computed > 0) dp_pairs.emplace_back(pid, pos);
    }
  }
  dita::DpScratch* scratch = &dita::DpScratch::ThreadLocal();
  const dita::TrajView qv = qp.soa.view();
  const double t4 = Now();
  for (const auto& [pid, pos] : dp_pairs) {
    if (distance_->WithinThreshold(precomp_[pid][pos].soa.view(), qv, tau,
                                   scratch)) {
      ++r.dp_accepted;
    }
  }
  const double t5 = Now();

  for (size_t i = 0; i < relevant.size(); ++i) {
    r.candidates += cands[i].size();
    for (const uint32_t pos : accepted[i]) {
      r.ids.push_back(tries_[relevant[i]].trajectory(pos).id());
    }
  }
  std::sort(r.ids.begin(), r.ids.end());
  r.nodes_visited = pstats.nodes_visited;
  r.dp_calls = dp_pairs.size();
  for (const auto& [pid, pos] : dp_pairs) {
    r.dp_cells += static_cast<uint64_t>(precomp_[pid][pos].soa.size()) *
                  qp.soa.size();
  }
  r.probe_us = (t1 - t0) * 1e6;
  r.collect_us = (t2 - t1) * 1e6;
  r.verify_us = (t3 - t2) * 1e6;
  r.dp_us = (t5 - t4) * 1e6;
  if (trace != nullptr) {
    trace->Span("shadow.probe", t0, t1, parent);
    trace->Span("shadow.collect", t1, t2, parent);
    trace->Span("shadow.verify", t2, t3, parent);
    trace->Span("shadow.dp", t4, t5, parent);
  }
  return r;
}

std::string Shadow::Reconcile(const Replay& r,
                              const std::vector<dita::TrajectoryId>& engine_ids,
                              const dita::QueryStats& es) {
  if (r.ids != engine_ids) return "shadow ids differ from the engine's";
  if (r.vstats.accepted != es.verify.accepted || r.dp_accepted != r.ids.size()) {
    return "shadow accepted count differs from the engine's";
  }
  if (r.partitions < es.partitions_probed || r.candidates < es.candidates ||
      r.vstats.dp_computed < es.verify.dp_computed) {
    return "engine counted more work than the shadow replay";
  }
  if (r.vstats.pairs != r.candidates) return "shadow pair count is inconsistent";
  return "";
}

}  // namespace perfbench
