#include "workloads.h"

#include "shadow.h"

namespace perfbench {

void EmitEndToEnd(Report* rep, const EndToEnd& plain, const EndToEnd* traced) {
  rep->E2E("setup_s", "s", plain.setup_s);
  rep->E2E("ops_per_s", "1/s", plain.ops_per_s);
  rep->E2E("lat_p50_ms", "ms", plain.lat_p50_ms);
  rep->E2E("lat_tail_ms", "ms", plain.lat_tail_ms);
  rep->E2E("peak_rss_mb", "MiB", plain.peak_rss_mb);
  if (traced == nullptr) return;
  rep->Layer("trace.overhead.setup_s", "s", traced->setup_s - plain.setup_s);
  rep->Layer("trace.overhead.ops_per_s", "1/s", traced->ops_per_s - plain.ops_per_s);
  rep->Layer("trace.overhead.lat_p50_ms", "ms", traced->lat_p50_ms - plain.lat_p50_ms);
  rep->Layer("trace.overhead.lat_tail_ms", "ms",
             traced->lat_tail_ms - plain.lat_tail_ms);
  rep->Layer("trace.overhead.peak_rss_mb", "MiB",
             traced->peak_rss_mb - plain.peak_rss_mb);
}

bool TimeSetups(int reps, bool trace, SpanLog* spans,
                const std::function<double()>& setup, SetupTimes* out) {
  const int total = trace ? 2 * reps : reps;
  out->speeds.Boundary();
  for (int i = 0; i < total; ++i) {
    const bool traced = trace && (i % 2 == 1);
    const double raw = setup();
    if (raw < 0.0) return false;
    out->speeds.Boundary();
    const double seconds = raw * out->speeds.Of(static_cast<size_t>(i));
    if (traced) {
      const double t1 = Now();
      RequestTrace tr(spans, 0);
      tr.Span("setup", t1 - seconds, t1, -1);
      tr.Commit();
      out->traced.push_back(seconds);
    } else {
      out->plain.push_back(seconds);
    }
  }
  return true;
}

void FunnelSums::Add(const dita::VerifyStats& v, double makespan, double load) {
  ops += 1.0;
  pairs += static_cast<double>(v.pairs);
  pruned_mbr += static_cast<double>(v.pruned_by_mbr);
  pruned_cell += static_cast<double>(v.pruned_by_cell);
  dp_computed += static_cast<double>(v.dp_computed);
  accepted += static_cast<double>(v.accepted);
  makespan_s += makespan;
  load_ratio += load;
}

void FunnelSums::Merge(const FunnelSums& o) {
  ops += o.ops;
  pairs += o.pairs;
  pruned_mbr += o.pruned_mbr;
  pruned_cell += o.pruned_cell;
  dp_computed += o.dp_computed;
  accepted += o.accepted;
  makespan_s += o.makespan_s;
  load_ratio += o.load_ratio;
}

void FunnelSums::Emit(Report* rep) const {
  const double n = ops > 0.0 ? ops : 1.0;
  rep->Layer("core.verifier.pairs", "count", pairs / n);
  rep->Layer("core.verifier.pruned_mbr", "count", pruned_mbr / n);
  rep->Layer("core.verifier.pruned_cell", "count", pruned_cell / n);
  rep->Layer("core.verifier.dp_ratio", "ratio", pairs > 0.0 ? dp_computed / pairs : 0.0);
  rep->Layer("core.verifier.accept_ratio", "ratio",
             dp_computed > 0.0 ? accepted / dp_computed : 0.0);
  rep->Layer("cluster.makespan_s", "s", makespan_s / n);
  rep->Layer("cluster.load_ratio", "ratio", load_ratio / n);
}

void EmitBuildLayers(Report* rep, const Shadow& shadow,
                     const dita::IndexStats& index) {
  rep->Layer("core.partitioner.partition_s", "s", shadow.times().partition_s);
  rep->Layer("index.trie.build_s", "s", shadow.times().trie_build_s);
  rep->Layer("core.verifier.precomp_s", "s", shadow.times().precomp_s);
  rep->Layer("core.global_index.build_s", "s", shadow.times().global_build_s);
  rep->Layer("core.index_bytes", "bytes",
             static_cast<double>(index.global_index_bytes + index.local_index_bytes));
}

void EmitIdleJoinLayers(Report* rep) {
  rep->Layer("core.join.candidate_pairs", "count", 0.0);
  rep->Layer("core.join.bytes_shipped", "bytes", 0.0);
  rep->Layer("core.join.graph_edges", "count", 0.0);
  rep->Layer("core.join.divided_partitions", "count", 0.0);
}

void EmitIdleIngestLayers(Report* rep) {
  rep->Layer("serving.write_us", "us", 0.0);
  rep->Layer("serving.merges", "count", 0.0);
  rep->Layer("serving.merge_busy_s", "s", 0.0);
  rep->Layer("serving.late_ms", "ms", 0.0);
  rep->Layer("serving.knn_p50_us", "us", 0.0);
  rep->Layer("serving.knn_tail_us", "us", 0.0);
  rep->Layer("serving.write_p50_us", "us", 0.0);
  rep->Layer("serving.write_tail_us", "us", 0.0);
  rep->Layer("core.knn.partitions_probed", "count", 0.0);
  rep->Layer("core.knn.candidates", "count", 0.0);
}

void EmitIdleServiceLayers(Report* rep) {
  rep->Layer("serving.delta_scanned", "count", 0.0);
  rep->Layer("serving.queue_wait_us", "us", 0.0);
  rep->Layer("serving.search_p50_us", "us", 0.0);
  rep->Layer("serving.search_tail_us", "us", 0.0);
}

}  // namespace perfbench
