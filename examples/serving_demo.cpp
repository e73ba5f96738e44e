// Online serving in one file: a long-lived DitaService fed by streaming
// ingest while concurrent queries run against epoch-pinned snapshots.
//
//   build/examples/serving_demo
//   build/examples/serving_demo --obs-export=PREFIX
//
// The demo starts a service over a synthetic city table, fires a mixed
// batch of async queries through the unified QueryRequest API, streams
// inserts/deletes in parallel, forces an epoch merge, and prints the
// EXPLAIN of the last query so the epoch/delta accounting is visible.
//
// With --obs-export=PREFIX the run additionally enables the registry
// metrics plane, prints the ExplainService() SLO rollup, and writes
// PREFIX_metrics.json (obs::MetricsToJson) plus PREFIX_flight.json
// (DitaService::DumpFlightRecorder) — the documents ci.sh's obs pass
// schema-checks and tools/obs_report.py renders.

#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <vector>

#include "obs/export.h"
#include "serving/service.h"
#include "util/logging.h"
#include "workload/generator.h"

int main(int argc, char** argv) {
  using namespace dita;

  std::string obs_prefix;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--obs-export=", 13) == 0) {
      obs_prefix = argv[i] + 13;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  GeneratorConfig gcfg;
  gcfg.cardinality = 800;
  gcfg.region = MBR(Point{0, 0}, Point{1, 1});
  gcfg.step = 0.01;
  gcfg.seed = 7;
  const Dataset city = GenerateTaxiDataset(gcfg);

  ClusterConfig ccfg;
  ccfg.num_workers = 8;
  auto cluster = std::make_shared<Cluster>(ccfg);

  DitaConfig config;
  config.serving.merge_threshold = 32;  // epoch merge after 32 delta ops
  config.serving.scheduler_threads = 2;
  config.serving.answer_cache_entries = 64;  // so the export shows hits
  config.enable_metrics = !obs_prefix.empty();

  DitaService service(cluster, config);
  DITA_CHECK(service.Start(city).ok());
  std::printf("service up: %zu trajectories, epoch %llu\n",
              service.live_size(),
              static_cast<unsigned long long>(service.epoch()));

  // Async queries through the unified request API: a threshold search, a
  // kNN, and a low-priority self-join share the scheduler's slot pool.
  QueryRequest search;
  search.kind = QueryKind::kSearch;
  search.query = city[5];
  search.tau = 0.004;
  search.priority = 0;

  QueryRequest knn;
  knn.kind = QueryKind::kKnnSearch;
  knn.query = city[9];
  knn.k = 3;

  QueryRequest join;
  join.kind = QueryKind::kJoin;
  join.tau = 0.003;
  join.priority = 2;  // bulk analytics yields slots to point queries

  auto search_fut = service.Submit(search);
  auto knn_fut = service.Submit(knn);
  auto join_fut = service.Submit(join);

  // Meanwhile the table keeps moving: fresh trips stream in, old ones
  // retire. Queries in flight keep their pinned snapshot; the next query
  // sees the new version.
  for (size_t i = 0; i < 40; ++i) {
    DITA_CHECK(
        service.Insert(Trajectory(TrajectoryId(10000 + i), city[i].points()))
            .ok());
  }
  for (size_t i = 0; i < 10; ++i) {
    DITA_CHECK(service.Delete(city[i].id()).ok());
  }

  auto search_res = search_fut.get();
  auto knn_res = knn_fut.get();
  auto join_res = join_fut.get();
  DITA_CHECK(search_res.ok() && knn_res.ok() && join_res.ok());
  std::printf("search: %zu ids | knn: %zu neighbors | join: %zu pairs\n",
              search_res->ids.size(), knn_res->neighbors.size(),
              join_res->pairs.size());

  // Fold the delta into a new epoch and show the serving-aware EXPLAIN.
  DITA_CHECK(service.ForceMerge().ok());
  QueryRequest again = search;
  auto post = service.Execute(again);
  DITA_CHECK(post.ok());
  std::printf("after merge: epoch %llu, %llu merges, %zu live\n%s",
              static_cast<unsigned long long>(service.epoch()),
              static_cast<unsigned long long>(service.merges()),
              service.live_size(), RenderExplain(*post).c_str());

  std::printf("scheduler: %llu admitted, %zu slots\n",
              static_cast<unsigned long long>(service.scheduler().admitted()),
              service.scheduler().total_slots());

  if (!obs_prefix.empty()) {
    // Re-run the search so the answer cache records a hit for the export,
    // then dump the two observability documents the obs CI pass validates.
    DITA_CHECK(service.Execute(again).ok());
    std::printf("\n%s", service.ExplainService().c_str());
    const std::string metrics_path = obs_prefix + "_metrics.json";
    const std::string flight_path = obs_prefix + "_flight.json";
    DITA_CHECK(
        obs::WriteFile(metrics_path, obs::MetricsToJson(*cluster->metrics()))
            .ok());
    DITA_CHECK(
        obs::WriteFile(flight_path, service.DumpFlightRecorder()).ok());
    std::printf("wrote %s and %s\n", metrics_path.c_str(),
                flight_path.c_str());
  }
  service.Stop();
  return 0;
}
