#ifndef DITA_SQL_DATAFRAME_H_
#define DITA_SQL_DATAFRAME_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "core/engine.h"
#include "serving/service.h"
#include "workload/dataset.h"

namespace dita {

/// The procedural counterpart of the SQL interface (§3 "DataFrame"): a
/// trajectory collection with chainable analytics methods, in the spirit of
/// Spark's DataFrame API. Queries are routed through a long-lived
/// DitaService per distance function, so a DataFrame is mutable: Insert and
/// Delete stream into the service's delta buffers and epoch merges fold
/// them into the indexes in the background of further queries.
///
///   DataFrameContext ctx(cluster, config);
///   DataFrame taxis = ctx.CreateDataFrame(dataset).CreateTrieIndex();
///   auto hits  = taxis.SimilaritySearch(q, "dtw", 0.005);
///   auto pairs = taxis.TraJoin(taxis, "dtw", 0.005);
///   taxis.Insert(new_trip);   // visible to the next query
class DataFrame;

class DataFrameContext {
 public:
  DataFrameContext(std::shared_ptr<Cluster> cluster, const DitaConfig& config)
      : cluster_(std::move(cluster)), config_(config) {}

  DataFrame CreateDataFrame(Dataset data);

  const std::shared_ptr<Cluster>& cluster() const { return cluster_; }
  const DitaConfig& config() const { return config_; }

 private:
  std::shared_ptr<Cluster> cluster_;
  DitaConfig config_;
};

class DataFrame {
 public:
  /// Eagerly builds the index (and starts the serving runtime) for
  /// `function` (default: the context's configured distance). Without this
  /// call, analytics methods build lazily on first use.
  DataFrame& CreateTrieIndex(const std::string& function = "");

  /// All trajectory ids within `tau` of `query` under `function`.
  Result<std::vector<TrajectoryId>> SimilaritySearch(
      const Trajectory& query, const std::string& function, double tau,
      DitaEngine::QueryStats* stats = nullptr);

  /// Similarity join against `other` (may be *this).
  Result<std::vector<std::pair<TrajectoryId, TrajectoryId>>> TraJoin(
      DataFrame& other, const std::string& function, double tau,
      DitaEngine::JoinStats* stats = nullptr);

  /// The k nearest trajectories to `query` as (id, distance) pairs.
  Result<std::vector<std::pair<TrajectoryId, double>>> KnnSearch(
      const Trajectory& query, const std::string& function, size_t k);

  /// Streaming ingest: the trajectory becomes visible to the next query on
  /// every distance function's service (and to services built later).
  Status Insert(const Trajectory& t);
  Status Delete(TrajectoryId id);

  /// RenderExplain of the most recent SimilaritySearch on any copy of this
  /// DataFrame: filter-funnel table, a one-line summary, and the snapshot
  /// the query ran against. Empty string if no search ran yet.
  std::string ExplainLastQuery() const;

  /// RenderExplain of the most recent TraJoin where this DataFrame was the
  /// left side. Empty string if no join ran yet.
  std::string ExplainLastJoin() const;

  size_t size() const { return state_->data.size(); }
  const Dataset& dataset() const { return state_->data; }

  /// The serving runtime backing `function` (built on demand); tests and
  /// dashboards read scheduler / epoch counters from it.
  Result<std::shared_ptr<DitaService>> Service(const std::string& function = "");

 private:
  friend class DataFrameContext;

  /// Shared so DataFrame stays cheap to copy, like Spark's handle semantics.
  struct State {
    DataFrameContext* context = nullptr;
    Dataset data;
    std::map<DistanceType, std::shared_ptr<DitaService>> services;
    /// The newest search/join result (answer moved out), kept for
    /// ExplainLast*(). DataFrame calls always collect stats — it is the
    /// convenience API, and the collection cost is one funnel per
    /// operation, not per candidate.
    std::optional<QueryResult> last_query;
    std::optional<QueryResult> last_join;
  };

  explicit DataFrame(std::shared_ptr<State> state) : state_(std::move(state)) {}

  Result<std::shared_ptr<DitaService>> ServiceFor(const std::string& function);

  std::shared_ptr<State> state_;
};

}  // namespace dita

#endif  // DITA_SQL_DATAFRAME_H_
