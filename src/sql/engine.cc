#include "sql/engine.h"

#include <algorithm>

#include "util/string_util.h"

namespace dita {

std::string SqlResult::ToString(size_t max_rows) const {
  std::string out = StrJoin(columns, " | ") + "\n";
  for (size_t i = 0; i < rows.size() && i < max_rows; ++i) {
    out += StrJoin(rows[i], " | ") + "\n";
  }
  if (rows.size() > max_rows) {
    out += StrFormat("... (%zu rows total)\n", rows.size());
  }
  return out;
}

SqlEngine::SqlEngine(std::shared_ptr<Cluster> cluster,
                     const DitaConfig& default_config)
    : cluster_(std::move(cluster)), default_config_(default_config) {}

Status SqlEngine::RegisterTable(const std::string& name, Dataset data) {
  if (name.empty()) return Status::InvalidArgument("empty table name");
  Table table;
  table.data = std::move(data);
  tables_[StrToUpper(name)] = std::move(table);
  return Status::OK();
}

Status SqlEngine::BindTrajectory(const std::string& name, Trajectory trajectory) {
  DITA_RETURN_IF_ERROR(ValidateTrajectory(trajectory));
  parameters_[StrToUpper(name)] = std::move(trajectory);
  return Status::OK();
}

std::vector<std::string> SqlEngine::TableNames() const {
  std::vector<std::string> names;
  for (const auto& [name, _] : tables_) names.push_back(name);
  return names;
}

Result<SqlEngine::Table*> SqlEngine::FindTable(const std::string& name) {
  auto it = tables_.find(StrToUpper(name));
  if (it == tables_.end()) return Status::NotFound("no such table: " + name);
  return &it->second;
}

Result<Trajectory> SqlEngine::ResolveQuery(
    const std::variant<TrajectoryLiteral, TrajectoryParam>& q) const {
  if (const auto* lit = std::get_if<TrajectoryLiteral>(&q)) {
    return Trajectory(-1, lit->points);
  }
  const auto& param = std::get<TrajectoryParam>(q);
  auto it = parameters_.find(StrToUpper(param.name));
  if (it == parameters_.end()) {
    return Status::NotFound("unbound query trajectory: @" + param.name);
  }
  return it->second;
}

Result<std::shared_ptr<DitaEngine>> SqlEngine::EngineFor(Table* table,
                                                         DistanceType distance) {
  auto it = table->engines.find(distance);
  if (it != table->engines.end()) return it->second;
  DitaConfig config = default_config_;
  config.distance = distance;
  auto engine = std::make_shared<DitaEngine>(cluster_, config);
  DITA_RETURN_IF_ERROR(engine->BuildIndex(table->data));
  table->engines[distance] = engine;
  return engine;
}

Result<SqlResult> SqlEngine::Execute(const std::string& sql) {
  auto stmt = ParseSql(sql);
  DITA_RETURN_IF_ERROR(stmt.status());

  if (std::holds_alternative<ShowTablesStatement>(*stmt)) {
    SqlResult result;
    result.columns = {"table"};
    for (const auto& name : TableNames()) result.rows.push_back({name});
    return result;
  }

  if (const auto* create = std::get_if<CreateIndexStatement>(&*stmt)) {
    auto table = FindTable(create->table);
    DITA_RETURN_IF_ERROR(table.status());
    auto engine = EngineFor(*table, default_config_.distance);
    DITA_RETURN_IF_ERROR(engine.status());
    SqlResult result;
    result.columns = {"status"};
    result.rows.push_back({StrFormat(
        "index %s created on %s (%zu partitions, %s local, %s global)",
        create->index_name.c_str(), create->table.c_str(),
        (*engine)->index_stats().num_partitions,
        HumanBytes(double((*engine)->index_stats().local_index_bytes)).c_str(),
        HumanBytes(double((*engine)->index_stats().global_index_bytes)).c_str())});
    result.seconds = (*engine)->index_stats().build_seconds;
    return result;
  }

  if (const auto* knn = std::get_if<KnnStatement>(&*stmt)) {
    auto table = FindTable(knn->table);
    DITA_RETURN_IF_ERROR(table.status());
    auto type = ParseDistanceType(knn->function);
    DITA_RETURN_IF_ERROR(type.status());
    auto engine = EngineFor(*table, *type);
    DITA_RETURN_IF_ERROR(engine.status());
    auto query = ResolveQuery(knn->query);
    DITA_RETURN_IF_ERROR(query.status());

    QueryRequest req;
    req.kind = QueryKind::kKnnSearch;
    req.query = std::move(*query);
    req.k = knn->k;
    auto res = (*engine)->Execute(req);
    DITA_RETURN_IF_ERROR(res.status());
    SqlResult result;
    result.columns = {"trajectory_id", "distance"};
    for (const auto& [id, d] : res->neighbors) {
      result.rows.push_back(
          {StrFormat("%lld", static_cast<long long>(id)), StrFormat("%g", d)});
    }
    result.seconds = res->search_stats.makespan_seconds;
    return result;
  }

  if (const auto* search = std::get_if<SearchStatement>(&*stmt)) {
    auto table = FindTable(search->table);
    DITA_RETURN_IF_ERROR(table.status());
    auto type = ParseDistanceType(search->function);
    DITA_RETURN_IF_ERROR(type.status());
    auto engine = EngineFor(*table, *type);
    DITA_RETURN_IF_ERROR(engine.status());

    auto resolved = ResolveQuery(search->query);
    DITA_RETURN_IF_ERROR(resolved.status());

    QueryRequest req;
    req.kind = QueryKind::kSearch;
    req.query = std::move(*resolved);
    req.tau = search->threshold;
    auto res = (*engine)->Execute(req);
    DITA_RETURN_IF_ERROR(res.status());
    SqlResult result;
    result.columns = {"trajectory_id"};
    for (TrajectoryId id : res->ids) {
      result.rows.push_back({StrFormat("%lld", static_cast<long long>(id))});
    }
    result.seconds = res->search_stats.makespan_seconds;
    return result;
  }

  const auto& join = std::get<JoinStatement>(*stmt);
  auto left = FindTable(join.left_table);
  DITA_RETURN_IF_ERROR(left.status());
  auto right = FindTable(join.right_table);
  DITA_RETURN_IF_ERROR(right.status());
  auto type = ParseDistanceType(join.function);
  DITA_RETURN_IF_ERROR(type.status());
  auto left_engine = EngineFor(*left, *type);
  DITA_RETURN_IF_ERROR(left_engine.status());
  auto right_engine = EngineFor(*right, *type);
  DITA_RETURN_IF_ERROR(right_engine.status());

  QueryRequest req;
  req.kind = QueryKind::kJoin;
  req.join_right = right_engine->get();
  req.tau = join.threshold;
  auto res = (*left_engine)->Execute(req);
  DITA_RETURN_IF_ERROR(res.status());
  SqlResult result;
  result.columns = {StrToUpper(join.left_table) + ".id",
                    StrToUpper(join.right_table) + ".id"};
  for (const auto& [a, b] : res->pairs) {
    result.rows.push_back({StrFormat("%lld", static_cast<long long>(a)),
                           StrFormat("%lld", static_cast<long long>(b))});
  }
  result.seconds = res->join_stats.makespan_seconds;
  return result;
}

}  // namespace dita
