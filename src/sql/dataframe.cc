#include "sql/dataframe.h"

#include <algorithm>

#include "util/logging.h"

namespace dita {

DataFrame DataFrameContext::CreateDataFrame(Dataset data) {
  auto state = std::make_shared<DataFrame::State>();
  state->context = this;
  state->data = std::move(data);
  return DataFrame(std::move(state));
}

Result<std::shared_ptr<DitaService>> DataFrame::ServiceFor(
    const std::string& function) {
  DistanceType type = state_->context->config().distance;
  if (!function.empty()) {
    auto parsed = ParseDistanceType(function);
    DITA_RETURN_IF_ERROR(parsed.status());
    type = *parsed;
  }
  auto it = state_->services.find(type);
  if (it != state_->services.end()) return it->second;
  DitaConfig config = state_->context->config();
  config.distance = type;
  // DataFrame is the deterministic convenience layer: merges run inline in
  // the ingest call that crossed the threshold, so a query issued right
  // after an Insert always sees a settled snapshot.
  config.serving.synchronous_merge = true;
  auto service =
      std::make_shared<DitaService>(state_->context->cluster(), config);
  DITA_RETURN_IF_ERROR(service->Start(state_->data));
  state_->services[type] = service;
  return service;
}

Result<std::shared_ptr<DitaService>> DataFrame::Service(
    const std::string& function) {
  return ServiceFor(function);
}

DataFrame& DataFrame::CreateTrieIndex(const std::string& function) {
  auto service = ServiceFor(function);
  if (!service.ok()) {
    DITA_LOG(kError) << "CreateTrieIndex failed: "
                     << service.status().ToString();
  }
  return *this;
}

Result<std::vector<TrajectoryId>> DataFrame::SimilaritySearch(
    const Trajectory& query, const std::string& function, double tau,
    DitaEngine::QueryStats* stats) {
  auto service = ServiceFor(function);
  DITA_RETURN_IF_ERROR(service.status());
  QueryRequest req;
  req.kind = QueryKind::kSearch;
  req.query = query;
  req.tau = tau;
  auto result = (*service)->Execute(req);
  DITA_RETURN_IF_ERROR(result.status());
  if (stats != nullptr) *stats = result->search_stats;
  std::vector<TrajectoryId> ids = std::move(result->ids);
  state_->last_query = std::move(*result);
  return ids;
}

Result<std::vector<std::pair<TrajectoryId, double>>> DataFrame::KnnSearch(
    const Trajectory& query, const std::string& function, size_t k) {
  auto service = ServiceFor(function);
  DITA_RETURN_IF_ERROR(service.status());
  QueryRequest req;
  req.kind = QueryKind::kKnnSearch;
  req.query = query;
  req.k = k;
  auto result = (*service)->Execute(req);
  DITA_RETURN_IF_ERROR(result.status());
  return std::move(result->neighbors);
}

Result<std::vector<std::pair<TrajectoryId, TrajectoryId>>> DataFrame::TraJoin(
    DataFrame& other, const std::string& function, double tau,
    DitaEngine::JoinStats* stats) {
  auto left = ServiceFor(function);
  DITA_RETURN_IF_ERROR(left.status());
  auto right = other.ServiceFor(function);
  DITA_RETURN_IF_ERROR(right.status());
  QueryRequest req;
  req.kind = QueryKind::kJoin;
  req.tau = tau;
  req.join_right_service = right->get();
  auto result = (*left)->Execute(req);
  DITA_RETURN_IF_ERROR(result.status());
  if (stats != nullptr) *stats = result->join_stats;
  std::vector<std::pair<TrajectoryId, TrajectoryId>> pairs =
      std::move(result->pairs);
  state_->last_join = std::move(*result);
  return pairs;
}

Status DataFrame::Insert(const Trajectory& t) {
  DITA_RETURN_IF_ERROR(ValidateTrajectory(t));
  for (const Trajectory& existing : state_->data.trajectories()) {
    if (existing.id() == t.id()) {
      return Status::InvalidArgument("trajectory id is already live");
    }
  }
  // Existing services first (they re-validate); the raw dataset — the seed
  // for services built later — follows only once every service accepted.
  for (auto& [type, service] : state_->services) {
    DITA_RETURN_IF_ERROR(service->Insert(t));
  }
  state_->data.Add(t);
  return Status::OK();
}

Status DataFrame::Delete(TrajectoryId id) {
  auto& rows = state_->data.mutable_trajectories();
  const auto it = std::find_if(rows.begin(), rows.end(), [id](const Trajectory& t) {
    return t.id() == id;
  });
  if (it == rows.end()) return Status::NotFound("trajectory id is not live");
  for (auto& [type, service] : state_->services) {
    DITA_RETURN_IF_ERROR(service->Delete(id));
  }
  rows.erase(it);
  return Status::OK();
}

std::string DataFrame::ExplainLastQuery() const {
  return state_->last_query ? RenderExplain(*state_->last_query) : "";
}

std::string DataFrame::ExplainLastJoin() const {
  return state_->last_join ? RenderExplain(*state_->last_join) : "";
}

}  // namespace dita
