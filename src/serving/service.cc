#include "serving/service.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "obs/export.h"
#include "util/logging.h"
#include "util/timer.h"

namespace dita {

// ----------------------------------------------------------- answer cache --

namespace {

// splitmix64 fold step; seeds the two key lanes differently so the 128-bit
// digest has no cheap collisions across lanes.
uint64_t MixFold(uint64_t h, uint64_t v) {
  h += 0x9e3779b97f4a7c15ull + v;
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

void AppendWord(std::string* out, uint64_t v) {
  char buf[sizeof(v)];
  std::memcpy(buf, &v, sizeof(v));
  out->append(buf, sizeof(v));
}

// Approximate resident bytes of a snapshot's unmerged delta: insert points
// plus the deleted-id set. Feeds the serving.delta.bytes gauge.
uint64_t DeltaBytes(const TableSnapshot& snap) {
  uint64_t bytes = 0;
  for (const Trajectory& t : snap.inserts) bytes += t.size() * sizeof(Point);
  bytes += snap.deleted.size() * sizeof(TrajectoryId);
  return bytes;
}

const char* KindName(uint8_t kind) {
  switch (static_cast<QueryKind>(kind)) {
    case QueryKind::kSearch:
      return "search";
    case QueryKind::kJoin:
      return "join";
    case QueryKind::kKnnSearch:
      return "knn";
  }
  return "unknown";
}

}  // namespace

std::string AnswerCache::RequestBytes(const QueryRequest& req) {
  std::string out;
  out.reserve((5 + 2 * req.query.size()) * sizeof(uint64_t));
  AppendWord(&out, static_cast<uint64_t>(req.kind));
  AppendWord(&out, std::bit_cast<uint64_t>(req.tau));
  AppendWord(&out, req.k);
  AppendWord(&out, req.collect_stats ? 1 : 0);
  AppendWord(&out, req.query.size());
  for (const Point& p : req.query.points()) {
    AppendWord(&out, std::bit_cast<uint64_t>(p.x));
    AppendWord(&out, std::bit_cast<uint64_t>(p.y));
  }
  return out;
}

AnswerCache::Key AnswerCache::KeyOf(std::string_view bytes) {
  Key k{0x2545f4914f6cdd1dull, 0x6a09e667f3bcc909ull};
  for (size_t i = 0; i + sizeof(uint64_t) <= bytes.size();
       i += sizeof(uint64_t)) {
    uint64_t v = 0;
    std::memcpy(&v, bytes.data() + i, sizeof(v));
    k.h1 = MixFold(k.h1, v);
    k.h2 = MixFold(k.h2, k.h1 ^ v);
  }
  return k;
}

void AnswerCache::Configure(size_t capacity, obs::MetricsRegistry* metrics) {
  capacity_ = capacity;
  if (capacity_ == 0) return;
  m_hits_ = {metrics, "serving.cache.hits"};
  m_misses_ = {metrics, "serving.cache.misses"};
  m_evictions_ = {metrics, "serving.cache.evictions"};
  m_invalidations_ = {metrics, "serving.cache.invalidations"};
}

bool AnswerCache::Lookup(const Key& key, std::string_view request,
                         uint64_t version, QueryResult* out) {
  if (capacity_ == 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end() || it->second->request != request) {
    misses_.fetch_add(1);
    m_misses_.Increment();
    return false;
  }
  if (it->second->version != version) {
    // A Store that raced a publish: provably dead (versions only grow), so
    // reclaim the slot now rather than waiting for LRU pressure.
    lru_.erase(it->second);
    index_.erase(it);
    misses_.fetch_add(1);
    m_misses_.Increment();
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  *out = it->second->result;
  hits_.fetch_add(1);
  m_hits_.Increment();
  return true;
}

void AnswerCache::Store(const Key& key, std::string request, uint64_t version,
                        const QueryResult& res) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->request = std::move(request);
    it->second->version = version;
    it->second->result = res;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, std::move(request), version, res});
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    evictions_.fetch_add(1);
    m_evictions_.Increment();
  }
}

void AnswerCache::InvalidateAll() {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  invalidations_.fetch_add(1);
  m_invalidations_.Increment();
}

DitaService::DitaService(std::shared_ptr<Cluster> cluster,
                         const DitaConfig& config)
    : cluster_(std::move(cluster)),
      config_(config),
      flight_recorder_(config.serving.flight_recorder_entries) {
  DITA_CHECK(cluster_ != nullptr);
  auto dist = MakeDistance(config_.distance, config_.distance_params);
  DITA_CHECK(dist.ok());
  distance_ = *dist;
  verifier_ = std::make_unique<Verifier>(distance_, config_);

  QueryScheduler::Options sopts;
  sopts.slots = config_.serving.scheduler_slots > 0
                    ? config_.serving.scheduler_slots
                    : cluster_->num_workers();
  sopts.max_inflight = config_.serving.max_inflight_queries;
  if (config_.serving.max_queued_queries > 0) {
    sopts.max_queued = config_.serving.max_queued_queries;
  }
  scheduler_ = std::make_unique<QueryScheduler>(sopts);

  tracer_ =
      config_.enable_tracing ? cluster_->EnableTracing() : cluster_->tracer();
  metrics_ =
      config_.enable_metrics ? cluster_->EnableMetrics() : cluster_->metrics();
  m_inserts_ = {metrics_, "serving.inserts"};
  m_deletes_ = {metrics_, "serving.deletes"};
  m_merges_ = {metrics_, "serving.merges"};
  m_queries_ = {metrics_, "serving.queries"};
  m_delta_scanned_ = {metrics_, "serving.delta.scanned"};
  h_latency_search_ = {metrics_, "serving.latency.search_seconds",
                       obs::LatencyOptions()};
  h_latency_join_ = {metrics_, "serving.latency.join_seconds",
                     obs::LatencyOptions()};
  h_latency_knn_ = {metrics_, "serving.latency.knn_seconds",
                    obs::LatencyOptions()};
  h_queue_wait_ = {metrics_, "serving.queue_wait_seconds",
                   obs::LatencyOptions()};
  g_inflight_cost_ = {metrics_, "serving.inflight_cost"};
  g_queue_depth_ = {metrics_, "serving.queue.depth"};
  g_pinned_snapshots_ = {metrics_, "serving.pinned_snapshots"};
  g_delta_bytes_ = {metrics_, "serving.delta.bytes"};
  g_merge_backlog_ = {metrics_, "serving.merge.backlog"};
  answer_cache_.Configure(config_.serving.answer_cache_entries, metrics_);
}

DitaService::~DitaService() { Stop(); }

Status DitaService::Start(const Dataset& initial) {
  if (started_) return Status::Internal("DitaService::Start called twice");

  auto snap = std::make_shared<TableSnapshot>();
  auto ids = std::make_shared<std::unordered_set<TrajectoryId>>();
  auto data = std::make_shared<std::vector<Trajectory>>(initial.trajectories());
  // BuildIndex validates every trajectory; only the id check is ours.
  for (const Trajectory& t : *data) {
    if (!ids->insert(t.id()).second) {
      return Status::InvalidArgument("duplicate trajectory id in initial data");
    }
  }
  if (!data->empty()) {
    auto base = std::make_shared<DitaEngine>(cluster_, config_);
    DITA_RETURN_IF_ERROR(base->BuildIndex(initial));
    snap->base = std::move(base);
  }
  snap->base_data = std::move(data);
  snap->base_ids = std::move(ids);
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    snap_ = std::move(snap);
  }
  started_ = true;

  if (!config_.serving.synchronous_merge) {
    merge_thread_ = std::thread([this] { MergeLoop(); });
  }
  const size_t nexec = std::max<size_t>(1, config_.serving.scheduler_threads);
  executors_.reserve(nexec);
  for (size_t i = 0; i < nexec; ++i) {
    executors_.emplace_back([this, i] { ExecutorLoop(i); });
  }
  return Status::OK();
}

void DitaService::Stop() {
  {
    std::lock_guard<std::mutex> lock(merge_mu_);
    if (stop_.load()) return;
    stop_.store(true);
  }
  merge_cv_.notify_all();
  {
    // Taken and dropped so a worker between its predicate check and its
    // block still sees the notify.
    std::lock_guard<std::mutex> lock(jobs_mu_);
  }
  jobs_cv_.notify_all();
  if (merge_thread_.joinable()) merge_thread_.join();
  for (std::thread& t : executors_) {
    if (t.joinable()) t.join();
  }
  executors_.clear();
  // Fail whatever Submit jobs were still queued.
  std::deque<Job> orphans;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    orphans.swap(jobs_);
  }
  for (Job& j : orphans) {
    j.promise.set_value(Status::Unavailable("service stopped"));
  }
}

std::shared_ptr<const TableSnapshot> DitaService::Pin() const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  return snap_;
}

uint64_t DitaService::merges() const {
  std::lock_guard<std::mutex> lock(write_mu_);
  return merges_;
}

// ---------------------------------------------------------------- ingest --

Status DitaService::Insert(const Trajectory& t) {
  if (!started_) return Status::Internal("DitaService used before Start");
  DITA_RETURN_IF_ERROR(ValidateTrajectory(t));
  return Write(WriteOp{true, t, -1});
}

Status DitaService::Delete(TrajectoryId id) {
  if (!started_) return Status::Internal("DitaService used before Start");
  return Write(WriteOp{false, Trajectory(), id});
}

Status DitaService::Write(WriteOp op) {
  const bool is_insert = op.is_insert;
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    const std::shared_ptr<const TableSnapshot> cur = Pin();
    auto next = std::make_shared<TableSnapshot>(*cur);
    DITA_RETURN_IF_ERROR(next->Apply(op));
    next->version = cur->version + 1;
    if (merging_) op_log_.push_back(std::move(op));
    std::lock_guard<std::mutex> slock(snap_mu_);
    snap_ = std::move(next);
  }
  (is_insert ? m_inserts_ : m_deletes_).Increment();
  (is_insert ? inserts_count_ : deletes_count_)
      .fetch_add(1, std::memory_order_relaxed);
  AfterPublish();
  return Status::OK();
}

void DitaService::AfterPublish() {
  answer_cache_.InvalidateAll();
  {
    const std::shared_ptr<const TableSnapshot> now_snap = Pin();
    g_delta_bytes_.Set(static_cast<int64_t>(DeltaBytes(*now_snap)));
    g_merge_backlog_.Set(static_cast<int64_t>(now_snap->delta_ops()));
  }
  MaybeScheduleMerge();
}

void DitaService::MaybeScheduleMerge() {
  bool need = false;
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    need = !merging_ &&
           Pin()->delta_ops() >= config_.serving.merge_threshold &&
           config_.serving.merge_threshold > 0;
  }
  if (!need) return;
  if (config_.serving.synchronous_merge) {
    // Inline merge: deterministic for tests and single-threaded harnesses.
    // Failure leaves the delta intact (queries stay exact, just slower), so
    // dropping the status here loses nothing but the retry.
    const Status merged = MergeOnce();
    (void)merged;
    return;
  }
  {
    std::lock_guard<std::mutex> lock(merge_mu_);
    merge_requested_ = true;
  }
  merge_cv_.notify_one();
}

Status DitaService::ForceMerge() {
  if (!started_) return Status::Internal("DitaService used before Start");
  return MergeOnce();
}

Status DitaService::MergeOnce() {
  std::shared_ptr<const TableSnapshot> src;
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    if (merging_) return Status::OK();  // another merge is already running
    src = Pin();
    if (src->delta_ops() == 0) return Status::OK();
    merging_ = true;
    op_log_.clear();
  }
  // Merge-busy window: queries bracket MergeBusyAt() readings around their
  // run to compute merge_overlap_seconds.
  const double merge_start = NowSeconds();
  merge_started_bits_.store(std::bit_cast<uint64_t>(merge_start),
                            std::memory_order_release);
  const auto close_busy_window = [&] {
    const double busy = std::bit_cast<double>(
        merge_busy_bits_.load(std::memory_order_relaxed));
    merge_busy_bits_.store(
        std::bit_cast<uint64_t>(busy + (NowSeconds() - merge_start)),
        std::memory_order_relaxed);
    merge_started_bits_.store(kMergeIdleBits, std::memory_order_release);
  };
  // The merge body runs on its own trace lane regardless of which thread
  // drives it (background loop, ForceMerge caller, or a synchronous write).
  obs::Tracer::ScopedLane merge_lane(obs::kMergeLane);
  obs::SpanGuard merge_span(tracer_, "serving.merge");

  // Rebuild outside the write lock: queries keep answering from the old
  // snapshot, and concurrent writes keep landing in the *current* snapshot
  // (visible immediately) while also being recorded in op_log_ for replay.
  std::vector<Trajectory> new_data = src->LiveTrajectories();

  std::shared_ptr<DitaEngine> base;
  if (!new_data.empty()) {
    base = std::make_shared<DitaEngine>(cluster_, config_);
    const Status built = base->BuildIndex(Dataset(new_data));
    if (!built.ok()) {
      std::lock_guard<std::mutex> lock(write_mu_);
      merging_ = false;
      op_log_.clear();
      close_busy_window();
      return built;
    }
  }

  auto ids = std::make_shared<std::unordered_set<TrajectoryId>>();
  ids->reserve(new_data.size());
  for (const Trajectory& t : new_data) ids->insert(t.id());

  {
    std::lock_guard<std::mutex> lock(write_mu_);
    const std::shared_ptr<const TableSnapshot> cur = Pin();
    auto next = std::make_shared<TableSnapshot>();
    next->epoch = src->epoch + 1;
    next->version = cur->version + 1;
    next->base = std::move(base);
    next->base_data =
        std::make_shared<std::vector<Trajectory>>(std::move(new_data));
    next->base_ids = std::move(ids);
    // Replay writes that raced the rebuild: they are already visible in
    // `cur`'s delta, but against the *old* base; re-expressing them against
    // the new base keeps the live set identical across the publish. The new
    // base's live set is `src`'s, and each logged write succeeded on `src`
    // plus the writes before it, so no replayed write can fail.
    for (const WriteOp& op : op_log_) DITA_CHECK(next->Apply(op).ok());
    op_log_.clear();
    merging_ = false;
    ++merges_;
    {
      std::lock_guard<std::mutex> slock(snap_mu_);
      snap_ = std::move(next);
    }
  }
  close_busy_window();
  m_merges_.Increment();
  if (tracer_ != nullptr) tracer_->Instant("serving.epoch.published");
  // Writes that raced the rebuild may already exceed the threshold again.
  AfterPublish();
  return Status::OK();
}

void DitaService::MergeLoop() {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(merge_mu_);
      merge_cv_.wait(lock,
                     [this] { return merge_requested_ || stop_.load(); });
      if (stop_.load()) return;
      merge_requested_ = false;
    }
    // Background merge failures (e.g. a fault-injected build) are retried
    // on the next threshold crossing; the delta keeps queries exact
    // meanwhile.
    const Status merged = MergeOnce();
    (void)merged;
  }
}

double DitaService::MergeBusyAt(double now) const {
  const double busy =
      std::bit_cast<double>(merge_busy_bits_.load(std::memory_order_relaxed));
  const uint64_t started = merge_started_bits_.load(std::memory_order_acquire);
  if (started == kMergeIdleBits) return busy;
  const double since = now - std::bit_cast<double>(started);
  return busy + (since > 0.0 ? since : 0.0);
}

void DitaService::FinishRequest(obs::RequestRecord* rec, double end_seconds,
                                Result<QueryResult>* res) const {
  rec->total_seconds = end_seconds - rec->arrival_seconds;
  // finalize is defined as the remainder, so the telescoping invariant
  // (PhaseSum == total up to one rounding step) holds on every path —
  // including sheds and errors, where later phases never ran.
  const double accounted = rec->queue_seconds + rec->admission_seconds +
                           rec->cache_seconds + rec->pin_seconds +
                           rec->base_seconds + rec->delta_seconds;
  rec->finalize_seconds = rec->total_seconds - accounted;
  // On entry merge_overlap_seconds holds MergeBusyAt(arrival); the second
  // reading turns the stash into the overlap with background merge work.
  double overlap = MergeBusyAt(end_seconds) - rec->merge_overlap_seconds;
  rec->merge_overlap_seconds =
      std::clamp(overlap, 0.0, rec->total_seconds);

  const Status& st = res->status();
  rec->status_code = static_cast<uint8_t>(st.code());
  if (res->ok()) {
    const QueryResult& qr = **res;
    rec->epoch = qr.serving.epoch;
    rec->version = qr.serving.version;
    const size_t produced = qr.kind == QueryKind::kSearch
                                ? qr.ids.size()
                                : (qr.kind == QueryKind::kJoin
                                       ? qr.pairs.size()
                                       : qr.neighbors.size());
    rec->results = static_cast<uint32_t>(
        std::min<size_t>(produced, std::numeric_limits<uint32_t>::max()));
    const Status& term = qr.kind == QueryKind::kJoin
                             ? qr.join_stats.termination
                             : qr.search_stats.termination;
    const double completeness = qr.kind == QueryKind::kJoin
                                    ? qr.join_stats.completeness
                                    : qr.search_stats.completeness;
    if (!term.ok() || completeness < 1.0) {
      rec->flags |= obs::RequestRecord::kDegraded;
      degraded_count_.fetch_add(1, std::memory_order_relaxed);
    }
  } else if (st.code() == Status::Code::kUnavailable ||
             st.code() == Status::Code::kResourceExhausted) {
    rec->flags |= obs::RequestRecord::kShed;
    shed_count_.fetch_add(1, std::memory_order_relaxed);
  } else {
    errors_count_.fetch_add(1, std::memory_order_relaxed);
  }

  // Always-on rollup (feeds Stats() / the SLO report even with
  // enable_metrics off) plus the registry mirrors. Latency histograms cover
  // every terminal outcome, sheds included — their wait-then-reject time is
  // part of what callers experienced.
  queue_wait_hist_.Observe(rec->queue_seconds);
  admission_wait_hist_.Observe(rec->admission_seconds);
  h_queue_wait_.Observe(rec->queue_seconds);
  switch (static_cast<QueryKind>(rec->kind)) {
    case QueryKind::kSearch:
      lat_search_.Observe(rec->total_seconds);
      h_latency_search_.Observe(rec->total_seconds);
      break;
    case QueryKind::kJoin:
      lat_join_.Observe(rec->total_seconds);
      h_latency_join_.Observe(rec->total_seconds);
      break;
    case QueryKind::kKnnSearch:
      lat_knn_.Observe(rec->total_seconds);
      h_latency_knn_.Observe(rec->total_seconds);
      break;
  }
  flight_recorder_.Record(*rec);
  if (res->ok()) (*res)->serving.lifecycle = *rec;
}

// --------------------------------------------------------------- queries --

uint64_t DitaService::EstimateCost(const TableSnapshot& snap,
                                   const QueryRequest& req) const {
  if (req.cost_hint > 0) return req.cost_hint;
  if (snap.base == nullptr) return 1;
  if (req.kind == QueryKind::kJoin) {
    QueryRequest probe = req;
    probe.join_right_service = nullptr;
    probe.join_right = nullptr;
    if (req.join_right_service != nullptr &&
        req.join_right_service != this) {
      const std::shared_ptr<const TableSnapshot> rs =
          req.join_right_service->Pin();
      if (rs->base != nullptr) probe.join_right = rs->base.get();
    } else if (req.join_right != nullptr) {
      probe.join_right = req.join_right;
    }
    // A null probe.join_right means self-join against our own base.
    return snap.base->EstimateQueryCost(probe);
  }
  return snap.base->EstimateQueryCost(req);
}

Result<QueryResult> DitaService::Execute(const QueryRequest& req) const {
  return ExecuteInternal(req, NowSeconds(), 0);
}

Result<QueryResult> DitaService::ExecuteInternal(const QueryRequest& req,
                                                 double arrival_seconds,
                                                 uint8_t extra_flags) const {
  if (!started_) return Status::Internal("DitaService used before Start");
  obs::RequestRecord rec;
  rec.request_id = request_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  rec.kind = static_cast<uint8_t>(req.kind);
  rec.flags = extra_flags;
  rec.arrival_seconds = arrival_seconds;
  // Stash MergeBusyAt(arrival); FinishRequest turns it into the overlap.
  rec.merge_overlap_seconds = MergeBusyAt(arrival_seconds);
  double last = NowSeconds();
  rec.queue_seconds = last - arrival_seconds;
  // One validation at entry, before the cache, the cost estimate and the
  // scheduler; a rejected request is counted as an error, not as shed.
  if (Status valid = ValidateRequest(req); !valid.ok()) {
    Result<QueryResult> res = std::move(valid);
    FinishRequest(&rec, NowSeconds(), &res);
    return res;
  }

  // Answer cache (DESIGN.md §5g): a hit returns the stored result without
  // an admission grant — the point of the tier is that repeated reads skip
  // the scheduler and the engine entirely. Joins are never cached (their
  // answer depends on a second table's state), nor are context-carrying
  // requests (a deadline/budget can degrade the answer).
  std::string cbytes;
  AnswerCache::Key ckey;
  const bool cacheable =
      answer_cache_.enabled() && req.ctx == nullptr &&
      req.kind != QueryKind::kJoin && req.join_right == nullptr &&
      req.join_right_service == nullptr;
  if (cacheable) {
    cbytes = AnswerCache::RequestBytes(req);
    ckey = AnswerCache::KeyOf(cbytes);
    QueryResult hit;
    const bool got = answer_cache_.Lookup(ckey, cbytes, Pin()->version, &hit);
    const double now = NowSeconds();
    rec.cache_seconds = now - last;
    last = now;
    if (tracer_ != nullptr) {
      tracer_->Instant(got ? "serving.cache.hit" : "serving.cache.miss",
                       obs::kCacheLane);
    }
    if (got) {
      m_queries_.Increment();
      if (req.collect_stats) RecordExplain(hit);
      rec.flags |= obs::RequestRecord::kCacheHit;
      Result<QueryResult> res(std::move(hit));
      FinishRequest(&rec, NowSeconds(), &res);
      return res;
    }
  }
  // Cost is estimated against the snapshot current at arrival; the query
  // itself runs on the snapshot pinned *after* the grant, so it sees every
  // write that completed before it was scheduled.
  const uint64_t cost = EstimateCost(*Pin(), req);
  QueryScheduler::Grant grant;
  const Status admitted =
      scheduler_->Acquire(req.priority, cost, req.ctx, &grant);
  {
    const double now = NowSeconds();
    rec.admission_seconds = now - last;
    last = now;
  }
  g_inflight_cost_.Set(static_cast<int64_t>(scheduler_->slots_in_use()));
  if (!admitted.ok()) {
    if (req.ctx != nullptr) {
      rec.stop_cause = static_cast<uint8_t>(req.ctx->stop_cause());
    }
    Result<QueryResult> res = admitted;
    FinishRequest(&rec, NowSeconds(), &res);
    return res;
  }
  const std::shared_ptr<const TableSnapshot> snap = Pin();
  g_pinned_snapshots_.Set(
      pinned_queries_.fetch_add(1, std::memory_order_relaxed) + 1);

  obs::SpanGuard span(tracer_, "serving.query");
  span.Arg("epoch", snap->epoch);
  m_queries_.Increment();
  {
    const double now = NowSeconds();
    rec.pin_seconds = now - last;
    last = now;
  }

  PhaseSplit split;
  Result<QueryResult> res = Status::OK();
  switch (req.kind) {
    case QueryKind::kSearch:
      res = SearchSnapshot(*snap, req, &split);
      break;
    case QueryKind::kKnnSearch:
      res = KnnSnapshot(*snap, req, &split);
      break;
    case QueryKind::kJoin: {
      if (req.join_right_service != nullptr &&
          req.join_right_service != this) {
        if (req.join_right_service->cluster_.get() != cluster_.get()) {
          res = Status::InvalidArgument("joined tables must share a cluster");
        } else {
          const std::shared_ptr<const TableSnapshot> rsnap =
              req.join_right_service->Pin();
          res = JoinSnapshots(*snap, *rsnap, req, &split);
        }
      } else if (req.join_right != nullptr) {
        // Bare-engine right side: wrap it as a deltaless snapshot.
        TableSnapshot rsnap;
        rsnap.base = std::shared_ptr<const DitaEngine>(
            std::shared_ptr<const DitaEngine>(), req.join_right);
        res = JoinSnapshots(*snap, rsnap, req, &split);
      } else {
        res = JoinSnapshots(*snap, *snap, req, &split);
      }
      break;
    }
  }
  g_pinned_snapshots_.Set(
      pinned_queries_.fetch_sub(1, std::memory_order_relaxed) - 1);
  // Attribute the body: the split stamps separate base-index work from the
  // delta scan; an unstamped boundary (error exits) folds into base.
  const double body_end = NowSeconds();
  const double base_done =
      split.base_done_seconds > 0.0 ? split.base_done_seconds : body_end;
  const double delta_done =
      split.delta_done_seconds > 0.0 ? split.delta_done_seconds : body_end;
  rec.base_seconds = base_done - last;
  rec.delta_seconds = delta_done - base_done;
  if (req.ctx != nullptr) {
    rec.stop_cause = static_cast<uint8_t>(req.ctx->stop_cause());
  }
  if (!res.ok()) {
    FinishRequest(&rec, NowSeconds(), &res);
    return res;
  }
  res->serving.served = true;
  res->serving.epoch = snap->epoch;
  res->serving.version = snap->version;
  m_delta_scanned_.Add(res->serving.delta_scanned);
  if (req.collect_stats) RecordExplain(*res);
  // Only complete answers are cacheable; a hit is indistinguishable from a
  // recompute only when the stored result is the full one. The version tag
  // makes a Store racing a publish harmless (Lookup rejects it).
  if (cacheable && res->search_stats.termination.ok() &&
      res->search_stats.completeness >= 1.0) {
    answer_cache_.Store(ckey, std::move(cbytes), snap->version, *res);
  }
  FinishRequest(&rec, NowSeconds(), &res);
  return res;
}

std::future<Result<QueryResult>> DitaService::Submit(QueryRequest req) const {
  Job job;
  job.req = std::move(req);
  job.enqueue_seconds = NowSeconds();
  std::future<Result<QueryResult>> fut = job.promise.get_future();
  {
    // Checked under jobs_mu_: Stop sets stop_ before it drains the queue
    // under the same lock, so a job pushed here is either run by an
    // executor or failed with the orphans, never stranded.
    std::lock_guard<std::mutex> lock(jobs_mu_);
    if (stop_.load() || !started_) {
      job.promise.set_value(Status::Unavailable("service stopped"));
      return fut;
    }
    jobs_.push_back(std::move(job));
    g_queue_depth_.Set(static_cast<int64_t>(jobs_.size()));
  }
  jobs_cv_.notify_one();
  return fut;
}

void DitaService::ExecutorLoop(size_t executor_index) {
  // Every span / instant this thread emits lands on its own serving lane
  // ("serving.exec N" in the exported trace).
  obs::Tracer::ScopedLane lane(obs::ServingExecutorLane(executor_index));
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(jobs_mu_);
      jobs_cv_.wait(lock,
                    [this] { return !jobs_.empty() || stop_.load(); });
      if (jobs_.empty()) return;  // stop_ with an empty queue
      job = std::move(jobs_.front());
      jobs_.pop_front();
      g_queue_depth_.Set(static_cast<int64_t>(jobs_.size()));
    }
    job.promise.set_value(ExecuteInternal(job.req, job.enqueue_seconds,
                                          obs::RequestRecord::kAsync));
  }
}

Status DitaService::SearchIdsInto(const TableSnapshot& snap,
                                  const QueryRequest& req, QueryStats* stats,
                                  QueryResult::ServingInfo* acct,
                                  std::vector<TrajectoryId>* out,
                                  PhaseSplit* split) const {
  if (snap.base != nullptr) {
    QueryRequest base_req = req;
    base_req.join_right = nullptr;
    base_req.join_right_service = nullptr;
    auto r = snap.base->Execute(base_req);
    DITA_RETURN_IF_ERROR(r.status());
    if (stats != nullptr) *stats = std::move(r->search_stats);
    for (const TrajectoryId id : r->ids) {
      if (snap.deleted.count(id) > 0) {
        ++acct->deleted_filtered;
      } else {
        out->push_back(id);
      }
    }
  }
  if (split != nullptr) split->base_done_seconds = NowSeconds();

  // Delta scan: exact, because Verifier::Verify is the same accept
  // predicate the indexed path ends in (sound filters + thresholded DP).
  if (!snap.inserts.empty()) {
    const VerifyPrecomp qp =
        VerifyPrecomp::For(req.query, config_.verify.cell_size);
    VerifyStats dstats;
    for (const Trajectory& t : snap.inserts) {
      ++acct->delta_scanned;
      const VerifyPrecomp tp =
          VerifyPrecomp::For(t, config_.verify.cell_size);
      if (verifier_->Verify(t, tp, req.query, qp, req.tau, &dstats)) {
        out->push_back(t.id());
        ++acct->delta_matches;
      }
    }
    if (req.collect_stats) {
      acct->delta_funnel.AddLevel("delta buffer", snap.inserts.size());
      acct->delta_funnel.AddLevel("mbr coverage",
                                  dstats.pairs - dstats.pruned_by_mbr);
      acct->delta_funnel.AddLevel("cell bound", dstats.dp_computed);
      acct->delta_funnel.AddLevel("threshold dp", dstats.accepted);
    }
  }
  if (split != nullptr) split->delta_done_seconds = NowSeconds();
  return Status::OK();
}

Result<QueryResult> DitaService::SearchSnapshot(const TableSnapshot& snap,
                                                const QueryRequest& req,
                                                PhaseSplit* split) const {
  QueryResult res;
  res.kind = QueryKind::kSearch;
  std::vector<TrajectoryId> ids;
  DITA_RETURN_IF_ERROR(
      SearchIdsInto(snap, req, &res.search_stats, &res.serving, &ids, split));
  std::sort(ids.begin(), ids.end());
  res.ids = std::move(ids);
  if (req.collect_stats) res.search_stats.results = res.ids.size();
  return res;
}

Result<QueryResult> DitaService::KnnSnapshot(const TableSnapshot& snap,
                                             const QueryRequest& req,
                                             PhaseSplit* split) const {
  QueryResult res;
  res.kind = QueryKind::kKnnSearch;
  if (req.k > snap.live_size()) {
    return Status::InvalidArgument("k exceeds the table cardinality");
  }
  if (req.k == 0) return res;
  KnnTopK top(req.k);
  double proven = std::numeric_limits<double>::infinity();
  if (snap.base != nullptr) {
    // The engine's sweep passes over deleted base ids itself, so the base
    // returns its k best *live* answers directly.
    auto r = snap.base->KnnSearchImpl(
        req.query, req.k, req.collect_stats ? &res.search_stats : nullptr,
        req.ctx, &snap.deleted, &proven);
    DITA_RETURN_IF_ERROR(r.status());
    for (const auto& [id, d] : *r) top.Offer(id, d);
  }
  if (split != nullptr) split->base_done_seconds = NowSeconds();
  // Delta inserts join the same bounded top k: the threshold kernel at the
  // current k-th distance rejects most of them, and only the survivors pay
  // for the exact distance — the same kernel and argument order as the
  // engine's, so merged distances are bit-comparable with the base's.
  for (const Trajectory& t : snap.inserts) {
    ++res.serving.delta_scanned;
    const double bound = top.Bound();
    if (!std::isinf(bound) &&
        !distance_->WithinThreshold(t, req.query, bound)) {
      continue;
    }
    top.Offer(t.id(), distance_->Compute(t, req.query));
  }
  if (split != nullptr) split->delta_done_seconds = NowSeconds();
  std::vector<KnnNeighbor> scored = top.Sorted();
  // A stopped base sweep proved its answers only below `proven`; past it an
  // unswept base trajectory could still precede a delta answer.
  KnnKeepBelow(proven, &scored);
  for (const auto& [id, d] : scored) {
    (void)d;
    if (!snap.InBase(id)) ++res.serving.delta_matches;
  }
  res.neighbors = std::move(scored);
  if (req.collect_stats) {
    res.search_stats.results = res.neighbors.size();
    if (req.ctx != nullptr && req.ctx->stopped()) {
      res.search_stats.completeness =
          static_cast<double>(res.neighbors.size()) /
          static_cast<double>(req.k);
    }
  }
  return res;
}

Result<QueryResult> DitaService::JoinSnapshots(const TableSnapshot& left,
                                               const TableSnapshot& right,
                                               const QueryRequest& req,
                                               PhaseSplit* split) const {
  QueryResult res;
  res.kind = QueryKind::kJoin;
  std::vector<std::pair<TrajectoryId, TrajectoryId>> pairs;

  // Term 1: base x base through the distributed join, minus pairs whose
  // endpoint died. (The three terms partition live x live: term 1 covers
  // live-base x live-base, term 2 the left delta against everything live on
  // the right, term 3 the live left base against the right delta — disjoint
  // by construction, so no dedup pass is needed.)
  if (left.base != nullptr && right.base != nullptr) {
    QueryRequest base_req = req;
    base_req.join_right = right.base.get();
    base_req.join_right_service = nullptr;
    auto r = left.base->Execute(base_req);
    DITA_RETURN_IF_ERROR(r.status());
    res.join_stats = std::move(r->join_stats);
    for (const auto& [l, rr] : r->pairs) {
      if (left.deleted.count(l) > 0 || right.deleted.count(rr) > 0) {
        ++res.serving.deleted_filtered;
      } else {
        pairs.emplace_back(l, rr);
      }
    }
  }
  if (split != nullptr) split->base_done_seconds = NowSeconds();

  // Term 2: left delta x live right (base and delta of the right snapshot).
  QueryRequest probe;
  probe.kind = QueryKind::kSearch;
  probe.tau = req.tau;
  probe.ctx = req.ctx;
  probe.collect_stats = false;
  for (const Trajectory& t : left.inserts) {
    ++res.serving.delta_scanned;
    probe.query = t;
    std::vector<TrajectoryId> rids;
    DITA_RETURN_IF_ERROR(
        SearchIdsInto(right, probe, nullptr, &res.serving, &rids));
    for (const TrajectoryId rid : rids) {
      pairs.emplace_back(t.id(), rid);
      ++res.serving.delta_matches;
    }
  }

  // Term 3: live left base x right delta. Distance kernels are symmetric
  // under argument swap (the batch join already relies on this: edge
  // orientation decides which side ships), so searching the left base with
  // a right-delta trajectory tests exactly f(left, right) <= tau.
  if (left.base != nullptr) {
    for (const Trajectory& t : right.inserts) {
      ++res.serving.delta_scanned;
      QueryRequest probe;
      probe.kind = QueryKind::kSearch;
      probe.query = t;
      probe.tau = req.tau;
      probe.ctx = req.ctx;
      probe.collect_stats = false;
      auto r = left.base->Execute(probe);
      DITA_RETURN_IF_ERROR(r.status());
      for (const TrajectoryId lid : r->ids) {
        if (left.deleted.count(lid) > 0) {
          ++res.serving.deleted_filtered;
          continue;
        }
        pairs.emplace_back(lid, t.id());
        ++res.serving.delta_matches;
      }
    }
  }
  if (split != nullptr) split->delta_done_seconds = NowSeconds();

  std::sort(pairs.begin(), pairs.end());
  res.pairs = std::move(pairs);
  if (req.collect_stats) res.join_stats.result_pairs = res.pairs.size();
  return res;
}

// ---------------------------------------------------------------- explain --

void DitaService::RecordExplain(const QueryResult& res) const {
  std::string text = RenderExplain(res);
  std::lock_guard<std::mutex> lock(explain_mu_);
  last_explain_ = std::move(text);
}

std::string DitaService::ExplainLastQuery() const {
  std::lock_guard<std::mutex> lock(explain_mu_);
  return last_explain_;
}

// ---------------------------------------------------------- observability --

DitaService::ServiceStats DitaService::Stats() const {
  ServiceStats s;
  s.uptime_seconds = NowSeconds();
  s.latency_search = lat_search_.Snap();
  s.latency_join = lat_join_.Snap();
  s.latency_knn = lat_knn_.Snap();
  s.queue_wait = queue_wait_hist_.Snap();
  s.admission_wait = admission_wait_hist_.Snap();
  s.queries_search = s.latency_search.count;
  s.queries_join = s.latency_join.count;
  s.queries_knn = s.latency_knn.count;
  s.queries = s.queries_search + s.queries_join + s.queries_knn;
  s.shed = shed_count_.load(std::memory_order_relaxed);
  s.degraded = degraded_count_.load(std::memory_order_relaxed);
  s.errors = errors_count_.load(std::memory_order_relaxed);
  s.cache_hits = answer_cache_.hits();
  s.cache_misses = answer_cache_.misses();
  s.inserts = inserts_count_.load(std::memory_order_relaxed);
  s.deletes = deletes_count_.load(std::memory_order_relaxed);
  s.merges = merges();
  s.merge_busy_seconds = MergeBusyAt(NowSeconds());
  s.recorded = flight_recorder_.total_recorded();
  return s;
}

std::string DitaService::ExplainService() const {
  const ServiceStats s = Stats();
  std::ostringstream out;
  out << "== DitaService ==\n"
      << "uptime: " << s.uptime_seconds << " s, queries: " << s.queries
      << " (search " << s.queries_search << ", join " << s.queries_join
      << ", knn " << s.queries_knn << ")\n"
      << "shed: " << s.shed << ", degraded: " << s.degraded
      << ", errors: " << s.errors << "\n"
      << "cache: " << s.cache_hits << " hits / " << s.cache_misses
      << " misses\n"
      << "ingest: " << s.inserts << " inserts, " << s.deletes << " deletes, "
      << s.merges << " merges (" << s.merge_busy_seconds << " s busy)\n"
      << "flight recorder: " << s.recorded << " recorded, capacity "
      << flight_recorder_.capacity() << "\n";
  const auto row = [&out](const char* name,
                          const obs::Histogram::Snapshot& h) {
    out << name << ": n=" << h.count;
    if (h.count > 0) {
      out << " p50<=" << h.QuantileUpperBound(0.5) << " p95<="
          << h.QuantileUpperBound(0.95) << " p99<="
          << h.QuantileUpperBound(0.99) << " p999<="
          << h.QuantileUpperBound(0.999) << " (s)";
    }
    out << "\n";
  };
  row("latency.search", s.latency_search);
  row("latency.join", s.latency_join);
  row("latency.knn", s.latency_knn);
  row("queue_wait", s.queue_wait);
  row("admission_wait", s.admission_wait);
  return out.str();
}

std::string DitaService::DumpFlightRecorder() const {
  const ServiceStats s = Stats();
  const std::vector<obs::RequestRecord> records = flight_recorder_.Snapshot();
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("service");
  w.BeginObject();
  w.Key("uptime_seconds");
  w.Double(s.uptime_seconds);
  w.Key("queries");
  w.UInt(s.queries);
  w.Key("queries_search");
  w.UInt(s.queries_search);
  w.Key("queries_join");
  w.UInt(s.queries_join);
  w.Key("queries_knn");
  w.UInt(s.queries_knn);
  w.Key("shed");
  w.UInt(s.shed);
  w.Key("degraded");
  w.UInt(s.degraded);
  w.Key("errors");
  w.UInt(s.errors);
  w.Key("cache_hits");
  w.UInt(s.cache_hits);
  w.Key("cache_misses");
  w.UInt(s.cache_misses);
  w.Key("inserts");
  w.UInt(s.inserts);
  w.Key("deletes");
  w.UInt(s.deletes);
  w.Key("merges");
  w.UInt(s.merges);
  w.Key("merge_busy_seconds");
  w.Double(s.merge_busy_seconds);
  w.Key("recorded");
  w.UInt(s.recorded);
  w.Key("capacity");
  w.UInt(flight_recorder_.capacity());
  w.Key("latency");
  w.BeginObject();
  const auto hist = [&w](const char* name,
                         const obs::Histogram::Snapshot& h) {
    w.Key(name);
    w.BeginObject();
    w.Key("count");
    w.UInt(h.count);
    w.Key("p50");
    w.Double(h.QuantileUpperBound(0.5));
    w.Key("p95");
    w.Double(h.QuantileUpperBound(0.95));
    w.Key("p99");
    w.Double(h.QuantileUpperBound(0.99));
    w.Key("p999");
    w.Double(h.QuantileUpperBound(0.999));
    w.EndObject();
  };
  hist("search", s.latency_search);
  hist("join", s.latency_join);
  hist("knn", s.latency_knn);
  hist("queue_wait", s.queue_wait);
  hist("admission_wait", s.admission_wait);
  w.EndObject();
  w.EndObject();
  w.Key("requests");
  w.BeginArray();
  for (const obs::RequestRecord& r : records) {
    w.BeginObject();
    w.Key("id");
    w.UInt(r.request_id);
    w.Key("kind");
    w.String(KindName(r.kind));
    w.Key("status_code");
    w.UInt(r.status_code);
    w.Key("stop_cause");
    w.String(QueryContext::StopCauseName(
        static_cast<QueryContext::StopCause>(r.stop_cause)));
    w.Key("cache_hit");
    w.Raw(r.cache_hit() ? "true" : "false");
    w.Key("degraded");
    w.Raw(r.degraded() ? "true" : "false");
    w.Key("shed");
    w.Raw(r.shed() ? "true" : "false");
    w.Key("async");
    w.Raw((r.flags & obs::RequestRecord::kAsync) != 0 ? "true" : "false");
    w.Key("results");
    w.UInt(r.results);
    w.Key("epoch");
    w.UInt(r.epoch);
    w.Key("version");
    w.UInt(r.version);
    w.Key("arrival_seconds");
    w.Double(r.arrival_seconds);
    w.Key("queue_seconds");
    w.Double(r.queue_seconds);
    w.Key("admission_seconds");
    w.Double(r.admission_seconds);
    w.Key("cache_seconds");
    w.Double(r.cache_seconds);
    w.Key("pin_seconds");
    w.Double(r.pin_seconds);
    w.Key("base_seconds");
    w.Double(r.base_seconds);
    w.Key("delta_seconds");
    w.Double(r.delta_seconds);
    w.Key("finalize_seconds");
    w.Double(r.finalize_seconds);
    w.Key("total_seconds");
    w.Double(r.total_seconds);
    w.Key("merge_overlap_seconds");
    w.Double(r.merge_overlap_seconds);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.Take();
}

}  // namespace dita
