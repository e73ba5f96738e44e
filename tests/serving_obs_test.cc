// Serving-plane observability: the always-on flight recorder (wraparound,
// concurrent writers, seqlock consistency), the per-request lifecycle
// records DitaService threads through every completion path, and the
// ServiceStats / DumpFlightRecorder rollups. The load-bearing invariant:
// every QueryResult's lifecycle phase breakdown telescopes to its total
// latency — queue + admission + cache + pin + base + delta + finalize ==
// total, on hits, sheds, and errors alike.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "obs/lifecycle.h"
#include "serving/service.h"
#include "util/query_context.h"
#include "workload/generator.h"
#include "test_data.h"

namespace dita {
namespace {

/// Re-ids a trajectory so insert pools never collide with base ids.
Trajectory WithId(const Trajectory& t, TrajectoryId id) {
  return Trajectory(id, t.points());
}

/// Phase telescoping tolerance: finalize is defined as the remainder, so the
/// sum differs from total only by floating-point rounding of the additions.
void ExpectTelescopes(const obs::RequestRecord& rec) {
  EXPECT_GT(rec.total_seconds, 0.0) << "request " << rec.request_id;
  EXPECT_NEAR(rec.PhaseSum(), rec.total_seconds,
              1e-12 + 1e-9 * rec.total_seconds)
      << "request " << rec.request_id;
  EXPECT_GE(rec.queue_seconds, 0.0);
  EXPECT_GE(rec.admission_seconds, 0.0);
  EXPECT_GE(rec.cache_seconds, 0.0);
  EXPECT_GE(rec.pin_seconds, 0.0);
  EXPECT_GE(rec.base_seconds, 0.0);
  EXPECT_GE(rec.delta_seconds, 0.0);
  EXPECT_GE(rec.merge_overlap_seconds, 0.0);
  EXPECT_LE(rec.merge_overlap_seconds, rec.total_seconds + 1e-12);
}

// ------------------------------------------------------------------------
// FlightRecorder unit behaviour.
// ------------------------------------------------------------------------

TEST(FlightRecorderTest, WrapsAroundKeepingTheMostRecentRecords) {
  obs::FlightRecorder rec(5);  // rounds up to 8
  EXPECT_TRUE(rec.enabled());
  EXPECT_EQ(rec.capacity(), 8u);
  EXPECT_TRUE(rec.Snapshot().empty());

  for (uint64_t i = 0; i < 100; ++i) {
    obs::RequestRecord r;
    r.request_id = i;
    r.kind = static_cast<uint8_t>(i % 3);
    r.total_seconds = static_cast<double>(i);
    rec.Record(r);
  }
  EXPECT_EQ(rec.total_recorded(), 100u);

  const std::vector<obs::RequestRecord> snap = rec.Snapshot();
  ASSERT_EQ(snap.size(), 8u);
  // Oldest-first, exactly the last capacity() tickets, payload intact.
  for (size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].request_id, 92u + i);
    EXPECT_EQ(snap[i].kind, (92 + i) % 3);
    EXPECT_DOUBLE_EQ(snap[i].total_seconds, static_cast<double>(92 + i));
  }
}

TEST(FlightRecorderTest, ZeroCapacityDisablesRecording) {
  obs::FlightRecorder rec(0);
  EXPECT_FALSE(rec.enabled());
  EXPECT_EQ(rec.capacity(), 0u);
  obs::RequestRecord r;
  r.request_id = 7;
  rec.Record(r);  // must be a safe no-op
  EXPECT_EQ(rec.total_recorded(), 0u);
  EXPECT_TRUE(rec.Snapshot().empty());
}

TEST(FlightRecorderTest, ConcurrentWritersAndReadersSeeConsistentRecords) {
  // The seqlock contract under contention: a snapshot never returns a
  // torn record (mixed generations). Each writer stamps a payload that is
  // self-consistent (total_seconds mirrors request_id, epoch mirrors the
  // writer), so any mix-up is detectable.
  obs::FlightRecorder rec(64);
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 4000;
  std::atomic<bool> stop_reader{false};
  std::atomic<uint64_t> snapshots_taken{0};

  std::thread reader([&] {
    while (!stop_reader.load()) {
      const std::vector<obs::RequestRecord> snap = rec.Snapshot();
      EXPECT_LE(snap.size(), rec.capacity());
      for (const obs::RequestRecord& r : snap) {
        EXPECT_DOUBLE_EQ(r.total_seconds, static_cast<double>(r.request_id));
        EXPECT_EQ(r.epoch, r.request_id % kWriters);
      }
      snapshots_taken.fetch_add(1);
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&rec, &snapshots_taken, w] {
      // Start once the reader is running, so reads overlap the writes
      // instead of racing thread start-up.
      while (snapshots_taken.load() == 0) std::this_thread::yield();
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        obs::RequestRecord r;
        r.request_id = i * kWriters + static_cast<uint64_t>(w);
        r.epoch = static_cast<uint64_t>(w);
        r.total_seconds = static_cast<double>(r.request_id);
        rec.Record(r);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop_reader.store(true);
  reader.join();

  EXPECT_EQ(rec.total_recorded(), kWriters * kPerWriter);
  EXPECT_GT(snapshots_taken.load(), 0u);
  // Quiescent snapshot is full and ticket-ordered. Writers take tickets in
  // any order relative to each other, so only each writer's own records
  // (epoch == w) are ordered by request_id: a writer records in program
  // order, so its tickets grow with its ids.
  const std::vector<obs::RequestRecord> snap = rec.Snapshot();
  ASSERT_EQ(snap.size(), rec.capacity());
  std::vector<int64_t> last_id(kWriters, -1);
  for (const obs::RequestRecord& r : snap) {
    EXPECT_DOUBLE_EQ(r.total_seconds, static_cast<double>(r.request_id));
    ASSERT_EQ(r.epoch, r.request_id % kWriters);
    int64_t& last = last_id[r.epoch];
    EXPECT_LT(last, static_cast<int64_t>(r.request_id)) << "writer " << r.epoch;
    last = static_cast<int64_t>(r.request_id);
  }
}

// ------------------------------------------------------------------------
// Lifecycle records on the serving read path.
// ------------------------------------------------------------------------

class ServingObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = CityDataset(200, 99);
    cluster_ = MakeCluster();
    config_ = SmallConfig();
    config_.serving.synchronous_merge = true;
    config_.serving.answer_cache_entries = 16;
    config_.serving.flight_recorder_entries = 64;
  }

  Dataset ds_;
  std::shared_ptr<Cluster> cluster_;
  DitaConfig config_;
};

TEST_F(ServingObsTest, PhaseBreakdownTelescopesToTotalOnEveryPath) {
  DitaService service(cluster_, config_);
  ASSERT_TRUE(service.Start(ds_).ok());

  // Unmerged inserts so queries exercise a real delta phase.
  ASSERT_TRUE(service.Insert(WithId(ds_[5], 20001)).ok());
  ASSERT_TRUE(service.Insert(WithId(ds_[6], 20002)).ok());

  QueryRequest search;
  search.kind = QueryKind::kSearch;
  search.query = ds_[5];
  search.tau = 0.05;
  auto r1 = service.Execute(search);
  ASSERT_TRUE(r1.ok());
  const obs::RequestRecord rec1 = (*r1).serving.lifecycle;
  ExpectTelescopes(rec1);
  EXPECT_EQ(rec1.kind, static_cast<uint8_t>(QueryKind::kSearch));
  EXPECT_EQ(rec1.results, (*r1).ids.size());
  EXPECT_FALSE(rec1.cache_hit());
  EXPECT_FALSE(rec1.shed());
  EXPECT_EQ(rec1.status_code, static_cast<uint8_t>(Status::Code::kOk));
  EXPECT_EQ(rec1.version, service.version());

  // Same request again: answer-cache hit, still a full telescoping record.
  auto r2 = service.Execute(search);
  ASSERT_TRUE(r2.ok());
  const obs::RequestRecord rec2 = (*r2).serving.lifecycle;
  ExpectTelescopes(rec2);
  EXPECT_TRUE(rec2.cache_hit());
  EXPECT_GT(rec2.request_id, rec1.request_id);
  EXPECT_EQ(rec2.results, rec1.results);
  // A hit never reaches the scheduler, the pin, or the engine.
  EXPECT_DOUBLE_EQ(rec2.admission_seconds, 0.0);
  EXPECT_DOUBLE_EQ(rec2.pin_seconds, 0.0);
  EXPECT_DOUBLE_EQ(rec2.base_seconds, 0.0);
  EXPECT_DOUBLE_EQ(rec2.delta_seconds, 0.0);

  QueryRequest knn;
  knn.kind = QueryKind::kKnnSearch;
  knn.query = ds_[7];
  knn.k = 5;
  auto r3 = service.Execute(knn);
  ASSERT_TRUE(r3.ok());
  ExpectTelescopes((*r3).serving.lifecycle);
  EXPECT_EQ((*r3).serving.lifecycle.kind,
            static_cast<uint8_t>(QueryKind::kKnnSearch));
  EXPECT_EQ((*r3).serving.lifecycle.results, (*r3).neighbors.size());

  QueryRequest join;
  join.kind = QueryKind::kJoin;
  join.tau = 0.02;
  auto r4 = service.Execute(join);
  ASSERT_TRUE(r4.ok());
  ExpectTelescopes((*r4).serving.lifecycle);
  EXPECT_EQ((*r4).serving.lifecycle.kind,
            static_cast<uint8_t>(QueryKind::kJoin));
  EXPECT_EQ((*r4).serving.lifecycle.results, (*r4).pairs.size());

  // Every one of those completions is also in the flight recorder, with the
  // same telescoping guarantee.
  const auto flight = service.flight_recorder().Snapshot();
  ASSERT_GE(flight.size(), 4u);
  for (const obs::RequestRecord& rec : flight) ExpectTelescopes(rec);
}

TEST_F(ServingObsTest, SubmittedQueriesCarryAsyncFlagAndQueuePhase) {
  config_.serving.scheduler_threads = 2;
  DitaService service(cluster_, config_);
  ASSERT_TRUE(service.Start(ds_).ok());

  QueryRequest req;
  req.kind = QueryKind::kSearch;
  req.query = ds_[11];
  req.tau = 0.05;
  auto fut = service.Submit(req);
  auto res = fut.get();
  ASSERT_TRUE(res.ok());
  const obs::RequestRecord rec = (*res).serving.lifecycle;
  ExpectTelescopes(rec);
  EXPECT_NE(rec.flags & obs::RequestRecord::kAsync, 0);
  // The synchronous path, by contrast, has no async flag.
  auto sync = service.Execute(req);
  ASSERT_TRUE(sync.ok());
  EXPECT_EQ((*sync).serving.lifecycle.flags & obs::RequestRecord::kAsync, 0);
}

TEST_F(ServingObsTest, ShedRequestsAreRecordedWithCauseAndCounted) {
  // One slot, one queue seat: while a join holds the slot and a search
  // waits, the next arrival is shed with Unavailable — and must still leave
  // a complete lifecycle record behind.
  config_.serving.scheduler_slots = 1;
  config_.serving.max_inflight_queries = 1;
  config_.serving.max_queued_queries = 1;
  DitaService service(cluster_, config_);
  ASSERT_TRUE(service.Start(ds_).ok());

  QueryRequest join;
  join.kind = QueryKind::kJoin;
  join.tau = 0.05;
  std::thread join_thread([&] {
    const auto r = service.Execute(join);
    EXPECT_TRUE(r.ok());
  });
  // Wait until the join has been granted its slot. admitted() is
  // monotonic, so a join that already finished cannot hang this loop the
  // way polling active() could.
  while (service.scheduler().admitted() < 1) std::this_thread::yield();

  QueryRequest search;
  search.kind = QueryKind::kSearch;
  search.query = ds_[3];
  search.tau = 0.05;
  std::thread queued_thread([&] { (void)service.Execute(search); });
  while (service.scheduler().queued() < 1 &&
         service.scheduler().active() >= 1) {
    std::this_thread::yield();
  }

  // The queue seat may free up the instant the join finishes, so retry
  // until an Execute observes the full queue and sheds.
  Status shed_status = Status::OK();
  for (int attempt = 0; attempt < 1000; ++attempt) {
    const auto r = service.Execute(search);
    if (!r.ok() && r.status().code() == Status::Code::kUnavailable) {
      shed_status = r.status();
      break;
    }
    if (service.scheduler().active() == 0 &&
        service.scheduler().queued() == 0) {
      break;  // contention window closed without a shed; stats check below
    }
  }
  join_thread.join();
  queued_thread.join();

  if (shed_status.code() == Status::Code::kUnavailable) {
    const DitaService::ServiceStats stats = service.Stats();
    EXPECT_GE(stats.shed, 1u);
    EXPECT_GE(service.scheduler().shed(), 1u);
    bool found = false;
    for (const obs::RequestRecord& rec : service.flight_recorder().Snapshot()) {
      if (!rec.shed()) continue;
      found = true;
      EXPECT_EQ(rec.status_code,
                static_cast<uint8_t>(Status::Code::kUnavailable));
      EXPECT_EQ(rec.results, 0u);
      ExpectTelescopes(rec);
    }
    EXPECT_TRUE(found) << "shed request missing from the flight recorder";
  }
}

TEST_F(ServingObsTest, StatsExplainAndDumpExposeTheRollup) {
  DitaService service(cluster_, config_);
  ASSERT_TRUE(service.Start(ds_).ok());

  QueryRequest search;
  search.kind = QueryKind::kSearch;
  search.query = ds_[2];
  search.tau = 0.05;
  ASSERT_TRUE(service.Execute(search).ok());
  ASSERT_TRUE(service.Execute(search).ok());  // cache hit
  QueryRequest knn;
  knn.kind = QueryKind::kKnnSearch;
  knn.query = ds_[4];
  knn.k = 3;
  ASSERT_TRUE(service.Execute(knn).ok());
  ASSERT_TRUE(service.Insert(WithId(ds_[8], 30001)).ok());
  ASSERT_TRUE(service.ForceMerge().ok());

  const DitaService::ServiceStats stats = service.Stats();
  EXPECT_GT(stats.uptime_seconds, 0.0);
  EXPECT_EQ(stats.queries_search, 2u);
  EXPECT_EQ(stats.queries_knn, 1u);
  EXPECT_EQ(stats.queries_join, 0u);
  EXPECT_EQ(stats.queries, 3u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.merges, 1u);
  EXPECT_GE(stats.merge_busy_seconds, 0.0);
  EXPECT_EQ(stats.recorded, 3u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.latency_search.count, 2u);
  EXPECT_EQ(stats.latency_knn.count, 1u);
  // Latency histograms share one bucketing shape, so kinds merge.
  obs::Histogram::Snapshot all = stats.latency_search;
  ASSERT_TRUE(all.MergeFrom(stats.latency_knn));
  ASSERT_TRUE(all.MergeFrom(stats.latency_join));
  EXPECT_EQ(all.count, 3u);

  const std::string explain = service.ExplainService();
  EXPECT_NE(explain.find("p99"), std::string::npos);
  EXPECT_NE(explain.find("search"), std::string::npos);
  EXPECT_NE(explain.find("shed"), std::string::npos);

  const std::string json = service.DumpFlightRecorder();
  for (const char* key :
       {"\"service\"", "\"requests\"", "\"uptime_seconds\"", "\"latency\"",
        "\"p999\"", "\"kind\"", "\"search\"", "\"stop_cause\"",
        "\"merge_overlap_seconds\"", "\"total_seconds\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  // Crude structural check: braces balance.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

}  // namespace
}  // namespace dita
