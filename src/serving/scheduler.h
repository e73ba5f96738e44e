#ifndef DITA_SERVING_SCHEDULER_H_
#define DITA_SERVING_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>

#include "util/query_context.h"
#include "util/status.h"

namespace dita {

/// Fair-share slot scheduler: DitaService's one admission point. The
/// cluster's worker slots form a pool, and every query holds a number of
/// slots proportional to its estimated cost (capped by its priority class's
/// share) for as long as it runs. At most `max_inflight` queries run at
/// once; up to `max_queued` more wait in FIFO order, and everything beyond
/// that is shed with Status::Unavailable, so overload degrades into fast
/// rejections instead of an unbounded pile-up. A queued query whose
/// QueryContext stops (cancel or wall deadline) leaves the queue with the
/// context's status.
///
/// A smaller query may bypass a larger one blocked at the head of the queue
/// when its slots fit the free pool, at most `max_bypass` times per waiter,
/// after which the waiter's turn becomes mandatory. A giant join therefore
/// occupies most of the pool by itself while cheap point searches keep
/// flowing past it, and neither side starves.
///
/// Priority shapes the share, not the order: a priority-p query may hold at
/// most slots >> min(p, 6) slots (priority 0 can take the whole pool), so
/// lower-priority work always leaves headroom for latency-sensitive
/// traffic.
class QueryScheduler {
 public:
  struct Options {
    /// Total worker slots shared by all running queries. Typically
    /// Cluster::num_workers().
    size_t slots = 16;
    /// Concurrent queries admitted regardless of slot math (the count
    /// bound). 0 defaults to `slots`.
    size_t max_inflight = 0;
    /// Queries allowed to wait; beyond this the scheduler sheds with
    /// Status::Unavailable.
    size_t max_queued = 64;
    /// How often one waiter may be bypassed by smaller queries.
    size_t max_bypass = 16;
  };

  /// RAII slot grant: holds `slots()` slots until destroyed or released.
  /// Move-only; a default-constructed grant holds nothing, so slots are
  /// released on every exit path by construction.
  class Grant {
   public:
    Grant() = default;
    Grant(Grant&& o) noexcept
        : sched_(std::exchange(o.sched_, nullptr)), slots_(o.slots_) {}
    Grant& operator=(Grant&& o) noexcept {
      Release();
      sched_ = std::exchange(o.sched_, nullptr);
      slots_ = o.slots_;
      return *this;
    }
    ~Grant() { Release(); }

    bool held() const { return sched_ != nullptr; }
    size_t slots() const { return slots_; }
    void Release();

   private:
    friend class QueryScheduler;
    QueryScheduler* sched_ = nullptr;
    size_t slots_ = 0;
  };

  explicit QueryScheduler(const Options& options);

  /// Blocks until this query's fair-share slot count is granted, sheds with
  /// Unavailable when the wait queue is full, or returns `ctx`'s status if
  /// it stops while queued (`ctx` may be null). `cost` is the query's
  /// estimated cost (DitaEngine::EstimateQueryCost units); `priority` >= 0,
  /// lower is more important. On OK, `*out` holds the slots.
  Status Acquire(int priority, uint64_t cost, QueryContext* ctx, Grant* out);

  /// Slots a (priority, cost) query would hold: cost clamped to
  /// [1, share(priority)] where share halves per priority level. Never more
  /// than the pool, so a query that wants it all runs alone.
  size_t SlotsFor(int priority, uint64_t cost) const;

  size_t total_slots() const { return options_.slots; }
  /// Counters for tests and dashboards.
  uint64_t admitted() const;
  uint64_t shed() const;
  /// Times a smaller query was admitted around a larger queued one.
  uint64_t bypasses() const;
  /// Queries holding a grant.
  size_t active() const;
  /// Maximum concurrent active() ever observed; never above max_inflight.
  size_t active_high_water() const;
  /// Queries waiting in the FIFO queue.
  size_t queued() const;
  uint64_t slots_in_use() const;
  /// Maximum concurrent slots_in_use() ever observed; never above slots.
  uint64_t slots_high_water() const;

 private:
  struct Waiter {
    uint64_t id = 0;
    size_t slots = 0;
    /// Times smaller queries were admitted around this waiter.
    size_t bypassed = 0;
  };

  /// True when a query wanting `slots` could start now. Caller holds mu_.
  bool FitsLocked(size_t slots) const;
  /// Admission test for waiter `pos`: it fits, and every waiter ahead of
  /// it does not fit and has bypass allowance left. Caller holds mu_.
  bool CanAdmitLocked(size_t pos) const;
  void GrantLocked(size_t slots, Grant* out);
  void ReleaseSlots(size_t slots);

  const Options options_;
  const size_t max_inflight_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  size_t active_ = 0;
  size_t active_high_water_ = 0;
  uint64_t slots_in_use_ = 0;
  uint64_t slots_high_water_ = 0;
  uint64_t admitted_ = 0;
  uint64_t shed_ = 0;
  uint64_t bypasses_ = 0;
  uint64_t next_waiter_ = 0;
  /// FIFO of waiters; a cancelled waiter removes its own entry.
  std::deque<Waiter> waiting_;
};

}  // namespace dita

#endif  // DITA_SERVING_SCHEDULER_H_
