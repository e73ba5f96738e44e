#include "serving/scheduler.h"

#include <algorithm>
#include <chrono>

#include "util/logging.h"

namespace dita {

void QueryScheduler::Grant::Release() {
  if (sched_ != nullptr) {
    sched_->ReleaseSlots(slots_);
    sched_ = nullptr;
  }
}

QueryScheduler::QueryScheduler(const Options& options)
    : options_(options),
      max_inflight_(options.max_inflight > 0 ? options.max_inflight
                                             : options.slots) {
  DITA_CHECK(options_.slots >= 1);
}

size_t QueryScheduler::SlotsFor(int priority, uint64_t cost) const {
  const int p = std::clamp(priority, 0, 6);
  const size_t share = std::max<size_t>(1, options_.slots >> p);
  return static_cast<size_t>(
      std::clamp<uint64_t>(cost, 1, static_cast<uint64_t>(share)));
}

bool QueryScheduler::FitsLocked(size_t slots) const {
  return active_ < max_inflight_ && slots_in_use_ + slots <= options_.slots;
}

bool QueryScheduler::CanAdmitLocked(size_t pos) const {
  if (!FitsLocked(waiting_[pos].slots)) return false;
  for (size_t i = 0; i < pos; ++i) {
    // Someone ahead could run right now: FIFO order wins, let them.
    if (FitsLocked(waiting_[i].slots)) return false;
    // Aging: a waiter bypassed too often blocks further jumps, so large
    // queries cannot be starved by a stream of small ones.
    if (waiting_[i].bypassed >= options_.max_bypass) return false;
  }
  return true;
}

void QueryScheduler::GrantLocked(size_t slots, Grant* out) {
  ++active_;
  slots_in_use_ += slots;
  active_high_water_ = std::max(active_high_water_, active_);
  slots_high_water_ = std::max(slots_high_water_, slots_in_use_);
  ++admitted_;
  out->sched_ = this;
  out->slots_ = slots;
}

Status QueryScheduler::Acquire(int priority, uint64_t cost, QueryContext* ctx,
                               Grant* out) {
  out->Release();
  const size_t want = SlotsFor(priority, cost);
  std::unique_lock<std::mutex> lock(mu_);
  if (waiting_.empty() && FitsLocked(want)) {
    GrantLocked(want, out);
    return Status::OK();
  }
  if (waiting_.size() >= options_.max_queued) {
    ++shed_;
    return Status::Unavailable("admission queue full");
  }
  const uint64_t my = next_waiter_++;
  waiting_.push_back(Waiter{my, want, 0});
  while (true) {
    const auto it = std::find_if(waiting_.begin(), waiting_.end(),
                                 [my](const Waiter& w) { return w.id == my; });
    // CheckPoint(0), not stopped(): it also evaluates the context's wall
    // deadline, which nothing else polls while the query is queued.
    if (ctx != nullptr && ctx->CheckPoint(0)) {
      // The caller gave up while queued; waiters behind it move up.
      waiting_.erase(it);
      cv_.notify_all();
      return ctx->ToStatus();
    }
    const size_t pos = static_cast<size_t>(it - waiting_.begin());
    if (CanAdmitLocked(pos)) {
      // Every waiter ahead was blocked on slots; this admission jumps them.
      for (size_t i = 0; i < pos; ++i) {
        ++waiting_[i].bypassed;
        ++bypasses_;
      }
      waiting_.erase(it);
      GrantLocked(want, out);
      cv_.notify_all();
      return Status::OK();
    }
    // Bounded wait so a queued query notices its context stopping even if no
    // slot ever frees (e.g. a wall-clock deadline firing mid-queue).
    cv_.wait_for(lock, std::chrono::milliseconds(1));
  }
}

void QueryScheduler::ReleaseSlots(size_t slots) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    DITA_CHECK(active_ > 0);
    DITA_CHECK(slots_in_use_ >= slots);
    --active_;
    slots_in_use_ -= slots;
  }
  cv_.notify_all();
}

uint64_t QueryScheduler::admitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return admitted_;
}

uint64_t QueryScheduler::shed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shed_;
}

uint64_t QueryScheduler::bypasses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bypasses_;
}

size_t QueryScheduler::active() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_;
}

size_t QueryScheduler::active_high_water() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_high_water_;
}

size_t QueryScheduler::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return waiting_.size();
}

uint64_t QueryScheduler::slots_in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_in_use_;
}

uint64_t QueryScheduler::slots_high_water() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_high_water_;
}

}  // namespace dita
