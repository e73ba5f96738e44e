#include "obs/lifecycle.h"

#include <bit>
#include <thread>

namespace dita::obs {

namespace {

void Encode(const RequestRecord& r, uint64_t out[]) {
  out[0] = r.request_id;
  out[1] = static_cast<uint64_t>(r.kind) |
           (static_cast<uint64_t>(r.stop_cause) << 8) |
           (static_cast<uint64_t>(r.status_code) << 16) |
           (static_cast<uint64_t>(r.flags) << 24) |
           (static_cast<uint64_t>(r.results) << 32);
  out[2] = r.epoch;
  out[3] = r.version;
  const double d[10] = {r.arrival_seconds,  r.queue_seconds,
                        r.admission_seconds, r.cache_seconds,
                        r.pin_seconds,       r.base_seconds,
                        r.delta_seconds,     r.finalize_seconds,
                        r.total_seconds,     r.merge_overlap_seconds};
  for (size_t i = 0; i < 10; ++i) out[4 + i] = std::bit_cast<uint64_t>(d[i]);
}

RequestRecord Decode(const uint64_t in[]) {
  RequestRecord r;
  r.request_id = in[0];
  r.kind = static_cast<uint8_t>(in[1]);
  r.stop_cause = static_cast<uint8_t>(in[1] >> 8);
  r.status_code = static_cast<uint8_t>(in[1] >> 16);
  r.flags = static_cast<uint8_t>(in[1] >> 24);
  r.results = static_cast<uint32_t>(in[1] >> 32);
  r.epoch = in[2];
  r.version = in[3];
  double d[10];
  for (size_t i = 0; i < 10; ++i) d[i] = std::bit_cast<double>(in[4 + i]);
  r.arrival_seconds = d[0];
  r.queue_seconds = d[1];
  r.admission_seconds = d[2];
  r.cache_seconds = d[3];
  r.pin_seconds = d[4];
  r.base_seconds = d[5];
  r.delta_seconds = d[6];
  r.finalize_seconds = d[7];
  r.total_seconds = d[8];
  r.merge_overlap_seconds = d[9];
  return r;
}

}  // namespace

FlightRecorder::FlightRecorder(size_t capacity) {
  if (capacity == 0) return;
  capacity_ = std::bit_ceil(capacity);
  mask_ = capacity_ - 1;
  slots_ = std::make_unique<Slot[]>(capacity_);
}

void FlightRecorder::Record(const RequestRecord& r) {
  if (!enabled()) return;
  const uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[ticket & mask_];
  uint64_t words[kWords];
  Encode(r, words);
  // Claim the slot (odd marks it torn). Tickets ticket - k * capacity()
  // map here too: a newer one already owning it makes this record stale;
  // an older one mid-write is waited out rather than interleaved with.
  uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  while (true) {
    if (seq > 2 * ticket) return;
    if (seq % 2 == 1) {
      std::this_thread::yield();
      seq = slot.seq.load(std::memory_order_relaxed);
    } else if (slot.seq.compare_exchange_weak(seq, 2 * ticket + 1,
                                              std::memory_order_acquire,
                                              std::memory_order_relaxed)) {
      // Acquire pairs with the previous owner's release publish, so its
      // payload stores precede ours in every word's modification order.
      break;
    }
  }
  // Seqlock write: the release fence orders the odd mark before the payload
  // stores, the release publish orders the payload before the even mark
  // (Boehm's seqlock-with-atomics recipe).
  std::atomic_thread_fence(std::memory_order_release);
  for (size_t i = 0; i < kWords; ++i) {
    slot.words[i].store(words[i], std::memory_order_relaxed);
  }
  slot.seq.store(2 * ticket + 2, std::memory_order_release);
}

std::vector<RequestRecord> FlightRecorder::Snapshot() const {
  std::vector<RequestRecord> out;
  if (!enabled()) return out;
  const uint64_t head = head_.load(std::memory_order_acquire);
  const uint64_t n = head < capacity_ ? head : capacity_;
  out.reserve(static_cast<size_t>(n));
  for (uint64_t t = head - n; t < head; ++t) {
    const Slot& slot = slots_[t & mask_];
    const uint64_t seq_before = slot.seq.load(std::memory_order_acquire);
    if (seq_before != 2 * t + 2) continue;  // mid-write or already lapped
    uint64_t words[kWords];
    for (size_t i = 0; i < kWords; ++i) {
      words[i] = slot.words[i].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != seq_before) continue;
    out.push_back(Decode(words));
  }
  return out;
}

}  // namespace dita::obs
