#ifndef DITA_OBS_LIFECYCLE_H_
#define DITA_OBS_LIFECYCLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace dita::obs {

/// Per-request lifecycle record: the serving plane's unit of traceability.
///
/// Phase durations are defined as differences of *consecutive* boundary
/// timestamps taken on one steady clock, so by construction
///   queue + admission + cache + pin + base + delta + finalize
/// telescopes to total_seconds exactly (up to floating-point rounding) —
/// there is no unaccounted time and no double counting. The phases:
///
///   queue      Submit enqueue -> executor pickup (0 for synchronous
///              Execute).
///   admission  scheduler/gate Acquire: queue-wait for slots, including
///              the wait before a shed.
///   cache      answer-cache key derivation + lookup (and store).
///   pin        snapshot pin: epoch/version resolution.
///   base       filter+verify over the immutable base index (the
///              trie/verify funnel, or join terms over the base).
///   delta      unmerged-insert scan + deleted filtering.
///   finalize   sort/dedup, stats, explain, cache store.
///
/// merge_overlap_seconds is informational — how much of the request's run
/// overlapped background epoch-merge activity — and deliberately NOT part
/// of the telescoping sum.
///
/// Kept as a flat POD of integral words + doubles so the flight recorder
/// can serialize it into a fixed array of atomic words (see below). Enum
/// fields are stored widened (QueryKind, QueryContext::StopCause,
/// StatusCode) to keep this header dependency-free below obs.
struct RequestRecord {
  // Flags bits.
  static constexpr uint8_t kCacheHit = 1 << 0;
  static constexpr uint8_t kDegraded = 1 << 2;   // partial under budget/stop
  static constexpr uint8_t kShed = 1 << 3;       // rejected at admission
  static constexpr uint8_t kAsync = 1 << 4;      // arrived via Submit

  uint64_t request_id = 0;
  uint8_t kind = 0;         // QueryKind
  uint8_t stop_cause = 0;   // QueryContext::StopCause
  uint8_t status_code = 0;  // StatusCode
  uint8_t flags = 0;
  uint32_t results = 0;  // ids / pairs / neighbors produced
  uint64_t epoch = 0;
  uint64_t version = 0;

  double arrival_seconds = 0.0;  // service-relative steady clock
  double queue_seconds = 0.0;
  double admission_seconds = 0.0;
  double cache_seconds = 0.0;
  double pin_seconds = 0.0;
  double base_seconds = 0.0;
  double delta_seconds = 0.0;
  double finalize_seconds = 0.0;
  double total_seconds = 0.0;
  double merge_overlap_seconds = 0.0;

  bool cache_hit() const { return (flags & kCacheHit) != 0; }
  bool degraded() const { return (flags & kDegraded) != 0; }
  bool shed() const { return (flags & kShed) != 0; }

  /// Sum of the telescoping phases; equals total_seconds up to rounding.
  double PhaseSum() const {
    return queue_seconds + admission_seconds + cache_seconds + pin_seconds +
           base_seconds + delta_seconds + finalize_seconds;
  }
};

/// Always-on flight recorder: a fixed-size lock-free ring of the last N
/// RequestRecords, cheap enough to leave enabled in production so the
/// moments *before* an incident are always on hand.
///
/// Writers claim a ticket with one fetch_add and publish through a per-slot
/// seqlock: seq = 2t+1 while writing ticket t, 2t+2 once published. The
/// record payload is stored as relaxed atomic words, so concurrent
/// writer/reader overlap is well-defined (no data race, TSan-clean) and the
/// seq check filters mixed-generation slots out of snapshots. A writer
/// claims its slot with a CAS on seq: a record whose slot already holds a
/// newer ticket is dropped (it has left the ring's window anyway), and one
/// whose slot is still being written by an older ticket waits for that
/// write to finish, so a preempted writer can never overwrite a newer
/// record. Record() never allocates.
class FlightRecorder {
 public:
  /// `capacity` is rounded up to a power of two; 0 disables recording.
  explicit FlightRecorder(size_t capacity);

  bool enabled() const { return capacity_ != 0; }
  size_t capacity() const { return capacity_; }

  /// Total records ever written (>= capacity means the ring has wrapped).
  uint64_t total_recorded() const {
    return head_.load(std::memory_order_relaxed);
  }

  void Record(const RequestRecord& r);

  /// Consistent copies of the most recent records, oldest first. Slots
  /// mid-overwrite are skipped, so under heavy concurrent writing the
  /// result may have slightly fewer than capacity() entries.
  std::vector<RequestRecord> Snapshot() const;

 private:
  // 4 integral words + 10 doubles.
  static constexpr size_t kWords = 14;
  struct alignas(64) Slot {
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> words[kWords];
  };

  size_t capacity_ = 0;
  size_t mask_ = 0;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> head_{0};
};

}  // namespace dita::obs

#endif  // DITA_OBS_LIFECYCLE_H_
