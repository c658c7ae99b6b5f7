// Index-based event queues for the simulation engine.
//
// The driver used to keep whole ActiveJob payloads (a Job, Configuration
// included) inside a std::priority_queue, so every heap sift moved fat,
// heap-allocating objects. The engine now keeps payloads in a slab indexed
// by worker slot and orders only 20-byte {end, seq, slot} events. Two
// implementations share one ordering contract:
//
//   * BinaryEventHeap — a plain array binary min-heap; the safe default.
//   * CalendarEventQueue — Brown's calendar queue: events hash into
//     bucketed "days" by end time, so push and pop are O(1) when event
//     times are spread evenly (the zero-cost-benchmark regime). After two
//     empty days it skips ahead, jumping the day cursor directly to the
//     next event instead of stepping day by day across an idle gap. The
//     day width is re-tuned from the pending events' spread on the first
//     64 pushes, when the live count doubles, and when skip-ahead keeps
//     firing (the width went stale, e.g. once successive halving starts
//     promoting jobs 4-256x longer than the rung-0 jobs it was tuned on).
//
// Both pop in exactly ascending (end, seq) order — `seq` is the driver's
// FIFO tie-break for same-tick completions — and a property test
// (tests/sim_engine_test.cc) holds them to identical pop sequences on
// randomized event mixes. Precondition shared with the simulator: time is
// monotone, i.e. every pushed event's `end` is >= the last popped `end`.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace hypertune {

/// One scheduled completion: when (`end`), FIFO rank (`seq`), and which
/// slab slot holds the job payload (the executing worker's index).
struct SimEvent {
  double end = 0;
  std::uint64_t seq = 0;
  std::uint32_t slot = 0;
};

/// The total order both queues pop in: by end time, FIFO within a tick.
inline bool EventBefore(const SimEvent& a, const SimEvent& b) {
  if (a.end != b.end) return a.end < b.end;
  return a.seq < b.seq;
}

class BinaryEventHeap {
 public:
  void Reserve(std::size_t n) { events_.reserve(n); }

  /// Empties the heap keeping its capacity — sweep contexts reuse one heap
  /// across thousands of runs instead of reallocating per run.
  void Clear() { events_.clear(); }

  // Push/PopTop are defined inline: they run once per simulated job and a
  // cross-TU call costs as much as the sift itself at small queue sizes.
  void Push(const SimEvent& event) {
    events_.push_back(event);
    std::size_t i = events_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!EventBefore(events_[i], events_[parent])) break;
      std::swap(events_[i], events_[parent]);
      i = parent;
    }
  }

  /// Smallest (end, seq) event; queue must be non-empty.
  const SimEvent& Top() const {
    HT_CHECK(!events_.empty());
    return events_.front();
  }

  void PopTop() {
    HT_CHECK(!events_.empty());
    events_.front() = events_.back();
    events_.pop_back();
    const std::size_t n = events_.size();
    std::size_t i = 0;
    while (true) {
      const std::size_t left = 2 * i + 1;
      if (left >= n) break;
      const std::size_t right = left + 1;
      const std::size_t smallest =
          (right < n && EventBefore(events_[right], events_[left])) ? right
                                                                    : left;
      if (!EventBefore(events_[smallest], events_[i])) break;
      std::swap(events_[i], events_[smallest]);
      i = smallest;
    }
  }

  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

 private:
  std::vector<SimEvent> events_;  // implicit binary min-heap
};

struct CalendarQueueOptions {
  /// Expected concurrent event count (the driver passes its worker count);
  /// the bucket count is sized to ~2x this, rounded up to a power of two.
  std::size_t expected_events = 64;
};

class CalendarEventQueue {
 public:
  explicit CalendarEventQueue(CalendarQueueOptions options = {});

  /// Reinitializes for a fresh run (time restarts at 0), reusing the bucket
  /// storage whenever the requested sizing keeps the same bucket count.
  void Reset(CalendarQueueOptions options);

  // Push/Top/PopTop are inline for the same reason as BinaryEventHeap's;
  // the searches they lean on (Locate/DirectSearch/AdaptWidth) stay
  // out of line.
  void Push(const SimEvent& event) {
    if (!(event.end >= floor_)) [[unlikely]] FailBelowFloor(event.end);
    if (size_ >= adapt_threshold_ || ++pushes_ == 64 ||
        (misses_ >= kMinMissesToRetune && 4 * misses_ >= size_))
        [[unlikely]] {
      AdaptWidth();
    }
    const std::size_t bucket = DayOf(event.end) & mask_;
    buckets_[bucket].push_back(event);
    ++size_;
    if (cache_valid_ &&
        EventBefore(event, buckets_[cache_bucket_][cache_pos_])) {
      cache_bucket_ = bucket;
      cache_pos_ = buckets_[bucket].size() - 1;
    }
  }

  /// Smallest (end, seq) event; queue must be non-empty. The located
  /// position is cached, so a Top/PopTop pair costs one search.
  const SimEvent& Top() const {
    if (!cache_valid_) Locate();
    return buckets_[cache_bucket_][cache_pos_];
  }

  void PopTop() {
    if (!cache_valid_) Locate();
    auto& bucket = buckets_[cache_bucket_];
    const SimEvent top = bucket[cache_pos_];
    cur_day_ = DayOf(top.end);
    floor_ = top.end;
    bucket[cache_pos_] = bucket.back();
    bucket.pop_back();
    --size_;
    cache_valid_ = false;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Top lookups (at most one per pop) that fell through to the
  /// O(buckets + events) direct search since the last Reset.
  std::size_t direct_searches() const { return direct_searches_; }

 private:
  // Skip-ahead re-tunes the width once this many direct searches have
  // piled up since the last tune and they number >= size/4. Each re-tune
  // costs O(size + buckets), no more than the direct searches that
  // triggered it, so the trigger never more than doubles their cost.
  static constexpr std::size_t kMinMissesToRetune = 16;

  std::uint64_t DayOf(double end) const {
    const double day = end / width_;
    // Events beyond the representable day range all land on the last day;
    // ordering stays correct (the in-day scan compares (end, seq)
    // exactly), only bucket balance suffers.
    if (day >= 9.0e18) return std::uint64_t{9000000000000000000ull};
    return static_cast<std::uint64_t>(day);
  }

  [[noreturn]] void FailBelowFloor(double end) const;  // cold path
  void Locate() const;        // fills the top cache
  void DirectSearch() const;  // global min scan (the skip-ahead jump)
  void AdaptWidth();          // width re-tuning (see Push for triggers)

  std::vector<std::vector<SimEvent>> buckets_;
  std::size_t mask_ = 0;       // buckets_.size() - 1 (power of two)
  double width_ = 1.0;         // virtual-time span of one day
  std::uint64_t cur_day_ = 0;  // day of the last popped event
  double floor_ = 0;           // last popped end (monotone-time guard)
  std::size_t size_ = 0;
  // Re-tune the width when the live event count doubles past this (a
  // 64-event sample is enough for the first estimate; each re-tune costs
  // O(size), so doubling thresholds keep it amortized O(1) per push).
  std::size_t adapt_threshold_ = 64;
  std::size_t pushes_ = 0;  // trigger for the first (64-push-sample) tune
  mutable std::size_t misses_ = 0;  // direct searches since the last tune
  mutable std::size_t direct_searches_ = 0;  // since Reset

  // Top cache: position of the minimum event, valid until the next PopTop
  // (pushes keep it correct — they only append, and a new minimum simply
  // replaces the cached position).
  mutable bool cache_valid_ = false;
  mutable std::size_t cache_bucket_ = 0;
  mutable std::size_t cache_pos_ = 0;
};

/// The idle-worker pool: a two-level bitmap with O(1) lowest-free-index pop,
/// replacing the std::set<int> (one node allocation per insert) while
/// preserving the deterministic lowest-index-first assignment order.
class IdleWorkerSet {
 public:
  /// All of 0..n-1 start idle.
  explicit IdleWorkerSet(int n);

  /// Re-marks all of 0..n-1 idle, reusing the bitmap storage when `n` does
  /// not outgrow it.
  void Reset(int n);

  // Inline like the event queues: one Insert/PopLowest pair per job.
  void Insert(int worker) {
    const auto w = static_cast<std::size_t>(worker);
    words_[w / 64] |= std::uint64_t{1} << (w % 64);
    summary_[(w / 64) / 64] |= std::uint64_t{1} << ((w / 64) % 64);
    ++count_;
  }

  /// Removes and returns the lowest idle index; set must be non-empty.
  int PopLowest() {
    HT_CHECK(count_ > 0);
    std::size_t group = 0;
    while (summary_[group] == 0) ++group;
    const std::size_t word =
        group * 64 +
        static_cast<std::size_t>(std::countr_zero(summary_[group]));
    const auto bit = static_cast<std::size_t>(std::countr_zero(words_[word]));
    words_[word] &= words_[word] - 1;  // clear lowest set bit
    if (words_[word] == 0) {
      summary_[group] &= ~(std::uint64_t{1} << (word % 64));
    }
    --count_;
    return static_cast<int>(word * 64 + bit);
  }

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

 private:
  std::vector<std::uint64_t> words_;    // bit per worker
  std::vector<std::uint64_t> summary_;  // bit per non-empty word
  std::size_t count_ = 0;
};

}  // namespace hypertune
