#include "sim/event_queue.h"

#include <bit>
#include <cstdlib>
#include <limits>

namespace hypertune {

namespace {

std::size_t NextPow2(std::size_t n) {
  if (n < 2) return 2;
  return std::size_t{1} << std::bit_width(n - 1);
}

}  // namespace

CalendarEventQueue::CalendarEventQueue(CalendarQueueOptions options) {
  Reset(options);
}

void CalendarEventQueue::Reset(CalendarQueueOptions options) {
  std::size_t buckets = NextPow2(2 * options.expected_events);
  if (buckets < 16) buckets = 16;
  if (buckets > (std::size_t{1} << 16)) buckets = std::size_t{1} << 16;
  // Shrinking keeps the larger calendar: each bucket vector retains its
  // capacity, which is the whole point of reuse, and extra buckets only
  // spread events thinner.
  if (buckets > buckets_.size()) buckets_.resize(buckets);
  for (auto& bucket : buckets_) bucket.clear();
  mask_ = buckets_.size() - 1;
  width_ = 1.0;
  cur_day_ = 0;
  floor_ = 0;
  size_ = 0;
  adapt_threshold_ = 64;
  pushes_ = 0;
  misses_ = 0;
  direct_searches_ = 0;
  cache_valid_ = false;
}

void CalendarEventQueue::FailBelowFloor(double end) const {
  HT_CHECK_MSG(end >= floor_, "event time " << end
                                            << " precedes simulation time "
                                            << floor_);
  std::abort();  // unreachable: the check above always throws
}

void CalendarEventQueue::AdaptWidth() {
  adapt_threshold_ = 2 * size_;
  misses_ = 0;
  if (size_ < 2) return;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const auto& bucket : buckets_) {
    for (const auto& event : bucket) {
      lo = event.end < lo ? event.end : lo;
      hi = event.end > hi ? event.end : hi;
    }
  }
  const double width = (hi - lo) / static_cast<double>(size_);
  if (!(width > 1e-12)) return;  // degenerate spread: keep the current width
  // Rehash every event under the new width.
  std::vector<SimEvent> events;
  events.reserve(size_);
  for (auto& bucket : buckets_) {
    events.insert(events.end(), bucket.begin(), bucket.end());
    bucket.clear();
  }
  width_ = width;
  cur_day_ = DayOf(floor_);
  for (const auto& event : events) {
    buckets_[DayOf(event.end) & mask_].push_back(event);
  }
  cache_valid_ = false;
}

void CalendarEventQueue::DirectSearch() const {
  ++misses_;
  ++direct_searches_;
  const SimEvent* best = nullptr;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    for (std::size_t i = 0; i < buckets_[b].size(); ++i) {
      const SimEvent& event = buckets_[b][i];
      if (best == nullptr || EventBefore(event, *best)) {
        best = &event;
        cache_bucket_ = b;
        cache_pos_ = i;
      }
    }
  }
  HT_CHECK(best != nullptr);
  cache_valid_ = true;
}

void CalendarEventQueue::Locate() const {
  HT_CHECK(size_ > 0);
  // Step the day cursor forward looking for a due event. Unlike the
  // classic calendar-queue walk (direct search only after a full calendar
  // wrap), an idle gap triggers the direct jump after a couple of empty
  // days — the skip-ahead.
  constexpr std::size_t kMaxEmptyDays = 2;
  std::uint64_t day = cur_day_;
  for (std::size_t scanned = 0; scanned < kMaxEmptyDays; ++scanned, ++day) {
    const auto& bucket = buckets_[day & mask_];
    bool found = false;
    std::size_t best = 0;
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      if (DayOf(bucket[i].end) != day) continue;
      if (!found || EventBefore(bucket[i], bucket[best])) {
        best = i;
        found = true;
      }
    }
    if (found) {
      cache_bucket_ = day & mask_;
      cache_pos_ = best;
      cache_valid_ = true;
      return;
    }
  }
  DirectSearch();
}

IdleWorkerSet::IdleWorkerSet(int n) { Reset(n); }

void IdleWorkerSet::Reset(int n) {
  HT_CHECK(n > 0);
  const std::size_t workers = static_cast<std::size_t>(n);
  words_.assign((workers + 63) / 64, ~std::uint64_t{0});
  // Clear the bits past n-1 in the last word.
  const std::size_t tail = workers % 64;
  if (tail != 0) words_.back() = (std::uint64_t{1} << tail) - 1;
  summary_.assign((words_.size() + 63) / 64, 0);
  for (std::size_t w = 0; w < words_.size(); ++w) {
    summary_[w / 64] |= std::uint64_t{1} << (w % 64);
  }
  count_ = workers;
}

}  // namespace hypertune
