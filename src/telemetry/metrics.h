// MetricsRegistry — named counters, gauges, and fixed-bucket histograms.
//
// Designed for the executor's hot path: once an instrument is looked up
// (registration takes a mutex), updates are plain atomic operations with no
// locking, so worker threads can increment counters and observe histogram
// samples concurrently. Snapshot() renders the whole registry as Json for
// export; instrument names are emitted in lexicographic order so snapshots
// of identical runs are byte-identical.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.h"

namespace hypertune {

/// Monotonically increasing integer metric (events, jobs, errors, ...).
class Counter {
 public:
  void Increment(std::int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-write-wins floating-point level (queue depth, utilization, ...).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// Fixed-bucket histogram: bucket i counts samples <= bounds[i]; one
/// overflow bucket counts the rest. Bounds are immutable after creation, so
/// Observe() is lock-free (bucket search + two atomic adds).
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double value);

  std::int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& bounds() const { return bounds_; }
  /// Count in bucket i (i == bounds().size() is the overflow bucket).
  std::int64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::int64_t>> buckets_;
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0};
};

/// Exponential bucket bounds base^0..base^(n-1) scaled by `scale` — the
/// usual shape for latency histograms.
std::vector<double> ExponentialBuckets(double scale, double base,
                                       std::size_t count);

class MetricsRegistry {
 public:
  /// Finds or creates the named instrument. References stay valid for the
  /// registry's lifetime (instruments are never removed), so hot paths
  /// should look up once and cache the pointer.
  Counter& counter(const std::string& name);
  /// The named counter's value, or 0 when no such counter exists. Unlike
  /// counter(), never registers: read-only observers (tests, ops surfaces)
  /// leave the snapshot as they found it.
  std::int64_t CounterValue(const std::string& name) const;
  Gauge& gauge(const std::string& name);
  /// `upper_bounds` is used on first creation only; later calls with the
  /// same name return the existing histogram regardless of bounds.
  Histogram& histogram(const std::string& name,
                       std::vector<double> upper_bounds);

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}} with names
  /// sorted lexicographically.
  Json Snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace hypertune
