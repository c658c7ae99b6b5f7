#include "telemetry/metrics.h"

#include <algorithm>

#include "common/check.h"

namespace hypertune {

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1) {
  HT_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
               "histogram bucket bounds must be sorted ascending");
}

void Histogram::Observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double sum = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(sum, sum + value,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<double> ExponentialBuckets(double scale, double base,
                                       std::size_t count) {
  HT_CHECK(scale > 0 && base > 1 && count > 0);
  std::vector<double> bounds;
  bounds.reserve(count);
  double bound = scale;
  for (std::size_t i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= base;
  }
  return bounds;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

std::int64_t MetricsRegistry::CounterValue(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(upper_bounds));
  return *slot;
}

Json MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Json counters = JsonObject{};
  for (const auto& [name, counter] : counters_) {
    counters.Set(name, Json(counter->value()));
  }
  Json gauges = JsonObject{};
  for (const auto& [name, gauge] : gauges_) {
    gauges.Set(name, Json(gauge->value()));
  }
  Json histograms = JsonObject{};
  for (const auto& [name, histogram] : histograms_) {
    Json entry = JsonObject{};
    entry.Set("count", Json(histogram->count()));
    entry.Set("sum", Json(histogram->sum()));
    Json bounds = JsonArray{};
    for (double bound : histogram->bounds()) bounds.PushBack(Json(bound));
    entry.Set("bounds", std::move(bounds));
    Json buckets = JsonArray{};
    for (std::size_t i = 0; i <= histogram->bounds().size(); ++i) {
      buckets.PushBack(Json(histogram->bucket(i)));
    }
    entry.Set("buckets", std::move(buckets));
    histograms.Set(name, std::move(entry));
  }
  Json snapshot = JsonObject{};
  snapshot.Set("counters", std::move(counters));
  snapshot.Set("gauges", std::move(gauges));
  snapshot.Set("histograms", std::move(histograms));
  return snapshot;
}

}  // namespace hypertune
