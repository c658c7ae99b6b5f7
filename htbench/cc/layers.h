// Delegating wrappers that time calls into a layer's public functions from
// outside the program: a Scheduler wrapper for the `core` layer and a
// JobEnvironment wrapper for the `surrogate` layer. Every call is timed
// into a running total; one call in (mask + 1) also records a span, so a
// run of millions of calls keeps a bounded span log.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "common.h"
#include "common/json.h"
#include "core/scheduler.h"
#include "sim/environment.h"

namespace htbench {

/// Total time and count of one kind of call.
struct CallTotals {
  std::int64_t ns = 0;
  std::uint64_t calls = 0;
};

/// Times `fn` into `totals`, recording a span of `request` for sampled
/// calls.
template <typename Fn>
decltype(auto) TimeCall(Spans* spans, std::uint64_t mask, const char* name,
                        std::uint64_t request, CallTotals& totals, Fn&& fn) {
  const bool sampled = spans != nullptr && (totals.calls & mask) == 0;
  ++totals.calls;
  Scope scope(sampled ? spans : nullptr, name, request);
  const std::int64_t start = NowNs();
  struct Stop {
    CallTotals& totals;
    std::int64_t start;
    ~Stop() { totals.ns += NowNs() - start; }
  } stop{totals, start};
  return fn();
}

class TracedScheduler final : public hypertune::Scheduler {
 public:
  TracedScheduler(std::unique_ptr<hypertune::Scheduler> inner, Spans* spans,
                  std::uint64_t mask)
      : inner_(std::move(inner)), spans_(spans), mask_(mask) {}

  CallTotals get_job;
  CallTotals report;
  /// The request id the next calls' spans carry.
  std::uint64_t request = 0;

  std::optional<hypertune::Job> GetJob() override {
    return TimeCall(spans_, mask_, "core.get_job", request, get_job,
                    [&] { return inner_->GetJob(); });
  }
  void ReportResult(const hypertune::Job& job, double loss) override {
    TimeCall(spans_, mask_, "core.report", request, report,
             [&] { inner_->ReportResult(job, loss); });
  }
  void ReportLost(const hypertune::Job& job) override {
    inner_->ReportLost(job);
  }
  void SetTelemetry(hypertune::Telemetry* telemetry) override {
    inner_->SetTelemetry(telemetry);
  }
  hypertune::SchedulerCost Cost() const override { return inner_->Cost(); }
  bool Finished() const override { return inner_->Finished(); }
  std::optional<hypertune::Recommendation> Current() const override {
    return inner_->Current();
  }
  const hypertune::TrialBank& trials() const override {
    return inner_->trials();
  }
  std::string name() const override { return inner_->name(); }
  bool SupportsSnapshot() const override { return inner_->SupportsSnapshot(); }
  hypertune::Json Snapshot() const override { return inner_->Snapshot(); }
  using Scheduler::Restore;
  void Restore(const hypertune::Json& snapshot,
               hypertune::RestorePolicy policy) override {
    inner_->Restore(snapshot, policy);
  }

 private:
  std::unique_ptr<hypertune::Scheduler> inner_;
  Spans* spans_;
  std::uint64_t mask_;
};

class TracedEnvironment final : public hypertune::JobEnvironment {
 public:
  TracedEnvironment(hypertune::JobEnvironment& inner, Spans* spans,
                    std::uint64_t mask)
      : inner_(inner), spans_(spans), mask_(mask) {}

  CallTotals lookups;

  double Loss(const hypertune::Configuration& config,
              hypertune::Resource resource) override {
    return TimeCall(spans_, mask_, "surrogate.lookup", 0, lookups,
                    [&] { return inner_.Loss(config, resource); });
  }
  double Duration(const hypertune::Configuration& config,
                  hypertune::Resource from, hypertune::Resource to) override {
    return TimeCall(spans_, mask_, "surrogate.lookup", 0, lookups,
                    [&] { return inner_.Duration(config, from, to); });
  }

 private:
  hypertune::JobEnvironment& inner_;
  Spans* spans_;
  std::uint64_t mask_;
};

}  // namespace htbench
