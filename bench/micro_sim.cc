// Microbenchmarks of the simulation engine fast path (the zero-cost-
// benchmark regime): a tabular environment answers Loss/Duration by table
// lookup, a trivial sweep scheduler hands out one job per call, and the
// driver's event loop — queue ops, worker bookkeeping, lifecycle guards —
// is all that remains. Results are recorded in BENCH_sim.json.
//
//   BM_SimJobThroughput/<workers>/<engine>   engine: 0 heap, 1 calendar
//   BM_SimJobThroughputTraced/<workers>      calendar, every span traced
//   BM_EventQueueAshaLadder/<engine>         64 live events, ASHA-like
//                                            4^k duration ladder; the
//                                            calendar row counts its
//                                            direct-search fallbacks
//   BM_TableLookup                           raw Loss+Duration lookups
#include <benchmark/benchmark.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "sim/driver.h"
#include "sim/event_queue.h"
#include "surrogate/table.h"
#include "telemetry/telemetry.h"

namespace hypertune {
namespace {

constexpr std::uint32_t kRows = 1024;
constexpr std::size_t kLadder = 8;

// In-memory tabular benchmark: geometric ladder 1..128, per-row cost drawn
// deterministically so completion times spread (the calendar queue's happy
// regime without being tuned for it).
TableData MakeTable() {
  TableData data;
  data.rows = kRows;
  data.resumable = true;
  data.fidelities.resize(kLadder);
  for (std::size_t i = 0; i < kLadder; ++i) {
    data.fidelities[i] = static_cast<double>(std::uint64_t{1} << i);
  }
  std::uint64_t h = 0x9E3779B97F4A7C15ull;
  for (std::uint32_t row = 0; row < kRows; ++row) {
    h = h * 0xD1342543DE82EF95ull + 0x2545F4914F6CDD1Dull;
    const double cost =
        0.5 + static_cast<double>(h >> 40) / static_cast<double>(1 << 24);
    for (std::size_t i = 0; i < kLadder; ++i) {
      data.losses.push_back(1.0 / (1.0 + data.fidelities[i]) +
                            static_cast<double>(row % 17) * 1e-3);
      data.cum_times.push_back(cost * data.fidelities[i]);
    }
  }
  return data;
}

// Hands out jobs cycling over table rows and ladder rungs; tallies reports.
// Never finishes on its own — the driver's max_completed_jobs bounds runs.
class SweepScheduler final : public Scheduler {
 public:
  SweepScheduler(std::uint32_t rows, const double* fidelities,
                 std::size_t ladder)
      : rows_(rows), fidelities_(fidelities), ladder_(ladder) {}

  std::optional<Job> GetJob() override {
    std::optional<Job> job(std::in_place);
    job->trial_id = static_cast<TrialId>(handed_);
    job->rung = static_cast<int>(rung_cursor_);
    job->from_resource = 0;
    job->to_resource = fidelities_[rung_cursor_];
    job->config.Set("row", static_cast<std::int64_t>(row_cursor_));
    ++handed_;
    // Wrap-around cursors: a 64-bit modulo per job would dominate the
    // scheduler's cost and pollute the engine measurement.
    if (++rung_cursor_ == ladder_) rung_cursor_ = 0;
    if (++row_cursor_ == rows_) row_cursor_ = 0;
    return job;
  }
  void ReportResult(const Job& job, double loss) override {
    (void)job;
    loss_sum_ += loss;
    ++reported_;
  }
  void ReportLost(const Job& job) override { (void)job; }
  bool Finished() const override { return false; }
  std::optional<Recommendation> Current() const override {
    return std::nullopt;
  }
  const TrialBank& trials() const override { return bank_; }
  std::string name() const override { return "sweep"; }

  double loss_sum() const { return loss_sum_; }

 private:
  std::uint32_t rows_;
  const double* fidelities_;
  std::size_t ladder_;
  std::uint64_t handed_ = 0;
  std::size_t rung_cursor_ = 0;
  std::uint32_t row_cursor_ = 0;
  std::uint64_t reported_ = 0;
  double loss_sum_ = 0;
  TrialBank bank_;
};

void RunThroughput(benchmark::State& state, SimEngine engine,
                   bool traced) {
  const TableData table = MakeTable();
  constexpr std::size_t kJobsPerRun = 1 << 18;
  const int workers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    TabularBenchmark environment{TableData(table)};
    SweepScheduler scheduler(kRows, table.fidelities.data(), kLadder);
    auto telemetry = traced ? Telemetry::ForSimulation() : nullptr;
    DriverOptions options;
    options.num_workers = workers;
    options.max_completed_jobs = kJobsPerRun;
    options.telemetry = telemetry.get();
    options.event_queue = engine;
    options.record_runs = false;
    options.track_recommendations = false;
    SimulationDriver driver(scheduler, environment, options);
    const DriverResult result = driver.Run();
    benchmark::DoNotOptimize(scheduler.loss_sum());
    if (result.jobs_completed != kJobsPerRun) {
      state.SkipWithError("unexpected completion count");
      return;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kJobsPerRun));
}

void BM_SimJobThroughput(benchmark::State& state) {
  RunThroughput(state,
                state.range(1) == 0 ? SimEngine::kBinaryHeap
                                    : SimEngine::kCalendar,
                /*traced=*/false);
}
BENCHMARK(BM_SimJobThroughput)
    ->ArgsProduct({{16, 512, 4096}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

void BM_SimJobThroughputTraced(benchmark::State& state) {
  RunThroughput(state, SimEngine::kCalendar, /*traced=*/true);
}
BENCHMARK(BM_SimJobThroughputTraced)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

// Successive halving's completion mix at a fixed fleet of 64 workers: the
// queue starts with 64 rung-0 jobs of similar length, then each pop is
// followed by one push whose job is rung k (4^k times longer, k <= 4) with
// probability ~4^-k. Iterations continue one simulation, so after the
// first they measure the steady state.
template <typename Queue>
void DrainAshaLadder(benchmark::State& state, Queue& queue,
                     const std::vector<double>& durations) {
  constexpr std::uint32_t kLive = 64;
  std::uint64_t seq = 0;
  for (std::uint32_t slot = 0; slot < kLive; ++slot, ++seq) {
    queue.Push({0.5 + static_cast<double>(slot) / kLive, seq, slot});
  }
  for (auto _ : state) {
    for (const double duration : durations) {
      const SimEvent top = queue.Top();
      queue.PopTop();
      queue.Push({top.end + duration, seq++, top.slot});
    }
    benchmark::DoNotOptimize(queue.Top());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(durations.size()));
}

void BM_EventQueueAshaLadder(benchmark::State& state) {
  Rng rng(7);
  std::vector<double> durations(std::size_t{1} << 16);
  for (double& duration : durations) {
    duration = rng.Uniform(0.5, 1.5);
    for (int rung = 0; rung < 4 && rng.Bernoulli(0.25); ++rung) {
      duration *= 4.0;
    }
  }
  if (state.range(0) == 0) {
    BinaryEventHeap heap;
    DrainAshaLadder(state, heap, durations);
  } else {
    CalendarEventQueue calendar({.expected_events = 64});
    DrainAshaLadder(state, calendar, durations);
    state.counters["direct_search_pct"] =
        100.0 * static_cast<double>(calendar.direct_searches()) /
        static_cast<double>(state.iterations() * durations.size());
  }
}
BENCHMARK(BM_EventQueueAshaLadder)->Arg(0)->Arg(1);

void BM_TableLookup(benchmark::State& state) {
  TabularBenchmark environment{MakeTable()};
  Configuration config;
  config.Set("row", std::int64_t{0});
  std::uint64_t i = 0;
  double sum = 0;
  for (auto _ : state) {
    config.Set("row", static_cast<std::int64_t>(i % kRows));
    const double to = static_cast<double>(std::uint64_t{1} << (i % kLadder));
    sum += environment.Loss(config, to);
    sum += environment.Duration(config, 0, to);
    ++i;
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TableLookup);

}  // namespace
}  // namespace hypertune

BENCHMARK_MAIN();
