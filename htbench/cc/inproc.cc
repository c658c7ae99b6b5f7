// The in-process workloads: `sweep-grid` (RunSweep over the committed
// golden tables) and `sim-traced` (one ASHA study through SimulationDriver
// with a virtual-clock Telemetry sink, ending in a trace export).
#include <cmath>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "common/json.h"
#include "common/rng.h"
#include "layers.h"
#include "registry/registry.h"
#include "sim/driver.h"
#include "surrogate/table.h"
#include "sweep/engine.h"
#include "sweep/report.h"
#include "telemetry/telemetry.h"

namespace htbench {
namespace {

using hypertune::DriverOptions;
using hypertune::DriverResult;
using hypertune::Rng;
using hypertune::RunRecord;
using hypertune::SimulationDriver;
using hypertune::SweepCellResult;
using hypertune::SweepSpec;
using hypertune::TabularBenchmark;
using hypertune::Telemetry;

constexpr int kSweepThreads = 4;
constexpr int kSetupReps = 31;
// Seeds per grid: cell cost varies with the seed, so a run averages over
// several.
constexpr int kGridSeeds = 6;
// The untraced sweep-grid run cycles through this many grids: the sweep and
// report times of one grid depend on its seeds' results, and one grid per
// run made the report time differ by a fifth between workload seeds.
constexpr int kGrids = 4;
// sim-traced cycles through this many seeded studies for the same reason.
constexpr int kSimStudies = 8;
constexpr double kFullTrainBudget = 20;  // sweep_run's default
constexpr int kSimWorkers = 512;
constexpr std::size_t kSimJobs = 5000;
// One span per this many core/surrogate calls (power of two minus one).
constexpr std::uint64_t kSampleMask = 15;

struct Tables {
  std::vector<std::unique_ptr<TabularBenchmark>> owned;
  std::vector<hypertune::SweepBenchmark> axis;
  std::vector<hypertune::BenchmarkNorms> norms;
};

/// Maps and CRC-checks the golden tables, then derives their norms.
Tables LoadTables(const std::string& dir) {
  Tables tables;
  for (const char* name : {"cifar_convnet", "ptb_lstm"}) {
    tables.owned.push_back(
        TabularBenchmark::FromFile(dir + "/" + name + ".httb"));
    tables.axis.push_back({name, tables.owned.back().get()});
    tables.norms.push_back(hypertune::ComputeNorms(*tables.owned.back()));
  }
  return tables;
}

/// Times `fn` `reps` times and returns the median in seconds.
template <typename Fn>
double MedianSeconds(int reps, Fn&& fn) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    fn();
    times.push_back(SecondsSince(start));
  }
  return Median(times);
}

std::vector<std::uint64_t> DeriveSeeds(std::uint64_t seed, int count) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 17);
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < count; ++i) {
    seeds.push_back(static_cast<std::uint64_t>(rng.UniformInt(1, 1 << 30)));
  }
  return seeds;
}

/// Grid `index` of a workload seed. The grids take consecutive slices of
/// one derived seed sequence, so grid 0 is the same in every mode.
SweepSpec GridSpec(const Tables& tables, std::uint64_t seed, int index = 0) {
  SweepSpec spec;
  spec.benchmarks = tables.axis;
  spec.schedulers = {"asha", "sha", "async_hyperband", "random"};
  const std::vector<std::uint64_t> seeds =
      DeriveSeeds(seed, kGridSeeds * (index + 1));
  spec.seeds.assign(seeds.end() - kGridSeeds, seeds.end());
  spec.fleets = {4, 64};
  spec.full_train_budget = kFullTrainBudget;
  return spec;
}

/// The grid restricted to one cell, so RunSweep times it alone.
SweepSpec OneCellSpec(const SweepSpec& spec, const hypertune::SweepCell& cell) {
  SweepSpec one = spec;
  one.benchmarks = {spec.benchmarks[cell.benchmark]};
  one.schedulers = {spec.schedulers[cell.scheduler]};
  one.seeds = {spec.seeds[cell.seed_index]};
  one.fleets = {spec.fleets[cell.fleet_index]};
  return one;
}

bool SameDouble(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Field-for-field equality of two runs of one cell. A one-cell sweep
/// numbers its single benchmark and scheduler 0, so those two axis fields
/// are compared by the callers.
bool SameCell(const SweepCellResult& grid, const SweepCellResult& one) {
  return grid.seed == one.seed &&
         grid.workers == one.workers &&
         SameDouble(grid.final_loss, one.final_loss) &&
         SameDouble(grid.normalized_regret, one.normalized_regret) &&
         SameDouble(grid.end_time, one.end_time) &&
         SameDouble(grid.utilization, one.utilization) &&
         grid.jobs_completed == one.jobs_completed &&
         grid.jobs_dropped == one.jobs_dropped && grid.trials == one.trials;
}

hypertune::TunerEnv EnvOf(const Tables& tables, std::size_t index) {
  const TabularBenchmark& table = *tables.owned[index];
  return {.space = &table.space(),
          .R = table.max_resource(),
          .resumable = table.resumable(),
          .random_guess_loss = tables.norms[index].random_guess};
}

/// The DriverOptions the sweep engine gives a cell.
DriverOptions CellOptions(const SweepSpec& spec, const Tables& tables,
                          const hypertune::SweepCell& cell) {
  DriverOptions options;
  options.num_workers = spec.fleets[cell.fleet_index];
  options.time_limit =
      spec.full_train_budget * tables.norms[cell.benchmark].mean_full_time;
  options.event_queue = spec.event_queue;
  options.record_runs = false;
  options.track_recommendations = false;
  return options;
}

/// Adds `<prefix>_p50_us`, the mean over groups (grids or study seeds) of
/// each group's median: the groups differ in work, so the median of the
/// pooled samples would jump between them. Prints the pooled p99 beside
/// it; tails are not gated (see README.md).
void AddUs(Result& result, const std::string& prefix, const std::string& what,
           const std::vector<std::vector<double>>& seconds_by_group) {
  double sum = 0;
  std::vector<double> pooled;
  for (const auto& group : seconds_by_group) {
    sum += Median(group);
    for (double seconds : group) pooled.push_back(seconds * 1e6);
  }
  const double p50 = sum / static_cast<double>(seconds_by_group.size()) * 1e6;
  result.Add(prefix + "_p50_us", p50, "us");
  result.Note("  " + what + ": p50 " + std::to_string(p50) +
              " us (mean of " + std::to_string(seconds_by_group.size()) +
              " group medians), pooled p99 " +
              std::to_string(Quantile(pooled, 0.99)) + " us (" +
              std::to_string(pooled.size()) + " samples)");
}

double NsPerCall(const CallTotals& totals) {
  return totals.calls == 0
             ? 0
             : static_cast<double>(totals.ns) / static_cast<double>(totals.calls);
}

// --- telemetry --------------------------------------------------------------

/// The one ASHA study of the sim-traced shape: the cifar table, 512
/// workers, kSimJobs completions.
struct SimSetup {
  const Tables& tables;
  hypertune::TunerParams params;
};

DriverOptions SimOptions(const Tables& tables, Telemetry* telemetry) {
  DriverOptions options;
  options.num_workers = kSimWorkers;
  options.time_limit = kFullTrainBudget * tables.norms[0].mean_full_time;
  options.max_completed_jobs = kSimJobs;
  options.event_queue = hypertune::SimEngine::kCalendar;
  options.telemetry = telemetry;
  return options;
}

std::unique_ptr<hypertune::Scheduler> MakeAsha(const SimSetup& setup) {
  return hypertune::MakeTuner("asha", EnvOf(setup.tables, 0), setup.params);
}

bool SameRecords(const std::vector<RunRecord>& a,
                 const std::vector<RunRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const RunRecord& x = a[i];
    const RunRecord& y = b[i];
    if (x.trial_id != y.trial_id || x.rung != y.rung || x.bracket != y.bracket ||
        !SameDouble(x.from_resource, y.from_resource) ||
        !SameDouble(x.to_resource, y.to_resource) || !SameDouble(x.loss, y.loss) ||
        x.lost != y.lost || !SameDouble(x.start_time, y.start_time) ||
        !SameDouble(x.end_time, y.end_time) ||
        !SameDouble(x.queue_wait, y.queue_wait) || x.worker != y.worker ||
        x.lease_id != y.lease_id) {
      return false;
    }
  }
  return true;
}

struct Export {
  std::string chrome;
  std::string jsonl;
};

/// Renders both exports in memory; the files are written once per run so
/// disk noise stays out of the export time.
Export ExportTrace(const Telemetry& telemetry) {
  return {telemetry.tracer().ToChromeTrace().Dump(), telemetry.tracer().ToJsonl()};
}

void WriteExport(const Export& exported, const std::string& work) {
  std::ofstream(work + "/sim.trace.json") << exported.chrome;
  std::ofstream(work + "/sim.trace.jsonl") << exported.jsonl;
}

void CheckTrace(const Export& exported, const DriverResult& run,
                std::size_t events, Result& result) {
  const hypertune::Json trace = hypertune::Json::Parse(exported.chrome);
  std::size_t job_spans = 0;
  for (const auto& event : trace.at("traceEvents").AsArray()) {
    job_spans += event.at("ph").AsString() == "X" &&
                 event.at("cat").AsString() == "worker";
  }
  result.Check(job_spans == run.completions.size(),
               "exported trace has one job span per completion (" +
                   std::to_string(job_spans) + " vs " +
                   std::to_string(run.completions.size()) + ")");
  std::size_t lines = 0;
  for (char c : exported.jsonl) lines += c == '\n';
  result.Check(lines == events, "JSONL export has one line per event");
}

/// Measures the telemetry layer on one study: the same study without a
/// sink, with a virtual-clock sink, and the sink's Chrome/JSONL export.
/// Checks that the sink leaves the records alone and that the export is
/// whole, writes the export once, and returns the median traced Run() in
/// ns. Both simulator workloads' traced runs call it, so the layer is
/// measured on sweep-grid as well as on sim-traced.
double TraceTelemetry(const SimSetup& setup, const Args& args, Spans& spans,
                      Result& result) {
  auto timed_run = [&](Telemetry* telemetry) {
    auto tuner = MakeAsha(setup);
    SimulationDriver driver(*tuner, *setup.tables.owned[0],
                            SimOptions(setup.tables, telemetry));
    const std::int64_t start = NowNs();
    DriverResult run = driver.Run();
    return std::pair{static_cast<double>(NowNs() - start), std::move(run)};
  };
  std::vector<double> untraced_ns, traced_ns, export_ms;
  std::size_t events = 0;
  double export_bytes = 0;
  for (int i = 0; i < 3; ++i) {
    const auto untraced = timed_run(nullptr);
    untraced_ns.push_back(untraced.first);
    const auto telemetry = Telemetry::ForSimulation();
    const auto traced = timed_run(telemetry.get());
    traced_ns.push_back(traced.first);
    events = telemetry->tracer().size();
    Export exported;
    {
      Scope scope(&spans, "telemetry.export", 0);
      const auto start = Clock::now();
      exported = ExportTrace(*telemetry);
      export_ms.push_back(SecondsSince(start) * 1e3);
    }
    if (i == 0) {
      result.Check(SameRecords(traced.second.completions,
                               untraced.second.completions),
                   "traced study records equal the untraced study's");
      CheckTrace(exported, traced.second, events, result);
      WriteExport(exported, args.work);
    }
    export_bytes = static_cast<double>(exported.chrome.size() +
                                       exported.jsonl.size());
  }
  result.Add("telemetry.events", static_cast<double>(events), "count");
  result.Add("telemetry.ns_per_event",
             (Median(traced_ns) - Median(untraced_ns)) /
                 static_cast<double>(std::max<std::size_t>(events, 1)),
             "ns");
  result.Add("telemetry.export_ms", Median(export_ms), "ms");
  result.Add("telemetry.bytes_per_event",
             export_bytes / static_cast<double>(std::max<std::size_t>(events, 1)),
             "B");
  return Median(traced_ns);
}

// --- sweep-grid ---------------------------------------------------------

void TraceSweep(const Args& args, Spans& spans, Result& result) {
  const Tables tables = LoadTables(args.tables);
  const SweepSpec spec = GridSpec(tables, args.seed);
  const std::size_t cells = hypertune::CellCount(spec);

  hypertune::SweepThroughput throughput;
  std::vector<SweepCellResult> grid;
  {
    Scope scope(&spans, "sweep.run", 0);
    grid = hypertune::RunSweep(spec, {.threads = kSweepThreads}, &throughput);
  }
  // Each cell alone, as a one-cell sweep on one thread.
  std::vector<double> cell_ms;
  double cell_total_s = 0;
  for (std::size_t i = 0; i < cells; ++i) {
    const auto cell = hypertune::CellAt(spec, i);
    const auto start = Clock::now();
    std::vector<SweepCellResult> one;
    {
      Scope scope(&spans, "sweep.cell", i);
      one = hypertune::RunSweep(OneCellSpec(spec, cell), {.threads = 1});
    }
    const double seconds = SecondsSince(start);
    cell_total_s += seconds;
    cell_ms.push_back(seconds * 1e3);
    result.Check(SameCell(grid[i], one.at(0)),
                 "sweep cell " + std::to_string(i) + " equals its 1-thread rerun");
  }
  std::vector<double> report_s;
  for (int i = 0; i < 5; ++i) {
    Scope scope(&spans, "sweep.report", 0);
    const auto start = Clock::now();
    (void)hypertune::BuildSweepReport(spec, grid);
    report_s.push_back(SecondsSince(start));
  }

  // Each cell again through the delegating wrappers, to split its time.
  std::map<std::string, std::pair<CallTotals, CallTotals>> by_kind;
  CallTotals get_job, report, lookup;
  std::vector<double> make_tuner_us, utilization;
  std::int64_t run_ns = 0;
  std::uint64_t jobs = 0;
  double traced_total_s = 0;
  for (std::size_t i = 0; i < cells; ++i) {
    const auto cell = hypertune::CellAt(spec, i);
    Scope cell_scope(&spans, "sweep.traced_cell", i);
    const auto cell_start = Clock::now();
    hypertune::TunerParams params = spec.params;
    params.seed = spec.seeds[cell.seed_index];
    std::unique_ptr<hypertune::Scheduler> tuner;
    {
      Scope scope(&spans, "registry.make_tuner", i);
      const auto start = Clock::now();
      tuner = hypertune::MakeTuner(spec.schedulers[cell.scheduler],
                                   EnvOf(tables, cell.benchmark), params);
      make_tuner_us.push_back(SecondsSince(start) * 1e6);
    }
    TracedScheduler scheduler(std::move(tuner), &spans, kSampleMask);
    TracedEnvironment environment(*tables.owned[cell.benchmark], &spans,
                                  kSampleMask);
    SimulationDriver driver(scheduler, environment,
                            CellOptions(spec, tables, cell));
    DriverResult run;
    {
      Scope scope(&spans, "sim.run", i);
      const std::int64_t start = NowNs();
      run = driver.Run();
      run_ns += NowNs() - start;
    }
    traced_total_s += SecondsSince(cell_start);
    result.Check(run.jobs_completed == grid[i].jobs_completed,
                 "traced cell " + std::to_string(i) + " completes the same jobs");
    jobs += run.jobs_completed;
    utilization.push_back(grid[i].utilization);
    auto& kind = by_kind[spec.schedulers[cell.scheduler]];
    for (auto [into, from] : {std::pair{&kind.first, &scheduler.get_job},
                              std::pair{&kind.second, &scheduler.report},
                              std::pair{&get_job, &scheduler.get_job},
                              std::pair{&report, &scheduler.report}}) {
      into->ns += from->ns;
      into->calls += from->calls;
    }
    lookup.ns += environment.lookups.ns;
    lookup.calls += environment.lookups.calls;
  }

  result.attempted = cells;
  result.Add("core.get_job_ns", NsPerCall(get_job), "ns");
  result.Add("core.report_ns", NsPerCall(report), "ns");
  for (const auto& [kind, totals] : by_kind) {
    result.Add("core.get_job_ns." + kind, NsPerCall(totals.first), "ns");
    result.Add("core.report_ns." + kind, NsPerCall(totals.second), "ns");
  }
  result.Add("surrogate.lookup_ns", NsPerCall(lookup), "ns");
  result.Add("sim.self_ns_per_job",
             static_cast<double>(run_ns - get_job.ns - report.ns - lookup.ns) /
                 static_cast<double>(std::max<std::uint64_t>(jobs, 1)),
             "ns");
  result.Add("sim.utilization", Median(utilization), "ratio");
  result.Add("sweep.cell_ms_p50", Quantile(cell_ms, 0.5), "ms");
  result.Add("sweep.cell_ms_p99", Quantile(cell_ms, 0.99), "ms");
  result.Add("sweep.parallel_efficiency",
             cell_total_s / (kSweepThreads * throughput.wall_seconds), "ratio");
  result.Add("sweep.report_ms", Median(report_s) * 1e3, "ms");
  result.Add("registry.make_tuner_us", Median(make_tuner_us), "us");
  result.Add("trace.overhead_pct",
             100 * (traced_total_s - cell_total_s) / cell_total_s, "%");

  // A sweep runs no telemetry; the layer is measured beside it on one study
  // of the sim-traced shape, so a gated workload's traced run covers it.
  SimSetup study{tables, {}};
  study.params.seed = DeriveSeeds(args.seed, 1)[0];
  TraceTelemetry(study, args, spans, result);
}

}  // namespace

Result RunSweepGrid(const Args& args, Spans* spans) {
  Result result;
  if (spans != nullptr) {
    TraceSweep(args, *spans, result);
    return result;
  }
  const double setup_s = MedianSeconds(kSetupReps, [&] {
    const Tables tables = LoadTables(args.tables);
    hypertune::ValidateSpec(GridSpec(tables, args.seed));
  });
  const Tables tables = LoadTables(args.tables);
  std::vector<SweepSpec> specs;
  for (int grid = 0; grid < kGrids; ++grid) {
    specs.push_back(GridSpec(tables, args.seed, grid));
  }
  const std::size_t cells = hypertune::CellCount(specs[0]);

  // Samples per grid; sweeps cycle through the grids.
  std::vector<std::vector<double>> sweep_s(kGrids), report_s(kGrids);
  std::vector<std::vector<SweepCellResult>> first(kGrids);
  double wall_s = 0;
  double jobs = 0;
  std::size_t sweeps = 0;
  const auto start = Clock::now();
  while (sweeps < kGrids || SecondsSince(start) < args.seconds) {
    const std::size_t grid = sweeps++ % kGrids;
    const SweepSpec& spec = specs[grid];
    hypertune::SweepThroughput throughput;
    result.attempted += cells;
    std::vector<SweepCellResult> results;
    try {
      results = hypertune::RunSweep(spec, {.threads = kSweepThreads},
                                    &throughput);
    } catch (const std::exception& error) {
      result.failed += cells;
      result.Check(false, std::string("sweep failed: ") + error.what());
      break;
    }
    sweep_s[grid].push_back(throughput.wall_seconds);
    wall_s += throughput.wall_seconds;
    jobs += static_cast<double>(throughput.jobs);
    // The report is cheap next to a sweep; build it several times so its
    // median rests on more samples.
    for (int i = 0; i < 5; ++i) {
      const auto report_start = Clock::now();
      const hypertune::Json report = hypertune::BuildSweepReport(spec, results);
      report_s[grid].push_back(SecondsSince(report_start));
      result.Check(report.IsObject(), "sweep report built");
    }
    if (first[grid].empty()) {
      first[grid] = results;
    } else {
      bool same = true;
      for (std::size_t i = 0; i < cells; ++i) {
        same = same && first[grid][i].benchmark == results[i].benchmark &&
               first[grid][i].scheduler == results[i].scheduler &&
               SameCell(first[grid][i], results[i]);
      }
      result.Check(same, "repeated 4-thread sweeps agree");
    }
  }
  // A seeded sample of cells, each rerun alone on one thread.
  Rng pick(args.seed + 5);
  for (int i = 0; i < 4 && !first[0].empty(); ++i) {
    const std::size_t index = pick.Index(cells);
    const auto cell = hypertune::CellAt(specs[0], index);
    const auto one =
        hypertune::RunSweep(OneCellSpec(specs[0], cell), {.threads = 1});
    result.Check(first[0][index].benchmark == cell.benchmark &&
                     first[0][index].scheduler == cell.scheduler &&
                     SameCell(first[0][index], one.at(0)),
                 "cell " + std::to_string(index) +
                     " rerun on 1 thread equals the 4-thread result");
  }

  const double cells_per_s =
      static_cast<double>(cells * sweeps) / std::max(wall_s, 1e-9);
  result.Add("setup_s", setup_s, "s");
  result.Add("peak_rss_mb", PeakRssMb(), "MiB");
  result.Add("throughput_per_s", cells_per_s, "1/s");
  AddUs(result, "work", "4-thread sweep", sweep_s);
  AddUs(result, "commit", "sweep report build", report_s);
  result.Note("sweep-grid: " + std::to_string(sweeps) + " sweeps over " +
              std::to_string(kGrids) + " grids of " + std::to_string(cells) +
              " cells at " + std::to_string(kSweepThreads) + " threads");
  result.Note("  studies_per_s   " + std::to_string(cells_per_s) +
              " cells/s (all cells over all sweep wall time)");
  result.Note("  sim_jobs_per_s  " + std::to_string(jobs / std::max(wall_s, 1e-9)) +
              " jobs/s");
  return result;
}

// --- sim-traced -------------------------------------------------------------

namespace {

void TraceSim(const SimSetup& setup, const Args& args, Spans& spans,
              Result& result) {
  const double traced_ns = TraceTelemetry(setup, args, spans, result);

  std::vector<double> make_tuner_us;
  for (int i = 0; i < 9; ++i) {
    Scope scope(&spans, "registry.make_tuner", 0);
    const auto start = Clock::now();
    (void)MakeAsha(setup);
    make_tuner_us.push_back(SecondsSince(start) * 1e6);
  }

  const auto telemetry = Telemetry::ForSimulation();
  TracedScheduler scheduler(MakeAsha(setup), &spans, kSampleMask);
  TracedEnvironment environment(*setup.tables.owned[0], &spans, kSampleMask);
  SimulationDriver driver(scheduler, environment,
                          SimOptions(setup.tables, telemetry.get()));
  DriverResult run;
  std::int64_t run_ns = 0;
  {
    Scope scope(&spans, "sim.run", 0);
    const std::int64_t start = NowNs();
    run = driver.Run();
    run_ns = NowNs() - start;
  }
  const double jobs = static_cast<double>(std::max<std::size_t>(run.jobs_completed, 1));

  result.attempted = run.jobs_completed;
  result.Add("core.get_job_ns", NsPerCall(scheduler.get_job), "ns");
  result.Add("core.report_ns", NsPerCall(scheduler.report), "ns");
  result.Add("core.get_job_ns.asha", NsPerCall(scheduler.get_job), "ns");
  result.Add("core.report_ns.asha", NsPerCall(scheduler.report), "ns");
  result.Add("surrogate.lookup_ns", NsPerCall(environment.lookups), "ns");
  result.Add("sim.self_ns_per_job",
             static_cast<double>(run_ns - scheduler.get_job.ns -
                                 scheduler.report.ns - environment.lookups.ns) /
                 jobs,
             "ns");
  result.Add("sim.utilization",
             run.end_time > 0 ? run.busy_time / (kSimWorkers * run.end_time) : 0,
             "ratio");
  result.Add("registry.make_tuner_us", Median(make_tuner_us), "us");
  result.Add("trace.overhead_pct",
             100 * (static_cast<double>(run_ns) - traced_ns) / traced_ns, "%");
}

}  // namespace

Result RunSimTraced(const Args& args, Spans* spans) {
  Result result;
  const double setup_s = MedianSeconds(kSetupReps, [&] {
    const Tables tables = LoadTables(args.tables);
    SimSetup setup{tables, {}};
    setup.params.seed = args.seed;
    (void)MakeAsha(setup);
    (void)Telemetry::ForSimulation();
  });
  const Tables tables = LoadTables(args.tables);
  SimSetup setup{tables, {}};
  const std::vector<std::uint64_t> study_seeds = DeriveSeeds(args.seed, kSimStudies);
  setup.params.seed = study_seeds[0];
  if (spans != nullptr) {
    TraceSim(setup, args, *spans, result);
    return result;
  }

  // Samples per study seed; studies cycle through the seeds.
  std::vector<std::vector<double>> run_s(kSimStudies), export_s(kSimStudies);
  std::size_t studies = 0;
  double jobs = 0;
  double busy_s = 0;
  const auto start = Clock::now();
  while (studies < kSimStudies || SecondsSince(start) < args.seconds) {
    const std::size_t seed = studies++ % kSimStudies;
    setup.params.seed = study_seeds[seed];
    const auto telemetry = Telemetry::ForSimulation();
    auto tuner = MakeAsha(setup);
    SimulationDriver driver(*tuner, *setup.tables.owned[0],
                            SimOptions(setup.tables, telemetry.get()));
    const auto run_start = Clock::now();
    const DriverResult run = driver.Run();
    run_s[seed].push_back(SecondsSince(run_start));
    const auto export_start = Clock::now();
    const Export exported = ExportTrace(*telemetry);
    export_s[seed].push_back(SecondsSince(export_start));
    jobs += static_cast<double>(run.jobs_completed);
    busy_s += SecondsSince(run_start);
    result.attempted += run.jobs_completed;
    if (studies == 1) {
      auto untraced_tuner = MakeAsha(setup);
      SimulationDriver untraced(*untraced_tuner, *setup.tables.owned[0],
                                SimOptions(setup.tables, nullptr));
      result.Check(SameRecords(run.completions, untraced.Run().completions),
                   "traced run records equal the untraced run's");
      CheckTrace(exported, run, telemetry->tracer().size(), result);
      WriteExport(exported, args.work);
      result.Check(run.jobs_completed > 0, "the study completes jobs");
      result.Note("sim-traced: " + std::to_string(run.jobs_completed) +
                  " jobs, " + std::to_string(telemetry->tracer().size()) +
                  " events per study");
    }
  }
  result.Add("setup_s", setup_s, "s");
  result.Add("peak_rss_mb", PeakRssMb(), "MiB");
  result.Add("throughput_per_s", jobs / busy_s, "1/s");
  AddUs(result, "work", "study Run()", run_s);
  AddUs(result, "commit", "trace export", export_s);
  result.Note("  sim_jobs_per_s  " + std::to_string(jobs / busy_s) +
              " jobs/s incl. export (" + std::to_string(studies) +
              " studies over " + std::to_string(kSimStudies) + " seeds)");
  return result;
}

}  // namespace htbench
