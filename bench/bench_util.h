// Shared helpers for the figure-reproduction bench binaries.
#pragma once

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/report.h"
#include "baselines/pbt.h"
#include "common/table.h"
#include "searchspace/spaces.h"
#include "surrogate/benchmarks.h"

namespace hypertune::bench {

/// Prints a figure banner plus context lines.
inline void Banner(const std::string& title,
                   const std::vector<std::string>& context) {
  std::cout << "\n==== " << title << " ====\n";
  for (const auto& line : context) std::cout << "  " << line << "\n";
  std::cout << "\n";
}

/// Runs each (name, factory) pair through RunExperiment and prints the
/// series + summary tables; returns the results for extra reporting.
inline std::vector<MethodResult> RunAndPrint(
    const BenchmarkFactory& make_benchmark,
    const std::vector<std::pair<std::string, SchedulerFactory>>& methods,
    const ExperimentOptions& options, const std::string& time_label,
    const std::string& metric_label, int precision = 4) {
  std::vector<MethodResult> results;
  for (const auto& [name, factory] : methods) {
    std::cerr << "  running " << name << " (" << options.num_trials
              << " trials)...\n";
    results.push_back(RunExperiment(name, make_benchmark, factory, options));
  }
  std::cout << SeriesTable(results, time_label, metric_label, precision)
                   .ToMarkdown()
            << "\n"
            << SummaryTable(results, metric_label, precision).ToMarkdown();
  return results;
}

/// PBT per Appendix A.3 (the registry's "pbt": population 25, explore/exploit
/// every R/30, 2x-step sync window) with the Table-1 architecture parameters
/// frozen, as Figs. 3 and 4 run it on the architecture task.
inline SchedulerFactory FrozenArchPbtFactory() {
  return [](const SyntheticBenchmark& bench, std::uint64_t seed) {
    const TunerParams defaults;
    PbtOptions options;
    options.population_size = defaults.population;
    options.step_resource = bench.R() / defaults.step_divisor;
    options.max_resource = bench.R();
    options.sync_window = 2.0 * options.step_resource;
    options.seed = seed;
    options.random_guess_loss = bench.spec().random_guess_loss * 0.98;
    options.explore.frozen = spaces::IsSmallCnnArchParam;
    return std::make_unique<PbtScheduler>(bench.space(), options);
  };
}

}  // namespace hypertune::bench
