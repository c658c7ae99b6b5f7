// Regenerates Figure 3: sequential experiments (1 worker) on the two
// CIFAR-10 benchmarks — test error of the incumbent vs wall-clock minutes
// for SHA, Hyperband, Random, PBT, ASHA, asynchronous Hyperband, and BOHB,
// averaged over 10 trials.
//
// Paper settings (Appendix A.3): n=256, eta=4, s=0, r=R/256, R=30000 SGD
// iterations; Hyperband loops 5 brackets; PBT population 25 with
// explore/exploit every 1000 iterations.
#include <iostream>

#include "bench_util.h"
#include "core/hyperband.h"

using namespace hypertune;
using namespace hypertune::bench;

namespace {

// Hyperband scored on every intermediate result, a policy the registry does
// not name ("hyperband" scores by rung, "hyperband_by_bracket" by bracket).
SchedulerFactory IntermediateHyperbandFactory() {
  return [](const SyntheticBenchmark& bench, std::uint64_t seed) {
    const TunerParams defaults;
    HyperbandOptions options;
    options.n0 = defaults.n;
    options.r = bench.R() / defaults.r_divisor;
    options.R = bench.R();
    options.eta = defaults.eta;
    options.seed = seed;
    options.incumbent_policy = IncumbentPolicy::kIntermediate;
    options.resume_from_checkpoint = bench.spec().resumable;
    return std::make_unique<HyperbandScheduler>(
        MakeRandomSampler(bench.space()), options);
  };
}

}  // namespace

int main() {
  ExperimentOptions options;
  options.num_trials = 10;
  options.num_workers = 1;
  options.time_limit = 2500;  // minutes
  options.grid_points = 25;

  const std::vector<std::pair<std::string, SchedulerFactory>> methods{
      {"SHA", RegistryFactory("sha")},
      {"Hyperband", IntermediateHyperbandFactory()},
      {"Random", RegistryFactory("random")},
      {"PBT", RegistryFactory("pbt")},
      {"ASHA", RegistryFactory("asha")},
      {"Hyperband (async)", RegistryFactory("async_hyperband")},
      {"BOHB", RegistryFactory("bohb")},
  };

  Banner("Figure 3 (left): CIFAR-10, small cuda-convnet model — sequential",
         {"1 worker, 2500 minutes, 10 trials; n=256, eta=4, s=0, r=R/256"});
  RunAndPrint([](std::uint64_t seed) { return benchmarks::CifarConvnet(seed); },
              methods, options, "minutes", "test error");

  // PBT freezes architecture parameters on this task (Appendix A.3).
  auto arch_methods = methods;
  arch_methods[3] = {"PBT", FrozenArchPbtFactory()};

  Banner("Figure 3 (right): CIFAR-10, small CNN architecture tuning task — "
         "sequential",
         {"1 worker, 2500 minutes, 10 trials; n=256, eta=4, s=0, r=R/256"});
  RunAndPrint([](std::uint64_t seed) { return benchmarks::CifarArch(seed); },
              arch_methods, options, "minutes", "test error");

  std::cout << "\nPaper check: all SHA variants and Hyperband beat PBT on "
               "benchmark 1 and beat Random\non both; asynchrony does not "
               "consequentially change ASHA vs SHA.\n";
  return 0;
}
