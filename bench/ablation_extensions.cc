// Extensions the paper's conclusion sketches, plus the remaining design
// toggles:
//   * ASHA + adaptive selection — plugging the BOHB-style TPE sampler into
//     ASHA's bottom rung ("combining ASHA with adaptive selection methods");
//   * infinite-horizon ASHA (Section 3.3) — promotions never capped at R;
//   * incumbent accounting policies (Appendix A.2) on synchronous SHA.
#include <cmath>
#include <iostream>

#include "bench_util.h"
#include "core/asha.h"
#include "core/sha.h"

using namespace hypertune;
using namespace hypertune::bench;

namespace {

SchedulerFactory InfiniteHorizonFactory() {
  return [](const SyntheticBenchmark& bench, std::uint64_t seed) {
    AshaOptions asha;
    asha.r = bench.R() / 256;
    asha.R = bench.R();  // ignored beyond rung sizing
    asha.eta = 4;
    asha.s = 0;
    asha.seed = seed;
    asha.infinite_horizon = true;
    return std::make_unique<AshaScheduler>(MakeRandomSampler(bench.space()),
                                           asha);
  };
}

SchedulerFactory ShaWithPolicy(IncumbentPolicy policy) {
  return [policy](const SyntheticBenchmark& bench, std::uint64_t seed) {
    ShaOptions options;
    options.n = 256;
    options.r = bench.R() / 256;
    options.R = bench.R();
    options.eta = 4;
    options.seed = seed;
    options.incumbent_policy = policy;
    return std::make_unique<SyncShaScheduler>(
        MakeRandomSampler(bench.space()), options);
  };
}

}  // namespace

int main() {
  ExperimentOptions options;
  options.num_trials = 5;
  options.num_workers = 25;
  options.time_limit = 150;
  options.grid_points = 10;

  Banner("Extension: ASHA + adaptive selection (TPE sampler) vs ASHA vs "
         "BOHB",
         {"Table-1 architecture task; 25 workers, 150 minutes, 5 trials"});
  RunAndPrint([](std::uint64_t seed) { return benchmarks::CifarArch(seed); },
              {{"ASHA", RegistryFactory("asha")},
               {"ASHA+TPE", RegistryFactory("asha_tpe")},
               {"BOHB", RegistryFactory("bohb")}},
              options, "minutes", "test error");

  Banner("Extension: infinite-horizon ASHA (Section 3.3)",
         {"promotions never capped at R; the top rung keeps growing",
          "incumbent judged at the resource actually reached"});
  RunAndPrint([](std::uint64_t seed) { return benchmarks::CifarArch(seed); },
              {{"ASHA (finite)", RegistryFactory("asha")},
               {"ASHA (infinite horizon)", InfiniteHorizonFactory()}},
              options, "minutes", "test error");

  Banner("Ablation: incumbent accounting on synchronous SHA (Appendix A.2)",
         {"the same runs scored three ways; by-bracket only updates when a "
          "bracket completes"});
  RunAndPrint(
      [](std::uint64_t seed) { return benchmarks::CifarConvnet(seed); },
      {{"SHA (intermediate)", ShaWithPolicy(IncumbentPolicy::kIntermediate)},
       {"SHA (by rung)", ShaWithPolicy(IncumbentPolicy::kByRung)},
       {"SHA (by bracket)", ShaWithPolicy(IncumbentPolicy::kByBracket)}},
      options, "minutes", "test error");

  return 0;
}
