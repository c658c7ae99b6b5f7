#include "registry/registry.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/bohb.h"
#include "baselines/fabolas.h"
#include "baselines/pbt.h"
#include "baselines/vizier.h"
#include "common/check.h"
#include "core/asha.h"
#include "core/async_hyperband.h"
#include "core/hyperband.h"
#include "core/random_search.h"
#include "core/sha.h"
#include "sim/driver.h"
#include "surrogate/benchmarks.h"

namespace hypertune {
namespace {

TEST(Registry, EveryListedTunerBuildsAndRuns) {
  for (const auto& name : TunerNames()) {
    auto bench = benchmarks::CifarArch(5);
    TunerParams params;
    params.n = 64;
    params.r_divisor = 64;
    params.grid_resolution = 2;
    auto tuner = MakeTunerByName(name, *bench, params);
    ASSERT_NE(tuner, nullptr) << name;

    DriverOptions options;
    options.num_workers = 4;
    options.time_limit = 2.0 * bench->MeanTimeOfR();
    SimulationDriver driver(*tuner, *bench, options);
    const auto result = driver.Run();
    EXPECT_GT(result.jobs_completed, 3u) << name;
    EXPECT_TRUE(tuner->Current().has_value()) << name;
  }
}

TEST(Registry, UnknownNameThrowsWithKnownList) {
  auto bench = benchmarks::UnitTime(1);
  try {
    MakeTunerByName("nope", *bench, {});
    FAIL() << "expected CheckError";
  } catch (const CheckError& error) {
    // The error message lists valid names for discoverability.
    EXPECT_NE(std::string(error.what()).find("asha"), std::string::npos);
  }
}

TEST(Registry, ParamsAreApplied) {
  auto bench = benchmarks::UnitTime(1);
  TunerParams params;
  params.eta = 2;
  params.s = 1;
  params.r_divisor = 16;
  auto tuner = MakeTunerByName("asha", *bench, params);
  const auto job = tuner->GetJob();
  ASSERT_TRUE(job.has_value());
  // r = 256/16 = 16; s=1 => bottom rung at r*eta = 32.
  EXPECT_DOUBLE_EQ(job->to_resource, 32);
  EXPECT_EQ(job->bracket, 1);
}

TEST(Registry, NonResumableBenchmarkDisablesResume) {
  auto bench = benchmarks::SvmVehicle(1);
  TunerParams params;
  params.n = 64;
  params.r_divisor = 64;
  auto tuner = MakeTunerByName("sha", *bench, params);
  // Drive one full rung to get a promotion job and check it retrains.
  std::vector<Job> jobs;
  for (int i = 0; i < 64; ++i) jobs.push_back(*tuner->GetJob());
  for (int i = 0; i < 64; ++i) {
    tuner->ReportResult(jobs[static_cast<std::size_t>(i)], 0.01 * i);
  }
  const auto promotion = tuner->GetJob();
  ASSERT_TRUE(promotion.has_value());
  EXPECT_GT(promotion->rung, 0);
  EXPECT_DOUBLE_EQ(promotion->from_resource, 0);  // full retrain
}

// ---- the figures' settings, pinned --------------------------------------
//
// The figure and ablation binaries build their tuners through the registry.
// Each case below pairs a registry name (with the parameter overrides a
// figure passes) against the tuner built field by field with the option
// values the figures used before they went through the registry; both must
// make the same decisions on a short seeded run.

using Reference = std::function<std::unique_ptr<Scheduler>(
    const SyntheticBenchmark& bench, std::uint64_t seed)>;

struct FigureCase {
  std::string name;
  std::string benchmark;
  TunerParams params;
  Reference reference;
  /// Enough jobs for the rung- and bracket-scored tuners to settle a bracket
  /// (so their incumbent policy shows); about 50 keeps the GP tuners fast.
  std::size_t max_jobs = 50;
};

Reference ReferenceAsha(double r_divisor) {
  return [=](const SyntheticBenchmark& bench, std::uint64_t seed) {
    AshaOptions options;
    options.r = bench.R() / r_divisor;
    options.R = bench.R();
    options.eta = 4;
    options.seed = seed;
    options.resume_from_checkpoint = bench.spec().resumable;
    return std::make_unique<AshaScheduler>(MakeRandomSampler(bench.space()),
                                           options);
  };
}

Reference ReferenceSha() {
  return [](const SyntheticBenchmark& bench, std::uint64_t seed) {
    ShaOptions options;
    options.n = 256;
    options.r = bench.R() / 256;
    options.R = bench.R();
    options.eta = 4;
    options.seed = seed;
    options.resume_from_checkpoint = bench.spec().resumable;
    options.incumbent_policy = IncumbentPolicy::kByRung;
    return std::make_unique<SyncShaScheduler>(
        MakeRandomSampler(bench.space()), options);
  };
}

Reference ReferenceHyperband(std::size_t n0, double r_divisor,
                             IncumbentPolicy policy) {
  return [=](const SyntheticBenchmark& bench, std::uint64_t seed) {
    HyperbandOptions options;
    options.n0 = n0;
    options.r = bench.R() / r_divisor;
    options.R = bench.R();
    options.eta = 4;
    options.seed = seed;
    options.incumbent_policy = policy;
    options.resume_from_checkpoint = bench.spec().resumable;
    return std::make_unique<HyperbandScheduler>(
        MakeRandomSampler(bench.space()), options);
  };
}

Reference ReferenceAsyncHyperband(double r_divisor) {
  return [=](const SyntheticBenchmark& bench, std::uint64_t seed) {
    AsyncHyperbandOptions options;
    options.n0 = 256;
    options.r = bench.R() / r_divisor;
    options.R = bench.R();
    options.eta = 4;
    options.seed = seed;
    options.resume_from_checkpoint = bench.spec().resumable;
    return std::make_unique<AsyncHyperbandScheduler>(
        MakeRandomSampler(bench.space()), options);
  };
}

Reference ReferenceRandom() {
  return [](const SyntheticBenchmark& bench, std::uint64_t seed) {
    RandomSearchOptions options;
    options.R = bench.R();
    options.seed = seed;
    return std::make_unique<RandomSearchScheduler>(
        MakeRandomSampler(bench.space()), options);
  };
}

Reference ReferenceBohb() {
  return [](const SyntheticBenchmark& bench, std::uint64_t seed) {
    BohbOptions options;
    options.sha.n = 256;
    options.sha.r = bench.R() / 256;
    options.sha.R = bench.R();
    options.sha.eta = 4;
    options.sha.seed = seed;
    options.sha.resume_from_checkpoint = bench.spec().resumable;
    options.sha.incumbent_policy = IncumbentPolicy::kByRung;
    return std::unique_ptr<Scheduler>(MakeBohb(bench.space(), options));
  };
}

Reference ReferencePbt(std::size_t population, double step_divisor) {
  return [=](const SyntheticBenchmark& bench, std::uint64_t seed) {
    PbtOptions options;
    options.population_size = population;
    options.step_resource = bench.R() / step_divisor;
    options.max_resource = bench.R();
    options.sync_window = 2.0 * options.step_resource;
    options.seed = seed;
    options.random_guess_loss = bench.spec().random_guess_loss * 0.98;
    return std::make_unique<PbtScheduler>(bench.space(), options);
  };
}

Reference ReferenceVizier() {
  return [](const SyntheticBenchmark& bench, std::uint64_t seed) {
    VizierOptions options;
    options.R = bench.R();
    options.seed = seed;
    options.loss_cap = 1e18;
    return std::make_unique<VizierScheduler>(bench.space(), options);
  };
}

Reference ReferenceFabolas() {
  return [](const SyntheticBenchmark& bench, std::uint64_t seed) {
    FabolasOptions options;
    options.R = bench.R();
    options.seed = seed;
    return std::make_unique<FabolasScheduler>(bench.space(), options);
  };
}

std::vector<FigureCase> FigureCases() {
  return {
      {"asha", "cifar_arch", {}, ReferenceAsha(256)},
      {"asha", "ptb_lstm", {.r_divisor = 64}, ReferenceAsha(64)},  // Fig. 5
      {"sha", "cifar_convnet", {}, ReferenceSha(), 400},
      {"hyperband", "cifar_convnet", {},
       ReferenceHyperband(256, 256, IncumbentPolicy::kByRung), 400},
      {"hyperband", "svm_vehicle", {.r_divisor = 64, .n = 64},  // Fig. 9
       ReferenceHyperband(64, 64, IncumbentPolicy::kByRung), 100},
      {"hyperband_by_bracket", "svm_mnist", {.r_divisor = 64, .n = 64},
       ReferenceHyperband(64, 64, IncumbentPolicy::kByBracket), 100},
      {"async_hyperband", "cifar_convnet", {}, ReferenceAsyncHyperband(256)},
      {"async_hyperband", "ptb_lstm", {.r_divisor = 64},
       ReferenceAsyncHyperband(64)},
      {"random", "cifar_convnet", {}, ReferenceRandom()},
      {"bohb", "cifar_arch", {}, ReferenceBohb(), 400},
      {"pbt", "cifar_convnet", {}, ReferencePbt(25, 30)},
      {"pbt", "awd_lstm", {.population = 20, .step_divisor = 32},  // Fig. 6
       ReferencePbt(20, 32)},
      {"vizier", "ptb_lstm", {}, ReferenceVizier()},
      {"fabolas", "svm_vehicle", {}, ReferenceFabolas()},
  };
}

DriverResult RunCase(Scheduler& tuner, SyntheticBenchmark& bench,
                     std::size_t max_jobs) {
  DriverOptions options;
  options.num_workers = 4;
  options.time_limit = 1e9;
  options.seed = 17;
  options.max_completed_jobs = max_jobs;
  SimulationDriver driver(tuner, bench, options);
  return driver.Run();
}

TEST(RegistryFigureSettings, MatchDirectConstruction) {
  for (const auto& figure : FigureCases()) {
    SCOPED_TRACE(figure.name + " on " + figure.benchmark);
    constexpr std::uint64_t kSeed = 11;
    auto bench = benchmarks::ByName(figure.benchmark, kSeed);
    TunerParams params = figure.params;
    params.seed = kSeed;
    auto registry = MakeTunerByName(figure.name, *bench, params);
    auto reference = figure.reference(*bench, kSeed);
    const DriverResult a = RunCase(*registry, *bench, figure.max_jobs);
    const DriverResult b = RunCase(*reference, *bench, figure.max_jobs);

    ASSERT_EQ(a.completions.size(), b.completions.size());
    EXPECT_EQ(a.completions.size(), figure.max_jobs);
    EXPECT_FALSE(a.recommendations.empty());
    for (std::size_t i = 0; i < a.completions.size(); ++i) {
      const RunRecord& x = a.completions[i];
      const RunRecord& y = b.completions[i];
      ASSERT_EQ(x.trial_id, y.trial_id) << "job " << i;
      ASSERT_EQ(x.rung, y.rung) << "job " << i;
      ASSERT_EQ(x.bracket, y.bracket) << "job " << i;
      ASSERT_EQ(x.from_resource, y.from_resource) << "job " << i;
      ASSERT_EQ(x.to_resource, y.to_resource) << "job " << i;
      ASSERT_EQ(x.loss, y.loss) << "job " << i;
      ASSERT_EQ(x.lost, y.lost) << "job " << i;
      ASSERT_EQ(x.start_time, y.start_time) << "job " << i;
      ASSERT_EQ(x.end_time, y.end_time) << "job " << i;
      ASSERT_EQ(x.queue_wait, y.queue_wait) << "job " << i;
      ASSERT_EQ(x.worker, y.worker) << "job " << i;
      ASSERT_EQ(x.lease_id, y.lease_id) << "job " << i;
    }
    ASSERT_EQ(a.recommendations.size(), b.recommendations.size());
    for (std::size_t i = 0; i < a.recommendations.size(); ++i) {
      EXPECT_EQ(a.recommendations[i].trial_id, b.recommendations[i].trial_id);
      EXPECT_EQ(a.recommendations[i].loss, b.recommendations[i].loss);
      EXPECT_EQ(a.recommendations[i].time, b.recommendations[i].time);
    }
  }
}

}  // namespace
}  // namespace hypertune
