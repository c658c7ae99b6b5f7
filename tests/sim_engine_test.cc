// The simulator-engine contract (DESIGN.md §9): the binary heap and the
// calendar queue pop in exactly ascending (end, seq) order, so swapping the
// engine can never change a scheduling decision. These tests hold the two
// queues to identical pop sequences on randomized driver-like workloads,
// pin the idle-worker set's lowest-index-first order, and check the
// stranded in-flight accounting added to DriverResult.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/asha.h"
#include "sim/driver.h"
#include "sim/event_queue.h"
#include "telemetry/telemetry.h"

namespace hypertune {
namespace {

// Drains both queues under a driver-shaped workload: pop the earliest
// event, then push a few new events at or after the popped time (the
// monotone-time precondition the driver guarantees). Quantized end times
// force frequent same-tick ties that only the seq number breaks.
void CheckIdenticalPopOrder(std::uint64_t seed, std::size_t expected_events,
                            bool quantize) {
  Rng rng(seed);
  BinaryEventHeap heap;
  CalendarEventQueue calendar({.expected_events = expected_events});

  std::uint64_t seq = 0;
  double now = 0;
  auto push_one = [&] {
    double end = now + rng.Uniform(0.0, 100.0);
    if (quantize) end = now + static_cast<double>(rng.UniformInt(0, 5));
    const SimEvent event{end, seq++, static_cast<std::uint32_t>(seq % 64)};
    heap.Push(event);
    calendar.Push(event);
  };

  for (int i = 0; i < 50; ++i) push_one();
  int popped = 0;
  while (!heap.empty()) {
    ASSERT_FALSE(calendar.empty());
    const SimEvent a = heap.Top();
    const SimEvent b = calendar.Top();
    ASSERT_EQ(a.end, b.end) << "pop " << popped;
    ASSERT_EQ(a.seq, b.seq) << "pop " << popped;
    ASSERT_EQ(a.slot, b.slot) << "pop " << popped;
    heap.PopTop();
    calendar.PopTop();
    now = a.end;
    ++popped;
    if (popped < 2000) {
      const std::int64_t births = rng.UniformInt(0, 3);
      for (std::int64_t i = 0; i < births; ++i) push_one();
    }
  }
  EXPECT_TRUE(calendar.empty());
  EXPECT_GE(popped, 2000);
}

TEST(EventQueueProperty, HeapAndCalendarPopIdentically) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    CheckIdenticalPopOrder(seed, /*expected_events=*/64, /*quantize=*/false);
  }
}

TEST(EventQueueProperty, SameTickTiesBreakBySeq) {
  // Quantized ends put many events on the same instant; FIFO seq order is
  // the only thing separating them.
  for (std::uint64_t seed = 10; seed <= 17; ++seed) {
    CheckIdenticalPopOrder(seed, /*expected_events=*/16, /*quantize=*/true);
  }
  // A calendar sized well below the live event count wraps its year
  // often, so each bucket mixes the events of several days.
  CheckIdenticalPopOrder(22, /*expected_events=*/4, /*quantize=*/true);
}

TEST(EventQueue, CalendarHandlesWideIdleGaps) {
  // Sparse ends that jump far past the calendar's adapted year exercise
  // the skip-ahead / direct-search path.
  CalendarEventQueue calendar({.expected_events = 4});
  BinaryEventHeap heap;
  double now = 0;
  for (std::uint64_t seq = 0; seq < 200; ++seq) {
    const SimEvent event{now + 1.0 + static_cast<double>(seq % 3) * 1e6, seq,
                         static_cast<std::uint32_t>(seq % 8)};
    heap.Push(event);
    calendar.Push(event);
    if (seq % 2 == 1) {
      ASSERT_EQ(heap.Top().seq, calendar.Top().seq);
      now = heap.Top().end;
      heap.PopTop();
      calendar.PopTop();
    }
  }
  while (!heap.empty()) {
    ASSERT_EQ(heap.Top().seq, calendar.Top().seq);
    heap.PopTop();
    calendar.PopTop();
  }
  EXPECT_TRUE(calendar.empty());
}

TEST(EventQueue, CalendarRetunesOnAshaDurationLadder) {
  // Successive halving's job mix at a fixed fleet: the first 64 jobs are
  // rung-0 jobs of similar length; afterwards promotions bring jobs
  // 4^k = 4..256x longer (rung k drawn with probability ~4^-k). A day width
  // tuned on the rung-0 sample leaves most days empty once the long jobs
  // arrive, and the live count never doubles to trigger a re-tune; the
  // queue must notice the skip-ahead misses and re-tune instead of falling
  // back to the O(buckets + events) direct search on most pops.
  constexpr std::size_t kLive = 64;
  constexpr std::size_t kPops = 60000;
  Rng rng(31);
  BinaryEventHeap heap;
  CalendarEventQueue calendar({.expected_events = kLive});
  std::uint64_t seq = 0;
  double now = 0;
  auto push_one = [&](bool rung0_only) {
    double duration = rng.Uniform(0.5, 1.5);
    for (int rung = 0; !rung0_only && rung < 4 && rng.Bernoulli(0.25);
         ++rung) {
      duration *= 4.0;
    }
    const SimEvent event{now + duration, seq,
                         static_cast<std::uint32_t>(seq % kLive)};
    ++seq;
    heap.Push(event);
    calendar.Push(event);
  };
  for (std::size_t i = 0; i < kLive; ++i) push_one(/*rung0_only=*/true);
  for (std::size_t popped = 0; popped < kPops; ++popped) {
    const SimEvent a = heap.Top();
    const SimEvent b = calendar.Top();
    ASSERT_EQ(a.end, b.end) << "pop " << popped;
    ASSERT_EQ(a.seq, b.seq) << "pop " << popped;
    ASSERT_EQ(a.slot, b.slot) << "pop " << popped;
    heap.PopTop();
    calendar.PopTop();
    now = a.end;
    push_one(/*rung0_only=*/false);
  }
  EXPECT_EQ(calendar.size(), kLive);
  EXPECT_LE(calendar.direct_searches(), kPops / 100)
      << "direct-search fallbacks out of " << kPops << " pops";
}

TEST(EventQueue, CalendarRejectsPushBelowFloor) {
  CalendarEventQueue calendar({.expected_events = 4});
  calendar.Push({10.0, 0, 0});
  calendar.Push({20.0, 1, 1});
  calendar.PopTop();  // floor is now 10
  EXPECT_THROW(calendar.Push({5.0, 2, 2}), CheckError);
}

TEST(IdleWorkerSet, PopsLowestIndexFirst) {
  // 130 workers spans three 64-bit words, exercising the summary level.
  IdleWorkerSet idle(130);
  for (int i = 0; i < 130; ++i) {
    ASSERT_FALSE(idle.empty());
    EXPECT_EQ(idle.PopLowest(), i);
  }
  EXPECT_TRUE(idle.empty());

  idle.Insert(129);
  idle.Insert(64);
  idle.Insert(3);
  EXPECT_EQ(idle.PopLowest(), 3);
  EXPECT_EQ(idle.PopLowest(), 64);
  EXPECT_EQ(idle.PopLowest(), 129);
  EXPECT_TRUE(idle.empty());
}

SearchSpace UnitSpace() {
  SearchSpace space;
  space.Add("x", Domain::Continuous(0.0, 1.0));
  return space;
}

/// Loss = the config's x value; duration = resource increment.
class LinearEnv final : public JobEnvironment {
 public:
  double Loss(const Configuration& config, Resource resource) override {
    (void)resource;
    return config.GetDouble("x");
  }
  double Duration(const Configuration& config, Resource from,
                  Resource to) override {
    (void)config;
    return to - from;
  }
};

AshaOptions SmallAsha() {
  AshaOptions options;
  options.R = 27;
  options.eta = 3;
  options.max_trials = 40;
  return options;
}

struct EngineRun {
  DriverResult result;
  std::string jsonl;
};

EngineRun RunAsha(SimEngine engine, int workers, std::size_t max_jobs = 0) {
  AshaScheduler scheduler(MakeRandomSampler(UnitSpace()), SmallAsha());
  LinearEnv env;
  auto telemetry = Telemetry::ForSimulation();
  DriverOptions options;
  options.num_workers = workers;
  options.telemetry = telemetry.get();
  options.event_queue = engine;
  options.max_completed_jobs = max_jobs;
  SimulationDriver driver(scheduler, env, options);
  EngineRun run;
  run.result = driver.Run();
  run.jsonl = telemetry->tracer().ToJsonl();
  return run;
}

void ExpectSameDecisions(const EngineRun& a, const EngineRun& b) {
  ASSERT_EQ(a.result.completions.size(), b.result.completions.size());
  for (std::size_t i = 0; i < a.result.completions.size(); ++i) {
    const RunRecord& x = a.result.completions[i];
    const RunRecord& y = b.result.completions[i];
    ASSERT_EQ(x.trial_id, y.trial_id) << "job " << i;
    ASSERT_EQ(x.rung, y.rung) << "job " << i;
    ASSERT_EQ(x.worker, y.worker) << "job " << i;
    ASSERT_EQ(x.start_time, y.start_time) << "job " << i;
    ASSERT_EQ(x.end_time, y.end_time) << "job " << i;
    ASSERT_EQ(x.loss, y.loss) << "job " << i;
    ASSERT_EQ(x.lost, y.lost) << "job " << i;
  }
  ASSERT_EQ(a.result.recommendations.size(), b.result.recommendations.size());
  EXPECT_EQ(a.result.end_time, b.result.end_time);
  EXPECT_EQ(a.result.jobs_completed, b.result.jobs_completed);
  // The telemetry export — spans, instants, metadata — must be
  // byte-identical, not merely equivalent.
  EXPECT_EQ(a.jsonl, b.jsonl);
}

TEST(EngineEquivalence, CalendarMatchesHeapByteForByte) {
  for (const int workers : {1, 4, 16}) {
    const EngineRun heap = RunAsha(SimEngine::kBinaryHeap, workers);
    const EngineRun calendar = RunAsha(SimEngine::kCalendar, workers);
    ExpectSameDecisions(heap, calendar);
  }
}

TEST(StrandedAccounting, InFlightJobsAreCountedNotDropped) {
  // Cap completions mid-run with several workers: the jobs still occupying
  // workers at the stop are in flight — not completed, not dropped.
  const EngineRun run = RunAsha(SimEngine::kBinaryHeap, 8, /*max_jobs=*/10);
  EXPECT_EQ(run.result.jobs_completed, 10u);
  EXPECT_GT(run.result.jobs_in_flight, 0u);
  EXPECT_LE(run.result.jobs_in_flight, 7u);  // at most workers - 1
  EXPECT_EQ(run.result.completions.size(),
            run.result.jobs_completed + run.result.jobs_dropped);
}

TEST(StrandedAccounting, DrainedRunHasNoInFlightJobs) {
  const EngineRun run = RunAsha(SimEngine::kCalendar, 4);
  EXPECT_EQ(run.result.jobs_in_flight, 0u);
  EXPECT_GT(run.result.jobs_completed, 0u);
}

TEST(StrandedAccounting, StrandedCounterMatchesResult) {
  AshaScheduler scheduler(MakeRandomSampler(UnitSpace()), SmallAsha());
  LinearEnv env;
  auto telemetry = Telemetry::ForSimulation();
  DriverOptions options;
  options.num_workers = 8;
  options.telemetry = telemetry.get();
  options.max_completed_jobs = 10;
  SimulationDriver driver(scheduler, env, options);
  const DriverResult result = driver.Run();
  ASSERT_GT(result.jobs_in_flight, 0u);
  EXPECT_EQ(telemetry->metrics().CounterValue("driver.jobs_stranded"),
            static_cast<std::int64_t>(result.jobs_in_flight));
}

}  // namespace
}  // namespace hypertune
