// Real (non-simulated) execution: a pool of OS worker threads pulling jobs
// from a Scheduler and running a user-supplied training function.
//
// This is the production half of the system the paper describes — their
// implementation drove 25-500 actual workers. The tuners are agnostic to
// the executor: the same Scheduler object can be driven by the
// deterministic SimulationDriver (for experiments) or by this pool (for
// real tuning), because both adapt the same trial-lifecycle core
// (src/lifecycle): TrialLifecycle owns leasing, exactly-once outcome
// validation, and RunRecord bookkeeping; this executor contributes threads,
// the wall clock, and the low-contention serialization around the core.
//
// Concurrency contract: Scheduler and TrialLifecycle are NOT thread-safe;
// the executor serializes all Acquire/Complete/Lose calls behind one mutex
// and runs the (expensive) training function outside it, so scheduler work
// never blocks training and vice versa. The critical section is kept
// minimal: training, telemetry JSON (EmitJobSpan is lock-free against the
// lifecycle), and timing run unlocked; wakeups are targeted notify_one
// chained through an idle count. Workers with no available job park on a
// condition variable.
//
// With `prefetch` > 0 the executor keeps up to that many leased jobs pulled
// ahead in a shared buffer, refilled while the completion lock is already
// held — a free worker then dequeues without paying a scheduler call.
// Prefetching changes *when* jobs are leased, so it is off by default; runs
// that must be decision-comparable to the simulator leave it off. Jobs
// still buffered at shutdown are resolved through TrialLifecycle::Lose
// (they were leased but never trained) and counted in
// ExecutorResult::jobs_lost.
//
// Hazard injection (paper §4.2 / Appendix A.1) works on this real backend
// too: when `hazards` is set, each leased job draws a straggler/drop fate
// from a seeded HazardInjector at acquisition time (under the lock, so the
// draw order is the lease order — with one worker it matches the simulator
// exactly). A dropped job is treated as preempted: the training function
// never runs and the job is reported lost. `hazard_time_scale` optionally
// converts the plan's virtual durations into real injected delays so
// stragglers are observable in wall-clock terms.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

#include "core/scheduler.h"
#include "lifecycle/hazards.h"
#include "lifecycle/lifecycle.h"
#include "lifecycle/run_record.h"

namespace hypertune {

class Telemetry;
class Counter;
class Histogram;

/// Trains `job.config` from `job.from_resource` to `job.to_resource` and
/// returns the validation loss. Throwing (any exception) reports the job as
/// lost — the worker equivalent of a crashed or preempted task.
using TrainFunction = std::function<double(const Job&)>;

struct ExecutorOptions {
  int num_workers = 4;
  /// Wall-clock budget; zero means unlimited (then max_jobs or
  /// Scheduler::Finished must terminate the run).
  std::chrono::milliseconds wall_clock_budget{0};
  /// Stop after this many completed jobs (0 = unlimited).
  std::size_t max_jobs = 0;
  /// Jobs to keep pulled ahead of demand in a shared buffer (0 = fetch on
  /// demand). See the prefetch paragraph in the file comment.
  int prefetch = 0;
  /// Straggler/drop injection for this real backend (both disabled by
  /// default). See the hazard paragraph in the file comment.
  HazardOptions hazards{};
  /// Seed for the hazard stream (independent of the scheduler's stream);
  /// matches DriverOptions::seed's default so the same seed reproduces the
  /// simulator's fates.
  std::uint64_t hazard_seed = 99;
  /// Base (virtual) duration fed to the hazard model for each job; null
  /// uses the job's resource increment (to - from), the simulator's
  /// convention for environments whose Duration is the resource delta.
  std::function<double(const Job&)> hazard_duration{};
  /// Seconds of real injected delay per virtual hazard time unit. Zero (the
  /// default) injects only the accounting (drops); > 0 also sleeps the
  /// straggler inflation and the dropped jobs' partial runtimes.
  double hazard_time_scale = 0;
  /// Optional observability sink (not owned; must outlive the executor).
  /// When set, each worker emits a per-job span on its own trace track,
  /// counts completions/losses, and feeds two histograms:
  /// "executor.queue_wait_seconds" (time a free worker waited for its next
  /// job, promotion stalls included) and "executor.job_seconds" (training
  /// durations). Null — the default — makes instrumentation a no-op.
  Telemetry* telemetry = nullptr;
};

struct ExecutorResult {
  std::size_t jobs_completed = 0;
  std::size_t jobs_lost = 0;
  double elapsed_seconds = 0;
  /// One RunRecord per resolved lease (times are seconds since run start),
  /// sorted by end_time.
  std::vector<RunRecord> records;
  /// Incumbent trajectory (recommendation changes), timestamped in seconds
  /// since run start.
  std::vector<RecommendationPoint> recommendations;
};

class ThreadPoolExecutor {
 public:
  ThreadPoolExecutor(Scheduler& scheduler, TrainFunction train,
                     ExecutorOptions options);

  /// Runs worker threads until a stop condition holds; joins them before
  /// returning. Safe to call once per executor instance.
  ExecutorResult Run();

 private:
  /// A leased job plus its hazard fate (a no-op plan when hazards are off).
  struct PendingJob {
    LeasedJob lease;
    HazardPlan plan;
    /// Straggler-free duration the plan was drawn from (plan.duration -
    /// plan_base is the inflation a straggler adds).
    double plan_base = 0;
  };

  void WorkerLoop(int worker_index,
                  std::chrono::steady_clock::time_point start);
  bool StopRequested(std::chrono::steady_clock::time_point start) const;
  /// Leases the next job and draws its hazard fate. Caller holds mutex_.
  std::optional<PendingJob> AcquireLocked();
  /// Tops the prefetch buffer back up to options_.prefetch. Caller holds
  /// mutex_ (the completion path calls it while the lock is already hot).
  void RefillPrefetchLocked(std::chrono::steady_clock::time_point start);

  Scheduler& scheduler_;
  TrainFunction train_;
  ExecutorOptions options_;
  HazardInjector hazards_;

  // Instruments resolved once at construction (null when telemetry is off)
  // so the worker hot path never takes the registry's registration lock.
  Counter* jobs_completed_counter_ = nullptr;
  Counter* jobs_lost_counter_ = nullptr;
  Histogram* queue_wait_histogram_ = nullptr;
  Histogram* job_seconds_histogram_ = nullptr;

  std::mutex mutex_;
  std::condition_variable work_available_;
  bool shutting_down_ = false;
  int idle_workers_ = 0;
  int active_jobs_ = 0;
  /// Jobs leased ahead of demand (bounded by options_.prefetch).
  std::deque<PendingJob> prefetch_buffer_;
  /// The shared lease→run→outcome core; guarded by mutex_ (same contract
  /// as the scheduler it wraps).
  TrialLifecycle lifecycle_;
};

}  // namespace hypertune
