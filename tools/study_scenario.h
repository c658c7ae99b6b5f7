// Multi-study chaos scenario: one StudyManager hosting N studies, each
// driven by its own virtual-time worker fleet, crashed and recovered
// mid-run.
//
// The identity claim is per study: because studies are independent (own
// scheduler, own server, own journal) and every fleet runs on the same
// virtual-time grid as the single-study harness, study i's decision text
// after a crash/recovery must be byte-identical to an uninterrupted
// SINGLE-study run with the same (kind, seed) — interleaving a hundred
// tenants and killing the server must perturb nobody's search. Studies
// cycle through the scheduler zoo x the golden seeds so the claim covers
// the same surface as the single-study goldens.
//
// The harness mirrors RunServiceDecisions exactly where it matters:
// identical worker fleets (ids, heartbeat, retry seeds), identical grid
// (now = 0..2000 step 0.25), and no manager-level Tick — lease expiry
// happens only through each study's own message-driven ticks, as in the
// single-study run. The only difference is the study id riding on each
// message, which the per-study TuningServer ignores.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dump_scenario.h"
#include "study/study_manager.h"

namespace hypertune {

struct MultiStudyOptions {
  /// Number of concurrent studies (cycling kinds x seeds below).
  std::size_t studies = 100;
  /// Workers per study (each study gets its own fleet, ids 0..N-1, exactly
  /// like the single-study harness).
  int workers = 8;
  /// Durable state root; the manager is killed after `crash_at` handled
  /// messages and rebuilt from this directory. 0 = never crash.
  std::string state_dir;
  std::size_t crash_at = 0;
  std::size_t shards = 16;
  std::size_t snapshot_every = 64;
  SyncPolicy sync = SyncPolicy::kEveryN;
};

struct MultiStudyResult {
  /// Decision text per study, keyed by study name.
  std::map<std::string, std::string> texts;
  /// (kind, seed) per study name — the single-study golden each text must
  /// match.
  std::map<std::string, std::pair<std::string, std::uint64_t>> combos;
  std::size_t messages_handled = 0;
  /// Studies restored by the post-crash incarnation.
  std::size_t recovered_studies = 0;
  bool crashed = false;
};

/// The (kind, seed) combo for study index i — the zoo x the golden seeds.
inline std::pair<std::string, std::uint64_t> MultiStudyCombo(std::size_t i) {
  static const char* kKinds[] = {"asha", "sha", "hyperband"};
  static const std::uint64_t kSeeds[] = {1, 42, 1000};
  return {kKinds[i % 3], kSeeds[(i / 3) % 3]};
}

inline std::string MultiStudyName(std::size_t i) {
  const auto [kind, seed] = MultiStudyCombo(i);
  return "s" + std::to_string(i) + "-" + kind + "-" + std::to_string(seed);
}

inline MultiStudyResult RunMultiStudyDecisions(const MultiStudyOptions& opts) {
  HT_CHECK_MSG(!opts.state_dir.empty(),
               "multi-study chaos needs a durable state dir");
  MultiStudyResult result;
  DumpEnv env;

  StudyManagerOptions manager_options;
  manager_options.shards = opts.shards;
  manager_options.server =
      ServerOptions{.lease_timeout = 30, .track_recommendations = true};
  manager_options.durability_root = opts.state_dir;
  manager_options.sync = opts.sync;
  manager_options.snapshot_every = opts.snapshot_every;
  manager_options.default_config = Json();  // no default study: all scoped
  const StudySchedulerFactory factory = MakeStudySchedulerFactory(DumpSpace());

  auto manager = std::make_unique<StudyManager>(factory, manager_options);
  for (std::size_t i = 0; i < opts.studies; ++i) {
    const auto [kind, seed] = MultiStudyCombo(i);
    const std::string name = MultiStudyName(i);
    HT_CHECK_MSG(manager->CreateStudy(name, DumpStudyConfig(kind, seed), 0.0),
                 "cannot create study " << name);
    result.combos[name] = {kind, seed};
  }

  // The crash tears between messages, exactly like the single-study chaos
  // harness: the manager object dies (journals close mid-generation), the
  // replacement recovers every study from disk.
  dump_internal::HarnessConnection connection(
      [&](const Json& message, double now) -> std::optional<Json> {
        Json reply = manager->HandleMessage(message, now);
        ++result.messages_handled;
        if (opts.crash_at != 0 &&
            result.messages_handled == opts.crash_at) {
          manager.reset();
          manager = std::make_unique<StudyManager>(factory, manager_options);
          result.crashed = true;
          result.recovered_studies = manager->stats().recovered;
        }
        return reply;
      });

  // One fleet per study, byte-compatible with the single-study harness:
  // same ids, same heartbeat, same retry stream (seeded by the study's
  // seed), same grid. SetStudy pins every message to its tenant.
  struct Fleet {
    std::string name;
    std::vector<SimulatedWorker> workers;
    bool finished = false;
  };
  std::vector<Fleet> fleets(opts.studies);
  for (std::size_t i = 0; i < opts.studies; ++i) {
    const auto [kind, seed] = MultiStudyCombo(i);
    fleets[i].name = MultiStudyName(i);
    fleets[i].workers.reserve(static_cast<std::size_t>(opts.workers));
    const WorkerRetryOptions retry{.initial_backoff = 0.5,
                                   .max_backoff = 8.0,
                                   .multiplier = 2.0,
                                   .jitter = 0.25,
                                   .seed = seed};
    for (int w = 0; w < opts.workers; ++w) {
      fleets[i].workers.emplace_back(static_cast<std::uint64_t>(w), env,
                                     /*heartbeat_interval=*/5.0,
                                     /*prefetch=*/1, nullptr, retry);
      fleets[i].workers.back().SetStudy(fleets[i].name);
    }
  }

  for (double now = 0; now < 2000; now += 0.25) {
    bool all_finished = true;
    for (Fleet& fleet : fleets) {
      if (fleet.finished) continue;
      for (auto& worker : fleet.workers) {
        if (now >= worker.next_action_time()) worker.OnTick(connection, now);
      }
      // Mirrors the single-study loop's break: once a study's scheduler is
      // done its fleet goes quiet (the single-study run stops there too).
      const Scheduler* scheduler = manager->FindScheduler(fleet.name);
      if (scheduler != nullptr && scheduler->Finished()) {
        fleet.finished = true;
      } else {
        all_finished = false;
      }
    }
    if (all_finished) break;
  }

  for (const Fleet& fleet : fleets) {
    const TuningServer* server = manager->FindServer(fleet.name);
    const Scheduler* scheduler = manager->FindScheduler(fleet.name);
    HT_CHECK(server != nullptr && scheduler != nullptr);
    const auto& [kind, seed] = result.combos[fleet.name];
    result.texts[fleet.name] =
        FormatDecisionText(kind, seed, opts.workers, *server, *scheduler);
  }
  return result;
}

}  // namespace hypertune
