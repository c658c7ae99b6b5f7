// The seeded worker fleet behind the serve workloads. It decides which
// logical worker sends what next and checks every reply; the live load
// generator (serve.cc) and the in-process replay (stacks.cc) both drive
// it, so they see the same traffic for the same seed.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "common/json.h"
#include "common/rng.h"

namespace htbench {

/// The fixed parameters of one serve workload.
struct Shape {
  std::string name;
  bool durable = false;   // --multi-study --state-dir, studies recycle
  int workers = 0;        // logical workers
  int studies = 0;        // live named studies (0 = the single default one)
  int batch = 0;          // request_jobs count (0 = single request_job)
  double nominal_rate = 0;
  double ladder_start = 0;
  int ladder_steps = 0;
  std::uint64_t saturation_messages = 0;
};

Shape ShapeOf(const std::string& workload);

enum class Kind : std::uint8_t {
  kRequest,  // request_job / request_jobs
  kHeartbeat,
  kReport,
  kCreate,
  kDelete,
};

const char* KindName(Kind kind);

/// One message handed to the transport, with what its reply is checked
/// against.
struct Outgoing {
  hypertune::Json message;
  Kind kind = Kind::kRequest;
  int worker = -1;  // -1 for admin messages
  int slot = -1;    // study slot (durable)
  std::int64_t due_ns = 0;
};

/// Tallies the generator keeps per study name, compared with the server's
/// own summary at stop.
struct StudyTally {
  std::uint64_t assigned = 0;
  std::uint64_t completed = 0;
  std::set<std::uint64_t> job_ids;
};

class Fleet {
 public:
  Fleet(const Shape& shape, std::uint64_t seed);

  /// The study configs to create before load starts (durable only).
  std::vector<Outgoing> InitialStudies();

  /// The next message of a ready worker (admin messages first), or nullopt
  /// when every worker waits for a reply. Marks the worker busy.
  std::optional<Outgoing> Next();

  /// Applies the reply to the message it answers. Returns false when the
  /// reply counts as a failed operation.
  bool OnReply(const Outgoing& sent, const hypertune::Json& reply,
               Result& result);

  /// From now on workers only report (and heartbeat) the leases they hold.
  void BeginDrain() { draining_ = true; }
  /// True when no lease is held and no admin message is pending.
  bool Drained() const;

  const std::map<std::string, StudyTally>& tallies() const { return tallies_; }
  /// Names of the studies live now (durable), sorted.
  std::vector<std::string> LiveStudies() const;

 private:
  struct Worker {
    int slot = 0;
    std::deque<std::uint64_t> leases;
    int hold_left = 0;
    bool busy = false;
    bool parked = false;
  };
  struct Slot {
    std::string name;
    int parked = 0;
    bool recycling = false;
  };

  bool Ready(const Worker& worker) const;
  hypertune::Json Base(const char* type, int worker) const;
  Outgoing Build(int index);
  std::string StudyName();
  void TakeJob(Worker& worker, const std::string& study,
               const hypertune::Json& entry, Result& result);

  Shape shape_;
  hypertune::Rng rng_;
  std::vector<Worker> workers_;
  std::vector<Slot> slots_;
  std::deque<Outgoing> admin_;
  std::map<std::string, StudyTally> tallies_;
  std::uint64_t generation_ = 0;
  bool draining_ = false;
};

/// The stock study config every serve-durable tenant is created with.
hypertune::Json StudyConfig(std::uint64_t seed);

/// The traced run's in-process replay of the workload's traffic through
/// the stacked layers (stacks.cc); adds the per-layer metrics and returns
/// the top row's per-message p50 in µs.
double ReplayStacks(const Shape& shape, const Args& args, Spans& spans,
                    Result& result);

}  // namespace htbench
