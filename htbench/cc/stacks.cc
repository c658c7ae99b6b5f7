// The traced run's in-process replay: the serve workload's seeded traffic
// is recorded once against an in-memory reference server, then replayed
// through progressively taller stacks of the program's own modules:
//
//   core (Scheduler) -> lifecycle (TrialLifecycle) -> service (TuningServer)
//   -> durability (DurableServer) -> study (StudyManager) -> net (codec)
//
// Every row replays the same messages in the same order, so a layer's cost
// is the difference between adjacent rows on the same message. Every call
// is a span named after its row; the net row nests its codec calls under
// one span per request.
#include <sys/stat.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "durability/durable_server.h"
#include "layers.h"
#include "lifecycle/lifecycle.h"
#include "net/codec.h"
#include "registry/registry.h"
#include "service/server.h"
#include "study/study_manager.h"
#include "surrogate/benchmarks.h"
#include "traffic.h"

namespace htbench {
namespace {

using hypertune::Json;

constexpr std::size_t kReplayDurable = 60000;
constexpr std::size_t kReplayHeartbeat = 20000;
// The CLI's --serve defaults: benchmark cifar_arch, seed 1000, 60 s leases.
constexpr std::uint64_t kCliSeed = 1000;
hypertune::ServerOptions CliServerOptions() {
  hypertune::ServerOptions options;
  options.lease_timeout = 60;
  options.track_recommendations = true;
  return options;
}
const hypertune::ServerOptions kServerOptions = CliServerOptions();

struct Logged {
  Json message;
  Kind kind = Kind::kRequest;
  std::string study;  // "default" for the single-study workload
  double now = 0;
  /// (job id, trial) of every job the reference server granted.
  std::vector<std::pair<std::uint64_t, std::int64_t>> grants;
};

/// Builds schedulers exactly as the served CLI does.
class Schedulers {
 public:
  explicit Schedulers(const Shape& shape)
      : shape_(shape), bench_(hypertune::benchmarks::ByName("cifar_arch", kCliSeed)),
        stock_(hypertune::MakeStudySchedulerFactory(bench_->space())) {}
  Schedulers(const Schedulers&) = delete;
  Schedulers& operator=(const Schedulers&) = delete;

  std::unique_ptr<hypertune::Scheduler> Make(const Json& config) const {
    if (shape_.durable) return stock_(config);
    hypertune::TunerParams params;
    params.eta = 4;
    params.s = 0;
    params.r_divisor = 256;
    params.n = 256;
    params.seed = kCliSeed;
    return hypertune::MakeTunerByName("asha", *bench_, params);
  }
  /// The study manager's factory: the stock one for studies the workload
  /// creates, the served CLI's ASHA for the single-study workload's default.
  hypertune::StudySchedulerFactory factory() const {
    return [this](const Json& config) { return Make(config); };
  }

 private:
  Shape shape_;
  std::unique_ptr<hypertune::SyntheticBenchmark> bench_;
  hypertune::StudySchedulerFactory stock_;
};

hypertune::StudyManagerOptions ManagerOptions(const std::string& root) {
  hypertune::StudyManagerOptions options;
  options.shards = 4;
  options.server = kServerOptions;
  options.durability_root = root;
  Json config = hypertune::JsonObject{};
  config.Set("kind", Json("asha"));
  config.Set("seed", Json(static_cast<std::int64_t>(kCliSeed)));
  options.default_config = config;
  return options;
}

std::vector<Logged> Record(const Shape& shape, const Args& args,
                           const Schedulers& schedulers) {
  Fleet fleet(shape, args.seed);
  Result scratch;
  std::unique_ptr<hypertune::MessageService> service;
  std::unique_ptr<hypertune::Scheduler> scheduler;
  if (shape.durable) {
    service = std::make_unique<hypertune::StudyManager>(schedulers.factory(),
                                                        ManagerOptions(""));
  } else {
    scheduler = schedulers.Make(Json());
    service = std::make_unique<hypertune::TuningServer>(*scheduler, kServerOptions);
  }
  std::vector<Logged> log;
  const std::size_t count = shape.durable ? kReplayDurable : kReplayHeartbeat;
  std::vector<Outgoing> pending = fleet.InitialStudies();
  while (log.size() < count) {
    Outgoing out;
    if (!pending.empty()) {
      out = std::move(pending.back());
      pending.pop_back();
    } else if (auto next = fleet.Next()) {
      out = std::move(*next);
    } else {
      break;
    }
    Logged entry;
    entry.now = static_cast<double>(log.size()) / shape.nominal_rate;
    entry.kind = out.kind;
    entry.study = out.message.Has("study") ? out.message.at("study").AsString()
                                           : "default";
    entry.message = out.message;
    const Json reply = service->HandleMessage(out.message, entry.now);
    const std::string& type = reply.at("type").AsString();
    if (type == "job") {
      entry.grants.emplace_back(reply.at("job_id").AsInt(),
                                reply.at("job").at("trial").AsInt());
    } else if (type == "jobs") {
      for (const auto& job : reply.at("jobs").AsArray()) {
        entry.grants.emplace_back(job.at("job_id").AsInt(),
                                  job.at("job").at("trial").AsInt());
      }
    }
    fleet.OnReply(out, reply, scratch);
    log.push_back(std::move(entry));
  }
  return log;
}

/// Per-message durations of one row (ns), -1 where the row has no call.
using Row = std::vector<double>;

/// "<layer>.<message type>", interned so spans can keep the pointer.
const char* SpanName(const char* layer, const Logged& entry) {
  static std::set<std::string> names;
  return names.insert(std::string(layer) + "." + entry.message.at("type").AsString())
      .first->c_str();
}

bool IsLease(const Logged& entry) {
  return entry.kind == Kind::kRequest || entry.kind == Kind::kHeartbeat ||
         entry.kind == Kind::kReport;
}

/// Median over lease messages of upper[i] - lower[i].
double PairedGap(const Row& upper, const Row& lower,
                 const std::vector<Logged>& log) {
  std::vector<double> gaps;
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (IsLease(log[i]) && upper[i] >= 0 && lower[i] >= 0) {
      gaps.push_back(upper[i] - lower[i]);
    }
  }
  return Median(gaps);
}

std::vector<double> Where(const Row& row, const std::vector<Logged>& log,
                          Kind kind) {
  std::vector<double> out;
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (log[i].kind == kind && row[i] >= 0) {
      out.push_back(row[i]);
    }
  }
  return out;
}

// --- rows ----------------------------------------------------------------

void CoreRow(const std::vector<Logged>& log, const Schedulers& schedulers,
             Spans& spans, Result& result) {
  std::map<std::string, std::unique_ptr<TracedScheduler>> studies;
  std::map<std::pair<std::string, std::uint64_t>, hypertune::Job> jobs;
  bool same = true;
  auto get = [&](const std::string& name) -> TracedScheduler& {
    auto& slot = studies[name];
    if (!slot) {
      slot = std::make_unique<TracedScheduler>(schedulers.Make(Json()), &spans, 0);
    }
    return *slot;
  };
  for (std::size_t i = 0; i < log.size(); ++i) {
    const Logged& entry = log[i];
    if (entry.kind == Kind::kCreate) {
      studies[entry.study] = std::make_unique<TracedScheduler>(
          schedulers.Make(entry.message.at("config")), &spans, 0);
      continue;
    }
    if (entry.kind == Kind::kDelete) {
      studies.erase(entry.study);
      continue;
    }
    TracedScheduler& scheduler = get(entry.study);
    scheduler.request = i;
    if (entry.kind == Kind::kRequest) {
      const bool batch = entry.message.at("type").AsString() == "request_jobs";
      const std::size_t want =
          batch ? static_cast<std::size_t>(entry.message.at("count").AsInt()) : 1;
      for (const auto& [job_id, trial] : entry.grants) {
        const auto job = scheduler.GetJob();
        same = same && job.has_value() && job->trial_id == trial;
        if (job) jobs[{entry.study, job_id}] = *job;
      }
      if (entry.grants.size() < want) same = same && !scheduler.GetJob().has_value();
    } else if (entry.kind == Kind::kReport) {
      const auto it = jobs.find({entry.study, static_cast<std::uint64_t>(
                                                  entry.message.at("job_id").AsInt())});
      if (it != jobs.end()) {
        scheduler.ReportResult(it->second, entry.message.at("loss").AsDouble());
        jobs.erase(it);
      }
    }  // a heartbeat reaches no scheduler
  }
  result.Check(same, "core row grants the reference server's trials");
}

void LifecycleRow(const std::vector<Logged>& log, const Schedulers& schedulers,
                  Spans& spans, Result& result) {
  struct Study {
    std::unique_ptr<hypertune::Scheduler> scheduler;
    std::unique_ptr<hypertune::TrialLifecycle> lifecycle;
    std::map<std::uint64_t, hypertune::LeasedJob> leases;
  };
  std::map<std::string, Study> studies;
  bool same = true;
  auto make = [&](const std::string& name, const Json& config) -> Study& {
    Study& study = studies[name];
    study.leases.clear();
    study.lifecycle.reset();
    study.scheduler = schedulers.Make(config);
    study.lifecycle = std::make_unique<hypertune::TrialLifecycle>(
        *study.scheduler, hypertune::LifecycleOptions{});
    return study;
  };
  for (std::size_t i = 0; i < log.size(); ++i) {
    const Logged& entry = log[i];
    if (entry.kind == Kind::kCreate) {
      make(entry.study, entry.message.at("config"));
      continue;
    }
    if (entry.kind == Kind::kDelete) {
      studies.erase(entry.study);
      continue;
    }
    if (entry.kind == Kind::kHeartbeat) continue;
    Study& study = studies.count(entry.study) ? studies[entry.study]
                                              : make(entry.study, Json());
    if (entry.kind == Kind::kRequest) {
      for (const auto& [job_id, trial] : entry.grants) {
        Scope scope(&spans, "lifecycle.acquire", i);
        auto lease = study.lifecycle->Acquire();
        same = same && lease.has_value() && lease->lease_id == job_id &&
               lease->job.trial_id == trial;
        if (lease) study.leases[lease->lease_id] = std::move(*lease);
      }
    } else {
      const auto it = study.leases.find(
          static_cast<std::uint64_t>(entry.message.at("job_id").AsInt()));
      if (it != study.leases.end()) {
        Scope scope(&spans, "lifecycle.complete", i);
        study.lifecycle->Complete(it->second, entry.message.at("loss").AsDouble(),
                                  {.start = entry.now, .end = entry.now});
        study.leases.erase(it);
      }
    }
  }
  result.Check(same, "lifecycle row leases the reference server's job ids");
}

/// A per-study service row: TuningServer, or DurableServer over `root`.
struct ServiceRow {
  Row row;
  hypertune::ServerStats stats;  // summed over every study it hosted
  std::vector<double> snapshot_ms;
  double wal_bytes = 0;
};

ServiceRow RunServiceRow(const std::vector<Logged>& log, const Schedulers& schedulers,
                         Spans& spans, const char* layer, const std::string& root) {
  struct Study {
    std::unique_ptr<hypertune::Scheduler> scheduler;
    std::unique_ptr<hypertune::TuningServer> plain;
    std::unique_ptr<hypertune::DurableServer> durable;
    std::string dir;
    std::int64_t wal_size = 0;
    hypertune::TuningServer& server() { return plain ? *plain : durable->server(); }
  };
  ServiceRow out;
  out.row.assign(log.size(), -1);
  std::map<std::string, Study> studies;
  auto fold = [&](Study& study) {
    const auto stats = study.server().stats();
    out.stats.jobs_assigned += stats.jobs_assigned;
    out.stats.jobs_completed += stats.jobs_completed;
    out.stats.leases_expired += stats.leases_expired;
    out.stats.stale_reports_ignored += stats.stale_reports_ignored;
    out.stats.malformed_messages += stats.malformed_messages;
    out.stats.active_leases += stats.active_leases;
    out.stats.deadline_heap_entries += stats.deadline_heap_entries;
  };
  auto make = [&](const std::string& name, const Json& config) -> Study& {
    Study& study = studies[name];
    study.scheduler = schedulers.Make(config);
    if (root.empty()) {
      study.plain = std::make_unique<hypertune::TuningServer>(*study.scheduler,
                                                              kServerOptions);
    } else {
      study.dir = root + "/" + name;
      study.durable = std::make_unique<hypertune::DurableServer>(
          *study.scheduler, kServerOptions, hypertune::DurabilityOptions{.dir = study.dir});
    }
    return study;
  };
  auto wal_size = [](const Study& study) -> std::int64_t {
    char name[32];
    std::snprintf(name, sizeof name, "/wal-%06llu.log",
                  static_cast<unsigned long long>(study.durable->generation()));
    struct stat info {};
    return ::stat((study.dir + name).c_str(), &info) == 0 ? info.st_size : 0;
  };
  for (std::size_t i = 0; i < log.size(); ++i) {
    const Logged& entry = log[i];
    if (entry.kind == Kind::kCreate) {
      make(entry.study, entry.message.at("config"));
      continue;
    }
    if (entry.kind == Kind::kDelete) {
      fold(studies[entry.study]);
      studies.erase(entry.study);
      continue;
    }
    Study& study = studies.count(entry.study) ? studies[entry.study]
                                              : make(entry.study, Json());
    const std::uint64_t generation = study.durable ? study.durable->generation() : 0;
    hypertune::MessageService& service =
        study.plain ? static_cast<hypertune::MessageService&>(*study.plain)
                    : *study.durable;
    const std::int64_t start = NowNs();
    {
      Scope scope(&spans, SpanName(layer, entry), i);
      (void)service.HandleMessage(entry.message, entry.now);
    }
    out.row[i] = static_cast<double>(NowNs() - start);
    if (study.durable) {
      if (study.durable->generation() != generation) {
        out.snapshot_ms.push_back(out.row[i] / 1e6);
        study.wal_size = 0;
      }
      const std::int64_t size = wal_size(study);
      out.wal_bytes += static_cast<double>(std::max<std::int64_t>(size - study.wal_size, 0));
      study.wal_size = size;
    }
  }
  for (auto& [name, study] : studies) fold(study);
  return out;
}

Row StudyRow(const std::vector<Logged>& log, const Schedulers& schedulers,
             Spans& spans, const std::string& root, Result& result) {
  Row row(log.size(), -1);
  hypertune::StudyManager manager(schedulers.factory(), ManagerOptions(root));
  for (std::size_t i = 0; i < log.size(); ++i) {
    const std::int64_t start = NowNs();
    {
      Scope scope(&spans, SpanName("study", log[i]), i);
      (void)manager.HandleMessage(log[i].message, log[i].now);
    }
    row[i] = static_cast<double>(NowNs() - start);
  }
  const auto stats = manager.stats();
  result.Add("study.live", static_cast<double>(manager.study_count()), "count");
  result.Add("study.quota_denials", static_cast<double>(stats.quota_denials), "count");
  result.Add("study.unknown_study_errors",
             static_cast<double>(stats.unknown_study_errors), "count");
  return row;
}

/// The top row: client encode -> server decode -> service -> server encode
/// -> client decode, one root span per request. With `spans` null, only
/// per-message totals are taken (the untraced reference for the overhead).
Row NetRow(const std::vector<Logged>& log, hypertune::MessageService& service,
           Spans* spans, std::vector<double>* bytes,
           std::map<std::string, std::vector<double>>* codec_ns) {
  Row row(log.size(), -1);
  for (std::size_t i = 0; i < log.size(); ++i) {
    const Logged& entry = log[i];
    const std::int64_t start = NowNs();
    std::int64_t codec = 0;
    std::size_t frame_bytes = 0;
    {
      Scope root(spans, "net.request", i);
      auto timed = [&](const char* name, auto&& fn) {
        Scope scope(spans, name, i);
        const std::int64_t t = NowNs();
        auto value = fn();
        codec += NowNs() - t;
        return value;
      };
      const std::string request = timed("net.encode", [&] {
        return hypertune::EncodeMessage(entry.message, entry.now);
      });
      hypertune::FrameDecoder server_side;
      server_side.Feed(request);
      const auto in = timed("net.decode", [&] {
        return hypertune::DecodeMessage(*server_side.Next());
      });
      Json reply;
      {
        Scope scope(spans, "net.service", i);
        reply = service.HandleMessage(in.message, in.now);
      }
      const std::string response =
          timed("net.encode", [&] { return hypertune::EncodeMessage(reply, in.now); });
      hypertune::FrameDecoder client_side;
      client_side.Feed(response);
      (void)timed("net.decode", [&] {
        return hypertune::DecodeMessage(*client_side.Next());
      });
      frame_bytes = request.size() + response.size();
    }
    row[i] = static_cast<double>(NowNs() - start);
    if (bytes != nullptr) bytes->push_back(static_cast<double>(frame_bytes));
    if (codec_ns != nullptr) {
      (*codec_ns)[entry.message.at("type").AsString()].push_back(
          static_cast<double>(codec));
    }
  }
  return row;
}

/// Builds the service the net row wraps: the study manager for the durable
/// workload, a plain TuningServer otherwise.
struct Top {
  std::unique_ptr<hypertune::Scheduler> scheduler;
  std::unique_ptr<hypertune::MessageService> service;
};

Top MakeTop(const Shape& shape, const Schedulers& schedulers,
            const std::string& root) {
  Top top;
  if (shape.durable) {
    top.service = std::make_unique<hypertune::StudyManager>(schedulers.factory(),
                                                            ManagerOptions(root));
  } else {
    top.scheduler = schedulers.Make(Json());
    top.service = std::make_unique<hypertune::TuningServer>(*top.scheduler,
                                                            kServerOptions);
  }
  return top;
}

}  // namespace

double ReplayStacks(const Shape& shape, const Args& args, Spans& spans,
                    Result& result) {
  namespace fs = std::filesystem;
  const std::string root = args.work + "/replay";
  fs::remove_all(root);
  fs::create_directories(root);
  const Schedulers schedulers(shape);
  const std::vector<Logged> log = Record(shape, args, schedulers);

  CoreRow(log, schedulers, spans, result);
  LifecycleRow(log, schedulers, spans, result);
  const ServiceRow service = RunServiceRow(log, schedulers, spans, "service", "");
  std::vector<double> get_job = spans.Durations("core.get_job");
  std::vector<double> report = spans.Durations("core.report");
  result.Add("core.get_job_ns", Median(get_job), "ns");
  result.Add("core.report_ns", Median(report), "ns");
  result.Add("core.get_job_ns.asha", Median(get_job), "ns");
  result.Add("core.report_ns.asha", Median(report), "ns");
  result.Add("lifecycle.acquire_ns", Median(spans.Durations("lifecycle.acquire")), "ns");
  result.Add("lifecycle.complete_ns", Median(spans.Durations("lifecycle.complete")), "ns");
  result.Add("service.grant_ns", Median(Where(service.row, log, Kind::kRequest)), "ns");
  result.Add("service.report_ns", Median(Where(service.row, log, Kind::kReport)), "ns");
  result.Add("service.heartbeat_ns", Median(Where(service.row, log, Kind::kHeartbeat)), "ns");
  result.Add("service.heap_live_ratio",
             service.stats.deadline_heap_entries == 0
                 ? 0
                 : static_cast<double>(service.stats.active_leases) /
                       static_cast<double>(service.stats.deadline_heap_entries),
             "ratio");
  result.Add("service.active_leases", static_cast<double>(service.stats.active_leases), "count");
  result.Add("service.leases_expired", static_cast<double>(service.stats.leases_expired), "count");
  result.Add("service.stale_reports",
             static_cast<double>(service.stats.stale_reports_ignored), "count");
  result.Add("service.malformed", static_cast<double>(service.stats.malformed_messages), "count");

  std::size_t lease_messages = 0;
  for (const auto& entry : log) lease_messages += IsLease(entry);
  {
    const ServiceRow durable = RunServiceRow(log, schedulers, spans, "durability",
                                             root + "/durable");
    const Row study = StudyRow(log, schedulers, spans, root + "/study", result);
    std::vector<double> snapshots = durable.snapshot_ms;
    result.Add("durability.journal_ns", PairedGap(durable.row, service.row, log), "ns");
    result.Add("durability.snapshot_ms_p50", Quantile(snapshots, 0.5), "ms");
    result.Add("durability.snapshot_ms_max",
               snapshots.empty() ? 0 : snapshots.back(), "ms");
    result.Add("durability.snapshots_per_kmsg",
               1000.0 * static_cast<double>(snapshots.size()) /
                   static_cast<double>(lease_messages),
               "1/kmsg");
    result.Add("durability.wal_bytes_per_msg",
               durable.wal_bytes / static_cast<double>(lease_messages), "B");
    result.Add("study.route_ns", PairedGap(study, durable.row, log), "ns");
    std::vector<double> creates = Where(study, log, Kind::kCreate);
    std::vector<double> deletes = Where(study, log, Kind::kDelete);
    for (auto* values : {&creates, &deletes}) {
      for (double& value : *values) value /= 1e3;
    }
    result.Add("study.create_us_p99", Quantile(creates, 0.99), "us");
    result.Add("study.delete_us_p99", Quantile(deletes, 0.99), "us");
    {
      Scope scope(&spans, "durability.recover", 0);
      const auto start = Clock::now();
      hypertune::StudyManager recovered(schedulers.factory(),
                                        ManagerOptions(root + "/study"));
      result.Add("durability.recover_ms", SecondsSince(start) * 1e3, "ms");
      result.Check(recovered.study_count() == static_cast<std::size_t>(shape.studies) + 1,
                   "recovery restores every live study of the replay");
    }
  }

  // The top row twice: untraced for the overhead reference, then traced.
  // The net row wraps what the served CLI runs: the study manager for the
  // durable workload, a plain TuningServer otherwise.
  Top plain = MakeTop(shape, schedulers, shape.durable ? root + "/net-plain" : "");
  const auto untraced_start = Clock::now();
  (void)NetRow(log, *plain.service, nullptr, nullptr, nullptr);
  const double untraced_s = SecondsSince(untraced_start);
  Top traced = MakeTop(shape, schedulers, shape.durable ? root + "/net" : "");
  std::vector<double> bytes;
  std::map<std::string, std::vector<double>> codec_ns;
  const auto traced_start = Clock::now();
  Row net = NetRow(log, *traced.service, &spans, &bytes, &codec_ns);
  const double traced_s = SecondsSince(traced_start);
  result.Add("net.encode_ns", Median(spans.Durations("net.encode")), "ns");
  result.Add("net.decode_ns", Median(spans.Durations("net.decode")), "ns");
  for (const char* type : {"request_job", "request_jobs", "heartbeat", "report"}) {
    const auto it = codec_ns.find(type);
    result.Add(std::string("net.codec_ns.") + type,
               it == codec_ns.end() ? 0 : Median(it->second), "ns");
  }
  double total_bytes = 0;
  for (double b : bytes) total_bytes += b;
  result.Add("net.bytes_per_msg", total_bytes / static_cast<double>(bytes.size()), "B");
  result.Add("trace.overhead_pct", 100 * (traced_s - untraced_s) / untraced_s, "%");
  result.Note("replay: " + std::to_string(log.size()) + " messages through " +
              "6 stacked rows");
  std::vector<double> net_row;
  for (double ns : net) {
    if (ns >= 0) net_row.push_back(ns);
  }
  return Median(net_row) / 1e3;
}

}  // namespace htbench
