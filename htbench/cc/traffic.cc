#include "traffic.h"

#include <algorithm>
#include <cstdio>

namespace htbench {

using hypertune::Json;
using hypertune::JsonObject;

Shape ShapeOf(const std::string& workload) {
  if (workload == "serve-durable") {
    return {.name = workload,
            .durable = true,
            .workers = 512,
            .studies = 32,
            .batch = 0,
            .nominal_rate = 1000,
            .ladder_start = 500,
            .ladder_steps = 8,
            .saturation_messages = 20000};
  }
  return {.name = workload,
          .durable = false,
          .workers = 4096,
          .studies = 0,
          .batch = 4,
          .nominal_rate = 16000,
          .ladder_start = 4000,
          .ladder_steps = 7,
          .saturation_messages = 200000};
}

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kRequest: return "request";
    case Kind::kHeartbeat: return "heartbeat";
    case Kind::kReport: return "report";
    case Kind::kCreate: return "create_study";
    case Kind::kDelete: return "delete_study";
  }
  return "?";
}

Json StudyConfig(std::uint64_t seed) {
  Json config = JsonObject{};
  config.Set("kind", Json("asha"));
  config.Set("seed", Json(static_cast<std::int64_t>(seed)));
  return config;
}

Fleet::Fleet(const Shape& shape, std::uint64_t seed)
    : shape_(shape), rng_(seed), workers_(static_cast<std::size_t>(shape.workers)) {
  const int per_slot = shape.studies > 0 ? shape.workers / shape.studies : 0;
  for (int w = 0; w < shape.workers; ++w) {
    workers_[static_cast<std::size_t>(w)].slot = per_slot > 0 ? w / per_slot : 0;
  }
  slots_.resize(static_cast<std::size_t>(std::max(shape.studies, 1)));
  for (int s = 0; s < static_cast<int>(slots_.size()); ++s) {
    slots_[static_cast<std::size_t>(s)].name =
        shape.durable ? StudyName() : "default";
  }
}

std::string Fleet::StudyName() {
  char name[32];
  std::snprintf(name, sizeof name, "study-%06llu",
                static_cast<unsigned long long>(generation_++));
  return name;
}

std::vector<Outgoing> Fleet::InitialStudies() {
  std::vector<Outgoing> out;
  if (!shape_.durable) return out;
  for (int s = 0; s < static_cast<int>(slots_.size()); ++s) {
    Outgoing create;
    create.kind = Kind::kCreate;
    create.slot = s;
    create.message = JsonObject{};
    create.message.Set("type", Json("create_study"));
    create.message.Set("study", Json(slots_[static_cast<std::size_t>(s)].name));
    create.message.Set("config", StudyConfig(rng_() >> 33));
    out.push_back(std::move(create));
  }
  return out;
}

bool Fleet::Ready(const Worker& worker) const {
  if (worker.busy || worker.parked) return false;
  return !draining_ || !worker.leases.empty();
}

Json Fleet::Base(const char* type, int worker) const {
  Json message = JsonObject{};
  message.Set("type", Json(type));
  message.Set("worker", Json(static_cast<std::int64_t>(worker)));
  return message;
}

Outgoing Fleet::Build(int index) {
  Worker& worker = workers_[static_cast<std::size_t>(index)];
  Outgoing out;
  out.worker = index;
  out.slot = worker.slot;
  const auto heartbeat = [&] {
    out.kind = Kind::kHeartbeat;
    const std::uint64_t job_id = worker.leases.front();
    worker.leases.pop_front();
    worker.leases.push_back(job_id);  // rotate
    out.message = Base("heartbeat", index);
    out.message.Set("job_id", Json(job_id));
  };
  const auto report = [&] {
    out.kind = Kind::kReport;
    const std::uint64_t job_id = worker.leases.front();
    worker.leases.pop_front();
    out.message = Base("report", index);
    out.message.Set("job_id", Json(job_id));
    out.message.Set("loss", Json(rng_.Uniform()));
  };
  const auto request = [&] {
    out.kind = Kind::kRequest;
    if (shape_.batch > 0) {
      out.message = Base("request_jobs", index);
      out.message.Set("count", Json(static_cast<std::int64_t>(shape_.batch)));
    } else {
      out.message = Base("request_job", index);
    }
  };

  if (worker.leases.empty()) {
    request();
  } else if (shape_.durable) {
    if (worker.hold_left > 1 && !draining_) {
      --worker.hold_left;
      heartbeat();
    } else {
      report();
    }
  } else if (draining_) {
    report();
  } else {
    // About 80% heartbeats, 10% reports, 10% batched requests while fewer
    // than `batch` leases are held.
    const double u = rng_.Uniform();
    if (u < 0.8) {
      heartbeat();
    } else if (u < 0.9) {
      report();
    } else if (static_cast<int>(worker.leases.size()) < shape_.batch) {
      request();
    } else {
      heartbeat();
    }
  }
  if (shape_.durable) {
    out.message.Set("study", Json(slots_[static_cast<std::size_t>(worker.slot)].name));
  }
  worker.busy = true;
  return out;
}

std::optional<Outgoing> Fleet::Next() {
  if (!admin_.empty()) {
    Outgoing out = std::move(admin_.front());
    admin_.pop_front();
    return out;
  }
  const std::size_t n = workers_.size();
  const std::size_t start = rng_.Index(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t index = (start + i) % n;
    if (Ready(workers_[index])) return Build(static_cast<int>(index));
  }
  return std::nullopt;
}

void Fleet::TakeJob(Worker& worker, const std::string& study,
                    const Json& entry, Result& result) {
  const auto job_id = static_cast<std::uint64_t>(entry.at("job_id").AsInt());
  StudyTally& tally = tallies_[study];
  ++tally.assigned;
  result.Check(tally.job_ids.insert(job_id).second,
               "job id " + std::to_string(job_id) + " of " + study +
                   " granted once");
  worker.leases.push_back(job_id);
  // A seeded hold: one pick in four heartbeats before reporting.
  worker.hold_left = rng_.Index(4) == 0 ? 2 : 1;
}

bool Fleet::OnReply(const Outgoing& sent, const Json& reply, Result& result) {
  const std::string& type = reply.at("type").AsString();
  Slot* slot = sent.slot >= 0 ? &slots_[static_cast<std::size_t>(sent.slot)] : nullptr;
  if (sent.worker < 0) {  // admin
    if (sent.kind == Kind::kCreate && type == "ack") {
      slot->recycling = false;
      slot->parked = 0;
      for (auto& worker : workers_) {
        if (worker.slot == sent.slot) worker.parked = false;
      }
    }
    return type == "ack";
  }
  Worker& worker = workers_[static_cast<std::size_t>(sent.worker)];
  worker.busy = false;
  const std::string study = slot != nullptr ? slot->name : "default";
  switch (sent.kind) {
    case Kind::kRequest:
      if (type == "job") {
        TakeJob(worker, study, reply, result);
        return true;
      }
      if (type == "jobs") {
        for (const auto& entry : reply.at("jobs").AsArray()) {
          TakeJob(worker, study, entry, result);
        }
        return true;
      }
      if (type != "no_job" || reply.Has("shed") || reply.Has("degraded")) {
        return false;
      }
      if (shape_.durable) {
        // A study whose every worker got no_job holds no lease and has no
        // job left: replace it so live state stays the same size.
        worker.parked = true;
        const int per_slot = shape_.workers / shape_.studies;
        if (++slot->parked == per_slot && !slot->recycling) {
          slot->recycling = true;
          Outgoing drop;
          drop.kind = Kind::kDelete;
          drop.slot = sent.slot;
          drop.message = JsonObject{};
          drop.message.Set("type", Json("delete_study"));
          drop.message.Set("study", Json(slot->name));
          admin_.push_back(std::move(drop));
          slot->name = StudyName();
          Outgoing create;
          create.kind = Kind::kCreate;
          create.slot = sent.slot;
          create.message = JsonObject{};
          create.message.Set("type", Json("create_study"));
          create.message.Set("study", Json(slot->name));
          create.message.Set("config", StudyConfig(rng_() >> 33));
          admin_.push_back(std::move(create));
        }
      }
      return true;
    case Kind::kHeartbeat:
      return type == "ack";
    case Kind::kReport:
      if (type != "ack" || (reply.Has("stale") && reply.at("stale").AsBool())) {
        return false;
      }
      ++tallies_[study].completed;
      return true;
    default:
      return false;
  }
}

bool Fleet::Drained() const {
  if (!admin_.empty()) return false;
  for (const auto& slot : slots_) {
    if (slot.recycling) return false;
  }
  for (const auto& worker : workers_) {
    if (worker.busy || !worker.leases.empty()) return false;
  }
  return true;
}

std::vector<std::string> Fleet::LiveStudies() const {
  std::vector<std::string> names;
  for (const auto& slot : slots_) names.push_back(slot.name);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace htbench
