// The serve workloads: the deployed `hypertune_cli --serve` process driven
// over loopback TCP by one open-loop generator thread. The thread keeps
// four non-blocking binary-transport connections and pipelines frames
// built with the public net codec; arrivals follow a seeded Poisson
// schedule and every latency is timed from the message's due time.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common.h"
#include "common/json.h"
#include "common/rng.h"
#include "net/codec.h"
#include "net/wire.h"
#include "traffic.h"

namespace htbench {
namespace {

using hypertune::Json;
using hypertune::JsonObject;

constexpr int kConnections = 4;
constexpr double kLatencyLimitUs = 2000;  // the fixed p99 limit
constexpr double kMissingUs = 1e6;        // a reply later than 1 s is missing
constexpr double kMaxFailedShare = 0.001;
constexpr double kWarmupSeconds = 1.5;
constexpr double kStepMessages = 2000;
constexpr double kMinStepSeconds = 0.25;
// Enough pipelining to keep the server busy without queueing for long.
constexpr std::size_t kSaturationInFlight = 256;
// Set-up samples beyond the first, taken between nominal windows.
constexpr int kSetupProbes = 14;

int FreePort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    throw std::runtime_error("no free loopback port");
  }
  ::close(fd);
  return ntohs(addr.sin_port);
}

int Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// Sends SIGTERM, waits up to 10 s, then SIGKILLs. Returns the exit status.
int Stop(int pid) {
  ::kill(pid, SIGTERM);
  int status = 0;
  for (int i = 0; i < 1000; ++i) {
    if (::waitpid(pid, &status, WNOHANG) == pid) return status;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, &status, 0);
  return status;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Reads `key=<int>` out of a summary line; -1 when absent.
long long Field(const std::string& line, const std::string& key) {
  const auto at = line.find(key + "=");
  return at == std::string::npos ? -1 : std::stoll(line.substr(at + key.size() + 1));
}

/// A `hypertune_cli --serve` child process on a free loopback port; its
/// stdout and stderr go to `log_path`. Stopped (SIGTERM) on destruction.
class Server {
 public:
  Server(const Args& args, const Shape& shape, const std::string& state_dir,
         const std::string& log_path);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  int port() const { return port_; }
  int pid() const { return pid_; }
  /// Stops the process and returns what it printed.
  std::string StopAndLog();

 private:
  std::string log_path_;
  int port_ = 0;
  int pid_ = -1;
};

/// What one fixed-rate phase measured. Latencies are in µs from due time;
/// failed operations count as 1 s.
struct Phase {
  double rate = 0;
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  std::vector<double> lease_us, ack_us, all_us, late_us;
  std::size_t backlog_mid = 0;
  std::size_t backlog_end = 0;
  double p99_us = 0;
  bool growing = false;
};

struct Ladder {
  std::vector<Phase> steps;
  double max_rate = 0;
  bool saturated = true;  // false when even the top step passed
};

class Loadgen {
 public:
  Loadgen(int port, Fleet& fleet, Result& result, std::uint64_t seed,
          Spans* spans);
  ~Loadgen();
  Loadgen(const Loadgen&) = delete;
  Loadgen& operator=(const Loadgen&) = delete;

  /// Sends `messages` at once and waits for every reply (setup).
  void SendNow(std::vector<Outgoing> messages);
  /// Offers Poisson arrivals at `rate` msgs/s for `seconds`, then waits
  /// for the phase's replies.
  Phase Run(double rate, double seconds);
  /// Sends `count` messages, each as soon as a worker is ready, and returns
  /// the achieved rate in msgs/s.
  double Saturate(std::uint64_t count);
  /// Reports every held lease and waits for the replies.
  void Drain();

  std::uint64_t sent() const { return sent_; }
  std::uint64_t failed() const { return failed_; }
  std::size_t in_flight_max() const { return in_flight_max_; }
  bool broken() const { return broken_; }

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t out_off = 0;
    hypertune::FrameDecoder decoder;
    std::deque<Outgoing> inflight;
  };

  std::size_t InFlight() const;
  void Send(Outgoing out, std::int64_t now);
  void Handle(Conn& conn, const hypertune::WireFrame& frame, std::int64_t now);
  void Pump(int timeout_ms);
  bool WaitReplies(double seconds);

  Fleet& fleet_;
  Result& result_;
  hypertune::Rng arrivals_;
  Spans* spans_;
  std::vector<Conn> conns_;
  Phase* phase_ = nullptr;
  std::uint64_t sent_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t wire_requests_ = 0;
  std::size_t in_flight_max_ = 0;
  int failures_noted_ = 0;
  bool broken_ = false;
};

// --- the server process ----------------------------------------------------

Server::Server(const Args& args, const Shape& shape, const std::string& state_dir,
               const std::string& log_path)
    : log_path_(log_path) {
  port_ = FreePort();
  std::vector<std::string> argv = {args.cli, "--serve=" + std::to_string(port_)};
  if (shape.durable) {
    argv.push_back("--multi-study");
    argv.push_back("--shards=4");
    argv.push_back("--state-dir=" + state_dir);
  } else {
    argv.push_back("--tuner=asha");
  }
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    const int out = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ::dup2(out, 1);
    ::dup2(out, 2);
    std::vector<char*> raw;
    for (auto& arg : argv) raw.push_back(arg.data());
    raw.push_back(nullptr);
    ::execv(raw[0], raw.data());
    ::_exit(127);
  }
  const auto start = Clock::now();
  while (SecondsSince(start) < 20) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("server exited at start: " + ReadFile(log_path));
    }
    const int fd = Connect(port_);
    if (fd >= 0) {
      ::close(fd);
      return;
    }
    // Poll finely: set-up takes a few milliseconds, so a coarse poll
    // would dominate the measurement.
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  Stop(pid_);
  pid_ = -1;
  throw std::runtime_error("server never accepted connections");
}

Server::~Server() {
  if (pid_ > 0) Stop(pid_);
}

std::string Server::StopAndLog() {
  if (pid_ > 0) Stop(pid_);
  pid_ = -1;
  return ReadFile(log_path_);
}

// --- the generator -----------------------------------------------------------

Loadgen::Loadgen(int port, Fleet& fleet, Result& result, std::uint64_t seed,
                 Spans* spans)
    : fleet_(fleet), result_(result), arrivals_(seed ^ 0xA11CEull), spans_(spans) {
  for (int i = 0; i < kConnections; ++i) {
    Conn conn;
    conn.fd = Connect(port);
    if (conn.fd < 0) throw std::runtime_error("cannot connect to the server");
    conns_.push_back(std::move(conn));
  }
}

Loadgen::~Loadgen() {
  for (auto& conn : conns_) ::close(conn.fd);
}

std::size_t Loadgen::InFlight() const {
  std::size_t total = 0;
  for (const auto& conn : conns_) total += conn.inflight.size();
  return total;
}

void Loadgen::Send(Outgoing out, std::int64_t now) {
  Conn& conn = conns_[static_cast<std::size_t>(
      out.worker >= 0 ? out.worker % kConnections : 0)];
  conn.out += hypertune::EncodeMessage(out.message, 0);
  ++sent_;
  if (phase_ != nullptr) {
    ++phase_->sent;
    phase_->late_us.push_back(static_cast<double>(now - out.due_ns) / 1e3);
  }
  conn.inflight.push_back(std::move(out));
  in_flight_max_ = std::max(in_flight_max_, InFlight());
}

void Loadgen::Handle(Conn& conn, const hypertune::WireFrame& frame,
                     std::int64_t now) {
  if (conn.inflight.empty()) {
    broken_ = true;
    result_.Check(false, "reply with no request in flight");
    return;
  }
  Outgoing sent = std::move(conn.inflight.front());
  conn.inflight.pop_front();
  const Json reply = hypertune::DecodeMessage(frame).message;
  const double us = static_cast<double>(now - sent.due_ns) / 1e3;
  bool ok = fleet_.OnReply(sent, reply, result_);
  if (us > kMissingUs) ok = false;
  if (!ok) {
    ++failed_;
    if (failures_noted_++ < 5) {
      result_.Note("failed " + std::string(KindName(sent.kind)) + ": " +
                   sent.message.Dump() + " -> " + reply.Dump());
    }
  }
  if (spans_ != nullptr) {
    spans_->Add(KindName(sent.kind), wire_requests_++, sent.due_ns, now);
  }
  if (phase_ == nullptr) return;
  phase_->failed += ok ? 0 : 1;
  phase_->all_us.push_back(ok ? us : kMissingUs);
  if (sent.kind == Kind::kRequest) {
    phase_->lease_us.push_back(ok ? us : kMissingUs);
  } else if (sent.kind == Kind::kHeartbeat || sent.kind == Kind::kReport) {
    phase_->ack_us.push_back(ok ? us : kMissingUs);
  }
}

void Loadgen::Pump(int timeout_ms) {
  pollfd fds[kConnections];
  for (int i = 0; i < kConnections; ++i) {
    Conn& conn = conns_[static_cast<std::size_t>(i)];
    fds[i] = {conn.fd, static_cast<short>(POLLIN | (conn.out.size() > conn.out_off ? POLLOUT : 0)), 0};
  }
  if (::poll(fds, kConnections, timeout_ms) < 0) return;
  char buffer[1 << 16];
  for (int i = 0; i < kConnections; ++i) {
    Conn& conn = conns_[static_cast<std::size_t>(i)];
    while (conn.out.size() > conn.out_off) {
      const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
      if (n <= 0) break;
      conn.out_off += static_cast<std::size_t>(n);
    }
    if (conn.out_off == conn.out.size()) {
      conn.out.clear();
      conn.out_off = 0;
    }
    for (;;) {
      const ssize_t n = ::recv(conn.fd, buffer, sizeof buffer, 0);
      if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                     errno != EINTR)) {
        if (!broken_) result_.Check(false, "server dropped a connection");
        broken_ = true;
        break;
      }
      if (n < 0) break;
      conn.decoder.Feed(std::string_view(buffer, static_cast<std::size_t>(n)));
      const std::int64_t now = NowNs();
      while (auto frame = conn.decoder.Next()) Handle(conn, *frame, now);
      if (conn.decoder.error() != hypertune::FrameError::kNone) {
        result_.Check(false, "malformed reply frame");
        broken_ = true;
        break;
      }
    }
  }
}

bool Loadgen::WaitReplies(double seconds) {
  const auto start = Clock::now();
  while (InFlight() > 0 && !broken_ && SecondsSince(start) < seconds) Pump(1);
  if (InFlight() == 0) return true;
  failed_ += InFlight();
  if (phase_ != nullptr) phase_->failed += InFlight();
  broken_ = true;
  result_.Check(false, std::to_string(InFlight()) + " replies missing");
  return false;
}

void Loadgen::SendNow(std::vector<Outgoing> messages) {
  for (auto& out : messages) {
    const std::int64_t now = NowNs();
    out.due_ns = now;
    Send(std::move(out), now);
  }
  WaitReplies(10);
}

Phase Loadgen::Run(double rate, double seconds) {
  Phase phase;
  phase.rate = rate;
  phase_ = &phase;
  const std::int64_t start = NowNs();
  const auto end = start + static_cast<std::int64_t>(seconds * 1e9);
  const auto mid = start + static_cast<std::int64_t>(seconds * 0.5e9);
  auto next_due = start + static_cast<std::int64_t>(arrivals_.Exponential(rate) * 1e9);
  bool mid_seen = false;
  for (std::int64_t now = NowNs(); now < end && !broken_; now = NowNs()) {
    while (next_due <= now) {
      auto out = fleet_.Next();
      if (!out) break;  // every worker awaits a reply: the arrival runs late
      out->due_ns = next_due;
      Send(std::move(*out), now);
      next_due += static_cast<std::int64_t>(arrivals_.Exponential(rate) * 1e9);
    }
    if (!mid_seen && now >= mid) {
      mid_seen = true;
      phase.backlog_mid = InFlight();
    }
    // Busy-poll: sleeping in poll(2) would add the host's wake-up latency
    // to every due time.
    Pump(0);
  }
  phase.backlog_end = InFlight();
  WaitReplies(2);
  phase_ = nullptr;
  return phase;
}

double Loadgen::Saturate(std::uint64_t count) {
  const std::uint64_t target = sent_ + count;
  const std::int64_t start = NowNs();
  while (!broken_ && (sent_ < target || InFlight() > 0)) {
    while (sent_ < target && InFlight() < kSaturationInFlight) {
      auto out = fleet_.Next();
      if (!out) break;
      const std::int64_t now = NowNs();
      out->due_ns = now;
      Send(std::move(*out), now);
    }
    Pump(0);
  }
  const double seconds = static_cast<double>(NowNs() - start) / 1e9;
  return static_cast<double>(count) / seconds;
}

void Loadgen::Drain() {
  fleet_.BeginDrain();
  const auto start = Clock::now();
  while (!broken_ && !fleet_.Drained() && SecondsSince(start) < 20) {
    while (auto out = fleet_.Next()) {
      const std::int64_t now = NowNs();
      out->due_ns = now;
      Send(std::move(*out), now);
    }
    Pump(1);
  }
  result_.Check(fleet_.Drained(), "fleet drained its leases before stop");
}

/// Median round trip (µs) of `message` sent `count` times, one in flight,
/// on a fresh connection.
double RoundTripUs(int port, const Json& message, int count) {
  const int fd = Connect(port);
  if (fd < 0) return 0;
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) & ~O_NONBLOCK);
  const std::string frame = hypertune::EncodeMessage(message, 0);
  std::vector<double> rtts;
  char buffer[4096];
  for (int i = 0; i < count; ++i) {
    hypertune::FrameDecoder decoder;
    const std::int64_t start = NowNs();
    if (::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(frame.size())) {
      break;
    }
    bool got = false;
    while (!got) {
      const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
      if (n <= 0) break;
      decoder.Feed(std::string_view(buffer, static_cast<std::size_t>(n)));
      got = decoder.Next().has_value();
    }
    if (!got) break;
    rtts.push_back(static_cast<double>(NowNs() - start) / 1e3);
  }
  ::close(fd);
  return Median(rtts);
}

// --- ladder ------------------------------------------------------------------

bool StepPasses(Phase& phase) {
  const double failed_share =
      phase.sent == 0 ? 1 : static_cast<double>(phase.failed) / static_cast<double>(phase.sent);
  phase.p99_us = Quantile(phase.all_us, 0.99);
  phase.growing = phase.backlog_end > 2 * phase.backlog_mid + 32;
  return phase.p99_us <= kLatencyLimitUs && failed_share <= kMaxFailedShare &&
         !phase.growing;
}

/// Doubling rate ladder from `start_rate`; stops after the first failing
/// step and interpolates the highest rate meeting the 2 ms p99 limit.
Ladder RunLadder(Loadgen& loadgen, double start_rate, int steps,
                 double max_step_seconds) {
  Ladder ladder;
  double rate = start_rate;
  for (int i = 0; i < steps && !loadgen.broken(); ++i, rate *= 2) {
    // A fixed message count per step keeps each step's p99 equally sure.
    const double seconds =
        std::clamp(kStepMessages / rate, kMinStepSeconds, max_step_seconds);
    Phase phase = loadgen.Run(rate, seconds);
    bool pass = StepPasses(phase);
    if (!pass) {
      // A host hiccup fails one short step; saturation fails it again.
      phase = loadgen.Run(rate, seconds);
      pass = StepPasses(phase);
    }
    ladder.steps.push_back(phase);
    if (!pass) {
      // Interpolate log(p99) against log(rate) between the last passing and
      // this failing step; a step failing on backlog or errors counts as
      // twice the limit.
      const double fail_p99 = phase.p99_us > kLatencyLimitUs
                                  ? phase.p99_us
                                  : 2 * kLatencyLimitUs;
      const double pass_p99 =
          ladder.steps.size() > 1
              ? std::max(ladder.steps[ladder.steps.size() - 2].p99_us, 1.0)
              : kLatencyLimitUs / 2;
      const double f = std::clamp(
          (std::log(kLatencyLimitUs) - std::log(pass_p99)) /
              (std::log(fail_p99) - std::log(pass_p99)),
          0.0, 1.0);
      ladder.max_rate = rate / 2 * std::pow(2.0, f);
      return ladder;
    }
  }
  ladder.max_rate = rate / 2;  // every step passed: the top of the ladder
  ladder.saturated = false;
  return ladder;
}

// --- the calibration peer ------------------------------------------------

/// Serves the request frames of `connections` clients with canned replies
/// of the right types until they all disconnect (the calibration peer).
/// Runs in a forked child.
void EchoServe(int listen_fd, int connections) {
  std::vector<pollfd> fds;
  for (int i = 0; i < connections; ++i) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) ::_exit(1);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    fds.push_back({fd, POLLIN, 0});
  }
  ::close(listen_fd);
  Json job = JsonObject{};
  job.Set("trial", Json(std::int64_t{0}));
  Json config = JsonObject{};
  config.Set("lr", Json(0.1));
  job.Set("config", config);
  job.Set("from", Json(0.0));
  job.Set("to", Json(1.0));
  job.Set("rung", Json(std::int64_t{0}));
  job.Set("bracket", Json(std::int64_t{0}));
  job.Set("tag", Json(std::int64_t{0}));
  std::vector<hypertune::FrameDecoder> decoders(fds.size());
  std::vector<std::string> outs(fds.size());
  std::int64_t next_job = 1;
  std::size_t open = fds.size();
  char buffer[1 << 16];
  while (open > 0) {
    for (std::size_t i = 0; i < fds.size(); ++i) {
      fds[i].events = static_cast<short>(POLLIN | (outs[i].empty() ? 0 : POLLOUT));
    }
    if (::poll(fds.data(), fds.size(), 100) < 0) continue;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].fd < 0) continue;
      for (;;) {
        const ssize_t n = ::recv(fds[i].fd, buffer, sizeof buffer, 0);
        if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR)) {
          ::close(fds[i].fd);
          fds[i].fd = -1;
          --open;
          break;
        }
        if (n < 0) break;
        decoders[i].Feed(std::string_view(buffer, static_cast<std::size_t>(n)));
        while (auto frame = decoders[i].Next()) {
          const Json request = hypertune::DecodeMessage(*frame).message;
          const std::string& type = request.at("type").AsString();
          Json reply = JsonObject{};
          auto grant = [&](Json& into) {
            into.Set("job_id", Json(next_job++));
            into.Set("job", job);
          };
          if (type == "request_job") {
            reply.Set("type", Json("job"));
            grant(reply);
            reply.Set("lease_timeout", Json(60.0));
            if (request.Has("study")) reply.Set("study", request.at("study"));
          } else if (type == "request_jobs") {
            reply.Set("type", Json("jobs"));
            Json jobs = hypertune::JsonArray{};
            for (std::int64_t k = 0; k < request.at("count").AsInt(); ++k) {
              Json entry = JsonObject{};
              grant(entry);
              jobs.PushBack(std::move(entry));
            }
            reply.Set("jobs", std::move(jobs));
            reply.Set("lease_timeout", Json(60.0));
          } else {
            reply.Set("type", Json("ack"));
          }
          outs[i] += hypertune::EncodeMessage(reply, 0);
        }
      }
      if (fds[i].fd >= 0 && !outs[i].empty()) {
        const ssize_t n = ::send(fds[i].fd, outs[i].data(), outs[i].size(), MSG_NOSIGNAL);
        if (n > 0) outs[i].erase(0, static_cast<std::size_t>(n));
      }
    }
  }
  ::_exit(0);
}

// --- the workload ------------------------------------------------------------

std::string Fixed(double value, int digits = 1) {
  char text[64];
  std::snprintf(text, sizeof text, "%.*f", digits, value);
  return text;
}

double LateP99(const Phase& phase) {
  std::vector<double> late = phase.late_us;
  return Quantile(late, 0.99);
}

void NoteLadder(Result& result, const char* title, const Ladder& ladder) {
  result.Note(title);
  for (const auto& step : ladder.steps) {
    result.Note("  rate " + Fixed(step.rate, 0) + " msgs/s: sent " +
                std::to_string(step.sent) + ", p99 " + Fixed(step.p99_us) +
                " us, late p99 " + Fixed(LateP99(step)) +
                " us, backlog " + std::to_string(step.backlog_mid) + "/" + std::to_string(step.backlog_end) +
                ", failed " + std::to_string(step.failed) +
                (step.growing ? ", backlog growing" : ""));
  }
  result.Note(std::string("  max rate meeting p99 <= 2 ms: ") +
              Fixed(ladder.max_rate, 0) + " msgs/s" +
              (ladder.saturated ? "" : " (every step passed)"));
}

/// Checks the server's own stop summary against the generator's tallies.
void CheckSummary(const Shape& shape, const std::string& log,
                  const Fleet& fleet, std::uint64_t messages, Result& result,
                  long long* rejected) {
  std::istringstream lines(log);
  std::string line;
  std::map<std::string, std::string> studies;
  bool saw_net = false;
  bool saw_service = false;
  while (std::getline(lines, line)) {
    if (line.rfind("connections=", 0) == 0) {
      saw_net = true;
      *rejected = Field(line, "rejected");
      result.Check(Field(line, "messages") == static_cast<long long>(messages),
                   "server handled " + std::to_string(Field(line, "messages")) +
                       " messages, generator sent " + std::to_string(messages));
      result.Check(*rejected == 0, "server rejected no message");
    } else if (line.rfind("assigned=", 0) == 0) {
      saw_service = true;
      const StudyTally& tally = fleet.tallies().at("default");
      result.Check(Field(line, "assigned") == static_cast<long long>(tally.assigned) &&
                       Field(line, "completed") == static_cast<long long>(tally.completed) &&
                       Field(line, "expired") == 0,
                   "server summary '" + line + "' matches generator assigned=" +
                       std::to_string(tally.assigned) + " completed=" +
                       std::to_string(tally.completed));
    } else if (line.rfind("study ", 0) == 0) {
      const std::string name = line.substr(6, line.find(' ', 6) - 6);
      studies[name] = line;
    }
  }
  result.Check(saw_net, "server printed its connection summary");
  if (!shape.durable) {
    result.Check(saw_service, "server printed its lease summary");
    return;
  }
  std::vector<std::string> expected = fleet.LiveStudies();
  expected.push_back("default");
  std::sort(expected.begin(), expected.end());
  std::vector<std::string> live;
  for (const auto& [name, text] : studies) live.push_back(name);
  result.Check(live == expected, "server's live studies are the generator's");
  for (const auto& name : fleet.LiveStudies()) {
    const auto it = studies.find(name);
    if (it == studies.end()) continue;
    const auto tally = fleet.tallies().find(name);
    const long long assigned = tally == fleet.tallies().end() ? 0 : static_cast<long long>(tally->second.assigned);
    const long long completed = tally == fleet.tallies().end() ? 0 : static_cast<long long>(tally->second.completed);
    result.Check(Field(it->second, "assigned") == assigned &&
                     Field(it->second, "completed") == completed &&
                     Field(it->second, "active_leases") == 0,
                 "study summary '" + it->second + "' matches generator");
  }
}

/// Restarts the server on the final state dir and lists its studies.
void CheckRestart(const Args& args, const Shape& shape, const std::string& dir,
                  const Fleet& fleet, Result& result) {
  Server server(args, shape, dir, args.work + "/restart.log");
  Json list = JsonObject{};
  list.Set("type", Json("list_studies"));
  const int fd = Connect(server.port());
  result.Check(fd >= 0, "restarted server accepts connections");
  if (fd < 0) return;
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) & ~O_NONBLOCK);
  const std::string frame = hypertune::EncodeMessage(list, 0);
  ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
  hypertune::FrameDecoder decoder;
  std::optional<hypertune::WireFrame> reply;
  char buffer[1 << 16];
  while (!reply) {
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n <= 0) break;
    decoder.Feed(std::string_view(buffer, static_cast<std::size_t>(n)));
    reply = decoder.Next();
  }
  ::close(fd);
  std::vector<std::string> names;
  const Json listed = reply ? hypertune::DecodeMessage(*reply).message : Json();
  result.Check(reply && listed.at("type").AsString() == "studies",
               "restarted server lists its studies: " + listed.Dump());
  if (reply && listed.at("type").AsString() == "studies") {
    for (const auto& entry : listed.at("studies").AsArray()) {
      names.push_back(entry.at("study").AsString());
    }
  }
  std::sort(names.begin(), names.end());
  std::vector<std::string> expected = fleet.LiveStudies();
  expected.push_back("default");
  std::sort(expected.begin(), expected.end());
  result.Check(names == expected,
               "restart recovered exactly the " + std::to_string(expected.size()) +
                   " studies live at stop (got " + std::to_string(names.size()) + ")");
  server.StopAndLog();
}

/// Ladder against the echo peer: the generator's own ceiling.
double Calibrate(const Args& args, const Shape& shape, Result& result) {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  ::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  ::listen(listen_fd, 16);
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const int pid = ::fork();
  if (pid == 0) EchoServe(listen_fd, kConnections);
  ::close(listen_fd);
  double ceiling = 0;
  {
    Fleet fleet(shape, args.seed + 1);
    Result scratch;
    Loadgen loadgen(ntohs(addr.sin_port), fleet, scratch, args.seed + 1, nullptr);
    loadgen.SendNow(fleet.InitialStudies());
    (void)loadgen.Run(shape.nominal_rate, kWarmupSeconds);
    // The generator keeps pace while it sends what is offered, on time
    // (late p99 within half the latency limit) and without a growing
    // backlog; the ceiling is the highest such doubling step. A failing
    // step is run once more, as in the ladder. Doubling stops only after
    // two failing steps in a row: a generator at its limit fails every
    // step above it, while a host stall of a few milliseconds, which came
    // back on both attempts of one low step, fails only that step.
    int failed_in_row = 0;
    for (double rate = shape.ladder_start;
         rate < 1e8 && failed_in_row < 2 && !loadgen.broken(); rate *= 2) {
      const double seconds = std::max(kMinStepSeconds, kStepMessages / rate);
      bool pass = false;
      for (int attempt = 0; attempt < 2 && !pass; ++attempt) {
        Phase step = loadgen.Run(rate, seconds);
        StepPasses(step);
        pass = static_cast<double>(step.sent) >= 0.9 * rate * seconds &&
               LateP99(step) <= kLatencyLimitUs / 2 && !step.growing;
        result.Note("  echo rate " + Fixed(rate, 0) + " msgs/s: sent " +
                    std::to_string(step.sent) + ", p99 " + Fixed(step.p99_us) +
                    " us, late p99 " + Fixed(LateP99(step)) + " us" +
                    (pass ? "" : " (behind)"));
      }
      failed_in_row = pass ? 0 : failed_in_row + 1;
      if (pass) ceiling = rate;
    }
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return ceiling;
}

}  // namespace

Result RunServe(const Args& args, Spans* spans) {
  const Shape shape = ShapeOf(args.workload);
  Result result;
  const bool traced = spans != nullptr;
  // The untraced run's time goes to the nominal rate; the traced run adds
  // as long again for the rate ladders.
  const double nominal_seconds = 0.8 * args.seconds;
  const double ladder_seconds = args.seconds;

  // Set-up: spawn until ready for load. The server that takes the load is
  // the first sample; probe servers spawned between nominal windows give
  // the rest, so the median spans the run's host conditions, not one
  // instant of them.
  std::vector<double> setup_s;
  const auto spawn = [&](const std::string& dir, Result& into,
                         Spans* wire) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const auto start = Clock::now();
    auto started = std::make_unique<Server>(args, shape, dir, dir + ".log");
    auto tenants = std::make_unique<Fleet>(shape, args.seed);
    auto generator = std::make_unique<Loadgen>(started->port(), *tenants, into,
                                               args.seed, wire);
    generator->SendNow(tenants->InitialStudies());
    setup_s.push_back(SecondsSince(start));
    return std::tuple{std::move(started), std::move(tenants), std::move(generator)};
  };
  const std::string state_dir = args.work + "/state";
  auto [server, fleet, loadgen] = spawn(state_dir, result, spans);
  const std::uint64_t setup_messages = loadgen->sent();

  // Warm up untimed until every worker holds its leases, so the phases
  // measure the steady state rather than the fleet's first requests.
  (void)loadgen->Run(shape.nominal_rate, kWarmupSeconds);
  // The nominal phase runs as windows of at least 1000 messages; each
  // latency figure is the median over windows, so one host hiccup moves
  // one window, not the run.
  const double window_seconds = std::max(0.5, 1000 / shape.nominal_rate);
  const int windows =
      std::max(3, static_cast<int>(nominal_seconds / window_seconds));
  Phase nominal;
  std::vector<double> lease_p50, lease_p99, ack_p50, ack_p99;
  const int probe_every = std::max(1, windows / kSetupProbes);
  for (int i = 0; i < windows && !loadgen->broken(); ++i) {
    if (!traced && i % probe_every == probe_every - 1) {
      Result probe_result;
      (void)spawn(args.work + "/probe", probe_result, nullptr);
      result.Check(probe_result.correct, "probe server set up cleanly");
    }
    Phase window = loadgen->Run(shape.nominal_rate, window_seconds);
    lease_p50.push_back(Quantile(window.lease_us, 0.5));
    lease_p99.push_back(Quantile(window.lease_us, 0.99));
    ack_p50.push_back(Quantile(window.ack_us, 0.5));
    ack_p99.push_back(Quantile(window.ack_us, 0.99));
    for (auto [into, from] : {std::pair{&nominal.lease_us, &window.lease_us},
                              std::pair{&nominal.ack_us, &window.ack_us},
                              std::pair{&nominal.all_us, &window.all_us},
                              std::pair{&nominal.late_us, &window.late_us}}) {
      into->insert(into->end(), from->begin(), from->end());
    }
  }
  // Saturation: every worker sends as soon as its reply is in, for a
  // fixed message count.
  const double saturated = loadgen->Saturate(shape.saturation_messages);

  // Ladders (traced run only) repeat while the time lasts; max_rate is
  // their median.
  std::vector<Ladder> ladders;
  std::vector<double> max_rates;
  const auto ladder_start = Clock::now();
  while (traced && ladders.size() < 3 && !loadgen->broken() &&
         (ladders.empty() || SecondsSince(ladder_start) < ladder_seconds)) {
    ladders.push_back(RunLadder(*loadgen, shape.ladder_start,
                                shape.ladder_steps, 2.0));
    max_rates.push_back(ladders.back().max_rate);
  }
  const double max_rate = max_rates.empty() ? 0 : Median(max_rates);
  loadgen->Drain();
  const double rss = PeakRssMb(server->pid());

  std::uint64_t extra_messages = 0;
  double rtt_us = 0;
  if (traced) {
    Json heartbeat = JsonObject{};
    heartbeat.Set("type", Json("heartbeat"));
    heartbeat.Set("worker", Json(std::int64_t{0}));
    heartbeat.Set("job_id", Json(std::int64_t{0}));
    if (shape.durable) heartbeat.Set("study", Json(fleet->LiveStudies().front()));
    rtt_us = RoundTripUs(server->port(), heartbeat, 200);
    extra_messages = 200;
  }

  result.attempted = loadgen->sent();
  result.failed = loadgen->failed();
  const std::uint64_t sent = loadgen->sent();
  const std::size_t in_flight_max = loadgen->in_flight_max();
  loadgen.reset();
  long long rejected = 0;
  CheckSummary(shape, server->StopAndLog(), *fleet, sent + extra_messages,
               result, &rejected);
  server.reset();
  result.Check(!nominal.lease_us.empty() && !nominal.ack_us.empty(),
               "nominal phase measured leases and acks");
  if (shape.durable) {
    try {
      CheckRestart(args, shape, state_dir, *fleet, result);
    } catch (const std::exception& error) {
      result.Check(false, std::string("restart check: ") + error.what());
    }
  }

  const double share = result.attempted == 0
                           ? 0
                           : static_cast<double>(result.failed) /
                                 static_cast<double>(result.attempted);
  result.Note(shape.name + ": " + std::to_string(result.attempted) +
              " messages (" + std::to_string(setup_messages) +
              " at set-up), failed_share " + Fixed(share, 6));
  result.Note("  at nominal " + Fixed(shape.nominal_rate, 0) + " msgs/s: " +
              std::to_string(nominal.lease_us.size()) + " leases, " +
              std::to_string(nominal.ack_us.size()) + " acks");
  result.Note("  saturated_msgs_s " + Fixed(saturated, 0) + " (" +
              std::to_string(shape.saturation_messages) + " messages)");
  for (const auto& each : ladders) NoteLadder(result, "  ladder:", each);
  if (traced) {
    result.Note("  max_rate_msgs_s " + Fixed(max_rate, 0) + " (median of " +
                std::to_string(ladders.size()) + " ladders)");
  }

  if (!traced) {
    result.Note("  lease_p50_us " + Fixed(Median(lease_p50)) +
                "  lease_p99_us " + Fixed(Median(lease_p99)) +
                "  ack_p50_us " + Fixed(Median(ack_p50)) +
                "  ack_p99_us " + Fixed(Median(ack_p99)) + "  (medians of " +
                std::to_string(windows) + " windows)");
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("peak_rss_mb", rss, "MiB");
    result.Add("throughput_per_s", saturated, "1/s");
    result.Add("work_p50_us", Median(lease_p50), "us");
    result.Add("commit_p50_us", Median(ack_p50), "us");
    return result;
  }

  const double ceiling = Calibrate(args, shape, result);
  double reached = 0;
  for (const auto& each : ladders) {
    if (!each.steps.empty()) reached = std::max(reached, each.steps.back().rate);
  }
  result.Check(ceiling >= reached,
               "generator ceiling " + Fixed(ceiling, 0) +
                   " msgs/s is at or above the highest step reached " +
                  Fixed(reached, 0));
  const double stack_p50_us = ReplayStacks(shape, args, *spans, result);
  std::vector<double> all = nominal.all_us;
  result.Add("net.rtt_us", rtt_us, "us");
  result.Add("net.transport_us", Quantile(all, 0.5) - stack_p50_us, "us");
  result.Add("net.messages_rejected", static_cast<double>(rejected), "count");
  result.Add("loadgen.late_us_p99", Quantile(nominal.late_us, 0.99), "us");
  result.Add("loadgen.in_flight_max", static_cast<double>(in_flight_max), "count");
  result.Add("loadgen.ceiling_msgs_s", ceiling, "1/s");
  result.Add("serve.max_rate_msgs_s", max_rate, "1/s");
  return result;
}

}  // namespace htbench
