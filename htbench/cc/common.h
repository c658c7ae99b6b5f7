// Shared pieces of the htbench benchmark program: the result every workload
// returns, sample statistics, the span recorder of the traced mode, and the
// workload entry points.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace htbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `notes` are human-readable lines printed
/// before the final JSON line.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed correctness check; the run then exits nonzero.
  void Check(bool ok, const std::string& what);
  void Note(const std::string& line) { notes.push_back(line); }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string cli;     // hypertune_cli binary (serve workloads)
  std::string tables;  // directory holding the golden *.httb tables
  std::string work;    // scratch directory for state dirs, traces, spans
};

/// Nearest-rank quantile of `values` (sorted in place); 0 when empty.
double Quantile(std::vector<double>& values, double q);
double Median(std::vector<double> values);

/// Peak resident set (VmHWM) of a process in MiB; `pid` 0 = this process.
double PeakRssMb(int pid = 0);

/// In-memory span log of the traced mode: each span has a name, start and
/// end, the span that caused it, and the request it belongs to. Written out
/// as JSON lines when the run ends.
class Spans {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t request = 0;
    std::int64_t parent = -1;  // index into the log, -1 = root
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Opens a span under the innermost open one. Returns its index.
  std::size_t Begin(const char* name, std::uint64_t request);
  void End(std::size_t index);
  /// Records a finished root span (spans that overlap other requests).
  void Add(const char* name, std::uint64_t request, std::int64_t start_ns,
           std::int64_t end_ns) {
    spans_.push_back({name, request, -1, start_ns, end_ns});
  }

  const std::vector<Span>& spans() const { return spans_; }
  /// Durations (ns) of every span named `name`.
  std::vector<double> Durations(const std::string& name) const;
  /// Writes one JSON object per span; false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span; a null recorder records nothing.
class Scope {
 public:
  Scope(Spans* spans, const char* name, std::uint64_t request)
      : spans_(spans),
        index_(spans != nullptr ? spans->Begin(name, request) : 0) {}
  ~Scope() {
    if (spans_ != nullptr) spans_->End(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans* spans_;
  std::size_t index_;
};

// Workload entry points.
Result RunServe(const Args& args, Spans* spans);
Result RunSweepGrid(const Args& args, Spans* spans);
Result RunSimTraced(const Args& args, Spans* spans);

}  // namespace htbench
