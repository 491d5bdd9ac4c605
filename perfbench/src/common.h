// Shared plumbing for the perfbench binary: wall clock, order statistics,
// the named metric set printed at exit, in-memory span log, correctness
// checks and the per-run environment record (CPUs, pinning, steal time).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double Seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }
inline double Us(double ns) { return ns / 1e3; }

/// Busy-waits `ns` on the steady clock (attribution check; never sleeps).
void SpinFor(std::int64_t ns);

/// Median of `values` (mean of the middle two for an even count).
double Median(std::vector<double> values);

/// Named metrics with units. Put overwrites; Fill keeps a value already
/// set, so the workload's own backend reports first and twin probes only
/// supply metrics it could not measure.
class MetricSet {
 public:
  void Put(const std::string& name, double value, const std::string& unit);
  void Fill(const std::string& name, double value, const std::string& unit);
  /// The "metrics" object of the result line.
  std::string ToJson() const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// One traced call: name, start/end on the steady clock, its own id, the
/// request it belongs to (shared by every span of one request) and the
/// span that caused it (0 for a root).
struct Span {
  const char* name = "";
  std::uint64_t request = 0;
  std::uint64_t span = 0;
  std::uint64_t parent = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Bounded in-memory span store, written once at exit.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) : capacity_(capacity) {}
  /// Stores a span and returns its id (0 when the log is full).
  std::uint64_t Add(const char* name, std::uint64_t request,
                    std::uint64_t parent, std::int64_t start_ns,
                    std::int64_t end_ns) {
    if (spans_.size() >= capacity_) {
      ++dropped_;
      return 0;
    }
    spans_.push_back(Span{name, request, spans_.size() + 1, parent,
                          start_ns, end_ns});
    return spans_.size();
  }
  /// Chrome trace-event JSON ("X" events; args carry request, span and
  /// parent ids).
  bool Write(const std::string& path) const;

 private:
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// Correctness verdict of a run: every failed expectation is kept.
class Checks {
 public:
  void Expect(bool condition, const std::string& what);
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

/// Aggregate CPU counters from the first line of /proc/stat.
struct CpuSample {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
  static CpuSample Read();
};
/// Share of CPU time stolen by the hypervisor between two samples.
double StealShare(const CpuSample& before, const CpuSample& after);

double PeakRssMb();

/// CPUs this process may run on.
std::vector<int> AllowedCpus();

/// Restricts the calling thread to `cpus` (best effort); threads it starts
/// afterwards inherit the mask.
void SetAffinity(const std::vector<int>& cpus);

/// Pins the calling thread to `cpu` (no-op for -1) for the scope's
/// lifetime, then restores the mask it had; threads started inside the
/// scope keep the pinned mask.
class ScopedPin {
 public:
  explicit ScopedPin(int cpu) : saved_(AllowedCpus()) {
    if (cpu >= 0) SetAffinity({cpu});
  }
  ~ScopedPin() { SetAffinity(saved_); }
  ScopedPin(const ScopedPin&) = delete;
  ScopedPin& operator=(const ScopedPin&) = delete;

 private:
  std::vector<int> saved_;
};

/// Everything one invocation accumulates.
struct RunContext {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::int64_t process_start_ns = 0;
  MetricSet metrics;
  /// Numbers printed on the info line but not as metrics: the simulated
  /// median and p99 (constant on uncontended inputs) and the wall p99 on
  /// workloads whose run-to-run spread is wider than any bound.
  std::map<std::string, double> diagnostics;
  Checks checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  SpanLog spans{1u << 20};
  /// Pinning applied by the rt probes, as a JSON object.
  std::string pinning;
};

/// Packs (lock, txn) into the request id its spans share.
inline std::uint64_t RequestId(std::uint64_t lock, std::uint64_t txn) {
  std::uint64_t x = lock * 0x9e3779b97f4a7c15ull ^ txn;
  x ^= x >> 31;
  return x | 1;  // 0 means "no parent".
}

}  // namespace perfbench
