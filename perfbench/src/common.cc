#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

void SpinFor(std::int64_t ns) {
  const std::int64_t until = NowNs() + ns;
  while (NowNs() < until) {
  }
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void MetricSet::Put(const std::string& name, double value,
                    const std::string& unit) {
  values_[name] = {value, unit};
}

void MetricSet::Fill(const std::string& name, double value,
                     const std::string& unit) {
  values_.emplace(name, std::make_pair(value, unit));
}

std::string MetricSet::ToJson() const {
  std::ostringstream out;
  out << '{';
  bool first = true;
  for (const auto& [name, entry] : values_) {
    const double v = std::isfinite(entry.first) ? entry.first : 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << buf
        << ", \"unit\": \"" << entry.second << "\"}";
    first = false;
  }
  out << '}';
  return out.str();
}

bool SpanLog::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"dropped_spans\": " << dropped_ << ", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                  "\"span\":%llu,\"parent\":%llu}}%s\n",
                  s.name, static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.request),
                  static_cast<unsigned long long>(s.span),
                  static_cast<unsigned long long>(s.parent),
                  i + 1 < spans_.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void Checks::Expect(bool condition, const std::string& what) {
  if (!condition) failures_.push_back(what);
}

CpuSample CpuSample::Read() {
  CpuSample sample;
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  if (label != "cpu") return sample;
  // user nice system idle iowait irq softirq steal [guest guest_nice]:
  // guest time is already counted in user, so sum only the first eight.
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    sample.total += v;
    if (field == 7) sample.steal = v;
  }
  return sample;
}

double StealShare(const CpuSample& before, const CpuSample& after) {
  const std::uint64_t total = after.total - before.total;
  if (total == 0 || after.total < before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(total);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void SetAffinity(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
}

}  // namespace perfbench
