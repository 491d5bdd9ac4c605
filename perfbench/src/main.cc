// perfbench: the repository benchmark, one workload per invocation.
//
//   perfbench --workload sim-tpcc|rt-zipf|rt-open --seed N --seconds S
//             --trace 0|1
//
// --trace 0 measures the end-to-end metrics untraced; --trace 1 is the
// separate traced run that reports the per-layer metrics. Every workload
// runs on both backends: its own (the sim for sim-tpcc, rt for rt-*) for
// the end-to-end numbers, and the other on the same generated inputs, so
// every metric — model_* from the simulated rack, grants_per_s and
// lock_p50_us from the rt service — and every layer is measured on every
// workload. On sim-tpcc the simulator supplies setup_s, peak_rss_mb and
// model_*; its own wall-clock speed is a per-layer metric. The last line
// of stdout is the result object; the line before it is the environment
// record. A failed correctness check prints "correct": false and exits 1.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>

#include "harness/experiment.h"
#include "probes.h"
#include "workload/micro.h"
#include "workload/tpcc.h"

namespace perfbench {
namespace {

using netlock::kMicrosecond;
using netlock::kMillisecond;

struct Workload {
  SimSpec sim;  ///< The simulated rack; its factory feeds every probe.
  /// Poisson arrival rate of the open-loop generator: rt-open's load, and
  /// a gentler one when the generator only probes another workload's
  /// inputs (TPC-C and Zipf streams queue on their hot locks).
  double open_rate_per_s = 100e3;
};

/// The NetLock rack of Fig. 10: 10 client machines x 16 sessions, 2 lock
/// servers, TPC-C at 1 warehouse per machine, 10 us think time.
Workload SimTpcc() {
  Workload w;
  netlock::TestbedConfig& c = w.sim.config;
  c.system = netlock::SystemKind::kNetLock;
  c.client_machines = 10;
  c.sessions_per_machine = 16;
  c.lock_servers = 2;
  c.txn_config.think_time = 10 * kMicrosecond;
  c.txn_config.abort_backoff = 200 * kMicrosecond;
  const std::uint32_t warehouses =
      netlock::TpccWarehouses(c.client_machines, /*high_contention=*/true);
  c.workload_factory = netlock::TpccFactory(warehouses);
  c.lock_space =
      netlock::TpccWorkload(netlock::TpccConfig{warehouses, 0}).lock_space();
  w.sim.profile = 30 * kMillisecond;
  w.sim.measure = 10 * kMillisecond;
  w.sim.windows = 3;
  return w;
}

/// A small simulated rack running a micro workload (the model twin of an
/// rt workload): 2 machines x 16 closed-loop sessions, no think time.
Workload MicroWorkload(const netlock::MicroConfig& micro) {
  Workload w;
  netlock::TestbedConfig& c = w.sim.config;
  c.system = netlock::SystemKind::kNetLock;
  c.client_machines = 2;
  c.sessions_per_machine = 16;
  c.lock_servers = 2;
  c.txn_config.think_time = 0;
  c.workload_factory = netlock::MicroFactory(micro);
  w.sim.profile = 10 * kMillisecond;
  w.sim.measure = 20 * kMillisecond;
  return w;
}

Workload RtZipf() {
  netlock::MicroConfig m;
  m.num_locks = 512;
  m.shared_fraction = 0.2;
  m.locks_per_txn = 2;
  m.zipf_alpha = 0.99;
  return MicroWorkload(m);
}

Workload RtOpen() {
  netlock::MicroConfig m;
  m.num_locks = 10000;
  m.shared_fraction = 0.0;
  m.locks_per_txn = 1;
  m.zipf_alpha = 0.0;
  Workload w = MicroWorkload(m);
  w.open_rate_per_s = 300e3;
  return w;
}

/// The workload's transactions as its simulated sessions issue them
/// (seeded alike), until they hold at least `requests` lock requests.
std::vector<netlock::TxnSpec> Txns(const Workload& w, std::uint64_t seed,
                                   std::size_t requests) {
  const netlock::TestbedConfig& c = w.sim.config;
  return GenerateTxns(c.workload_factory,
                      c.client_machines * c.sessions_per_machine, seed,
                      requests);
}

/// Open-loop requests: the workload's transactions flattened to one
/// request per lock, arriving as a Poisson stream.
DirectSpec Direct(const Workload& w, std::uint64_t seed) {
  DirectSpec d;
  for (const netlock::TxnSpec& t : Txns(w, seed, 1u << 18)) {
    d.stream.insert(d.stream.end(), t.locks.begin(), t.locks.end());
  }
  d.rate_per_s = w.open_rate_per_s;
  return d;
}

void RunLayers(const std::string& name, const Workload& w, RunContext& ctx) {
  const netlock::TestbedConfig& c = w.sim.config;
  if (name == "sim-tpcc") {
    SimLayers(w.sim, ctx, /*primary=*/true);
    PoolLayers(w.sim.config.workload_factory, ctx, false);
    DirectLayers(Direct(w, ctx.seed), ctx, false);
  } else if (name == "rt-zipf") {
    PoolLayers(w.sim.config.workload_factory, ctx, true);
    SimLayers(w.sim, ctx, false);
    DirectLayers(Direct(w, ctx.seed), ctx, false);
  } else {
    DirectLayers(Direct(w, ctx.seed), ctx, true);
    SimLayers(w.sim, ctx, false);
  }
  EngineRung(Txns(w, ctx.seed, 1u << 19),
             c.client_machines * c.sessions_per_machine, ctx);
  RingRung(Direct(w, ctx.seed).stream, ctx);
}

void RunEndToEnd(const std::string& name, const Workload& w,
                 RunContext& ctx) {
  const double s = ctx.seconds;
  if (name == "sim-tpcc") {
    SimEndToEnd(w.sim, ctx, 0.3 * s, 3, /*primary=*/true);
    PoolEndToEnd(w.sim.config.workload_factory, ctx, 0.65 * s, false);
  } else if (name == "rt-zipf") {
    PoolEndToEnd(w.sim.config.workload_factory, ctx, 0.85 * s, true);
    SimEndToEnd(w.sim, ctx, 0, 1, false);
  } else {
    DirectEndToEnd(Direct(w, ctx.seed), ctx, 0.85 * s, true);
    SimEndToEnd(w.sim, ctx, 0, 1, false);
  }
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "sim-tpcc|rt-zipf|rt-open --seed N --seconds S --trace 0|1\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunContext ctx;
  ctx.process_start_ns = NowNs();
  std::string workload;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      ctx.seed = std::strtoull(value, &end, 10);
      have_seed = *value != '\0' && *end == '\0';
    } else if (key == "--seconds") {
      ctx.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(ctx.seconds > 0 && ctx.seconds <= 600)) {
        return Usage("--seconds must be in (0, 600]");
      }
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace must be 0 or 1");
      }
      ctx.trace = value[0] == '1';
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("arguments come in --key value pairs");
  if (!have_seed) return Usage("--seed must be a whole number");
  Workload w;
  if (workload == "sim-tpcc") {
    w = SimTpcc();
  } else if (workload == "rt-zipf") {
    w = RtZipf();
  } else if (workload == "rt-open") {
    w = RtOpen();
  } else {
    return Usage("--workload must be sim-tpcc, rt-zipf or rt-open");
  }

  const CpuSample cpu0 = CpuSample::Read();
  if (ctx.trace) {
    RunLayers(workload, w, ctx);
    ctx.metrics.Put("failed_share",
                    ctx.attempted == 0
                        ? 0.0
                        : static_cast<double>(ctx.failed) /
                              static_cast<double>(ctx.attempted),
                    "share");
  } else {
    RunEndToEnd(workload, w, ctx);
  }
  const CpuSample cpu1 = CpuSample::Read();

  // Environment record: a slow run on a noisy host (steal time, missing
  // pinning) can be told apart from a slow program.
  std::ostringstream info;
  info << "{\"env\": {\"workload\": \"" << workload
       << "\", \"seed\": " << ctx.seed << ", \"trace\": " << ctx.trace
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"allowed_cpus\": " << AllowedCpus().size()
       << ", \"pinning\": " << (ctx.pinning.empty() ? "null" : ctx.pinning)
       << ", \"steal_share\": " << StealShare(cpu0, cpu1)
       << ", \"wall_s\": " << Seconds(NowNs() - ctx.process_start_ns)
       << "}, \"diagnostics\": {";
  const char* sep = "";
  for (const auto& [name, value] : ctx.diagnostics) {
    info << sep << '"' << name << "\": " << value;
    sep = ", ";
  }
  info << "}}";
  if (ctx.trace) {
    mkdir(".bench_out", 0755);
    const std::string path = ".bench_out/trace-" + workload + "-seed" +
                             std::to_string(ctx.seed) + ".json";
    ctx.checks.Expect(ctx.spans.Write(path), "could not write " + path);
  }
  for (const std::string& f : ctx.checks.failures()) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  if (ctx.attempted == 0) ctx.attempted = 1;
  std::printf("%s\n", info.str().c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      ctx.checks.ok() ? "true" : "false",
      static_cast<unsigned long long>(ctx.attempted),
      static_cast<unsigned long long>(ctx.failed),
      ctx.metrics.ToJson().c_str());
  return ctx.checks.ok() ? 0 : 1;
}
