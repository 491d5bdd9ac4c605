// The benchmark's probes. Each drives one backend of the lock manager
// through its public API on one workload's inputs and writes named
// metrics into the RunContext:
//
//   * sim probe    — Testbed + ProfileAndInstall (the simulated rack);
//   * rt pool      — RtLockService + RtClientPool (closed loop);
//   * rt direct    — RtLockService driven by the benchmark's own open-loop
//                    generator through Submit / PollCompletions;
//   * rungs        — single-layer loops: LockEngine replay, SpscRing hop.
//
// "Primary" probes measure a workload's end-to-end metrics; the others run
// on the same inputs so that every layer is measured on every workload.
// Metrics are written with MetricSet::Fill after the primary's Put, so a
// twin never overrides what the workload measured itself.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common.h"
#include "harness/testbed.h"
#include "workload/workload.h"

namespace perfbench {

using Factory =
    std::function<std::unique_ptr<netlock::WorkloadGenerator>(int)>;

// ---------------------------------------------------------------- sim --

struct SimSpec {
  /// Topology, workload factory and timing of the rack (context, seed,
  /// session wrapper are set by the probe).
  netlock::TestbedConfig config;
  netlock::SimTime profile = 30 * netlock::kMillisecond;
  netlock::SimTime measure = 20 * netlock::kMillisecond;
  /// Consecutive measured windows per repetition; each gives one
  /// wall-rate sample, the model results cover all of them.
  int windows = 1;
};

/// End-to-end: repeats set-up + fixed simulated window until `budget_s`
/// has passed (at least `min_reps`). Reports setup_s (with `primary`,
/// median) and model_*, and checks that the model numbers are identical
/// across repetitions.
void SimEndToEnd(const SimSpec& spec, RunContext& ctx, double budget_s,
                 int min_reps, bool primary);

/// Per-layer: one traced repetition (handler + session wrappers) and one
/// with a fixed busy-wait in the switch handler (attribution check). With
/// `primary`, also an untraced repetition (trace_overhead).
void SimLayers(const SimSpec& spec, RunContext& ctx, bool primary);

// ------------------------------------------------------------- rt pool --

/// End-to-end: repetitions of set-up + warm-up + window within
/// `budget_s`; medians of grants_per_s, lock_p50_us, lock_p99_us and
/// (with `primary`) setup_s.
/// `factory` builds each session's workload generator.
void PoolEndToEnd(const Factory& factory, RunContext& ctx, double budget_s,
                  bool primary);

/// Per-layer: service/executor counters and the oracle replay of a short
/// recorded window. With `primary`, an untraced window first gives
/// trace_overhead.
void PoolLayers(const Factory& factory, RunContext& ctx, bool primary);

// ----------------------------------------------------------- rt direct --

struct DirectSpec {
  /// One request per arrival: lock and mode (the generator releases on
  /// grant, so each request holds its lock only while the grant travels).
  std::vector<netlock::LockRequest> stream;
  double rate_per_s = 300e3;
};

void DirectEndToEnd(const DirectSpec& spec, RunContext& ctx,
                    double budget_s, bool primary);
void DirectLayers(const DirectSpec& spec, RunContext& ctx, bool primary);

// --------------------------------------------------------------- rungs --

/// Transactions of `sessions` closed-loop sessions (seeded like the
/// testbed's and the client pool's), round-robin, until they hold at least
/// `requests` lock requests.
std::vector<netlock::TxnSpec> GenerateTxns(const Factory& factory,
                                           int sessions, std::uint64_t seed,
                                           std::size_t requests);

/// LockEngine alone: `sessions` sessions run the transactions one lock at
/// a time, single-threaded, through a benchmark-owned GrantSink.
void EngineRung(const std::vector<netlock::TxnSpec>& txns, int sessions,
                RunContext& ctx);

/// SpscRing alone: the requests cross one ring between two threads.
void RingRung(const std::vector<netlock::LockRequest>& stream,
              RunContext& ctx);

/// Worker and client CPUs for the rt probes (recorded in ctx.env).
struct Pinning {
  int worker_cpu = -1;
  int client_cpu = -1;
};
Pinning ChoosePinning(RunContext& ctx);

}  // namespace perfbench
