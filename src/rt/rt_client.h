// Closed-loop client workers for the real-time backend.
//
// The wall-clock twin of the simulated TxnEngine: each client thread
// multiplexes several closed-loop sessions, each drawing transactions from
// its own workload generator + Rng (seeded exactly like the simulated
// engines, so the per-session request streams are identical across
// backends), acquiring the locks in order (two-phase locking, growing
// phase), then releasing and committing. Sessions are coroutine-style
// state machines: a thread submits an acquire, and the session advances
// only when the matching grant appears in its completion ring — so one
// thread drives many concurrent transactions without blocking.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "common/telemetry.h"
#include "common/types.h"
#include "rt/rt_lock_service.h"
#include "substrate/execution_substrate.h"
#include "workload/workload.h"

namespace netlock::rt {

struct RtClientConfig {
  int sessions_per_client = 4;
  /// Transactions each session commits before going idle; 0 = keep issuing
  /// until StopIssuing() (timed benchmark mode).
  std::uint64_t txns_per_session = 0;
  /// Per-session seeds follow the simulated testbed: seed * 1000003 + i.
  std::uint64_t seed = 1;
  std::size_t poll_batch = 64;
  /// Stage submits in per-core buffers and flush each once per poll-loop
  /// iteration via RtLockService::SubmitBatch — one ring publish and one
  /// doorbell per flush instead of per request. Off = legacy per-request
  /// Submit, kept as the --batch-submit A/B baseline.
  bool batch_submit = true;
  /// Always-on sharded latency histograms ("rt.lock_latency",
  /// "rt.txn_latency"), one shard per client thread — what the live stats
  /// poller and netlock_top read. Off for `--telemetry=off` overhead runs;
  /// the RunMetrics recorders (measurement window only) are unaffected.
  bool telemetry = true;
  /// Mean wall-clock backoff before a policy-aborted transaction retries
  /// (same spec, fresh — younger — txn id); each wait is drawn uniformly
  /// from [abort_backoff/2, 3*abort_backoff/2].
  SimTime abort_backoff = 100 * kMicrosecond;
};

class RtClientPool {
 public:
  /// `session` is the global session index (unique across client threads),
  /// matching the engine index the simulated Testbed passes its factory.
  using WorkloadFactory =
      std::function<std::unique_ptr<WorkloadGenerator>(int session)>;

  RtClientPool(RtLockService& service, ExecutionSubstrate& substrate,
               RtClientConfig config, WorkloadFactory factory);
  ~RtClientPool();

  RtClientPool(const RtClientPool&) = delete;
  RtClientPool& operator=(const RtClientPool&) = delete;

  /// Launches one thread per service client slot; every session submits
  /// its first acquire immediately.
  void Start();

  /// Timed mode: sessions finish their in-flight transaction and stop.
  void StopIssuing() { stop_.store(true, std::memory_order_release); }

  /// Waits until every session is idle and the client threads have exited.
  /// (Fixed-count mode needs no StopIssuing first.)
  void Join();

  /// Toggles the measurement window (warm-up exclusion).
  void SetRecording(bool on) {
    recording_.store(on, std::memory_order_release);
  }

  /// Merged per-thread metrics. Call after Join().
  RunMetrics Collect() const;

  /// Committed transactions across all sessions (unconditional, not gated
  /// on recording). Call after Join().
  std::uint64_t TotalCommits() const;

  /// Policy aborts (die + wound) across all sessions. Call after Join().
  std::uint64_t TotalAborts() const;
  /// Held-lock revocations (wound-wait) across all sessions.
  std::uint64_t TotalWounds() const;
  /// Sum of committed transactions' lock-set sizes. Call after Join().
  std::uint64_t TotalCommittedLockGrants() const;

  int num_sessions() const {
    return service_.num_clients() * config_.sessions_per_client;
  }

  /// Sharded client-side telemetry (one shard per client thread); the
  /// latency histograms cover the whole run, not just the measurement
  /// window. Empty (no instruments) when config.telemetry is off.
  TelemetryDomain& telemetry_domain() { return domain_; }
  const TelemetryDomain& telemetry_domain() const { return domain_; }

  /// Folds the domain into `registry` as deltas (commits, latency
  /// histogram summaries). Safe to call repeatedly — the live poller does
  /// every tick; the harness does once more after Join() so fixed-count
  /// runs (no poller) publish too.
  void PublishTelemetry(MetricsRegistry& registry) {
    domain_.PublishTo(registry);
  }

 private:
  struct Session {
    Rng rng{1};
    std::unique_ptr<WorkloadGenerator> workload;
    std::uint32_t engine_id = 0;  ///< Global session index + 1.
    TxnSpec current;
    TxnId txn = kInvalidTxn;
    std::uint64_t counter = 0;
    std::size_t next_lock = 0;
    SimTime txn_start = 0;
    SimTime lock_issue = 0;
    std::uint64_t committed = 0;
    bool active = false;
    /// Policy abort (die or wound) tore the transaction down; the session
    /// resumes — same spec, fresh txn id — once substrate time reaches
    /// retry_at. Completions for the aborted txn id are dropped meanwhile.
    bool backoff = false;
    SimTime retry_at = 0;
  };

  struct ClientThread {
    int index = 0;
    int first_session = 0;  ///< Global index of sessions[0].
    std::vector<Session> sessions;
    /// Per-core submit staging (batch_submit mode): requests group here by
    /// target core and flush once per poll-loop iteration.
    std::vector<std::vector<RtRequest>> staged;
    RunMetrics metrics;
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;  ///< Policy aborts (die + wound).
    std::uint64_t wounds = 0;  ///< Of those, held-lock revocations.
    /// Sum of committed transactions' lock-set sizes (timing-independent
    /// on fixed-count runs; the cross-backend tests compare it exactly).
    std::uint64_t committed_lock_grants = 0;
    std::size_t in_backoff = 0;  ///< Sessions waiting out an abort backoff.
    /// Draws abort-backoff jitter. Separate from the sessions' workload
    /// Rngs, whose streams must match the simulated backend's.
    Rng backoff_rng{1};
    /// Sessions that committed this poll iteration; they begin their next
    /// transaction after the iteration's first flush.
    std::vector<Session*> to_begin;
    std::thread thread;
  };

  // Time contract: RunClient reads the clock once per poll iteration that
  // has work and passes that `now` down; nothing below it reads the clock.
  // Iteration order: poll -> grants (stage next acquires and commit
  // releases) -> flush -> begin the sessions that committed -> flush.
  void RunClient(ClientThread& ct);
  void BeginTxn(ClientThread& ct, Session& s, SimTime now);
  void SubmitAcquire(ClientThread& ct, Session& s, SimTime now);
  /// Routes a request to the wire: staged per core (batch_submit) or a
  /// direct Submit.
  void EnqueueRequest(ClientThread& ct, const RtRequest& rt);
  /// Flushes every nonempty per-core staging buffer with SubmitBatch.
  void FlushStaged(ClientThread& ct);
  /// Returns true when the session went idle (txn budget / stop flag). A
  /// commit that keeps the session live queues it on ct.to_begin.
  bool OnGrant(ClientThread& ct, const RtCompletion& comp, SimTime now);
  /// Policy abort for a session's current txn: release survivors, cancel
  /// the in-flight acquire if any, enter backoff.
  void OnAbort(ClientThread& ct, Session& s, const RtCompletion& comp,
               SimTime now);
  /// Restarts sessions whose backoff expired (fresh txn id, same spec);
  /// sessions resumed after StopIssuing go idle and bump `idled` instead.
  /// Returns the number resumed.
  std::size_t ResumeBackoffs(ClientThread& ct, SimTime now,
                             std::size_t& idled);

  RtLockService& service_;
  ExecutionSubstrate& substrate_;
  RtClientConfig config_;
  WorkloadFactory factory_;
  TelemetryDomain domain_;
  TelemetryCounter c_commits_;
  TelemetryHistogram h_lock_latency_;
  TelemetryHistogram h_txn_latency_;
  std::vector<std::unique_ptr<ClientThread>> threads_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> recording_{false};
  bool started_ = false;
  bool joined_ = false;
};

}  // namespace netlock::rt
