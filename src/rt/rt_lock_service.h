// Real-time, core-sharded lock service.
//
// The wall-clock twin of the simulated LockServer, shaped like the
// prototype's DPDK server (Section 5, ~2.25 MRPS/core): N worker cores,
// shared-nothing per-core state, and RSS-style lock->core hashing so every
// lock is owned by exactly one core and the protocol state needs no locks.
// Requests travel from client threads to cores over SPSC rings (one per
// (core, client) pair), are drained in batches, and run through the same
// LockEngine the simulator's LockServer uses — the protocol logic is
// compiled once, not forked. Blocked acquires park in the engine's per-lock
// wait queue (no core ever spins on a held lock); grants flow back through
// per-(client, core) completion rings.
//
// Observability: every per-request statistic lives in a sharded
// TelemetryDomain (one cache-line-isolated shard per core, single-writer
// plain stores — no shared atomic RMW on the hot path); Stop() folds the
// domain into the context registry so bench reports see the same
// "rt.requests"/"rt.grants"/... totals as before. A FlightRecorder ring
// (owned by default, injectable for tests) keeps the last few thousand
// protocol events per core for crash/violation autopsy.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/flight_recorder.h"
#include "common/sim_context.h"
#include "common/telemetry.h"
#include "common/types.h"
#include "core/lock_engine.h"
#include "rt/aligned_buf.h"
#include "rt/executor.h"
#include "rt/spsc_ring.h"
#include "substrate/execution_substrate.h"

namespace netlock::rt {

/// Ring records are 16 bytes, so four share a cache line on both the
/// request and the completion rings.
struct RtRequest {
  enum class Op : std::uint8_t {
    kAcquire = 0,
    kRelease = 1,
    /// Remove every queue entry of (lock, txn) — granted or not — without
    /// completing it. Sent after a deadlock-policy abort while an acquire
    /// was still queued. Idempotent; no completion is produced.
    kCancel = 2,
  };
  Op op = Op::kAcquire;
  LockMode mode = LockMode::kExclusive;
  /// Client-thread index; must match the mailbox the request is submitted
  /// through (the worker routes completions by mailbox and checks this).
  std::uint16_t client = 0;
  LockId lock = kInvalidLock;
  TxnId txn = kInvalidTxn;
};
static_assert(sizeof(RtRequest) == 16, "RtRequest must stay 16 bytes");

struct RtCompletion {
  enum class Status : std::uint8_t {
    kGranted = 0,
    kAborted = 1,  ///< Deadlock policy refused or revoked the entry.
  };
  TxnId txn = kInvalidTxn;
  LockId lock = kInvalidLock;
  LockMode mode = LockMode::kExclusive;
  Status status = Status::kGranted;
  /// Valid when status == kAborted: why (no-wait / wait-die / wound).
  AbortReason reason = AbortReason::kNoWait;
};
static_assert(sizeof(RtCompletion) == 16, "RtCompletion must stay 16 bytes");

/// Engine-level event, recorded per core and merged by sequence number —
/// a linearization of the real-time grant stream that the single-threaded
/// LockOracle can replay after the run (mutual exclusion + FIFO checks).
struct RtEvent {
  enum class Kind : std::uint8_t {
    kAccept = 0,
    kGrant = 1,
    kRelease = 2,
    /// Every queue entry of (lock, txn) removed — policy refusal, wound,
    /// or client cancel. Replay drops any holder state for the pair.
    kAbort = 3,
  };
  std::uint64_t seq = 0;
  Kind kind = Kind::kAccept;
  LockId lock = kInvalidLock;
  LockMode mode = LockMode::kExclusive;
  TxnId txn = kInvalidTxn;
};

class RtLockService {
 public:
  struct Options {
    int cores = 2;
    /// Client threads that will call Submit/Poll (at most 65535: the
    /// client index travels in RtRequest's 16-bit field).
    int num_clients = 1;
    std::size_t ring_capacity = 8192;
    /// Max requests drained from one mailbox per visit.
    std::size_t drain_batch = 64;
    bool record_events = false;  ///< Oracle replay log (test builds).
    bool pin_threads = false;
    /// Worker idle tuning, forwarded to RtExecutor::Options. The defaults
    /// spin aggressively (dedicated-host latency mode); park-eager
    /// settings (spin_rounds ~0, longer park_timeout) suit shared or
    /// oversubscribed hosts, where spinning burns someone else's CPU and
    /// every submit-side doorbell is a real futex wake — the regime the
    /// --batch-submit A/B bench measures.
    int spin_rounds = 256;
    int yield_rounds = 16;
    std::chrono::microseconds park_timeout{100};
    /// Stage grants in a per-(core, client) buffer and flush them into the
    /// completion rings once per drain with PushBatch, instead of pushing
    /// (and possibly spin-waiting on a full client ring) inside the engine
    /// cascade. Off = legacy direct push, kept as the A/B baseline for
    /// --batch-submit.
    bool batch_submit = true;
    /// Flight recorder on the hot path. On by default (a record is a few
    /// plain stores); `--telemetry=off` benches disable it to measure the
    /// overhead. An external `recorder` overrides ownership either way
    /// (the fuzzer and violation tests inject one they keep after Stop).
    bool telemetry = true;
    FlightRecorder* recorder = nullptr;
    std::size_t flight_capacity = 4096;  ///< Per-core ring (owned recorder).
    /// Telemetry context; nullptr = process default. The sharded domain is
    /// folded into this context's registry at Stop().
    SimContext* context = nullptr;
    /// Deadlock-handling policy applied by every core's engine.
    DeadlockPolicy deadlock_policy = DeadlockPolicy::kNone;
  };

  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t grants = 0;
    std::uint64_t releases = 0;
    std::uint64_t stale_releases = 0;
    std::uint64_t mismatched_releases = 0;
    std::uint64_t batches = 0;    ///< Nonempty mailbox drains.
    std::uint64_t max_batch = 0;  ///< Largest single drain.
    std::uint64_t flushes = 0;    ///< Staged-completion flushes.
    std::uint64_t staged_completions = 0;  ///< Grants that were staged.
    std::uint64_t aborts = 0;  ///< no-wait / wait-die refusals.
    std::uint64_t wounds = 0;  ///< Entries revoked by wound-wait.
    std::uint64_t cancel_removed = 0;  ///< Entries removed by kCancel.
    /// Of cancel_removed, how many were already granted (their grant
    /// completion was produced but the client discarded it).
    std::uint64_t cancel_removed_granted = 0;
  };

  RtLockService(Options options, ExecutionSubstrate& substrate);
  ~RtLockService();

  RtLockService(const RtLockService&) = delete;
  RtLockService& operator=(const RtLockService&) = delete;

  void Start();
  /// Drains everything already submitted, stops the workers, and folds the
  /// telemetry domain into the context registry.
  void Stop();

  /// RSS hash, identical to the simulated LockServer's core dispatch.
  int CoreFor(LockId lock) const;

  /// Called only from client thread `client`, with req.client == client.
  /// Spin-waits (with yields) if the target mailbox is full — backpressure,
  /// never loss. While it waits it moves this client's completions into a
  /// client-owned overflow buffer, so a worker blocked flushing into this
  /// client's full completion ring can finish its drain and free mailbox
  /// space (otherwise the two spin on each other forever). Rings at most
  /// one doorbell per push, and only at the worker owning the lock's core.
  void Submit(int client, const RtRequest& req);

  /// Batched submit: pushes `n` requests — all of which must hash to
  /// `core` (i.e. CoreFor(req.lock) == core) — into that core's mailbox
  /// with one release-store per PushBatch and a single doorbell for the
  /// whole flush. Called only from client thread `client`; waits on a full
  /// mailbox the same way Submit does.
  void SubmitBatch(int client, int core, const RtRequest* reqs,
                   std::size_t n);

  /// Called only from client thread `client`; pops up to `max` grants.
  /// Completions a full-mailbox Submit moved aside come first, so every
  /// (core, client) stream stays FIFO.
  std::size_t PollCompletions(int client, RtCompletion* out,
                              std::size_t max);

  /// Blocks until every submitted request has been processed. Call from a
  /// non-worker thread with producers quiescent (no concurrent Submits).
  void WaitQuiesce();

  /// A quiesce counter: one writer (a client thread or a worker core), a
  /// plain load + store per update, alone on its cache line so the client
  /// and the worker never bounce a line between them.
  struct alignas(64) QuiesceCounter {
    std::atomic<std::uint64_t> value{0};

    void Add(std::uint64_t n, std::memory_order order) {
      value.store(value.load(std::memory_order_relaxed) + n, order);
    }
  };
  static_assert(sizeof(QuiesceCounter) == 64);

  /// Requests client thread `client` has submitted so far (Submit and
  /// SubmitBatch, counted before the push). Any thread may read it.
  std::uint64_t Submitted(int client) const {
    return submitted_[static_cast<std::size_t>(client)].value.load(
        std::memory_order_acquire);
  }

  /// Summed per-core stats. Exact once quiesced.
  Stats TotalStats() const;

  /// One core's slice of the stats (live view; exact once quiesced).
  Stats CoreStats(int core) const;

  /// Queued entries still held across all cores (leak check; call after
  /// Stop()).
  std::size_t TotalQueueDepth() const;

  /// The merged event log (record_events only; call after Stop()).
  std::vector<RtEvent> DrainEvents();

  int cores() const { return options_.cores; }
  int num_clients() const { return options_.num_clients; }

  /// The sharded per-core stats store (live readers: poller, netlock_top).
  TelemetryDomain& telemetry_domain() { return domain_; }
  const TelemetryDomain& telemetry_domain() const { return domain_; }

  /// The hot-path flight recorder; nullptr when telemetry is off and no
  /// external recorder was injected.
  FlightRecorder* flight_recorder() const { return recorder_; }

  const RtExecutor& executor() const { return *executor_; }

  /// Approximate request backlog parked in `core`'s mailboxes right now.
  std::size_t MailboxDepthApprox(int core) const;

 private:
  /// One worker core: engine + sink + replay log, padded so cores never
  /// false-share. Counters live in the TelemetryDomain's shards.
  struct alignas(64) Core {
    /// Sink bridging the shared LockEngine to the completion rings.
    struct Sink final : public GrantSink {
      void DeliverGrant(LockId lock, const QueueSlot& slot) override;
      void DeliverAbort(LockId lock, const QueueSlot& slot,
                        AbortReason reason) override;
      RtLockService* service = nullptr;
      int core = 0;
      /// Time of the mailbox batch being processed (set by ServiceCore).
      SimTime now = 0;
    };
    Sink sink;
    std::unique_ptr<LockEngine> engine;
    std::vector<RtEvent> events;
  };

  /// Per-core staging for grant completions (batch_submit mode): the sink
  /// appends here during the cascade; ServiceCore flushes per drain. One
  /// cache line per core for the headers so appends never false-share.
  struct alignas(64) CoreStaging {
    std::vector<std::vector<RtCompletion>> per_client;
  };

  /// Completions a client moved out of its rings while waiting on a full
  /// mailbox; PollCompletions returns them before reading the rings.
  /// Touched only by that client's thread.
  struct alignas(64) ClientOverflow {
    std::vector<RtCompletion> items;
    std::size_t head = 0;  ///< Next item PollCompletions returns.
  };

  bool ServiceCore(int core);
  /// Full-mailbox wait step for Submit/SubmitBatch: moves every completion
  /// waiting in `client`'s rings into its overflow buffer.
  void SpillCompletions(int client);
  /// Pushes core's staged completions into the client rings (PushBatch,
  /// spin-with-yield on full — backpressure outside the engine cascade).
  void FlushStaged(int core);
  /// Runs one request drained from `client`'s mailbox at batch time `now`.
  void Process(int core_idx, Core& core, const RtRequest& req,
               std::uint16_t client, SimTime now);
  /// Routes one completion (grant or abort) to its client's ring: staged
  /// in batch_submit mode, direct push with backpressure otherwise.
  void DeliverCompletion(int core, const RtCompletion& comp,
                         std::uint32_t client);
  void RecordEvent(Core& core, RtEvent::Kind kind, LockId lock,
                   LockMode mode, TxnId txn);
  void AppendEvent(Core& core, std::uint64_t seq, RtEvent::Kind kind,
                   LockId lock, LockMode mode, TxnId txn);

  Options options_;
  ExecutionSubstrate& substrate_;
  std::vector<std::unique_ptr<Core>> cores_;
  /// req_rings_[core][client]: client -> core mailboxes.
  std::vector<std::vector<std::unique_ptr<SpscRing<RtRequest>>>> req_rings_;
  /// comp_rings_[client][core]: core -> client completions.
  std::vector<std::vector<std::unique_ptr<SpscRing<RtCompletion>>>>
      comp_rings_;
  /// Per-core drain scratch; each core's region starts on its own cache
  /// line (adjacent regions used to share the boundary line).
  std::unique_ptr<AlignedRegions<RtRequest>> drain_buf_;
  std::vector<std::unique_ptr<CoreStaging>> staging_;  ///< One per core.
  std::vector<std::unique_ptr<ClientOverflow>> overflow_;  ///< Per client.
  std::unique_ptr<RtExecutor> executor_;
  /// WaitQuiesce's counters: submitted_[client] written only by that
  /// client thread, processed_[core] only by that core's worker.
  std::unique_ptr<QuiesceCounter[]> submitted_;
  std::unique_ptr<QuiesceCounter[]> processed_;
  std::atomic<std::uint64_t> event_seq_{0};

  /// Sharded per-core stats (one shard per worker core).
  TelemetryDomain domain_;
  TelemetryCounter c_requests_;
  TelemetryCounter c_grants_;
  TelemetryCounter c_releases_;
  TelemetryCounter c_stale_releases_;
  TelemetryCounter c_mismatched_releases_;
  TelemetryCounter c_batches_;
  TelemetryCounter c_flushes_;  ///< Nonempty staged-completion flushes.
  TelemetryCounter c_staged_completions_;  ///< Grants routed via staging.
  TelemetryCounter c_aborts_;  ///< no-wait / wait-die refusals.
  TelemetryCounter c_wounds_;  ///< wound-wait revocations.
  TelemetryCounter c_cancel_removed_;
  TelemetryCounter c_cancel_removed_granted_;
  TelemetryGauge g_mailbox_depth_;  ///< kSum: backlog across cores.
  TelemetryGauge g_batch_;          ///< kMax: hwm = largest drain batch.

  std::unique_ptr<FlightRecorder> owned_recorder_;
  FlightRecorder* recorder_ = nullptr;
  SimContext* publish_context_ = nullptr;
};

}  // namespace netlock::rt
