// The NetLock control plane (paper Sections 4.3, 4.5).
//
// Runs on the switch CPU / management plane: installs memory allocations,
// partitions locks across lock servers, migrates locks between switch and
// servers as popularity changes (pause -> drain -> move), polls leases to
// clear expired transactions, and tracks per-lock demand counters (r_i,
// c_i) for reallocation.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "core/memory_alloc.h"
#include "dataplane/switch_dataplane.h"
#include "server/lock_server.h"
#include "sim/simulator.h"

namespace netlock {

struct ControlPlaneConfig {
  /// Lease duration for transaction-failure / deadlock recovery.
  SimTime lease = 50 * kMillisecond;
  /// How often the control plane polls the data plane for expired leases.
  SimTime lease_poll_interval = 10 * kMillisecond;
  /// Drain-poll interval during lock migration.
  SimTime drain_poll_interval = 100 * kMicrosecond;
};

/// Runs `step` every `interval` of simulated time, first one interval from
/// now, until it returns true. The pending event is the poll's only owner,
/// so the closure is freed once the last run finishes.
void PollUntilDone(Simulator& sim, SimTime interval,
                   std::function<bool()> step);

class ControlPlane {
 public:
  ControlPlane(Simulator& sim, LockSwitch& lock_switch,
               std::vector<LockServer*> servers,
               ControlPlaneConfig config = ControlPlaneConfig{});

  /// Home server for a lock: static hash partitioning, as with the
  /// directory service the paper's clients consult.
  NodeId ServerFor(LockId lock) const;
  LockServer& ServerObjFor(LockId lock) const;

  /// Installs an allocation computed by KnapsackAllocate/RandomAllocate:
  /// switch-resident locks get their regions; every lock (resident or not)
  /// gets a home-server route. Locks whose region cannot be placed (switch
  /// full) fall back to server-only.
  void InstallAllocation(const Allocation& allocation);

  /// Registers a server-only lock (route only).
  void RegisterServerLock(LockId lock);

  /// Starts periodic lease polling (ClearExpired on switch and servers).
  void StartLeasePolling();

  /// Chain-replication awareness for the lease sweeps: in kChained mode,
  /// forced releases run on the head (they replicate down the chain) and
  /// the overflow re-arm on the tail (the emitting replica); after tail
  /// promotion the tail gets the full sweep.
  enum class ChainMode { kNone, kChained, kTailPromoted };
  void SetChain(ChainMode mode, LockSwitch* tail);

  // --- Dynamic popularity tracking and reallocation (Section 4.3) ---

  /// Feeds one observed request (rate counter) and a concurrent-demand
  /// sample (contention counter) for a lock.
  void RecordRequest(LockId lock, std::uint32_t concurrent);

  /// Current measured demands (rates normalized over the window since the
  /// last Reallocate call).
  std::vector<LockDemand> MeasuredDemands() const;

  /// Harvests the data-plane demand counters (switch + every server) into
  /// one demand vector, normalized over the window since the last harvest,
  /// and resets them. This is the paper's counter-driven input to
  /// Algorithm 3.
  std::vector<LockDemand> HarvestDemands();

  /// One deduplicated demand vector over the window: the data-plane
  /// counters merged with the software RecordRequest counters by taking the
  /// per-lock max (a hot lock is typically seen by both paths; summing
  /// would double-count it and skew the knapsack toward instrumented
  /// locks). Consumes the window: both counter sets reset.
  std::vector<LockDemand> CombinedDemands();

  /// Recomputes the allocation from CombinedDemands() and migrates locks
  /// accordingly. `done` fires when all migrations complete. Returns false
  /// (demand window untouched, `done` dropped) if a previous migration
  /// batch is still draining — overlapping batches would double-pause
  /// locks and race each other's sequencing.
  bool Reallocate(std::uint32_t switch_capacity, std::function<void()> done);

  /// Migrates from the installed allocation to `target`: removals drain
  /// first, then additions/resizes install. Each `installed_` entry commits
  /// only when its migration lands, so RecoverSwitch() mid-batch reinstalls
  /// exactly what the switch actually owned. Returns false (and drops
  /// `done`) if a batch is already in flight.
  bool ApplyAllocation(const Allocation& target, std::function<void()> done);

  /// True while a Reallocate/ApplyAllocation migration batch is draining.
  bool MigrationInFlight() const { return migration_in_flight_; }

  /// Migrates one lock out of the switch to its home server.
  void MoveLockToServer(LockId lock, std::function<void()> done);

  /// Migrates one server lock into the switch with `slots` queue slots.
  /// `done(installed)` reports whether the lock actually landed on the
  /// switch (false: fragmentation fallback kept it server-owned).
  void MoveLockToSwitch(LockId lock, std::uint32_t slots,
                        std::function<void(bool installed)> done);

  /// Re-runs failure recovery after a switch restart: reinstalls the last
  /// allocation (Section 4.5 switch-failure handling; queued state is
  /// recovered via leases and client retries).
  void RecoverSwitch();

  // --- Cross-rack re-homing (ShardedNetLock::RehomeLock) ---

  /// Stages `lock` for a re-home into this rack without granting it: with
  /// `slots` > 0 it is installed on the switch suspended (requests queue
  /// there), otherwise — or if the switch has no room — its home server's
  /// queue is paused (requests buffer there). Returns whether it landed on
  /// the switch. Until CommitStaged, ApplyAllocation leaves the lock alone
  /// and RecoverSwitch stages it again.
  bool StageLock(LockId lock, std::uint32_t slots);

  /// Ends the staging: activates the switch entry and records it as
  /// installed, or unpauses the server queue and hands the lock to its home
  /// server (requests buffered there re-enter through the switch).
  void CommitStaged(LockId lock);

  /// Keeps ApplyAllocation off a lock a re-home is draining out of this
  /// rack, until Unpin.
  void Pin(LockId lock) { pinned_.emplace(lock, 0); }
  void Unpin(LockId lock) { pinned_.erase(lock); }

  // --- Lock-server failure (Section 4.5: "the locks allocated to this
  // server is assigned to another lock server ... the server waits for the
  // leases to expire before granting the locks") ---

  /// Fails lock server `index`: its locks re-hash onto the surviving
  /// servers, which take them under a one-lease grace period; installed
  /// switch locks homed there get their q2 reassigned.
  void FailServer(int index);

  /// Restarts lock server `index` and re-homes its locks: substitutes drop
  /// the transferred state (clients re-submit, §4.5) and the recovered
  /// server serves them after a one-lease grace.
  void RecoverServer(int index);

  bool ServerAlive(int index) const;

  const ControlPlaneConfig& config() const { return config_; }

  /// The allocation currently installed (for failover replication).
  const Allocation& installed() const { return installed_; }

  /// The lock servers this control plane manages.
  const std::vector<LockServer*>& servers() const { return servers_; }

 private:
  struct DemandCounters {
    std::uint64_t requests = 0;
    std::uint32_t max_concurrent = 1;
  };

  void PollLeases();

  void ReassignInstalledHomes();

  /// Per-lock `installed_` bookkeeping: entries commit as migrations land,
  /// never ahead of them (split-brain guard for RecoverSwitch).
  void CommitSwitchInstall(LockId lock, std::uint32_t slots);
  void CommitSwitchRemoval(LockId lock);
  /// Routes `lock` to its home server and pauses it there.
  void StageOnServer(LockId lock);

  Simulator& sim_;
  LockSwitch& switch_;
  std::vector<LockServer*> servers_;
  std::vector<bool> alive_;
  ChainMode chain_mode_ = ChainMode::kNone;
  LockSwitch* chain_tail_ = nullptr;
  ControlPlaneConfig config_;
  Allocation installed_;
  std::unordered_map<LockId, DemandCounters> counters_;
  SimTime window_start_ = 0;
  bool lease_polling_ = false;
  bool migration_in_flight_ = false;
  /// One lease after the last RecoverSwitch: grants the switch issued
  /// before its crash may be held until then.
  SimTime restart_grace_until_ = 0;
  /// Locks a re-home is moving (Pin / StageLock), with the slots staged on
  /// the switch (0: none). Ordered, so RecoverSwitch re-stages in a fixed
  /// order.
  std::map<LockId, std::uint32_t> pinned_;
};

}  // namespace netlock
