// Substrate-neutral lock wait-queue engine.
//
// The software lock-queue protocol — FIFO queue per lock, Algorithm 2's
// grant cascade on release, pause/grace buffering for migration and
// failover, lease-forced release, and the r_i/c_i demand counters — used to
// live inside LockServer, welded to the simulated Network. It is extracted
// here so the exact same compiled code runs on both execution substrates:
//
//   * the simulator: LockServer wraps a LockEngine, feeding it packets
//     after the simulated per-core service time and emitting grants as
//     simulated packets;
//   * the real-time backend: RtLockService shards one LockEngine per
//     worker core (RSS lock->core hashing keeps each lock single-threaded)
//     and emits grants into SPSC completion rings.
//
// The engine itself is single-threaded and knows nothing about time
// sources: callers pass `now` (simulated or wall-clock nanoseconds) into
// every operation, and grant decisions come out through a GrantSink.
//
// Storage is a flat open-addressing table (linear probing, tombstone
// deletion) of 64-byte per-lock states, one cache line each. A state holds
// the demand counters and two 20-byte FIFO queue headers; the entries
// themselves live in 8-slot chunks drawn from an engine-owned free-list
// slab. A queue takes its first chunk on its first push and returns its
// last one when it empties, so an idle lock costs one cache line and
// steady-state acquire/release performs zero heap allocations at any depth
// once the slab is warm. Large lock spaces (TPC-C's stock and customer
// rows) are dominated by locks that are touched once or twice, so the size
// of the per-lock state, not the queue walk, sets the engine's cost there.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/types.h"
#include "dataplane/slot.h"

namespace netlock {

/// Why the engine refused or revoked an entry (deadlock policies only).
enum class AbortReason : std::uint8_t {
  kNoWait = 0,   ///< kNoWait: conflicting acquire refused, never queued.
  kWaitDie = 1,  ///< kWaitDie: requester younger than a conflicting entry.
  kWound = 2,    ///< kWoundWait: queued (possibly granted) entry revoked by
                 ///< an older conflicting requester.
};

inline const char* ToString(AbortReason r) {
  switch (r) {
    case AbortReason::kNoWait:
      return "no_wait";
    case AbortReason::kWaitDie:
      return "wait_die";
    case AbortReason::kWound:
      return "wound";
  }
  return "?";
}

/// Receives the engine's grant decisions. Implementations deliver the grant
/// to `slot.client_node` by whatever transport the substrate uses.
class GrantSink {
 public:
  virtual ~GrantSink() = default;

  /// `slot` became a holder of `lock`. slot.timestamp is the grant time.
  virtual void DeliverGrant(LockId lock, const QueueSlot& slot) = 0;

  /// A queued entry is about to be granted after waiting; called with the
  /// slot still carrying its enqueue timestamp (the sim wires wait-span
  /// tracing here). Entries granted immediately on acquire do not wait and
  /// do not produce this call.
  virtual void OnWaitEnd(LockId /*lock*/, const QueueSlot& /*slot*/,
                         SimTime /*now*/) {}

  /// A deadlock policy refused `slot` (kNoWait / kWaitDie: the entry was
  /// never queued) or revoked it (kWound: the entry was removed from the
  /// queue, possibly while granted). Fired BEFORE any cascade grants the
  /// removal enables, so an observer always learns of the abort no later
  /// than its consequences. Default no-op: policy-free substrates and
  /// existing sinks are unaffected.
  virtual void DeliverAbort(LockId /*lock*/, const QueueSlot& /*slot*/,
                            AbortReason /*reason*/) {}
};

/// What a release did. The caller maps outcomes onto its stats/metrics.
enum class ReleaseOutcome : std::uint8_t {
  kApplied = 0,     ///< Head popped; cascade grants (if any) delivered.
  kStale = 1,       ///< Unknown lock or empty queue; dropped.
  kMismatched = 2,  ///< Mode/txn does not match the head (already swept).
};

/// Cache-line aligned: the slab's free-list head is written whenever an
/// idle lock is acquired or released, and on the rt backend the object
/// must not share a line with data another thread writes.
class alignas(64) LockEngine {
 public:
  /// Queue entries per slab chunk, the unit a wait queue grows and shrinks
  /// by.
  static constexpr std::uint32_t kChunkSlots = 8;

  explicit LockEngine(GrantSink& sink) : sink_(sink) {}

  LockEngine(const LockEngine&) = delete;
  LockEngine& operator=(const LockEngine&) = delete;

  /// Selects the deadlock-handling policy applied by Acquire. kNone (the
  /// default) preserves the classic queue-everything behaviour exactly.
  void set_deadlock_policy(DeadlockPolicy policy) { policy_ = policy; }
  DeadlockPolicy deadlock_policy() const { return policy_; }

  // --- Request path ---

  /// Appends an entry (stamping slot.timestamp = now) and grants it when
  /// the queue head rules allow: first entry, or a shared request joining
  /// an all-shared queue. Paused locks buffer instead.
  ///
  /// With a deadlock policy set, a conflicting request (different txn, at
  /// least one side exclusive) may instead be refused via DeliverAbort
  /// (kNoWait: any conflict; kWaitDie: a conflicting queued entry is
  /// older), or — under kWoundWait — first remove every *younger*
  /// conflicting queued entry (each revoked via DeliverAbort) before
  /// queuing normally. Because a retry uses a fresh (larger) txn id, every
  /// waits-for edge points from younger to older (wound-wait) or from
  /// older to younger (wait-die), so cycles cannot form.
  void Acquire(LockId lock, QueueSlot slot, SimTime now);

  /// What RemoveTxn removed.
  struct RemoveResult {
    std::uint32_t removed = 0;          ///< Entries removed (all queues).
    std::uint32_t removed_granted = 0;  ///< Of those, already granted.
  };

  /// Removes every entry of `txn` on `lock` — waiting, granted, or parked
  /// in the paused buffer — and re-grants whatever the removals promote to
  /// the front (clients served by a wire transport send this as kCancel
  /// when a wound/die aborts a txn with an acquire still in flight, so a
  /// doomed entry never stalls the queue for a full lease). `notify` aborts
  /// each removed entry through DeliverAbort(reason) before any re-grant.
  RemoveResult RemoveTxn(LockId lock, TxnId txn, SimTime now, bool notify,
                         AbortReason reason = AbortReason::kWound);

  /// Validated dequeue with the switch-equivalent grant cascade: a release
  /// whose mode — or, for an exclusive hold, transaction — does not match
  /// the head is from an entry the lease sweep already force-released, and
  /// popping blindly would dequeue another waiter's entry. `lease_forced`
  /// releases are internal (the sweep releasing the head) and exempt from
  /// validation.
  ///
  /// With a deadlock policy set, a shared release additionally removes the
  /// releaser's *own* entry from the granted shared run (kStale if absent,
  /// e.g. the release crossed a wound in flight) instead of blind-popping
  /// the front: the policies read queue txn labels for age checks and wound
  /// targets, so labels must track actual holders.
  ReleaseOutcome Release(LockId lock, LockMode mode, TxnId txn,
                         bool lease_forced, SimTime now);

  /// Forced-releases queue heads granted at or before now - lease
  /// (Section 4.5). Returns the number of entries force-released.
  std::uint64_t ClearExpired(SimTime lease, SimTime now);

  // --- Ownership / migration (server<->switch moves, failover) ---

  bool Owns(LockId lock) const { return Lookup(lock) != kNone; }
  bool QueueEmpty(LockId lock) const;
  std::size_t QueueDepth(LockId lock) const;
  /// Queued entries across all locks (0 once fully drained — leak check).
  std::size_t TotalQueueDepth() const;

  /// Creates the lock's entry if missing and sets its paused flag. Paused
  /// locks buffer acquires and never grant.
  void SetPaused(LockId lock, bool paused);
  bool IsPaused(LockId lock) const;

  /// Drains and returns the paused-side buffer (entries received while
  /// paused), leaving the paused flag untouched.
  std::deque<QueueSlot> TakePausedBuffer(LockId lock);

  /// Installs `queue` (possibly empty) as the lock's active queue and
  /// grants the new front per the usual rules, re-stamping granted entries
  /// to `now`. The lock must not already have an active queue. Used when a
  /// lock migrates in with its overflow (q2) backlog.
  void AdoptQueue(LockId lock, std::deque<QueueSlot> queue, SimTime now);

  /// Unconditionally discards a lock's state (eviction / failover).
  void Drop(LockId lock);

  /// Discards a lock known to be drained (asserts queue + buffer empty).
  void DropDrained(LockId lock);

  /// Discards everything (crash).
  void Clear();

  std::vector<LockId> OwnedLocks() const;
  std::size_t num_owned() const { return size_; }
  /// Slab chunks currently held by queues (0 once every queue is empty).
  std::size_t live_chunks() const { return pool_.live(); }

  /// Harvests per-lock demand counters (rates normalized by `window_sec`),
  /// appending to `out`, and resets them (§4.3).
  void HarvestDemands(double window_sec, std::vector<LockDemand>& out);

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;
  /// One slab chunk: a fixed run of slots, exactly four cache lines.
  struct alignas(64) Chunk {
    QueueSlot slots[kChunkSlots];
  };
  static_assert(sizeof(Chunk) == 4 * 64, "a chunk is four cache lines");

  /// Free-list slab of chunks. Indices are stable (vectors only grow);
  /// freed chunks are reused, so a warmed engine never allocates. Taking
  /// or returning a chunk touches only its first line (the free list is
  /// threaded through the dead first slot of each free chunk) and the
  /// list head.
  class SlabPool {
   public:
    std::uint32_t Alloc() {
      if (free_head_ != kNone) {
        const std::uint32_t idx = free_head_;
        free_head_ = static_cast<std::uint32_t>(chunks_[idx].slots[0].txn_id);
        return idx;
      }
      chunks_.emplace_back();
      next_.push_back(kNone);
      return static_cast<std::uint32_t>(chunks_.size() - 1);
    }
    void Free(std::uint32_t idx) {
      chunks_[idx].slots[0].txn_id = free_head_;
      free_head_ = idx;
    }
    Chunk& at(std::uint32_t idx) { return chunks_[idx]; }
    const Chunk& at(std::uint32_t idx) const { return chunks_[idx]; }
    /// The chunk after `idx` in its queue; set when the queue chains it.
    std::uint32_t next(std::uint32_t idx) const { return next_[idx]; }
    void set_next(std::uint32_t idx, std::uint32_t next) {
      next_[idx] = next;
    }
    /// Chunks not on the free list (walks it: for tests and checks).
    std::size_t live() const {
      std::size_t free = 0;
      for (std::uint32_t idx = free_head_; idx != kNone;
           idx = static_cast<std::uint32_t>(chunks_[idx].slots[0].txn_id)) {
        ++free;
      }
      return chunks_.size() - free;
    }
    void Clear() {
      chunks_.clear();
      next_.clear();
      free_head_ = kNone;
    }

   private:
    std::vector<Chunk> chunks_;
    std::vector<std::uint32_t> next_;
    std::uint32_t free_head_ = kNone;
  };

  /// FIFO wait queue: a chain of slab chunks, none while empty.
  struct WaitQueue {
    std::uint32_t count = 0;
    std::uint32_t head = 0;  ///< Front offset within the head chunk.
    std::uint32_t head_chunk = kNone;
    std::uint32_t tail_chunk = kNone;
    std::uint32_t tail_off = 0;  ///< Next free slot in the tail chunk.

    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }

    QueueSlot& Front(SlabPool& pool) {
      return pool.at(head_chunk).slots[head];
    }
    const QueueSlot& Front(const SlabPool& pool) const {
      return pool.at(head_chunk).slots[head];
    }

    void PushBack(const QueueSlot& slot, SlabPool& pool);
    void PopFront(SlabPool& pool);
    /// Frees any chunks and empties the queue.
    void Reset(SlabPool& pool);

    /// Forward cursor from the front; valid while the queue is unchanged.
    struct Cursor {
      std::uint32_t remaining = 0;
      std::uint32_t chunk = kNone;
      std::uint32_t off = 0;
    };
    Cursor Begin() const { return Cursor{count, head_chunk, head}; }
    bool Done(const Cursor& c) const { return c.remaining == 0; }
    QueueSlot& At(const Cursor& c, SlabPool& pool) {
      return pool.at(c.chunk).slots[c.off];
    }
    void Advance(Cursor& c, const SlabPool& pool) const {
      --c.remaining;
      if (++c.off == kChunkSlots) {
        c.chunk = pool.next(c.chunk);
        c.off = 0;
      }
    }
  };

  /// Per-lock software queue with switch-equivalent semantics. Pool slots
  /// with key == kInvalidLock are free.
  struct alignas(64) LockState {
    LockId key = kInvalidLock;
    std::uint32_t xcnt = 0;       ///< Exclusive entries among queue.
    std::uint64_t req_count = 0;  ///< r_i demand counter (§4.3).
    std::uint32_t max_depth = 1;  ///< c_i demand counter.
    WaitQueue queue;              ///< Entries remain until released.
    WaitQueue paused_buffer;      ///< Entries received while paused.
    bool paused = false;
  };
  static_assert(sizeof(LockState) == 64, "one cache line per lock");

  /// Open-addressing bucket: {key, state index}. `state` doubles as the
  /// occupancy marker (kEmptySlot / kTombstone sentinels).
  struct Bucket {
    LockId key = 0;
    std::uint32_t state = kEmptySlot;
  };
  static constexpr std::uint32_t kEmptySlot = 0xffffffffu;
  static constexpr std::uint32_t kTombstone = 0xfffffffeu;

  /// Bucket-index mix, deliberately different from the RSS core hash so the
  /// per-core residue classes don't cluster the probe sequence.
  static std::uint32_t HashLock(LockId lock) {
    std::uint32_t h = lock;
    h ^= h >> 16;
    h *= 0x85ebca6bu;
    h ^= h >> 13;
    h *= 0xc2b2ae35u;
    h ^= h >> 16;
    return h;
  }

  /// Index of the lock's state, or kNone.
  std::uint32_t Lookup(LockId lock) const;
  LockState& FindOrCreate(LockId lock);
  /// Two queue entries conflict when they belong to different transactions
  /// and at least one side is exclusive (same-txn retransmit duplicates
  /// never self-abort).
  static bool Conflicts(const QueueSlot& a, const QueueSlot& b) {
    if (a.txn_id == b.txn_id) return false;
    return a.mode == LockMode::kExclusive || b.mode == LockMode::kExclusive;
  }
  /// Granted entries are always a queue prefix: the whole leading shared
  /// run, or just the head when it is exclusive. (Acquire only grants when
  /// appending keeps the prefix property; Release pops the front and
  /// re-grants the new prefix; removals re-grant through the same rule.)
  std::uint32_t GrantedCount(LockState& st);
  bool AnyConflict(LockState& st, const QueueSlot& slot);
  bool ConflictsWithOlder(LockState& st, const QueueSlot& slot);
  /// Removes entries of `txn` (or, with `wound_against` set, every entry
  /// conflicting with *wound_against that is younger than it) from `q`,
  /// preserving FIFO order of the survivors. Active-queue removals
  /// (`active` = true) maintain xcnt and re-grant the promoted prefix.
  RemoveResult RemoveMatching(LockId lock, LockState& st, WaitQueue& q,
                              bool active, TxnId txn,
                              const QueueSlot* wound_against, SimTime now,
                              bool notify, AbortReason reason);
  /// Removes the lock if present, returning its queues' chunks to the slab.
  void Erase(LockId lock);
  void Rehash();
  std::uint32_t AllocState();
  void FreeState(std::uint32_t idx);

  GrantSink& sink_;
  DeadlockPolicy policy_ = DeadlockPolicy::kNone;
  std::vector<Bucket> buckets_;  ///< Power-of-two open-addressing table.
  std::vector<LockState> states_;
  std::vector<std::uint32_t> free_states_;
  SlabPool pool_;
  std::size_t size_ = 0;
  std::size_t tombstones_ = 0;
};

}  // namespace netlock
