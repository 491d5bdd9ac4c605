#include "core/lock_engine.h"

#include <algorithm>

#include "common/check.h"

namespace netlock {

// --- WaitQueue ---

void LockEngine::WaitQueue::PushBack(const QueueSlot& slot, SlabPool& pool) {
  if (count == 0) {
    head_chunk = tail_chunk = pool.Alloc();
    head = 0;
    tail_off = 0;
  } else if (tail_off == kChunkSlots) {
    const std::uint32_t chunk = pool.Alloc();
    pool.set_next(tail_chunk, chunk);
    tail_chunk = chunk;
    tail_off = 0;
  }
  pool.at(tail_chunk).slots[tail_off++] = slot;
  ++count;
}

void LockEngine::WaitQueue::PopFront(SlabPool& pool) {
  NETLOCK_CHECK(count > 0);
  if (--count == 0) {
    // A queue only chains a second chunk once its first is full, so an
    // emptied queue holds exactly one chunk.
    pool.Free(head_chunk);
    head_chunk = tail_chunk = kNone;
    head = 0;
    tail_off = 0;
    return;
  }
  if (++head == kChunkSlots) {
    const std::uint32_t next = pool.next(head_chunk);
    pool.Free(head_chunk);
    head_chunk = next;
    head = 0;
  }
}

void LockEngine::WaitQueue::Reset(SlabPool& pool) {
  // Links past the tail chunk are stale, so count the chunks instead of
  // walking to a sentinel.
  std::uint32_t chunk = head_chunk;
  for (std::uint32_t n = (head + count + kChunkSlots - 1) / kChunkSlots;
       n > 0; --n) {
    const std::uint32_t next = pool.next(chunk);
    pool.Free(chunk);
    chunk = next;
  }
  count = 0;
  head = 0;
  head_chunk = tail_chunk = kNone;
  tail_off = 0;
}

// --- Flat table ---

std::uint32_t LockEngine::Lookup(LockId lock) const {
  if (buckets_.empty()) return kNone;
  const std::size_t mask = buckets_.size() - 1;
  std::size_t i = HashLock(lock) & mask;
  for (;;) {
    const Bucket& b = buckets_[i];
    if (b.state == kEmptySlot) return kNone;
    if (b.state != kTombstone && b.key == lock) return b.state;
    i = (i + 1) & mask;
  }
}

std::uint32_t LockEngine::AllocState() {
  if (!free_states_.empty()) {
    const std::uint32_t idx = free_states_.back();
    free_states_.pop_back();
    LockState& st = states_[idx];
    // Queues were Reset when the state was freed.
    st.xcnt = 0;
    st.paused = false;
    st.req_count = 0;
    st.max_depth = 1;
    return idx;
  }
  states_.emplace_back();
  return static_cast<std::uint32_t>(states_.size() - 1);
}

void LockEngine::FreeState(std::uint32_t idx) {
  LockState& st = states_[idx];
  st.queue.Reset(pool_);
  st.paused_buffer.Reset(pool_);
  st.key = kInvalidLock;
  free_states_.push_back(idx);
}

void LockEngine::Rehash() {
  // Rebuild at load <= 1/4 (grows as needed, also purges tombstones).
  std::size_t cap = 16;
  while (cap < (size_ + 1) * 4) cap <<= 1;
  std::vector<Bucket> fresh(cap);
  const std::size_t mask = cap - 1;
  for (const Bucket& b : buckets_) {
    if (b.state == kEmptySlot || b.state == kTombstone) continue;
    std::size_t i = HashLock(b.key) & mask;
    while (fresh[i].state != kEmptySlot) i = (i + 1) & mask;
    fresh[i] = b;
  }
  buckets_ = std::move(fresh);
  tombstones_ = 0;
}

LockEngine::LockState& LockEngine::FindOrCreate(LockId lock) {
  if (buckets_.empty() || (size_ + tombstones_ + 1) * 2 > buckets_.size()) {
    Rehash();
  }
  const std::size_t npos = static_cast<std::size_t>(-1);
  const std::size_t mask = buckets_.size() - 1;
  std::size_t i = HashLock(lock) & mask;
  std::size_t first_tomb = npos;
  for (;;) {
    Bucket& b = buckets_[i];
    if (b.state == kEmptySlot) {
      const std::size_t target = first_tomb != npos ? first_tomb : i;
      if (first_tomb != npos) --tombstones_;
      const std::uint32_t idx = AllocState();
      states_[idx].key = lock;
      buckets_[target].key = lock;
      buckets_[target].state = idx;
      ++size_;
      return states_[idx];
    }
    if (b.state == kTombstone) {
      if (first_tomb == npos) first_tomb = i;
    } else if (b.key == lock) {
      return states_[b.state];
    }
    i = (i + 1) & mask;
  }
}

void LockEngine::Erase(LockId lock) {
  if (buckets_.empty()) return;
  const std::size_t mask = buckets_.size() - 1;
  std::size_t i = HashLock(lock) & mask;
  for (;;) {
    Bucket& b = buckets_[i];
    if (b.state == kEmptySlot) return;
    if (b.state != kTombstone && b.key == lock) {
      FreeState(b.state);
      b.state = kTombstone;
      --size_;
      ++tombstones_;
      return;
    }
    i = (i + 1) & mask;
  }
}

// --- Protocol ---

std::uint32_t LockEngine::GrantedCount(LockState& st) {
  if (st.queue.empty()) return 0;
  if (st.queue.Front(pool_).mode == LockMode::kExclusive) return 1;
  std::uint32_t granted = 0;
  for (auto cur = st.queue.Begin(); !st.queue.Done(cur);
       st.queue.Advance(cur, pool_)) {
    if (st.queue.At(cur, pool_).mode == LockMode::kExclusive) break;
    ++granted;
  }
  return granted;
}

bool LockEngine::AnyConflict(LockState& st, const QueueSlot& slot) {
  for (auto cur = st.queue.Begin(); !st.queue.Done(cur);
       st.queue.Advance(cur, pool_)) {
    if (Conflicts(st.queue.At(cur, pool_), slot)) return true;
  }
  return false;
}

bool LockEngine::ConflictsWithOlder(LockState& st, const QueueSlot& slot) {
  for (auto cur = st.queue.Begin(); !st.queue.Done(cur);
       st.queue.Advance(cur, pool_)) {
    const QueueSlot& entry = st.queue.At(cur, pool_);
    if (entry.txn_id < slot.txn_id && Conflicts(entry, slot)) return true;
  }
  return false;
}

LockEngine::RemoveResult LockEngine::RemoveMatching(
    LockId lock, LockState& st, WaitQueue& q, bool active, TxnId txn,
    const QueueSlot* wound_against, SimTime now, bool notify,
    AbortReason reason) {
  RemoveResult result;
  // Granted entries surviving so far are exactly the first `granted_now`
  // entries (the granted prefix shrinks monotonically during removal and
  // survivors keep their relative order).
  std::uint32_t granted_now = active ? GrantedCount(st) : 0;
  for (;;) {
    // Find the first matching entry.
    std::uint32_t pos = 0;
    bool found = false;
    for (auto cur = q.Begin(); !q.Done(cur); q.Advance(cur, pool_), ++pos) {
      const QueueSlot& entry = q.At(cur, pool_);
      const bool match =
          wound_against != nullptr
              ? (entry.txn_id > wound_against->txn_id &&
                 Conflicts(entry, *wound_against))
              : entry.txn_id == txn;
      if (match) {
        found = true;
        break;
      }
    }
    if (!found) break;
    // Remove position `pos` by rotating [0, pos) one slot towards the
    // tail and popping the (now duplicated) front — reuses PopFront's
    // chunk-free logic and preserves FIFO order.
    QueueSlot victim;
    if (pos == 0) {
      victim = q.Front(pool_);
    } else {
      auto cur = q.Begin();
      QueueSlot carry = q.At(cur, pool_);
      for (std::uint32_t i = 1; i <= pos; ++i) {
        q.Advance(cur, pool_);
        std::swap(carry, q.At(cur, pool_));
      }
      victim = carry;
    }
    q.PopFront(pool_);
    ++result.removed;
    if (active) {
      if (victim.mode == LockMode::kExclusive) {
        NETLOCK_CHECK(st.xcnt > 0);
        --st.xcnt;
      }
      if (pos < granted_now) {
        --granted_now;
        ++result.removed_granted;
      }
    }
    if (notify) sink_.DeliverAbort(lock, victim, reason);
  }
  if (!active || result.removed == 0) return result;
  // Re-grant whatever the removals promoted into the granted prefix:
  // positions [granted_now, GrantedCount) are newly granted.
  const std::uint32_t target = GrantedCount(st);
  std::uint32_t pos = 0;
  for (auto cur = q.Begin(); !q.Done(cur) && pos < target;
       q.Advance(cur, pool_), ++pos) {
    if (pos < granted_now) continue;
    QueueSlot& entry = q.At(cur, pool_);
    sink_.OnWaitEnd(lock, entry, now);
    entry.timestamp = now;
    sink_.DeliverGrant(lock, entry);
  }
  return result;
}

LockEngine::RemoveResult LockEngine::RemoveTxn(LockId lock, TxnId txn,
                                               SimTime now, bool notify,
                                               AbortReason reason) {
  const std::uint32_t idx = Lookup(lock);
  if (idx == kNone) return {};
  LockState& st = states_[idx];
  RemoveResult result = RemoveMatching(lock, st, st.queue, /*active=*/true,
                                       txn, nullptr, now, notify, reason);
  const RemoveResult parked =
      RemoveMatching(lock, st, st.paused_buffer, /*active=*/false, txn,
                     nullptr, now, notify, reason);
  result.removed += parked.removed;
  return result;
}

void LockEngine::Acquire(LockId lock, QueueSlot slot, SimTime now) {
  LockState& st = FindOrCreate(lock);
  ++st.req_count;
  slot.timestamp = now;

  if (st.paused) {
    st.paused_buffer.PushBack(slot, pool_);
    return;
  }
  if (policy_ != DeadlockPolicy::kNone && !st.queue.empty()) {
    switch (policy_) {
      case DeadlockPolicy::kNoWait:
        if (AnyConflict(st, slot)) {
          sink_.DeliverAbort(lock, slot, AbortReason::kNoWait);
          return;
        }
        break;
      case DeadlockPolicy::kWaitDie:
        // Wait only behind younger conflicting entries; die if any
        // conflicting entry is older. Waits-for edges then always point
        // old -> young, and ages are totally ordered, so no cycle forms.
        if (ConflictsWithOlder(st, slot)) {
          sink_.DeliverAbort(lock, slot, AbortReason::kWaitDie);
          return;
        }
        break;
      case DeadlockPolicy::kWoundWait:
        // Revoke every younger conflicting entry (waiting or granted),
        // then queue: the survivors ahead are all older, so waits-for
        // edges point young -> old. The wounds' DeliverAbort fires before
        // RemoveMatching's re-grants, so observers see abort-then-grant.
        RemoveMatching(lock, st, st.queue, /*active=*/true, kInvalidTxn,
                       &slot, now, /*notify=*/true, AbortReason::kWound);
        break;
      default:
        break;
    }
  }
  const bool was_empty = st.queue.empty();
  const bool all_shared = st.xcnt == 0;
  st.queue.PushBack(slot, pool_);
  st.max_depth = std::max(st.max_depth, st.queue.count);
  if (slot.mode == LockMode::kExclusive) ++st.xcnt;
  if (was_empty || (all_shared && slot.mode == LockMode::kShared)) {
    sink_.DeliverGrant(lock, slot);
  }
}

ReleaseOutcome LockEngine::Release(LockId lock, LockMode mode, TxnId txn,
                                   bool lease_forced, SimTime now) {
  const std::uint32_t idx = Lookup(lock);
  if (idx == kNone || states_[idx].queue.empty()) {
    return ReleaseOutcome::kStale;
  }
  LockState& st = states_[idx];
  const QueueSlot released = st.queue.Front(pool_);
  if (!lease_forced &&
      (released.mode != mode ||
       (mode == LockMode::kExclusive && released.txn_id != txn))) {
    return ReleaseOutcome::kMismatched;
  }
  if (!lease_forced && policy_ != DeadlockPolicy::kNone &&
      mode == LockMode::kShared && released.txn_id != txn) {
    // Under a deadlock policy the queue's txn labels are load-bearing:
    // wound targets and age checks read them. The blind shared pop (fine
    // under kNone, where granted shared entries are interchangeable) would
    // leave an entry labeled with a txn that already released, and a later
    // wound then removes the wrong holder's entry. Remove the releaser's
    // own entry from the granted shared run instead; if it is absent the
    // release crossed a wound in flight and must not pop anyone.
    std::uint32_t pos = 0;
    bool found = false;
    for (auto cur = st.queue.Begin(); !st.queue.Done(cur);
         st.queue.Advance(cur, pool_), ++pos) {
      const QueueSlot& entry = st.queue.At(cur, pool_);
      if (entry.mode != LockMode::kShared) break;
      if (entry.txn_id == txn) {
        found = true;
        break;
      }
    }
    if (!found) return ReleaseOutcome::kStale;
    if (pos > 0) {
      // Rotate [0, pos) one slot towards the tail so the victim surfaces
      // at the front (same trick as RemoveMatching), then fall through to
      // the common PopFront + cascade below.
      auto cur = st.queue.Begin();
      QueueSlot carry = st.queue.At(cur, pool_);
      for (std::uint32_t i = 1; i <= pos; ++i) {
        st.queue.Advance(cur, pool_);
        std::swap(carry, st.queue.At(cur, pool_));
      }
    }
  }
  st.queue.PopFront(pool_);
  if (released.mode == LockMode::kExclusive) {
    NETLOCK_CHECK(st.xcnt > 0);
    --st.xcnt;
  }
  if (st.queue.empty()) return ReleaseOutcome::kApplied;
  // Same four-case cascade as the switch (Algorithm 2). Grants re-stamp
  // the entry so the lease measures holding time, not queueing time; the
  // wait span is emitted (OnWaitEnd) before the re-stamp erases the
  // enqueue time.
  if (st.queue.Front(pool_).mode == LockMode::kExclusive) {
    QueueSlot& head = st.queue.Front(pool_);
    sink_.OnWaitEnd(lock, head, now);
    head.timestamp = now;
    sink_.DeliverGrant(lock, head);  // S->E and E->E.
    return ReleaseOutcome::kApplied;
  }
  if (released.mode == LockMode::kShared) {
    return ReleaseOutcome::kApplied;  // S->S: already granted.
  }
  // E->S: grant consecutive shared requests.
  for (auto cur = st.queue.Begin(); !st.queue.Done(cur);
       st.queue.Advance(cur, pool_)) {
    QueueSlot& slot = st.queue.At(cur, pool_);
    if (slot.mode == LockMode::kExclusive) break;
    sink_.OnWaitEnd(lock, slot, now);
    slot.timestamp = now;
    sink_.DeliverGrant(lock, slot);
  }
  return ReleaseOutcome::kApplied;
}

std::uint64_t LockEngine::ClearExpired(SimTime lease, SimTime now) {
  if (now < lease) return 0;
  const SimTime cutoff = now - lease;
  std::uint64_t forced = 0;
  // Release never inserts or erases states, so iterating the pool while
  // force-releasing is safe.
  for (LockState& st : states_) {
    if (st.key == kInvalidLock) continue;
    while (!st.queue.empty() && st.queue.Front(pool_).timestamp <= cutoff) {
      const LockMode mode = st.queue.Front(pool_).mode;
      const ReleaseOutcome outcome =
          Release(st.key, mode, kInvalidTxn, /*lease_forced=*/true, now);
      NETLOCK_CHECK(outcome == ReleaseOutcome::kApplied);
      ++forced;
    }
  }
  return forced;
}

bool LockEngine::QueueEmpty(LockId lock) const {
  const std::uint32_t idx = Lookup(lock);
  return idx == kNone || states_[idx].queue.empty();
}

std::size_t LockEngine::QueueDepth(LockId lock) const {
  const std::uint32_t idx = Lookup(lock);
  return idx == kNone ? 0 : states_[idx].queue.size();
}

std::size_t LockEngine::TotalQueueDepth() const {
  std::size_t total = 0;
  for (const LockState& st : states_) {
    if (st.key == kInvalidLock) continue;
    total += st.queue.size() + st.paused_buffer.size();
  }
  return total;
}

void LockEngine::SetPaused(LockId lock, bool paused) {
  FindOrCreate(lock).paused = paused;
}

bool LockEngine::IsPaused(LockId lock) const {
  const std::uint32_t idx = Lookup(lock);
  return idx != kNone && states_[idx].paused;
}

std::deque<QueueSlot> LockEngine::TakePausedBuffer(LockId lock) {
  const std::uint32_t idx = Lookup(lock);
  if (idx == kNone) return {};
  LockState& st = states_[idx];
  std::deque<QueueSlot> buffer;
  while (!st.paused_buffer.empty()) {
    buffer.push_back(st.paused_buffer.Front(pool_));
    st.paused_buffer.PopFront(pool_);
  }
  return buffer;
}

void LockEngine::AdoptQueue(LockId lock, std::deque<QueueSlot> queue,
                            SimTime now) {
  LockState& st = FindOrCreate(lock);
  NETLOCK_CHECK(st.queue.empty());
  for (const QueueSlot& slot : queue) {
    st.queue.PushBack(slot, pool_);
    if (slot.mode == LockMode::kExclusive) ++st.xcnt;
  }
  if (st.queue.empty()) return;
  if (st.queue.Front(pool_).mode == LockMode::kExclusive) {
    QueueSlot& head = st.queue.Front(pool_);
    head.timestamp = now;
    sink_.DeliverGrant(lock, head);
    return;
  }
  for (auto cur = st.queue.Begin(); !st.queue.Done(cur);
       st.queue.Advance(cur, pool_)) {
    QueueSlot& slot = st.queue.At(cur, pool_);
    if (slot.mode == LockMode::kExclusive) break;
    slot.timestamp = now;
    sink_.DeliverGrant(lock, slot);
  }
}

void LockEngine::Drop(LockId lock) { Erase(lock); }

void LockEngine::DropDrained(LockId lock) {
  const std::uint32_t idx = Lookup(lock);
  if (idx == kNone) return;
  NETLOCK_CHECK(states_[idx].queue.empty());
  NETLOCK_CHECK(states_[idx].paused_buffer.empty());
  Erase(lock);
}

void LockEngine::Clear() {
  buckets_.clear();
  states_.clear();
  free_states_.clear();
  pool_.Clear();
  size_ = 0;
  tombstones_ = 0;
}

std::vector<LockId> LockEngine::OwnedLocks() const {
  std::vector<LockId> locks;
  locks.reserve(size_);
  for (const LockState& st : states_) {
    if (st.key != kInvalidLock) locks.push_back(st.key);
  }
  return locks;
}

void LockEngine::HarvestDemands(double window_sec,
                                std::vector<LockDemand>& out) {
  NETLOCK_CHECK(window_sec > 0.0);
  for (LockState& st : states_) {
    if (st.key == kInvalidLock || st.req_count == 0) continue;
    out.push_back(LockDemand{
        st.key, static_cast<double>(st.req_count) / window_sec,
        std::max(1u, st.max_depth)});
    st.req_count = 0;
    st.max_depth = std::max(1u, st.queue.count);
  }
}

}  // namespace netlock
