// Proves the real-time lock path is allocation-free in steady state, the
// rt twin of event_alloc_test: after a warmup that grows the flat lock
// table, the slab pool, and the staging buffers to working size, a
// submit -> drain -> grant -> poll -> release loop must perform ZERO global
// operator new/delete calls, at any per-lock queue depth the warmup
// reached (wait queues are slab-chunk chains; freed chunks are reused).
// This is the acceptance gate for the flat-table LockEngine and the
// staged-completion service path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/lock_engine.h"
#include "rt/rt_lock_service.h"
#include "substrate/execution_substrate.h"

namespace {

std::atomic<std::uint64_t> g_news{0};

}  // namespace

// Counting replacements for the global allocation functions (same
// technique as event_alloc_test). All forms funnel through malloc/free so
// replaced and library-internal paths stay compatible; only the count
// matters.
void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) -
                                    1) &
                                       ~(static_cast<std::size_t>(align) -
                                         1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace netlock {
namespace {

/// Counts grants without touching the heap.
struct CountingSink final : public GrantSink {
  void DeliverGrant(LockId, const QueueSlot&) override { ++grants; }
  std::uint64_t grants = 0;
};

// The engine alone: acquire/release with queue depth up to 4 across a
// fixed lock set reuses the slab chunks earlier rounds freed — no slab
// growth, no table growth, no heap.
TEST(RtAllocTest, LockEngineSteadyStateDepthFourIsAllocationFree) {
  CountingSink sink;
  LockEngine engine(sink);
  constexpr LockId kLocks = 64;
  constexpr int kDepth = 4;

  TxnId next_txn = 1;
  SimTime now = 0;
  const auto round = [&] {
    for (LockId lock = 1; lock <= kLocks; ++lock) {
      TxnId txns[kDepth];
      for (int d = 0; d < kDepth; ++d) {
        txns[d] = next_txn++;
        QueueSlot slot;
        slot.mode = LockMode::kExclusive;
        slot.txn_id = txns[d];
        engine.Acquire(lock, slot, ++now);
      }
      for (int d = 0; d < kDepth; ++d) {
        EXPECT_EQ(engine.Release(lock, LockMode::kExclusive, txns[d],
                                 /*lease_forced=*/false, ++now),
                  ReleaseOutcome::kApplied);
      }
    }
  };

  // Warmup: grows the flat table and state pool to working size.
  for (int r = 0; r < 4; ++r) round();

  const std::uint64_t grants_before = sink.grants;
  const std::uint64_t news_before = g_news.load(std::memory_order_relaxed);
  for (int r = 0; r < 500; ++r) round();
  const std::uint64_t news_after = g_news.load(std::memory_order_relaxed);

  EXPECT_EQ(news_after - news_before, 0u)
      << "depth-4 acquire/release loop allocated on the heap";
  EXPECT_EQ(sink.grants - grants_before, 500u * kLocks * kDepth);
}

// Deeper than one slab chunk on every lock at once: queue depth selects
// no code path, so the chunk chains also come from the warmed slab.
TEST(RtAllocTest, LockEngineSteadyStateDeepQueuesAreAllocationFree) {
  CountingSink sink;
  LockEngine engine(sink);
  constexpr LockId kLocks = 64;
  constexpr int kDepth = 2 * LockEngine::kChunkSlots + 3;

  TxnId next_txn = 1;
  SimTime now = 0;
  const auto round = [&] {
    const TxnId first = next_txn;
    for (LockId lock = 1; lock <= kLocks; ++lock) {
      for (int d = 0; d < kDepth; ++d) {
        QueueSlot slot;
        slot.mode = d % 3 == 1 ? LockMode::kShared : LockMode::kExclusive;
        slot.txn_id = next_txn++;
        engine.Acquire(lock, slot, ++now);
      }
    }
    for (LockId lock = 1; lock <= kLocks; ++lock) {
      for (int d = 0; d < kDepth; ++d) {
        const TxnId txn = first + (lock - 1) * kDepth + d;
        const LockMode mode =
            d % 3 == 1 ? LockMode::kShared : LockMode::kExclusive;
        EXPECT_EQ(engine.Release(lock, mode, txn, /*lease_forced=*/false,
                                 ++now),
                  ReleaseOutcome::kApplied);
      }
    }
  };

  for (int r = 0; r < 4; ++r) round();
  EXPECT_EQ(engine.live_chunks(), 0u);

  const std::uint64_t grants_before = sink.grants;
  const std::uint64_t news_before = g_news.load(std::memory_order_relaxed);
  for (int r = 0; r < 200; ++r) round();
  const std::uint64_t news_after = g_news.load(std::memory_order_relaxed);

  EXPECT_EQ(news_after - news_before, 0u)
      << "deep-queue acquire/release loop allocated on the heap";
  EXPECT_EQ(sink.grants - grants_before, 200u * kLocks * kDepth);
  EXPECT_EQ(engine.live_chunks(), 0u);
}

// The whole service hot path — SubmitBatch into the mailbox ring, worker
// drain, engine cascade, staged-completion flush, PollCompletions — in
// steady state, with the worker thread live. Warmup covers both the
// engine's table and the staging buffers' reserved capacity.
TEST(RtAllocTest, RtServiceSteadyStateIsAllocationFree) {
  RtSubstrate substrate;
  rt::RtLockService::Options options;
  options.cores = 1;
  options.num_clients = 1;
  rt::RtLockService service(options, substrate);
  service.Start();

  constexpr int kBatch = 16;
  TxnId next_txn = 1;
  rt::RtRequest reqs[kBatch];
  rt::RtCompletion comps[kBatch];
  const auto round = [&] {
    for (int i = 0; i < kBatch; ++i) {
      reqs[i].op = rt::RtRequest::Op::kAcquire;
      reqs[i].mode = LockMode::kExclusive;
      reqs[i].lock = static_cast<LockId>(1 + i);
      reqs[i].txn = next_txn++;
      reqs[i].client = 0;
    }
    service.SubmitBatch(0, 0, reqs, kBatch);  // cores=1: all map to core 0.
    std::size_t got = 0;
    while (got < kBatch) {
      got += service.PollCompletions(0, comps + got, kBatch - got);
    }
    for (int i = 0; i < kBatch; ++i) {
      reqs[i].op = rt::RtRequest::Op::kRelease;
      reqs[i].lock = comps[i].lock;
      reqs[i].mode = comps[i].mode;
      reqs[i].txn = comps[i].txn;
    }
    service.SubmitBatch(0, 0, reqs, kBatch);
  };

  for (int r = 0; r < 64; ++r) round();
  service.WaitQuiesce();

  const std::uint64_t news_before = g_news.load(std::memory_order_relaxed);
  for (int r = 0; r < 500; ++r) round();
  service.WaitQuiesce();
  const std::uint64_t news_after = g_news.load(std::memory_order_relaxed);

  EXPECT_EQ(news_after - news_before, 0u)
      << "rt submit->grant->poll->release loop allocated on the heap";

  service.Stop();
  const rt::RtLockService::Stats stats = service.TotalStats();
  EXPECT_EQ(stats.grants, static_cast<std::uint64_t>(564) * kBatch);
  EXPECT_EQ(stats.staged_completions, stats.grants);  // All staged path.
  EXPECT_EQ(service.TotalQueueDepth(), 0u);
}

}  // namespace
}  // namespace netlock
