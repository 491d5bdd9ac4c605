// The rt backend's time contract and ring-level liveness.
//
// Clock budget: the worker reads the clock once per nonempty mailbox batch
// and the client pool once per poll iteration that has work; everything
// below those loops (Process, the grant sink, the session state machine)
// takes `now` as a parameter. A counting substrate pins both budgets, so a
// stray per-request clock read fails here rather than only in a benchmark.
//
// Full-ring liveness: a client that submits far more than a ring's worth
// of acquires before its first poll must not wedge against a worker that
// is flushing grants into the client's full completion ring.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <vector>

#include "common/sim_context.h"
#include "rt/rt_client.h"
#include "rt/rt_lock_service.h"
#include "substrate/execution_substrate.h"
#include "workload/micro.h"

namespace netlock {
namespace {

/// Wall-clock substrate that counts its Now() calls.
class CountingSubstrate final : public ExecutionSubstrate {
 public:
  SimTime Now() const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return clock_.Now();
  }
  bool real_time() const override { return true; }
  const char* name() const override { return "counting"; }

  std::uint64_t calls() const {
    return calls_.load(std::memory_order_relaxed);
  }

 private:
  RtSubstrate clock_;
  mutable std::atomic<std::uint64_t> calls_{0};
};

rt::RtRequest Request(rt::RtRequest::Op op, LockId lock, TxnId txn) {
  rt::RtRequest req;
  req.op = op;
  req.mode = LockMode::kExclusive;
  req.lock = lock;
  req.txn = txn;
  req.client = 0;
  return req;
}

// Worker side: the test thread submits and polls without touching the
// clock, so every Now() on the service's substrate is a worker read, and
// there may be at most one per nonempty mailbox drain.
TEST(RtClockTest, WorkerReadsClockOncePerMailboxBatch) {
  CountingSubstrate substrate;
  SimContext context;
  rt::RtLockService::Options options;
  options.cores = 2;
  options.num_clients = 1;
  options.context = &context;
  rt::RtLockService service(options, substrate);
  service.Start();

  constexpr LockId kLocks = 256;
  constexpr int kRounds = 40;
  rt::RtCompletion comps[64];
  TxnId txn = 1;
  for (int r = 0; r < kRounds; ++r) {
    // Two txns per lock: the second queues, and the release cascades to it.
    for (LockId lock = 1; lock <= kLocks; ++lock) {
      service.Submit(0, Request(rt::RtRequest::Op::kAcquire, lock, txn));
      service.Submit(0, Request(rt::RtRequest::Op::kAcquire, lock, txn + 1));
    }
    std::size_t got = 0;
    while (got < kLocks) got += service.PollCompletions(0, comps, 64);
    for (LockId lock = 1; lock <= kLocks; ++lock) {
      service.Submit(0, Request(rt::RtRequest::Op::kRelease, lock, txn));
    }
    got = 0;
    while (got < kLocks) got += service.PollCompletions(0, comps, 64);
    for (LockId lock = 1; lock <= kLocks; ++lock) {
      service.Submit(0, Request(rt::RtRequest::Op::kRelease, lock, txn + 1));
    }
    txn += 2;
  }
  service.Stop();

  const rt::RtLockService::Stats stats = service.TotalStats();
  EXPECT_EQ(stats.grants, 2u * kLocks * kRounds);
  EXPECT_GT(stats.batches, 0u);
  EXPECT_LE(substrate.calls(), stats.batches)
      << "worker read the clock more than once per mailbox batch ("
      << stats.requests + stats.releases << " requests)";
  EXPECT_EQ(service.TotalQueueDepth(), 0u);
}

// Client side: a pool on its own counting substrate, driving a contended
// Zipf workload, reads the clock at most once per grant (plus one start
// stamp per client thread). Reading it per submit and per grant, as a
// naive session state machine does, costs about three per grant.
TEST(RtClockTest, ClientPoolReadsClockAtMostOncePerGrant) {
  RtSubstrate service_clock;
  CountingSubstrate pool_clock;
  SimContext context;
  rt::RtLockService::Options options;
  options.cores = 1;
  options.num_clients = 1;
  options.context = &context;
  rt::RtLockService service(options, service_clock);

  MicroConfig workload;
  workload.num_locks = 512;
  workload.locks_per_txn = 2;
  workload.zipf_alpha = 0.99;
  workload.shared_fraction = 0.2;
  rt::RtClientConfig config;
  config.sessions_per_client = 32;
  config.txns_per_session = 200;
  config.seed = 3;
  rt::RtClientPool pool(service, pool_clock, config, [workload](int) {
    return std::make_unique<MicroWorkload>(workload);
  });
  pool.SetRecording(true);
  service.Start();
  pool.Start();
  pool.Join();
  service.Stop();

  const std::uint64_t grants = service.TotalStats().grants;
  EXPECT_EQ(pool.TotalCommits(), 32u * 200u);
  EXPECT_EQ(pool.Collect().lock_grants, grants);
  EXPECT_LE(pool_clock.calls(),
            grants + static_cast<std::uint64_t>(service.num_clients()))
      << "client pool read the clock more than once per grant";
  EXPECT_EQ(service.TotalQueueDepth(), 0u);
}

// A request whose client field disagrees with the mailbox it was submitted
// through would route its grant into another client's completion ring; the
// worker refuses it.
TEST(RtClockDeathTest, MisroutedClientFieldIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        RtSubstrate substrate;
        SimContext context;
        rt::RtLockService::Options options;
        options.cores = 1;
        options.num_clients = 2;
        options.telemetry = false;
        options.context = &context;
        rt::RtLockService service(options, substrate);
        service.Start();
        rt::RtRequest req = Request(rt::RtRequest::Op::kAcquire, 1, 1);
        req.client = 1;
        service.Submit(0, req);
        service.WaitQuiesce();
      },
      "req.client == client");
}

class RtFullRingTest : public ::testing::TestWithParam<bool> {};

// One client submits ten ring-capacities of acquires on distinct locks
// before its first poll. Without relief, the worker blocks flushing grants
// into the client's full completion ring while the client blocks in Submit
// on its full mailbox. A watchdog turns that hang into a failure.
TEST_P(RtFullRingTest, SubmitBeforePollNeverWedges) {
  constexpr std::size_t kRing = 64;
  constexpr std::size_t kAcquires = 10 * kRing;
  RtSubstrate substrate;
  SimContext context;
  rt::RtLockService::Options options;
  options.cores = 1;
  options.num_clients = 1;
  options.ring_capacity = kRing;
  options.batch_submit = GetParam();
  options.context = &context;
  rt::RtLockService service(options, substrate);
  service.Start();

  // Completions in arrival order, per phase.
  std::vector<TxnId> order;
  order.reserve(2 * kAcquires);
  const auto collect = [&](std::size_t want) {
    rt::RtCompletion comps[48];  // Smaller than the ring: partial drains.
    std::size_t got = 0;
    while (got < want) {
      const std::size_t k = service.PollCompletions(0, comps, 48);
      for (std::size_t i = 0; i < k; ++i) order.push_back(comps[i].txn);
      got += k;
    }
  };
  auto done = std::async(std::launch::async, [&] {
    // Phase 1: per-request Submit.
    for (std::size_t i = 0; i < kAcquires; ++i) {
      service.Submit(0, Request(rt::RtRequest::Op::kAcquire,
                                static_cast<LockId>(1 + i), 1 + i));
    }
    collect(kAcquires);
    // Phase 2: one SubmitBatch far larger than the mailbox.
    std::vector<rt::RtRequest> batch;
    for (std::size_t i = 0; i < kAcquires; ++i) {
      batch.push_back(Request(rt::RtRequest::Op::kAcquire,
                              static_cast<LockId>(1 + kAcquires + i),
                              1 + kAcquires + i));
    }
    service.SubmitBatch(0, 0, batch.data(), batch.size());
    collect(kAcquires);
    // Release everything.
    for (rt::RtRequest& req : batch) req.op = rt::RtRequest::Op::kRelease;
    service.SubmitBatch(0, 0, batch.data(), batch.size());
    for (std::size_t i = 0; i < kAcquires; ++i) {
      service.Submit(0, Request(rt::RtRequest::Op::kRelease,
                                static_cast<LockId>(1 + i), 1 + i));
    }
  });
  if (done.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
    // The submitting thread is wedged and cannot be joined: fail loudly
    // instead of hanging the suite.
    std::fprintf(stderr,
                 "watchdog: Submit and the completion flush wedged each "
                 "other (batch_submit=%d)\n",
                 GetParam() ? 1 : 0);
    std::fflush(stderr);
    std::_Exit(1);
  }
  done.get();
  service.Stop();

  // Single core, single client: completions arrive in submission order.
  ASSERT_EQ(order.size(), 2 * kAcquires);
  for (std::size_t i = 0; i < order.size(); ++i) {
    ASSERT_EQ(order[i], 1 + i) << "completion " << i << " out of order";
  }
  const rt::RtLockService::Stats stats = service.TotalStats();
  EXPECT_EQ(stats.grants, 2 * kAcquires);
  EXPECT_EQ(stats.releases, 2 * kAcquires);
  EXPECT_EQ(service.TotalQueueDepth(), 0u);
}

INSTANTIATE_TEST_SUITE_P(BatchSubmit, RtFullRingTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "On" : "Off";
                         });

}  // namespace
}  // namespace netlock
