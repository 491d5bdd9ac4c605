// The rt client's critical-path-first iteration order.
//
// Under contention a lock's hold time is the lock manager's latency, so the
// client loop sends what frees or advances held locks before it does
// anything else: poll -> grants (stage next-lock acquires and commit
// releases) -> flush -> begin the sessions that committed (generate the
// next transaction, stage its first acquire) -> flush. These tests pin that
// order, the stale-completion rule for a session between commit and begin,
// the cache-line isolation of the quiesce counters the client and the
// worker update on every hop, and the jittered abort backoff that keeps one
// thread's sessions from retrying in lockstep.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/flight_recorder.h"
#include "common/sim_context.h"
#include "rt/rt_client.h"
#include "rt/rt_lock_service.h"
#include "substrate/execution_substrate.h"
#include "workload/micro.h"

namespace netlock {
namespace {

/// Wraps a workload and checks, each time the client asks for a new
/// transaction, that the releases of every earlier transaction are already
/// in the mailboxes: with one session and no aborts, client 0 has then
/// submitted exactly 2 x (locks of all previously generated transactions).
class ReleasedFirstWorkload final : public WorkloadGenerator {
 public:
  ReleasedFirstWorkload(const rt::RtLockService& service,
                        std::unique_ptr<WorkloadGenerator> inner)
      : service_(service), inner_(std::move(inner)) {}

  TxnSpec Next(Rng& rng) override {
    const std::uint64_t submitted = service_.Submitted(0);
    if (submitted != 2 * locks_so_far_ && mismatches_++ == 0) {
      first_mismatch_ = {submitted, 2 * locks_so_far_};
    }
    TxnSpec spec = inner_->Next(rng);
    locks_so_far_ += spec.locks.size();
    ++generated_;
    return spec;
  }
  LockId lock_space() const override { return inner_->lock_space(); }

  std::uint64_t generated() const { return generated_; }
  std::uint64_t mismatches() const { return mismatches_; }
  /// {Submitted(0), expected} at the first mismatch.
  std::pair<std::uint64_t, std::uint64_t> first_mismatch() const {
    return first_mismatch_;
  }

 private:
  const rt::RtLockService& service_;
  std::unique_ptr<WorkloadGenerator> inner_;
  std::uint64_t locks_so_far_ = 0;
  std::uint64_t generated_ = 0;
  std::uint64_t mismatches_ = 0;
  std::pair<std::uint64_t, std::uint64_t> first_mismatch_;
};

// One client thread, one session, a fixed number of multi-lock Zipf
// transactions over two cores. Generating the next transaction before the
// flush that carries the commit's releases (holding freed locks for the
// length of Next()) shows up as Submitted(0) short by that commit's locks.
TEST(RtCriticalPathTest, CommitReleasesAreSubmittedBeforeNextTxnIsGenerated) {
  constexpr std::uint64_t kTxns = 500;
  RtSubstrate substrate;
  SimContext context;
  rt::RtLockService::Options options;
  options.cores = 2;
  options.num_clients = 1;
  options.context = &context;
  rt::RtLockService service(options, substrate);

  MicroConfig micro;
  micro.num_locks = 512;
  micro.locks_per_txn = 3;
  micro.zipf_alpha = 0.99;
  rt::RtClientConfig config;
  config.sessions_per_client = 1;
  config.txns_per_session = kTxns;
  config.seed = 5;
  ReleasedFirstWorkload* workload = nullptr;
  rt::RtClientPool pool(service, substrate, config, [&](int) {
    auto w = std::make_unique<ReleasedFirstWorkload>(
        service, std::make_unique<MicroWorkload>(micro));
    workload = w.get();
    return w;
  });
  ASSERT_NE(workload, nullptr);
  service.Start();
  pool.Start();
  pool.Join();
  service.Stop();

  EXPECT_EQ(pool.TotalCommits(), kTxns);
  EXPECT_EQ(workload->generated(), kTxns);
  EXPECT_EQ(workload->mismatches(), 0u)
      << "a transaction was generated with Submitted(0) = "
      << workload->first_mismatch().first << ", expected "
      << workload->first_mismatch().second
      << ": the previous commit's releases had not been flushed";
  const rt::RtLockService::Stats stats = service.TotalStats();
  EXPECT_EQ(service.Submitted(0), stats.requests + stats.releases);
  EXPECT_EQ(stats.releases, stats.requests);
  EXPECT_EQ(service.TotalQueueDepth(), 0u);
}

// Each quiesce counter fills its own cache line, so adjacent per-client
// (and per-core) counters never share one, and the client's counter never
// shares a line with the worker's.
TEST(RtCriticalPathTest, QuiesceCountersAreCacheLineIsolated) {
  using Counter = rt::RtLockService::QuiesceCounter;
  static_assert(alignof(Counter) >= 64);
  static_assert(sizeof(Counter) >= 64);
  const auto counters = std::make_unique<Counter[]>(3);
  for (int i = 0; i < 2; ++i) {
    const auto a = reinterpret_cast<std::uintptr_t>(&counters[i].value);
    const auto b = reinterpret_cast<std::uintptr_t>(&counters[i + 1].value);
    EXPECT_GE(b - a, 64u);
    EXPECT_EQ(a / 64, reinterpret_cast<std::uintptr_t>(&counters[i]) / 64);
  }
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(counters.get()) % 64, 0u);
}

/// Exclusive transactions from a fixed script. `before` (if set) runs on
/// the client thread just before its transaction is returned, i.e. in the
/// client's begin phase.
class ScriptedWorkload final : public WorkloadGenerator {
 public:
  struct Txn {
    std::vector<LockId> locks;
    std::function<void()> before;
  };
  explicit ScriptedWorkload(std::vector<Txn> script)
      : script_(std::move(script)) {}

  TxnSpec Next(Rng&) override {
    const Txn& txn = script_.at(next_++);
    if (txn.before) txn.before();
    TxnSpec spec;
    for (const LockId lock : txn.locks) {
      spec.locks.push_back(LockRequest{lock, LockMode::kExclusive});
    }
    return spec;
  }
  LockId lock_space() const override { return 16; }

 private:
  std::vector<Txn> script_;
  std::size_t next_ = 0;
};

/// Spins until `done()` or a 10 s deadline; returns whether it held.
bool WaitFor(const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

/// Joins the pool, or exits the binary with a failure after 60 s: a
/// session that can never finish (left holding locks, or livelocked) would
/// otherwise hang the suite, and a wedged pool cannot be joined.
void JoinOrDie(rt::RtClientPool& pool) {
  auto joined = std::async(std::launch::async, [&] { pool.Join(); });
  if (joined.wait_for(std::chrono::seconds(60)) !=
      std::future_status::ready) {
    std::fprintf(stderr, "watchdog: the scripted pool never finished\n");
    std::fflush(stderr);
    std::_Exit(1);
  }
  joined.get();
}

bool Recorded(const FlightRecorder& recorder, FlightRecorder::Op op,
              LockId lock) {
  for (const FlightRecorder::Event& ev : recorder.Snapshot()) {
    if (ev.op == op && ev.lock == lock) return true;
  }
  return false;
}

// Wound-wait: a wound that crosses a commit. Session Y (young, client 1)
// holds lock 1, is granted lock 2 and so commits; the older session O
// (client 0) asks for lock 1 only after that grant, so the worker wounds
// Y's entry on lock 1 and the wound lands in Y's completion ring right
// behind the grant. The scripts' `before` hooks block each client in its
// begin phase until the other side has acted, so client 1 polls
// [grant(Y, 2), wound(Y, 1)] in one batch: when it reaches the wound, Y
// has committed but not yet begun its next transaction. The wound must be
// dropped as stale — running it through OnAbort would count an abort and
// a wound at the pool, release the committed locks a second time, and
// retry a transaction that already committed.
TEST(RtCriticalPathTest, WoundAfterCommitIsDroppedNotAborted) {
  RtSubstrate substrate;
  SimContext context;
  rt::RtLockService::Options options;
  options.cores = 1;
  options.num_clients = 2;
  options.deadlock_policy = DeadlockPolicy::kWoundWait;
  options.context = &context;
  rt::RtLockService service(options, substrate);
  ASSERT_NE(service.flight_recorder(), nullptr);
  const FlightRecorder& recorder = *service.flight_recorder();

  std::atomic<bool> older_waited{false};
  std::atomic<bool> younger_waited{false};
  // Global sessions 0, 1 run on client 0 and 2, 3 on client 1; a lower
  // session index means older txn ids.
  std::vector<std::vector<ScriptedWorkload::Txn>> scripts(4);
  // O: lock 3, then lock 1 once Y holds lock 2.
  scripts[0] = {{{3}, nullptr},
                {{1}, [&] {
                   older_waited = WaitFor([&] {
                     return Recorded(recorder, FlightRecorder::Op::kGrant, 2);
                   });
                 }}};
  scripts[1] = {{{7}, nullptr}, {{8}, nullptr}};
  // Y: locks 1 and 2, then lock 5.
  scripts[2] = {{{1, 2}, nullptr}, {{5}, nullptr}};
  // Client 1's helper: commits in the iteration where Y is granted lock 1,
  // so client 1 runs a begin phase right after flushing Y's acquire of
  // lock 2 — and holds there until the wound has reached client 1's ring:
  // every completion before it (grants of 3, 7, 1, 4, 2; then the wound,
  // flushed after client 0's grants of 1 and 8) has been flushed.
  scripts[3] = {{{4}, nullptr},
                {{6}, [&] {
                   younger_waited = WaitFor([&] {
                     return Recorded(recorder, FlightRecorder::Op::kAbort,
                                     1) &&
                            service.TotalStats().staged_completions >= 8;
                   });
                 }}};

  rt::RtClientConfig config;
  config.sessions_per_client = 2;
  config.txns_per_session = 2;
  rt::RtClientPool pool(service, substrate, config, [&](int session) {
    return std::make_unique<ScriptedWorkload>(
        scripts[static_cast<std::size_t>(session)]);
  });
  service.Start();
  pool.Start();
  JoinOrDie(pool);
  service.Stop();

  EXPECT_TRUE(older_waited) << "Y was never granted lock 2";
  EXPECT_TRUE(younger_waited) << "the wound never reached client 1";
  const rt::RtLockService::Stats stats = service.TotalStats();
  EXPECT_EQ(stats.wounds, 1u);
  EXPECT_EQ(pool.TotalAborts(), 0u) << "the wound ran through OnAbort";
  EXPECT_EQ(pool.TotalWounds(), 0u);
  EXPECT_EQ(pool.TotalCommits(), 8u);
  // Y's commit released lock 1 after the wound had already revoked it.
  EXPECT_EQ(stats.stale_releases + stats.mismatched_releases, 1u);
  EXPECT_EQ(service.TotalQueueDepth(), 0u);
}

// No-wait, two sessions of one client thread with crossing lock orders
// ({1, 2} and {2, 1}): both are granted their first lock in one batch, both
// second acquires are refused in the next drain, and both aborts arrive in
// one poll batch. Resuming both after the same fixed backoff replays that
// collision on every retry, forever; jittered backoff lets one finish.
TEST(RtClientBackoffTest, CrossingNoWaitSessionsOnOneThreadFinish) {
  constexpr std::uint64_t kTxns = 20;
  RtSubstrate substrate;
  SimContext context;
  rt::RtLockService::Options options;
  options.cores = 1;
  options.num_clients = 1;
  options.deadlock_policy = DeadlockPolicy::kNoWait;
  options.context = &context;
  rt::RtLockService service(options, substrate);

  const std::vector<std::vector<ScriptedWorkload::Txn>> scripts = {
      std::vector<ScriptedWorkload::Txn>(kTxns, {{1, 2}, nullptr}),
      std::vector<ScriptedWorkload::Txn>(kTxns, {{2, 1}, nullptr})};
  rt::RtClientConfig config;
  config.sessions_per_client = 2;
  config.txns_per_session = kTxns;
  rt::RtClientPool pool(service, substrate, config, [&](int session) {
    return std::make_unique<ScriptedWorkload>(
        scripts[static_cast<std::size_t>(session)]);
  });
  service.Start();
  pool.Start();
  JoinOrDie(pool);
  service.Stop();

  EXPECT_EQ(pool.TotalCommits(), 2 * kTxns);
  EXPECT_GT(pool.TotalAborts(), 0u) << "the sessions never collided";
  EXPECT_EQ(service.TotalQueueDepth(), 0u);
}

}  // namespace
}  // namespace netlock
