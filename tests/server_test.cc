// Tests for the lock server: owned-lock queue semantics (mirroring
// Algorithm 2), the CPU/core model, RSS dispatch, q2 buffering, ownership
// transfer, and lease cleanup.
#include <gtest/gtest.h>

#include "server/lock_server.h"
#include "test_util.h"

namespace netlock {
namespace {

using testing::MakeAcquire;
using testing::MakeRelease;
using testing::PacketCatcher;

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() : net_(sim_, /*latency=*/1000) {
    LockServerConfig config;
    config.cores = 4;
    config.per_request_service = 444;
    server_ = std::make_unique<LockServer>(net_, config);
    client_ = std::make_unique<PacketCatcher>(net_);
    switch_ = std::make_unique<PacketCatcher>(net_);
    server_->set_switch_node(switch_->node());
  }

  void Send(LockHeader hdr) {
    hdr.flags |= kFlagServerOwned;
    net_.Send(MakeLockPacket(client_->node(), server_->node(), hdr));
    sim_.Run();
  }

  void SendRaw(const LockHeader& hdr) {
    net_.Send(MakeLockPacket(client_->node(), server_->node(), hdr));
    sim_.Run();
  }

  Simulator sim_;
  Network net_;
  std::unique_ptr<LockServer> server_;
  std::unique_ptr<PacketCatcher> client_;
  std::unique_ptr<PacketCatcher> switch_;
};

TEST_F(ServerTest, GrantsFirstExclusive) {
  Send(MakeAcquire(1, LockMode::kExclusive, 1, client_->node()));
  EXPECT_TRUE(client_->HasGrantFor(1));
  EXPECT_EQ(server_->stats().grants, 1u);
}

TEST_F(ServerTest, QueuesConflictingExclusive) {
  Send(MakeAcquire(1, LockMode::kExclusive, 1, client_->node()));
  Send(MakeAcquire(1, LockMode::kExclusive, 2, client_->node()));
  EXPECT_FALSE(client_->HasGrantFor(2));
  Send(MakeRelease(1, LockMode::kExclusive, 1, client_->node()));
  EXPECT_TRUE(client_->HasGrantFor(2));
}

TEST_F(ServerTest, SharedBatchOnExclusiveRelease) {
  Send(MakeAcquire(1, LockMode::kExclusive, 1, client_->node()));
  Send(MakeAcquire(1, LockMode::kShared, 2, client_->node()));
  Send(MakeAcquire(1, LockMode::kShared, 3, client_->node()));
  Send(MakeAcquire(1, LockMode::kExclusive, 4, client_->node()));
  client_->Clear();
  Send(MakeRelease(1, LockMode::kExclusive, 1, client_->node()));
  EXPECT_TRUE(client_->HasGrantFor(2));
  EXPECT_TRUE(client_->HasGrantFor(3));
  EXPECT_FALSE(client_->HasGrantFor(4));
}

TEST_F(ServerTest, SharedGrantedConcurrently) {
  Send(MakeAcquire(1, LockMode::kShared, 1, client_->node()));
  Send(MakeAcquire(1, LockMode::kShared, 2, client_->node()));
  EXPECT_TRUE(client_->HasGrantFor(1));
  EXPECT_TRUE(client_->HasGrantFor(2));
}

TEST_F(ServerTest, CpuServiceDelaysResponse) {
  // Request at t=0: arrives at 1000, serviced 444, grant travels 1000.
  SimTime granted_at = 0;
  net_.SetHandler(client_->node(), [&](const Packet& pkt) {
    if (auto hdr = LockHeader::Parse(pkt); hdr && hdr->op == LockOp::kGrant) {
      granted_at = sim_.now();
    }
  });
  SendRaw(MakeAcquire(1, LockMode::kExclusive, 1, client_->node()));
  EXPECT_EQ(granted_at, 1000u + 444u + 1000u);
}

TEST_F(ServerTest, SaturationBoundsThroughput) {
  // Offer 1000 requests to distinct locks that hash across 4 cores; with
  // 444 ns per request the server clears ~2.25 MRPS per core.
  for (LockId lock = 0; lock < 1000; ++lock) {
    LockHeader hdr = MakeAcquire(lock, LockMode::kExclusive, lock,
                                 client_->node());
    hdr.flags |= kFlagServerOwned;
    net_.Send(MakeLockPacket(client_->node(), server_->node(), hdr));
  }
  sim_.Run();
  EXPECT_EQ(server_->stats().grants, 1000u);
  // Perfectly balanced would finish at 1000 + 250*444 + 1000; allow skew.
  const SimTime ideal = 1000 + 250 * 444 + 1000;
  EXPECT_GT(sim_.now(), ideal / 2);
  EXPECT_LT(sim_.now(), ideal * 3);
}

TEST_F(ServerTest, SameLockStaysFifoOnOneCore) {
  // Requests to one lock serialize on its RSS core in arrival order.
  for (TxnId txn = 0; txn < 20; ++txn) {
    Send(MakeAcquire(9, LockMode::kExclusive, txn, client_->node()));
    Send(MakeRelease(9, LockMode::kExclusive, txn, client_->node()));
  }
  const auto grants = client_->Grants();
  ASSERT_EQ(grants.size(), 20u);
  for (TxnId txn = 0; txn < 20; ++txn) EXPECT_EQ(grants[txn].txn_id, txn);
}

TEST_F(ServerTest, BufferOnlyDoesNotGrant) {
  LockHeader hdr = MakeAcquire(1, LockMode::kExclusive, 1, client_->node());
  hdr.flags = kFlagBufferOnly;
  SendRaw(hdr);
  EXPECT_FALSE(client_->HasGrantFor(1));
  EXPECT_EQ(server_->OverflowDepth(1), 1u);
  EXPECT_EQ(server_->stats().buffered, 1u);
}

TEST_F(ServerTest, QueueEmptyPushesAndReportsRemainder) {
  for (TxnId txn = 1; txn <= 5; ++txn) {
    LockHeader hdr = MakeAcquire(1, LockMode::kExclusive, txn,
                                 client_->node());
    hdr.flags = kFlagBufferOnly;
    SendRaw(hdr);
  }
  LockHeader notify;
  notify.op = LockOp::kQueueEmpty;
  notify.lock_id = 1;
  notify.aux = 3;  // Room for 3.
  SendRaw(notify);
  // 3 pushes + 1 sync with remaining 2.
  int pushes = 0;
  std::uint32_t remaining = 99;
  for (const auto& msg : switch_->received()) {
    if (msg.op == LockOp::kPush) ++pushes;
    if (msg.op == LockOp::kSyncState) remaining = msg.aux;
  }
  EXPECT_EQ(pushes, 3);
  EXPECT_EQ(remaining, 2u);
  EXPECT_EQ(server_->OverflowDepth(1), 2u);
  // Pushes preserve FIFO order.
  TxnId expected = 1;
  for (const auto& msg : switch_->received()) {
    if (msg.op == LockOp::kPush) {
      EXPECT_EQ(msg.txn_id, expected++);
    }
  }
}

TEST_F(ServerTest, TakeOwnershipActivatesBufferedQueue) {
  for (TxnId txn = 1; txn <= 3; ++txn) {
    LockHeader hdr = MakeAcquire(1, LockMode::kExclusive, txn,
                                 client_->node());
    hdr.flags = kFlagBufferOnly;
    SendRaw(hdr);
  }
  server_->TakeOwnership(1);
  sim_.Run();
  EXPECT_TRUE(client_->HasGrantFor(1));  // Head granted.
  EXPECT_FALSE(client_->HasGrantFor(2));
  EXPECT_EQ(server_->OverflowDepth(1), 0u);
  Send(MakeRelease(1, LockMode::kExclusive, 1, client_->node()));
  EXPECT_TRUE(client_->HasGrantFor(2));
}

TEST_F(ServerTest, TakeOwnershipSharedFrontBatch) {
  for (TxnId txn = 1; txn <= 2; ++txn) {
    LockHeader hdr = MakeAcquire(1, LockMode::kShared, txn, client_->node());
    hdr.flags = kFlagBufferOnly;
    SendRaw(hdr);
  }
  LockHeader hdr = MakeAcquire(1, LockMode::kExclusive, 3, client_->node());
  hdr.flags = kFlagBufferOnly;
  SendRaw(hdr);
  server_->TakeOwnership(1);
  sim_.Run();
  EXPECT_TRUE(client_->HasGrantFor(1));
  EXPECT_TRUE(client_->HasGrantFor(2));
  EXPECT_FALSE(client_->HasGrantFor(3));
}

TEST_F(ServerTest, PauseBuffersThenForwardsToSwitch) {
  Send(MakeAcquire(1, LockMode::kExclusive, 1, client_->node()));
  server_->PauseLock(1, true);
  Send(MakeAcquire(1, LockMode::kExclusive, 2, client_->node()));
  EXPECT_FALSE(client_->HasGrantFor(2));
  EXPECT_FALSE(server_->QueueEmpty(1));
  Send(MakeRelease(1, LockMode::kExclusive, 1, client_->node()));
  EXPECT_TRUE(server_->QueueEmpty(1));
  server_->ForwardBufferedToSwitch(1);
  sim_.Run();
  // The buffered acquire went to the switch as a fresh request.
  bool saw = false;
  for (const auto& msg : switch_->received()) {
    if (msg.op == LockOp::kAcquire && msg.txn_id == 2) saw = true;
  }
  EXPECT_TRUE(saw);
}

TEST_F(ServerTest, AcquireForwardedBeforeHandoffGoesBackToSwitch) {
  // The server hands lock 1 to the switch (MoveLockToSwitch's commit). An
  // acquire the switch forwarded as server-owned just before that arrives
  // afterwards: granting it here would run a second queue beside the
  // switch's, so it is re-sent to the switch and no state is recreated.
  Send(MakeAcquire(1, LockMode::kExclusive, 1, client_->node()));
  Send(MakeRelease(1, LockMode::kExclusive, 1, client_->node()));
  server_->DropOwnership(1);
  Send(MakeAcquire(1, LockMode::kExclusive, 2, client_->node()));
  EXPECT_FALSE(client_->HasGrantFor(2));
  EXPECT_TRUE(server_->OwnedLocks().empty());
  EXPECT_EQ(server_->stats().rerouted, 1u);
  ASSERT_EQ(switch_->received().size(), 1u);
  const LockHeader& resent = switch_->received()[0];
  EXPECT_EQ(resent.op, LockOp::kAcquire);
  EXPECT_EQ(resent.txn_id, 2u);
  EXPECT_EQ(resent.client_node, client_->node());
  EXPECT_EQ(resent.flags, kFlagRerouted);
  // Buffer-only overflow for the switch-owned lock still lands in q2.
  LockHeader overflow = MakeAcquire(1, LockMode::kExclusive, 3,
                                    client_->node());
  overflow.flags = kFlagBufferOnly;
  SendRaw(overflow);
  EXPECT_EQ(server_->OverflowDepth(1), 1u);
  EXPECT_FALSE(client_->HasGrantFor(3));
}

TEST_F(ServerTest, RerouteReturningFromSwitchIsServed) {
  // The switch forwarded the re-sent acquire back as server-owned: it no
  // longer owns the lock, so the handoff mark is stale and the server
  // serves the lock from then on.
  server_->EvictOwnership(1);
  LockHeader back = MakeAcquire(1, LockMode::kExclusive, 4, client_->node());
  back.flags = kFlagRerouted | kFlagServerOwned;
  SendRaw(back);
  EXPECT_TRUE(client_->HasGrantFor(4));
  Send(MakeAcquire(1, LockMode::kExclusive, 5, client_->node()));
  Send(MakeRelease(1, LockMode::kExclusive, 4, client_->node()));
  EXPECT_TRUE(client_->HasGrantFor(5));
  EXPECT_EQ(server_->stats().rerouted, 0u);
}

TEST_F(ServerTest, TakeOwnershipEndsTheHandoff) {
  server_->EvictOwnership(1);
  server_->TakeOwnership(1);
  Send(MakeAcquire(1, LockMode::kExclusive, 6, client_->node()));
  EXPECT_TRUE(client_->HasGrantFor(6));
  EXPECT_EQ(server_->stats().rerouted, 0u);
}

TEST_F(ServerTest, LeaseClearsExpiredHolder) {
  Send(MakeAcquire(1, LockMode::kExclusive, 1, client_->node()));
  Send(MakeAcquire(1, LockMode::kExclusive, 2, client_->node()));
  sim_.RunUntil(sim_.now() + 20 * kMillisecond);
  server_->ClearExpired(/*lease=*/5 * kMillisecond);
  sim_.Run();
  EXPECT_TRUE(client_->HasGrantFor(2));
}

TEST_F(ServerTest, StaleReleaseCounted) {
  Send(MakeRelease(1, LockMode::kExclusive, 9, client_->node()));
  EXPECT_EQ(server_->stats().stale_releases, 1u);
}

// Mirror of the data plane's dedup test: a retransmitted RELEASE copy is
// dropped before its blind head pop can evict the next waiter.
TEST_F(ServerTest, DuplicatedReleaseCopyIsDropped) {
  Send(MakeAcquire(1, LockMode::kExclusive, 1, client_->node()));
  Send(MakeAcquire(1, LockMode::kExclusive, 2, client_->node()));
  Send(MakeAcquire(1, LockMode::kExclusive, 3, client_->node()));
  const LockHeader release =
      MakeRelease(1, LockMode::kExclusive, 1, client_->node());
  Send(release);
  EXPECT_TRUE(client_->HasGrantFor(2));
  Send(release);
  EXPECT_FALSE(client_->HasGrantFor(3));
  EXPECT_EQ(server_->stats().duplicate_releases, 1u);
  Send(MakeRelease(1, LockMode::kExclusive, 2, client_->node()));
  EXPECT_TRUE(client_->HasGrantFor(3));
}

// Mirror of the data plane's validated dequeue: a release from a txn that
// no longer heads the queue (its entry was lease-force-released) must not
// pop the current holder's entry.
TEST_F(ServerTest, MismatchedExclusiveReleaseIsDropped) {
  Send(MakeAcquire(1, LockMode::kExclusive, 1, client_->node()));
  Send(MakeAcquire(1, LockMode::kExclusive, 2, client_->node()));
  Send(MakeRelease(1, LockMode::kExclusive, 99, client_->node()));
  EXPECT_FALSE(client_->HasGrantFor(2));
  EXPECT_EQ(server_->stats().mismatched_releases, 1u);
  Send(MakeRelease(1, LockMode::kExclusive, 1, client_->node()));
  EXPECT_TRUE(client_->HasGrantFor(2));
}

// Server grants stamp per-instance nonces exactly like the switch, so the
// client-side duplicate-grant filter works for server-granted locks too.
TEST_F(ServerTest, GrantsCarryDistinctInstanceNonces) {
  Send(MakeAcquire(1, LockMode::kExclusive, 1, client_->node()));
  // Retransmission: a second queue entry for the same txn.
  Send(MakeAcquire(1, LockMode::kExclusive, 1, client_->node()));
  Send(MakeRelease(1, LockMode::kExclusive, 1, client_->node()));
  const auto grants = client_->Grants();
  ASSERT_EQ(grants.size(), 2u);
  EXPECT_NE(grants[0].aux, grants[1].aux);
}

TEST_F(ServerTest, HarvestDemandsReportsRatesAndContention) {
  for (TxnId txn = 0; txn < 10; ++txn) {
    Send(MakeAcquire(1, LockMode::kExclusive, txn, client_->node()));
  }
  Send(MakeAcquire(2, LockMode::kExclusive, 100, client_->node()));
  std::vector<LockDemand> demands;
  server_->HarvestDemands(/*window_sec=*/1.0, demands);
  ASSERT_EQ(demands.size(), 2u);
  const auto& d1 = demands[0].lock == 1 ? demands[0] : demands[1];
  const auto& d2 = demands[0].lock == 2 ? demands[0] : demands[1];
  EXPECT_DOUBLE_EQ(d1.rate, 10.0);
  EXPECT_EQ(d1.contention, 10u);  // All ten queued concurrently.
  EXPECT_DOUBLE_EQ(d2.rate, 1.0);
  EXPECT_EQ(d2.contention, 1u);
  // Counters reset after harvest.
  demands.clear();
  server_->HarvestDemands(1.0, demands);
  EXPECT_TRUE(demands.empty());  // No new requests since.
}

}  // namespace
}  // namespace netlock
