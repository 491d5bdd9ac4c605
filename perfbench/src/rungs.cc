// Single-layer rungs, fed with the workload's own generated requests.
//
//   * EngineRung: LockEngine with a benchmark-owned GrantSink. Sessions
//     take turns, one engine call per turn, so waits and release cascades
//     happen as they would with that many clients — but on one thread and
//     with no rings, clocks or network in between.
//   * RingRung: SpscRing<RtRequest> between two threads (the worker and
//     client CPUs of the rt probes), batched the way the service uses it.
#include <algorithm>
#include <deque>
#include <thread>

#include "common/random.h"
#include "core/lock_engine.h"
#include "probes.h"
#include "rt/rt_lock_service.h"
#include "rt/spsc_ring.h"

namespace perfbench {
namespace {

using netlock::LockId;
using netlock::QueueSlot;

struct RungSink final : public netlock::GrantSink {
  void DeliverGrant(LockId, const QueueSlot& slot) override {
    granted.push_back(slot.client_node);
  }
  std::vector<netlock::NodeId> granted;  ///< Sessions granted, in order.
};

struct EnginePass {
  double ns_per_op = 0;
  std::uint64_t grants = 0;
  std::uint64_t grants_in_release = 0;
  std::uint64_t releases = 0;
};

EnginePass RunEnginePass(const std::vector<netlock::TxnSpec>& txns,
                         int sessions) {
  struct Session {
    std::size_t txn = 0;   ///< Index into txns.
    std::size_t next = 0;  ///< Next lock of the txn to acquire.
  };
  RungSink sink;
  sink.granted.reserve(64);
  netlock::LockEngine engine(sink);
  std::vector<Session> state(static_cast<std::size_t>(sessions));
  std::deque<netlock::NodeId> ready;
  std::size_t next_txn = 0;
  for (int s = 0; s < sessions && next_txn < txns.size(); ++s) {
    state[static_cast<std::size_t>(s)].txn = next_txn++;
    ready.push_back(static_cast<netlock::NodeId>(s));
  }
  EnginePass pass;
  std::uint64_t ops = 0;
  netlock::SimTime now = 0;
  const auto take_grants = [&](bool in_release) {
    for (const netlock::NodeId s : sink.granted) {
      ++state[s].next;
      ready.push_back(s);
    }
    pass.grants += sink.granted.size();
    if (in_release) pass.grants_in_release += sink.granted.size();
    sink.granted.clear();
  };
  const std::int64_t start = NowNs();
  while (!ready.empty()) {
    const netlock::NodeId s = ready.front();
    ready.pop_front();
    Session& st = state[s];
    const netlock::TxnSpec& spec = txns[st.txn];
    const netlock::TxnId txn = st.txn + 1;
    ++now;
    if (st.next < spec.locks.size()) {
      QueueSlot slot;
      slot.mode = spec.locks[st.next].mode;
      slot.txn_id = txn;
      slot.client_node = s;
      engine.Acquire(spec.locks[st.next].lock, slot, now);
      ++ops;
      take_grants(false);  // Granted at once, or later by a release.
      continue;
    }
    for (const netlock::LockRequest& r : spec.locks) {
      engine.Release(r.lock, r.mode, txn, /*lease_forced=*/false, now);
      ++ops;
      ++pass.releases;
      take_grants(true);
    }
    if (next_txn < txns.size()) {
      st = Session{next_txn++, 0};
      ready.push_back(s);
    }
  }
  const std::int64_t elapsed = NowNs() - start;
  pass.ns_per_op = static_cast<double>(elapsed) / static_cast<double>(ops);
  return pass;
}

}  // namespace

std::vector<netlock::TxnSpec> GenerateTxns(const Factory& factory,
                                           int sessions, std::uint64_t seed,
                                           std::size_t requests) {
  std::vector<std::unique_ptr<netlock::WorkloadGenerator>> gens;
  std::vector<netlock::Rng> rngs;
  for (int i = 0; i < sessions; ++i) {
    gens.push_back(factory(i));
    rngs.emplace_back(seed * 1000003 + static_cast<std::uint64_t>(i));
  }
  std::vector<netlock::TxnSpec> out;
  for (std::size_t k = 0, locks = 0; locks < requests; ++k) {
    const std::size_t i = k % static_cast<std::size_t>(sessions);
    out.push_back(gens[i]->Next(rngs[i]));
    locks += out.back().locks.size();
  }
  return out;
}

void EngineRung(const std::vector<netlock::TxnSpec>& txns, int sessions,
                RunContext& ctx) {
  std::vector<double> ns;
  EnginePass last;
  for (int rep = 0; rep < 5; ++rep) {
    last = RunEnginePass(txns, sessions);
    ns.push_back(last.ns_per_op);
  }
  std::uint64_t locks = 0;
  for (const netlock::TxnSpec& t : txns) locks += t.locks.size();
  ctx.checks.Expect(last.grants == locks && last.releases == locks,
                    "engine rung: " + std::to_string(last.grants) +
                        " grants for " + std::to_string(locks) + " requests");
  ctx.metrics.Fill("core.engine_ns_per_op", Median(ns), "ns");
  ctx.metrics.Fill("core.grants_per_release",
                   static_cast<double>(last.grants_in_release) /
                       static_cast<double>(last.releases),
                   "count");
}

void RingRung(const std::vector<netlock::LockRequest>& stream,
              RunContext& ctx) {
  using netlock::rt::RtRequest;
  const Pinning pin = ChoosePinning(ctx);
  constexpr std::size_t kItems = 1u << 22;
  constexpr std::size_t kBatch = 32;
  std::vector<RtRequest> items(stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    items[i].lock = stream[i].lock;
    items[i].mode = stream[i].mode;
    items[i].txn = i + 1;
  }
  std::vector<double> ns;
  bool in_order = true;
  for (int rep = 0; rep < 3; ++rep) {
    netlock::rt::SpscRing<RtRequest> ring(8192);
    std::int64_t consumer_done = 0;
    ScopedPin producer_pin(pin.client_cpu);
    std::thread consumer([&]() {
      if (pin.worker_cpu >= 0) SetAffinity({pin.worker_cpu});
      RtRequest buf[64];
      std::size_t seen = 0;
      while (seen < kItems) {
        const std::size_t k = ring.PopBatch(buf, 64);
        for (std::size_t j = 0; j < k; ++j) {
          in_order &= buf[j].txn == items[(seen + j) % items.size()].txn;
        }
        seen += k;
      }
      consumer_done = NowNs();
    });
    const std::int64_t start = NowNs();
    std::size_t sent = 0;
    while (sent < kItems) {
      const std::size_t offset = sent % items.size();
      const std::size_t want =
          std::min({kBatch, kItems - sent, items.size() - offset});
      sent += ring.PushBatch(items.data() + offset, want);
    }
    consumer.join();
    ns.push_back(static_cast<double>(consumer_done - start) /
                 static_cast<double>(kItems));
  }
  ctx.checks.Expect(in_order, "ring rung: items arrived out of order");
  ctx.metrics.Fill("rt.ring_ns_per_item", Median(ns), "ns");
}

}  // namespace perfbench
