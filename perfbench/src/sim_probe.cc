// Sim probe: the simulated NetLock rack (Testbed + ProfileAndInstall).
//
// Every repetition builds a fresh Testbed on its own SimContext, so the
// registry counters belong to that repetition and the simulated results
// depend only on the inputs. The traced variant times two layers from the
// outside: the switch node's packet handler (swapped in with
// Network::SetHandler around LockSwitch::HandlePacket) and every client
// session call and grant callback (TestbedConfig::session_wrapper).
#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <unordered_map>

#include "harness/experiment.h"
#include "net/lock_wire.h"
#include "probes.h"

namespace perfbench {
namespace {

using netlock::AcquireCallback;
using netlock::AcquireResult;
using netlock::LockId;
using netlock::LockMode;
using netlock::LockSession;
using netlock::NodeId;
using netlock::Packet;
using netlock::Priority;
using netlock::TxnId;

/// Wall time a layer is busy: nested calls (a grant callback issuing the
/// next acquire) count as calls but only the outermost interval is busy.
struct LayerTimer {
  std::int64_t busy_ns = 0;
  std::uint64_t calls = 0;
  int depth = 0;
  std::int64_t outer_start = 0;

  std::int64_t Enter() {
    const std::int64_t now = NowNs();
    ++calls;
    if (depth++ == 0) outer_start = now;
    return now;
  }
  std::int64_t Exit() {
    const std::int64_t now = NowNs();
    if (--depth == 0) busy_ns += now - outer_start;
    return now;
  }
};

/// State shared by the wrappers of one traced repetition.
struct SimTracer {
  LayerTimer client;
  LayerTimer dataplane;
  /// Attribution check: extra busy-wait inside every switch handler call.
  std::int64_t handler_busy_ns = 0;
  SpanLog* spans = nullptr;
  /// Last span of each sampled request: the parent of its next span.
  std::unordered_map<std::uint64_t, std::uint64_t> last_span;

  static bool Sampled(std::uint64_t request) {
    return ((request >> 12) & 255) == 0;  // ~1 in 256 requests.
  }
  void Record(const char* name, LockId lock, TxnId txn, std::int64_t start,
              std::int64_t end) {
    if (spans == nullptr) return;
    const std::uint64_t request = RequestId(lock, txn);
    if (!Sampled(request)) return;
    std::uint64_t& last = last_span[request];
    last = spans->Add(name, request, last, start, end);
  }
};

class TimedSession final : public LockSession {
 public:
  TimedSession(std::unique_ptr<LockSession> inner, SimTracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  void Acquire(LockId lock, LockMode mode, TxnId txn, Priority priority,
               AcquireCallback cb) override {
    SimTracer& t = tracer_;
    const std::int64_t start = t.client.Enter();
    inner_->Acquire(lock, mode, txn, priority,
                    [&t, lock, txn, cb = std::move(cb)](AcquireResult r) {
                      const std::int64_t s = t.client.Enter();
                      cb(r);
                      const std::int64_t e = t.client.Exit();
                      t.Record("client.grant", lock, txn, s, e);
                    });
    const std::int64_t end = t.client.Exit();
    t.Record("client.acquire", lock, txn, start, end);
  }
  void Release(LockId lock, LockMode mode, TxnId txn) override {
    const std::int64_t start = tracer_.client.Enter();
    inner_->Release(lock, mode, txn);
    const std::int64_t end = tracer_.client.Exit();
    tracer_.Record("client.release", lock, txn, start, end);
  }
  void Cancel(LockId lock, LockMode mode, TxnId txn) override {
    tracer_.client.Enter();
    inner_->Cancel(lock, mode, txn);
    tracer_.client.Exit();
  }
  void set_wound_observer(std::function<void(LockId, TxnId)> obs) override {
    inner_->set_wound_observer(std::move(obs));
  }
  NodeId node() const override { return inner_->node(); }
  LockId ConflictUnit(LockId lock) const override {
    return inner_->ConflictUnit(lock);
  }

 private:
  std::unique_ptr<LockSession> inner_;
  SimTracer& tracer_;
};

struct Counters {
  std::uint64_t events = 0;
  std::uint64_t packets = 0;
  std::uint64_t passes = 0;
  std::uint64_t resubmits = 0;
  std::uint64_t register_accesses = 0;

  static Counters Read(netlock::MetricsRegistry& r) {
    return Counters{r.Counter("sim.events_processed").value(),
                    r.Counter("net.packets").value(),
                    r.Counter("switchsim.passes").value(),
                    r.Counter("switchsim.resubmits").value(),
                    r.Counter("switchsim.register_accesses").value()};
  }
  Counters operator-(const Counters& o) const {
    return Counters{events - o.events, packets - o.packets,
                    passes - o.passes, resubmits - o.resubmits,
                    register_accesses - o.register_accesses};
  }
};

/// One measured window of a repetition.
struct Window {
  double wall_s = 0;
  std::uint64_t grants = 0;
};

struct SimRep {
  double setup_s = 0;
  double build_s = 0;
  double profile_install_s = 0;
  double window_wall_s = 0;  ///< Sum over the windows.
  std::vector<Window> windows;
  netlock::RunMetrics m;  ///< Simulated-time metrics of all windows.
  Counters window;        ///< Registry deltas over the window.
  std::int64_t handler_ns = 0;
  std::uint64_t handler_calls = 0;
  std::int64_t client_ns = 0;
  std::uint64_t client_calls = 0;
};

/// One repetition, in phases so that two can run in lockstep. The
/// constructor builds the testbed, profiles + installs the knapsack
/// allocation and warms up; Measure() runs one fixed simulated window;
/// Finish() drains, checks and returns the results. `tracer` null =
/// untraced.
class SimRun {
 public:
  SimRun(const SimSpec& spec, RunContext& ctx, SimTracer* tracer,
         std::int64_t setup_start)
      : spec_(spec), ctx_(ctx), tracer_(tracer), config_(spec.config) {
    config_.context = &context_;
    config_.seed = ctx.seed;
    if (tracer != nullptr) {
      config_.session_wrapper = [tracer](std::unique_ptr<LockSession> inner) {
        return std::make_unique<TimedSession>(std::move(inner), *tracer);
      };
    }
    testbed_ = std::make_unique<netlock::Testbed>(config_);
    const std::int64_t built = NowNs();
    if (tracer != nullptr) {
      netlock::LockSwitch& sw = testbed_->netlock().lock_switch();
      testbed_->net().SetHandler(sw.node(), [&sw, tracer](const Packet& pkt) {
        const std::int64_t start = tracer->dataplane.Enter();
        sw.HandlePacket(pkt);
        if (tracer->handler_busy_ns > 0) SpinFor(tracer->handler_busy_ns);
        const std::int64_t end = tracer->dataplane.Exit();
        if (tracer->spans != nullptr) {
          if (const auto hdr = netlock::LockHeader::Parse(pkt)) {
            tracer->Record("dataplane.packet", hdr->lock_id, hdr->txn_id,
                           start, end);
          }
        }
      });
    }
    netlock::ProfileAndInstall(*testbed_, config_.switch_config.queue_capacity,
                               /*random_strawman=*/false, spec.profile);
    const std::int64_t installed = NowNs();
    rep_.build_s = Seconds(built - setup_start);
    rep_.profile_install_s = Seconds(installed - built);
    rep_.setup_s = Seconds(installed - setup_start);

    testbed_->StartEngines();
    netlock::Simulator& sim = testbed_->sim();
    sim.RunUntil(sim.now() + 5 * netlock::kMillisecond);  // Warm-up.
    testbed_->SetRecording(true);
    before_ = Counters::Read(context_.metrics());
    if (tracer != nullptr) {
      tracer->client = LayerTimer{};
      tracer->dataplane = LayerTimer{};
    }
  }
  SimRun(const SimRun&) = delete;
  SimRun& operator=(const SimRun&) = delete;

  void Measure() {
    const std::uint64_t g0 = grants_.value();
    const std::int64_t w0 = NowNs();
    netlock::Simulator& sim = testbed_->sim();
    sim.RunUntil(sim.now() + spec_.measure);
    const Window w{Seconds(NowNs() - w0), grants_.value() - g0};
    rep_.windows.push_back(w);
    rep_.window_wall_s += w.wall_s;
  }

  SimRep Finish() {
    netlock::Testbed& testbed = *testbed_;
    testbed.SetRecording(false);
    rep_.window = Counters::Read(context_.metrics()) - before_;
    rep_.m = testbed.Collect(spec_.measure *
                             static_cast<netlock::SimTime>(rep_.windows.size()));
    if (tracer_ != nullptr) {
      rep_.handler_ns = tracer_->dataplane.busy_ns;
      rep_.handler_calls = tracer_->dataplane.calls;
      rep_.client_ns = tracer_->client.busy_ns;
      rep_.client_calls = tracer_->client.calls;
    }

    // Drain: engines finish their transactions, then in-flight releases
    // land. Afterwards no queue may hold an entry and every grant the
    // switch and servers issued must have reached a client.
    testbed.StopEngines(netlock::kSecond);
    testbed.sim().RunUntil(testbed.sim().now() + 2 * netlock::kMillisecond);
    netlock::NetLockManager& rack = testbed.netlock();
    netlock::LockSwitch& sw = rack.lock_switch();
    std::uint64_t residual = 0;
    const LockId space = config_.lock_space != 0
                             ? config_.lock_space
                             : config_.workload_factory(0)->lock_space();
    for (LockId lock = 0; lock < space; ++lock) {
      if (sw.IsInstalled(lock) && !sw.QueueEmpty(lock)) ++residual;
      for (int s = 0; s < rack.num_servers(); ++s) {
        residual += rack.server(s).QueueDepth(lock);
      }
    }
    const std::uint64_t client_grants = grants_.value();
    const std::uint64_t service_grants =
        testbed.sharded().SwitchGrants() + testbed.sharded().ServerGrants();
    ctx_.checks.Expect(residual == 0,
                       "sim: " + std::to_string(residual) +
                           " queue entries left after the drain");
    ctx_.checks.Expect(client_grants == service_grants,
                       "sim: clients saw " + std::to_string(client_grants) +
                           " grants, switch+servers issued " +
                           std::to_string(service_grants));
    ctx_.checks.Expect(rep_.m.lock_grants > 0, "sim: no grants in the window");
    // Closed loop: the drain above proves every request was granted, so
    // the window's requests are all attempts and none failed.
    ctx_.attempted += rep_.m.lock_requests;
    return rep_;
  }

 private:
  const SimSpec& spec_;
  RunContext& ctx_;
  SimTracer* tracer_;
  netlock::SimContext context_;  // Outlives the testbed that reports into it.
  netlock::TestbedConfig config_;
  std::unique_ptr<netlock::Testbed> testbed_;
  netlock::MetricCounter& grants_ =
      context_.metrics().Counter("client.lock_grants");
  Counters before_;
  SimRep rep_;
};

/// One repetition with `spec.windows` windows.
SimRep RunRep(const SimSpec& spec, RunContext& ctx, SimTracer* tracer,
              std::int64_t setup_start) {
  SimRun run(spec, ctx, tracer, setup_start);
  for (int k = 0; k < spec.windows; ++k) run.Measure();
  return run.Finish();
}

}  // namespace

void SimEndToEnd(const SimSpec& spec, RunContext& ctx, double budget_s,
                 int min_reps, bool primary) {
  const std::int64_t begin = NowNs();
  std::vector<double> setup, rate;
  double first[4] = {};  // Model results of the first repetition.
  for (int i = 0;; ++i) {
    if (i >= min_reps && Seconds(NowNs() - begin) >= budget_s) break;
    // The first set-up starts at process start; later ones at their own.
    const std::int64_t start = i == 0 && primary ? ctx.process_start_ns
                                                 : NowNs();
    const SimRep rep = RunRep(spec, ctx, nullptr, start);
    setup.push_back(rep.setup_s);
    for (const Window& w : rep.windows) {
      rate.push_back(static_cast<double>(w.grants) / w.wall_s);
    }
    const double model[] = {rep.m.LockThroughputMrps(),
                            Us(rep.m.lock_latency.Mean()),
                            Us(rep.m.lock_latency.Median()),
                            Us(rep.m.lock_latency.P99())};
    if (i == 0) {
      std::copy(std::begin(model), std::end(model), first);
      if (primary) ctx.metrics.Put("peak_rss_mb", PeakRssMb(), "MB");
    } else {
      ctx.checks.Expect(std::equal(std::begin(model), std::end(model), first),
                        "sim: model results differ between repetitions of "
                        "one seed");
    }
  }
  if (primary) ctx.metrics.Put("setup_s", Median(setup), "s");
  // The simulator's own speed: too host-dependent to bound (see
  // README.md), so it is on the info line and a per-layer metric.
  ctx.diagnostics["sim_grants_per_wall_s"] = Median(rate);
  ctx.metrics.Put("model_mrps", first[0], "MRPS");
  ctx.metrics.Put("model_lock_mean_us", first[1], "us");
  ctx.diagnostics["model_lock_p50_us"] = first[2];
  ctx.diagnostics["model_lock_p99_us"] = first[3];
}

void SimLayers(const SimSpec& spec, RunContext& ctx, bool primary) {
  SimTracer tracer;
  tracer.spans = &ctx.spans;
  const SimRep traced = RunRep(spec, ctx, &tracer, NowNs());
  const double grants = static_cast<double>(traced.m.lock_grants);
  const double wall_ns = traced.window_wall_s * 1e9;
  const Counters& w = traced.window;
  MetricSet& out = ctx.metrics;
  out.Fill("sim.events_per_grant", static_cast<double>(w.events) / grants,
           "count");
  out.Fill("sim.ns_per_event", wall_ns / static_cast<double>(w.events), "ns");
  out.Fill("net.packets_per_grant", static_cast<double>(w.packets) / grants,
           "count");
  out.Fill("switchsim.passes_per_grant",
           static_cast<double>(w.passes) / grants, "count");
  out.Fill("switchsim.resubmits_per_grant",
           static_cast<double>(w.resubmits) / grants, "count");
  out.Fill("switchsim.register_accesses_per_grant",
           static_cast<double>(w.register_accesses) / grants, "count");
  const double dp_share = static_cast<double>(traced.handler_ns) / wall_ns;
  const double client_share = static_cast<double>(traced.client_ns) / wall_ns;
  out.Fill("dataplane.ns_per_packet",
           static_cast<double>(traced.handler_ns) /
               static_cast<double>(traced.handler_calls),
           "ns");
  out.Fill("dataplane.busy_share", dp_share, "share");
  out.Fill("dataplane.switch_grant_share",
           static_cast<double>(traced.m.switch_grants) / grants, "share");
  out.Fill("client.ns_per_call",
           static_cast<double>(traced.client_ns) /
               static_cast<double>(traced.client_calls),
           "ns");
  out.Fill("client.busy_share", client_share, "share");
  out.Fill("client.retries_per_grant",
           static_cast<double>(traced.m.retries) / grants, "count");
  out.Fill("sim.residual_busy_share", 1.0 - dp_share - client_share, "share");
  out.Fill("harness.build_s", traced.build_s, "s");
  out.Fill("harness.profile_install_s", traced.profile_install_s, "s");
  // The same deterministic windows, untraced: the simulator's speed and
  // the tracing overhead.
  const SimRep untraced = RunRep(spec, ctx, nullptr, NowNs());
  out.Fill("sim.grants_per_wall_s",
           static_cast<double>(untraced.m.lock_grants) /
               untraced.window_wall_s,
           "1/s");
  if (primary) {
    out.Put("trace_overhead",
            traced.window_wall_s / untraced.window_wall_s - 1.0, "share");
  }

  // Attribution check: a fixed busy-wait inside the wrapped handler must
  // slow the wall time by exactly its rise in handler time, i.e. the layer
  // timings account for the end-to-end wall time. Two identical testbeds
  // (same seed, so the same packets) run window by window in alternating
  // order, one of them with the busy-wait, so host drift hits both alike.
  SimTracer plain_timer, busy_timer;
  busy_timer.handler_busy_ns = 2000;
  SimRun plain(spec, ctx, &plain_timer, NowNs());
  SimRun busy(spec, ctx, &busy_timer, NowNs());
  for (int k = 0; k < std::max(spec.windows, 2); ++k) {
    SimRun& first = k % 2 == 0 ? plain : busy;
    SimRun& second = k % 2 == 0 ? busy : plain;
    first.Measure();
    second.Measure();
  }
  const SimRep a = plain.Finish();
  const SimRep b = busy.Finish();
  const double predicted_s =
      static_cast<double>(b.handler_ns - a.handler_ns) / 1e9;
  const double observed_s = b.window_wall_s - a.window_wall_s;
  const double ratio = observed_s / predicted_s;
  out.Fill("attribution.predicted_s", predicted_s, "s");
  out.Fill("attribution.observed_s", observed_s, "s");
  out.Fill("attribution.ratio", ratio, "ratio");
  out.Fill("attribution.grants_per_s_drop",
           1.0 - a.window_wall_s / b.window_wall_s, "share");
  ctx.checks.Expect(a.handler_calls == b.handler_calls &&
                        a.m.lock_grants == b.m.lock_grants,
                    "sim: identical testbeds simulated different work");
  ctx.checks.Expect(std::fabs(ratio - 1.0) <= 0.25,
                    "sim: attribution check failed: observed " +
                        std::to_string(observed_s) + " s vs predicted " +
                        std::to_string(predicted_s) + " s");
}

}  // namespace perfbench
