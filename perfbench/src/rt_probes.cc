// Real-time probes: RtLockService on one worker core, driven either by an
// RtClientPool thread (closed loop, "pool") or by the benchmark's own
// open-loop generator calling Submit / PollCompletions ("direct").
//
// At most two threads are busy at once: the worker, pinned with the
// service's pin option (worker 0 -> CPU 0), and the client thread, which
// inherits the CPU the calling thread pins itself to before starting it.
#include <algorithm>
#include <functional>
#include <thread>

#include "common/random.h"
#include "rt/rt_client.h"
#include "rt/rt_lock_service.h"
#include "probes.h"
#include "testing/lock_oracle.h"
#include "testing/rt_replay.h"

namespace perfbench {
namespace {

using netlock::rt::RtClientPool;
using netlock::rt::RtCompletion;
using netlock::rt::RtLockService;
using netlock::rt::RtRequest;

constexpr int kPoolSessions = 32;  ///< Sessions of the one pool thread.
constexpr double kPoolWarmupS = 0.1;
/// Window of one repetition: short, so a run holds many and its medians
/// ride out the host's second-to-second speed changes.
constexpr double kWindowS = 0.5;
constexpr double kOpenWarmupS = 0.1;
/// Most acquires the open-loop generator keeps outstanding; arrivals
/// beyond it are refused and counted as failed. Equal to the completion
/// ring's capacity, so the worker can always flush every grant it owes and
/// a Submit spinning on a full mailbox always makes progress.
const std::size_t kMaxOutstanding = RtLockService::Options{}.ring_capacity;
/// Most arrivals the generator submits between two polls: after a stall it
/// catches up in bursts, draining grants in between, so its own lateness
/// does not fill the cap.
constexpr std::size_t kBurst = 64;

RtLockService::Options ServiceOptions(const Pinning& pin, bool record_events,
                                      netlock::SimContext& context) {
  RtLockService::Options o;
  o.cores = 1;
  o.num_clients = 1;
  o.pin_threads = pin.worker_cpu == 0;
  o.record_events = record_events;
  o.context = &context;
  return o;
}

double Percentile(std::vector<std::int64_t>& v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t rank = std::min(
      v.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return static_cast<double>(v[rank]);
}

/// Service-side counters over a window, shared by both probes.
struct ServiceWindow {
  RtLockService::Stats a, b;
  netlock::rt::RtExecutor::IdleStats ia, ib;
  double window_s = 0;

  void Begin(const RtLockService& s) {
    a = s.TotalStats();
    ia = s.executor().idle_stats(0);
  }
  void End(const RtLockService& s, double seconds) {
    b = s.TotalStats();
    ib = s.executor().idle_stats(0);
    window_s = seconds;
  }
  void Report(MetricSet& out) const {
    const auto d = [](std::uint64_t x, std::uint64_t y) {
      return static_cast<double>(y - x);
    };
    const double rounds = d(ia.work_rounds, ib.work_rounds) +
                          d(ia.spins, ib.spins) + d(ia.yields, ib.yields) +
                          d(ia.parks, ib.parks);
    // Ring items: acquires plus every kind of release.
    const double items = d(a.requests, b.requests) +
                         d(a.releases, b.releases) +
                         d(a.stale_releases, b.stale_releases) +
                         d(a.mismatched_releases, b.mismatched_releases);
    out.Fill("rt.requests_per_batch",
             items / std::max(1.0, d(a.batches, b.batches)), "count");
    out.Fill("rt.grants_per_flush",
             d(a.staged_completions, b.staged_completions) /
                 std::max(1.0, d(a.flushes, b.flushes)),
             "count");
    out.Fill("rt.worker_busy_share",
             d(ia.work_rounds, ib.work_rounds) / std::max(1.0, rounds),
             "share");
    out.Fill("rt.parks_per_s", d(ia.parks, ib.parks) / window_s, "1/s");
  }
};

/// Every release the clients sent matched a holder.
void CheckReleases(const RtLockService::Stats& stats, const char* who,
                   RunContext& ctx) {
  ctx.checks.Expect(stats.stale_releases == 0 && stats.mismatched_releases == 0,
                    std::string(who) + ": releases that matched no holder");
}

/// Mutual exclusion + FIFO over the linearized event log.
void ReplayOracle(const std::vector<netlock::rt::RtEvent>& events,
                  std::uint64_t service_grants, const char* who,
                  RunContext& ctx) {
  netlock::testing::LockOracle oracle;
  const std::uint64_t violations =
      netlock::testing::ReplayRtEventsThroughOracle(events, oracle);
  ctx.checks.Expect(violations == 0,
                    std::string(who) + ": oracle replay found " +
                        std::to_string(violations) + " violations");
  ctx.checks.Expect(oracle.grants() == service_grants,
                    std::string(who) + ": event log grants differ from the "
                                       "service's count");
  ctx.checks.Expect(oracle.TotalHolders() == 0,
                    std::string(who) + ": locks still held after the drain");
}

// ------------------------------------------------------------------ pool --

struct PoolRep {
  double setup_s = 0;
  double window_s = 0;
  /// Peak RSS once warm, before the window: the latency samples the pool
  /// records in the window would tie it to the window's grant count.
  double warm_rss_mb = 0;
  netlock::RunMetrics m;
  ServiceWindow service;
  std::uint64_t service_grants = 0;
};

PoolRep RunPoolRep(const Factory& factory, RunContext& ctx, const Pinning& pin,
                   bool record_events, double window_s,
                   std::int64_t setup_start) {
  PoolRep rep;
  netlock::RtSubstrate substrate;
  netlock::SimContext context;
  std::vector<netlock::rt::RtEvent> events;
  {
    RtLockService service(ServiceOptions(pin, record_events, context),
                          substrate);
    netlock::rt::RtClientConfig cc;
    cc.sessions_per_client = kPoolSessions;
    cc.seed = ctx.seed;
    std::unique_ptr<RtClientPool> pool;
    {
      ScopedPin client_pin(pin.client_cpu);
      pool = std::make_unique<RtClientPool>(service, substrate, cc, factory);
      service.Start();
      rep.setup_s = Seconds(NowNs() - setup_start);
      pool->Start();
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double>(kPoolWarmupS));
    rep.warm_rss_mb = PeakRssMb();
    rep.service.Begin(service);
    pool->SetRecording(true);
    const std::int64_t t0 = NowNs();
    std::this_thread::sleep_for(std::chrono::duration<double>(window_s));
    pool->SetRecording(false);
    rep.window_s = Seconds(NowNs() - t0);
    rep.service.End(service, rep.window_s);
    pool->StopIssuing();
    pool->Join();
    service.Stop();
    rep.m = pool->Collect();
    const std::uint64_t client_grants = pool->TotalCommittedLockGrants();
    rep.service_grants = service.TotalStats().grants;
    CheckReleases(service.TotalStats(), "rt pool", ctx);
    const std::size_t residual = service.TotalQueueDepth();
    ctx.checks.Expect(residual == 0, "rt pool: " + std::to_string(residual) +
                                         " queue entries after the drain");
    ctx.checks.Expect(client_grants == rep.service_grants,
                      "rt pool: clients committed " +
                          std::to_string(client_grants) +
                          " grants, service issued " +
                          std::to_string(rep.service_grants));
    ctx.checks.Expect(rep.m.lock_grants > 0, "rt pool: no grants");
    if (record_events) events = service.DrainEvents();
  }
  if (record_events) ReplayOracle(events, rep.service_grants, "rt pool", ctx);
  // Closed loop: every window request was granted before the drain
  // finished (checked above), so none failed.
  ctx.attempted += rep.m.lock_requests;
  return rep;
}

// ---------------------------------------------------------------- direct --

struct DirectRep {
  double setup_s = 0;
  double window_s = 0;
  std::vector<std::int64_t> latency_ns;  ///< Due -> grant seen, window.
  std::vector<std::int64_t> late_ns;     ///< Due -> submitted, window.
  std::uint64_t granted = 0;             ///< Window requests granted.
  ServiceWindow service;
  // Traced only.
  std::int64_t submit_ns = 0;
  std::uint64_t submits = 0;
  std::int64_t poll_ns = 0;
  std::uint64_t polls = 0;
  std::uint64_t empty_polls = 0;
  std::vector<std::int64_t> residence_ns;
};

DirectRep RunDirectRep(const DirectSpec& spec, RunContext& ctx,
                       const Pinning& pin, bool traced, double window_s,
                       std::int64_t setup_start) {
  DirectRep rep;
  // Inputs: Poisson arrivals at spec.rate_per_s, requests from the stream.
  // Generating them is the benchmark's work, so it is not set-up time.
  const std::int64_t gen_start = NowNs();
  const double horizon_s = kOpenWarmupS + window_s;
  std::vector<std::int64_t> due;
  {
    netlock::Rng rng(ctx.seed * 0x9e3779b97f4a7c15ull + 7);
    const double mean_ns = 1e9 / spec.rate_per_s;
    double t = 0;
    for (;;) {
      t += rng.NextExponential(mean_ns);
      if (t >= horizon_s * 1e9) break;
      due.push_back(static_cast<std::int64_t>(t));
    }
  }
  const std::int64_t window_begin =
      static_cast<std::int64_t>(kOpenWarmupS * 1e9);
  const std::size_t n = due.size();
  std::vector<std::int64_t> submitted_at(traced ? n : 0);
  std::vector<std::uint64_t> span_of(traced ? n : 0);
  rep.latency_ns.reserve(n);
  rep.late_ns.reserve(n);
  const std::int64_t gen_ns = NowNs() - gen_start;

  netlock::RtSubstrate substrate;
  netlock::SimContext context;
  std::vector<netlock::rt::RtEvent> events;
  std::uint64_t service_grants = 0;
  std::uint64_t attempted = 0, failed = 0, total_granted = 0;
  {
    RtLockService service(ServiceOptions(pin, traced, context), substrate);
    ScopedPin client_pin(pin.client_cpu);
    service.Start();
    rep.setup_s = Seconds(NowNs() - setup_start - gen_ns);
    const std::int64_t base = NowNs();
    std::size_t next = 0, outstanding = 0;
    RtCompletion buf[64];
    bool window_open = false;
    std::int64_t window_t0 = 0;
    const std::int64_t give_up = base + static_cast<std::int64_t>(
                                            (horizon_s + 5.0) * 1e9);
    for (;;) {
      std::int64_t now = NowNs();
      if (!window_open && now - base >= window_begin) {
        window_open = true;
        window_t0 = now;
        rep.service.Begin(service);
      }
      for (std::size_t burst = 0;
           burst < kBurst && next < n && base + due[next] <= now; ++burst) {
        const std::size_t i = next++;
        const bool timed = due[i] >= window_begin;
        attempted += timed;
        if (outstanding >= kMaxOutstanding) {
          failed += timed;  // Refused: the generator is at its cap.
          continue;
        }
        const netlock::LockRequest& lr = spec.stream[i % spec.stream.size()];
        RtRequest req;
        req.op = RtRequest::Op::kAcquire;
        req.mode = lr.mode;
        req.lock = lr.lock;
        req.txn = i + 1;
        req.client = 0;
        if (timed) rep.late_ns.push_back(now - (base + due[i]));
        if (traced) {
          const std::int64_t s = NowNs();
          service.Submit(0, req);
          const std::int64_t e = NowNs();
          rep.submit_ns += e - s;
          ++rep.submits;
          submitted_at[i] = e;
          if (i % 64 == 0) {
            span_of[i] = ctx.spans.Add("rt.submit", RequestId(lr.lock, i + 1),
                                       0, s, e);
          }
        } else {
          service.Submit(0, req);
        }
        ++outstanding;
      }
      std::size_t k;
      if (traced) {
        const std::int64_t s = NowNs();
        k = service.PollCompletions(0, buf, 64);
        now = NowNs();
        rep.poll_ns += now - s;
        ++rep.polls;
        rep.empty_polls += k == 0;
      } else {
        k = service.PollCompletions(0, buf, 64);
        if (k > 0) now = NowNs();
      }
      for (std::size_t j = 0; j < k; ++j) {
        const RtCompletion& c = buf[j];
        const std::size_t i = c.txn - 1;
        ctx.checks.Expect(c.status == RtCompletion::Status::kGranted,
                          "rt direct: an acquire was aborted");
        if (due[i] >= window_begin) {
          rep.latency_ns.push_back(now - (base + due[i]));
          ++rep.granted;
        }
        if (traced) {
          rep.residence_ns.push_back(now - submitted_at[i]);
          if (span_of[i] != 0) {
            ctx.spans.Add("rt.residence", RequestId(c.lock, c.txn),
                          span_of[i], submitted_at[i], now);
          }
        }
        RtRequest rel;
        rel.op = RtRequest::Op::kRelease;
        rel.mode = c.mode;
        rel.lock = c.lock;
        rel.txn = c.txn;
        rel.client = 0;
        service.Submit(0, rel);
        --outstanding;
        ++total_granted;
      }
      if (next >= n && window_open && rep.window_s == 0) {
        rep.window_s = Seconds(now - window_t0);
        rep.service.End(service, rep.window_s);
      }
      if (next >= n && outstanding == 0) break;
      if (now > give_up) break;  // Stuck: what is left counts as failed.
    }
    failed += outstanding;
    service.Stop();
    service_grants = service.TotalStats().grants;
    CheckReleases(service.TotalStats(), "rt direct", ctx);
    const std::size_t residual = service.TotalQueueDepth();
    ctx.checks.Expect(outstanding == 0, "rt direct: " +
                                            std::to_string(outstanding) +
                                            " acquires never granted");
    ctx.checks.Expect(residual == 0, "rt direct: " + std::to_string(residual) +
                                         " queue entries after the drain");
    ctx.checks.Expect(total_granted == service_grants,
                      "rt direct: generator saw " +
                          std::to_string(total_granted) +
                          " grants, service issued " +
                          std::to_string(service_grants));
    if (traced) events = service.DrainEvents();
  }
  if (traced) ReplayOracle(events, service_grants, "rt direct", ctx);
  ctx.attempted += attempted;
  ctx.failed += failed;
  return rep;
}

/// What one end-to-end repetition measured.
struct RepResult {
  double setup_s = 0;
  double grants_per_s = 0;
  double p50_us = 0;
  double p99_us = 0;
  double rss_mb = 0;
};

/// Repeats `run(setup_start)` until `budget_s` has passed (at least three
/// times) and reports medians. The first repetition's set-up counts from
/// process start; its memory is the run's peak_rss_mb.
void RepeatEndToEnd(RunContext& ctx, double budget_s, bool primary,
                    const std::function<RepResult(std::int64_t)>& run) {
  const std::int64_t begin = NowNs();
  std::vector<double> setup, rate, p50, p99;
  for (int i = 0; i < 3 || Seconds(NowNs() - begin) < budget_s; ++i) {
    const RepResult r =
        run(i == 0 && primary ? ctx.process_start_ns : NowNs());
    setup.push_back(r.setup_s);
    rate.push_back(r.grants_per_s);
    p50.push_back(r.p50_us);
    p99.push_back(r.p99_us);
    if (i == 0 && primary) ctx.metrics.Put("peak_rss_mb", r.rss_mb, "MB");
  }
  if (primary) ctx.metrics.Put("setup_s", Median(setup), "s");
  ctx.metrics.Fill("grants_per_s", Median(rate), "1/s");
  ctx.metrics.Fill("lock_p50_us", Median(p50), "us");
  ctx.diagnostics["lock_p99_us"] = Median(p99);
}

}  // namespace

Pinning ChoosePinning(RunContext& ctx) {
  const std::vector<int> cpus = AllowedCpus();
  Pinning pin;
  // The service pins worker 0 to CPU 0; the client takes the next CPU.
  const bool has0 = std::find(cpus.begin(), cpus.end(), 0) != cpus.end();
  if (has0 && cpus.size() >= 2) {
    pin.worker_cpu = 0;
    pin.client_cpu = cpus[1];
  }
  ctx.pinning = "{\"worker_cpu\": " + std::to_string(pin.worker_cpu) +
                ", \"client_cpu\": " + std::to_string(pin.client_cpu) + "}";
  return pin;
}

void PoolEndToEnd(const Factory& factory, RunContext& ctx, double budget_s,
                  bool primary) {
  const Pinning pin = ChoosePinning(ctx);
  RepeatEndToEnd(ctx, budget_s, primary, [&](std::int64_t setup_start) {
    const PoolRep rep =
        RunPoolRep(factory, ctx, pin, false, kWindowS, setup_start);
    return RepResult{
        rep.setup_s, static_cast<double>(rep.m.lock_grants) / rep.window_s,
        Us(static_cast<double>(rep.m.lock_latency.Median())),
        Us(static_cast<double>(rep.m.lock_latency.P99())), rep.warm_rss_mb};
  });
}

void PoolLayers(const Factory& factory, RunContext& ctx, bool primary) {
  const Pinning pin = ChoosePinning(ctx);
  // Counters come from a full-length window; the oracle replay from a
  // short recorded one (the event log grows with every request).
  const PoolRep plain = RunPoolRep(factory, ctx, pin, false, 1.0, NowNs());
  plain.service.Report(ctx.metrics);
  ctx.metrics.Fill("rt.lock_p99_us",
                   Us(static_cast<double>(plain.m.lock_latency.P99())), "us");
  const PoolRep recorded = RunPoolRep(factory, ctx, pin, true, 0.3, NowNs());
  if (primary) {
    const double r0 =
        static_cast<double>(plain.m.lock_grants) / plain.window_s;
    const double r1 =
        static_cast<double>(recorded.m.lock_grants) / recorded.window_s;
    ctx.metrics.Put("trace_overhead", r0 / r1 - 1.0, "share");
  }
}

void DirectEndToEnd(const DirectSpec& spec, RunContext& ctx, double budget_s,
                    bool primary) {
  const Pinning pin = ChoosePinning(ctx);
  RepeatEndToEnd(ctx, budget_s, primary, [&](std::int64_t setup_start) {
    DirectRep rep = RunDirectRep(spec, ctx, pin, false, kWindowS, setup_start);
    return RepResult{rep.setup_s,
                     static_cast<double>(rep.granted) / rep.window_s,
                     Us(Percentile(rep.latency_ns, 0.50)),
                     Us(Percentile(rep.latency_ns, 0.99)), PeakRssMb()};
  });
}

void DirectLayers(const DirectSpec& spec, RunContext& ctx, bool primary) {
  const Pinning pin = ChoosePinning(ctx);
  DirectRep traced = RunDirectRep(spec, ctx, pin, true, 1.0, NowNs());
  MetricSet& out = ctx.metrics;
  out.Fill("rt.submit_ns",
           static_cast<double>(traced.submit_ns) /
               static_cast<double>(std::max<std::uint64_t>(1, traced.submits)),
           "ns");
  out.Fill("rt.poll_ns",
           static_cast<double>(traced.poll_ns) /
               static_cast<double>(std::max<std::uint64_t>(1, traced.polls)),
           "ns");
  out.Fill("rt.empty_poll_share",
           static_cast<double>(traced.empty_polls) /
               static_cast<double>(std::max<std::uint64_t>(1, traced.polls)),
           "share");
  out.Fill("rt.residence_p50_us", Us(Percentile(traced.residence_ns, 0.5)),
           "us");
  out.Fill("rt.generator_late_p99_us", Us(Percentile(traced.late_ns, 0.99)),
           "us");
  traced.service.Report(out);
  if (primary) {
    DirectRep plain = RunDirectRep(spec, ctx, pin, false, 1.0, NowNs());
    out.Put("rt.lock_p99_us", Us(Percentile(plain.latency_ns, 0.99)), "us");
    out.Put("trace_overhead",
            Percentile(traced.latency_ns, 0.5) /
                    Percentile(plain.latency_ns, 0.5) -
                1.0,
            "share");
  }
}

}  // namespace perfbench
