// live_suite: the paper's Fig. 4 job, measured warm.
//
// All 14 replicas at scale large on a 4-thread ThreadTeam. Every pass runs
// each replica twice — its native twin (NullSink build) and an instrumented
// run against a fresh, default-configured Profiler, the configuration
// `commscope run` uses with no flags — alternating which goes first. A
// warm-up pass runs before the clock starts, so both twins are measured
// warm. Profiler construction is timed as set-up, not as instrumented time;
// finalize() is part of the instrumented run because a user waits for it.
#include <cstdio>
#include <memory>
#include <sstream>

#include "core/matrix_io.hpp"
#include "core/profiler.hpp"
#include "core/report.hpp"
#include "spans.hpp"
#include "threading/thread_pool.hpp"
#include "timed_sink.hpp"
#include "workloads.hpp"
#include "workloads/workload.hpp"

namespace perfbench {
namespace {

namespace cc = commscope::core;
namespace ct = commscope::threading;
namespace cw = commscope::workloads;

constexpr std::uint32_t kSampleEvery = 61;  // prime, see TimedSink
constexpr std::size_t kLaneCap = 1u << 16;
/// Native runs per replica per pass. The native twin is ~5% of a pass, and
/// its time depends on where the heap places small per-thread arrays (false
/// sharing), so it is sampled more often than the instrumented run.
constexpr int kNativeRuns = 5;

// Keeps each spacer block observable so its allocation is not elided.
void* volatile g_spacer = nullptr;

struct Replica {
  const cw::Workload* w = nullptr;
  std::uint64_t accesses = 0;  ///< profiled accesses seen in the warm-up
  std::vector<double> native_s;
  std::vector<double> instr_s;
  std::vector<double> output_s;
};

/// Layer accumulators of the traced passes.
struct LayerTally {
  double access_ns = 0.0;  ///< sampled, clock-corrected, summed
  std::uint64_t access_samples = 0;
  double loop_ns = 0.0;
  std::uint64_t loop_calls = 0;
  std::uint64_t accesses = 0;
  double busy_ns = 0.0;
  double worker_ns = 0.0;  ///< threads x instrumented wall
  double skew_weighted = 0.0;
  double skew_weight = 0.0;
  std::vector<double> finalize_ms;
  double probe_hash_ns = 0.0;
  double probe_drain_ns = 0.0;
  std::uint64_t probe_events = 0;
  std::uint64_t probe_deps = 0;
  std::uint64_t sig_bytes = 0;
};

void tally_traced(const TimedSink& ts, double instr_s, double clock_ns,
                  std::int64_t instr_span, std::uint64_t instr_start,
                  std::uint64_t group, bool probe, LayerTally& t) {
  double access_est = 0.0;
  double loop_est = 0.0;
  std::uint64_t max_acc = 0;
  std::uint64_t sum_acc = 0;
  std::vector<Lanes> lanes;
  for (int tid = 0; tid < ts.threads(); ++tid) {
    const TimedSink::PerThread& p = ts.thread(tid);
    const double mean = TimedSink::access_mean_ns(p, clock_ns);
    t.access_ns += mean * static_cast<double>(p.sampled);
    t.access_samples += p.sampled;
    const double loops = TimedSink::corrected(p.loop_ns, p.loops, clock_ns);
    t.loop_ns += loops;
    t.loop_calls += p.loops;
    t.accesses += p.accesses;
    access_est += ts.access_ns_estimate(tid, clock_ns);
    loop_est += loops;
    max_acc = std::max(max_acc, p.accesses);
    sum_acc += p.accesses;
    if (probe) lanes.push_back(p.lanes);
  }
  const double threads = static_cast<double>(ts.threads());
  t.busy_ns += access_est + loop_est;
  t.worker_ns += threads * instr_s * 1e9;
  if (sum_acc > 0) {
    const double mean = static_cast<double>(sum_acc) / threads;
    t.skew_weighted += instr_s * static_cast<double>(max_acc) / mean;
    t.skew_weight += instr_s;
  }
  t.finalize_ms.push_back(static_cast<double>(ts.finalize_ns()) * 1e-6);
  // The instrumented span's wall is shared by the workers; its profiler
  // share is the mean per-worker busy time, recorded as sampled children.
  const auto access_wall = static_cast<std::uint64_t>(access_est / threads);
  const auto loop_wall = static_cast<std::uint64_t>(loop_est / threads);
  spans::add_sampled("core.profiler.on_access", instr_span, instr_start,
                     access_wall, group);
  spans::add_sampled("core.profiler.on_loop", instr_span,
                     instr_start + access_wall, loop_wall, group);
  if (probe) {
    spans::Span span("probe.lanes", group);
    const cc::ProfilerOptions defaults;
    const LaneProbe lp =
        probe_lanes(lanes, defaults.signature_slots, ts.threads(),
                    defaults.fp_rate, 64);
    t.probe_hash_ns += lp.hash_ns * static_cast<double>(lp.events);
    t.probe_drain_ns += lp.drain_ns * static_cast<double>(lp.events);
    t.probe_events += lp.events;
    t.probe_deps += lp.deps;
    t.sig_bytes = std::max(t.sig_bytes, lp.sig_bytes);
  }
}

}  // namespace

Outcome run_live_suite(const RunConfig& cfg) {
  Outcome out;
  const double clock_ns = cfg.trace ? clock_pair_ns() : 0.0;

  std::vector<Replica> replicas;
  for (const cw::Workload& w : cw::registry()) {
    Replica r;
    r.w = &w;
    replicas.push_back(std::move(r));
  }
  seeded_shuffle(replicas, cfg.seed);

  cc::ProfilerOptions popts;
  popts.max_threads = kThreads;
  cc::ReportOptions ropts;
  ropts.hide_quiet_regions = true;

  std::unique_ptr<ct::ThreadTeam> team;
  {
    const spans::Span span("threading.team_spawn");
    team = std::make_unique<ct::ThreadTeam>(kThreads);
  }

  // Warm-up: both twins once; fixes each replica's profiled access count.
  {
    const spans::Span span("live.warmup", 0, spans::kContainer);
    for (Replica& r : replicas) {
      {
        const spans::Span native("workloads.native");
        out.check(r.w->run(cw::Scale::kLarge, *team, nullptr).ok,
                  r.w->name + ": native twin failed self-verification");
      }
      std::unique_ptr<cc::Profiler> prof;
      {
        const spans::Span construct("core.profiler.construct");
        prof = std::make_unique<cc::Profiler>(popts);
      }
      cw::Result res;
      {
        const spans::Span instrumented("workloads.instrumented");
        res = r.w->run(cw::Scale::kLarge, *team, prof.get());
        prof->finalize();
      }
      out.check(res.ok, r.w->name + ": instrumented run failed verification");
      r.accesses = prof->stats().accesses;
      out.check(r.accesses > 0, r.w->name + ": no profiled accesses");
      const spans::Span destroy("core.profiler.destroy");
      prof.reset();
    }
  }

  std::vector<double> p_setup;
  std::vector<double> traced_instr, plain_instr, construct_ms, render_ms;
  double profiler_bytes = 0.0;
  LayerTally layers;
  bool probed = false;

  commscope::support::SplitMix64 placement(cfg.seed);
  const Clock::time_point t_start = Clock::now();
  for (std::uint64_t pass = 0;
       pass < 4 || seconds_since(t_start) < cfg.seconds; ++pass) {
    const spans::Span pass_span("live.pass", pass, spans::kContainer);
    const bool traced = cfg.trace && pass % 2 == 0;
    double setup = 0.0;
    {
      const spans::Span span("threading.team_teardown", pass);
      team.reset();
    }
    {
      const spans::Span span("threading.team_spawn", pass);
      setup += time_s([&] { team = std::make_unique<ct::ThreadTeam>(kThreads); });
    }
    double sum_instr = 0.0;
    // A fresh seeded order every pass: the heap history each replica starts
    // from (and with it the placement of its per-thread arrays, which decides
    // whether some of them falsely share cache lines) changes from pass to
    // pass, so the per-replica statistics sample many placements instead of
    // inheriting whichever one this process happened to get.
    std::vector<std::size_t> order(replicas.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    seeded_shuffle(order, cfg.seed ^ ((pass + 1) * 0x9e3779b97f4a7c15ull));
    for (std::size_t i = 0; i < replicas.size(); ++i) {
      Replica& r = replicas[order[i]];
      const auto native = [&] {
        for (int k = 0; k < kNativeRuns; ++k) {
          // A seeded spacer allocation shifts where the run's small
          // per-thread arrays land, so each native run samples another
          // placement (see the order comment above).
          std::vector<char> spacer(1 + placement.next() % 2048);
          g_spacer = spacer.data();
          const spans::Span span("workloads.native", pass);
          cw::Result res;
          const double s = time_s(
              [&] { res = r.w->run(cw::Scale::kLarge, *team, nullptr); });
          out.check(res.ok,
                    r.w->name + ": native twin failed self-verification");
          r.native_s.push_back(s);
        }
      };
      const auto instrumented = [&] {
        std::unique_ptr<cc::Profiler> prof;
        {
          const spans::Span span("core.profiler.construct", pass);
          const double s =
              time_s([&] { prof = std::make_unique<cc::Profiler>(popts); });
          setup += s;
          construct_ms.push_back(s * 1e3);
        }
        std::unique_ptr<TimedSink> timed;
        if (traced) {
          // Lanes feed probe_lanes, which only the first traced pass runs.
          timed = std::make_unique<TimedSink>(*prof, *prof, kThreads,
                                              kSampleEvery,
                                              probed ? 0 : kLaneCap);
        }
        commscope::instrument::AccessSink* sink =
            traced ? static_cast<commscope::instrument::AccessSink*>(timed.get())
                   : prof.get();
        cw::Result res;
        double s = 0.0;
        std::int64_t span_id = -1;
        std::uint64_t span_start = 0;
        {
          const spans::Span span("workloads.instrumented", pass);
          span_id = span.id();
          span_start = span.start_ns();
          s = time_s([&] {
            res = r.w->run(cw::Scale::kLarge, *team, sink);
            if (traced) {
              sink->finalize();
            } else {
              const spans::Span fin("core.profiler.finalize", pass);
              sink->finalize();
            }
          });
        }
        out.check(res.ok, r.w->name + ": instrumented run failed verification");
        const cc::ProfileStats st = prof->stats();
        out.check(st.accesses == r.accesses,
                  r.w->name + ": profiled accesses differ across passes (" +
                      std::to_string(st.accesses) + " vs " +
                      std::to_string(r.accesses) + ")");
        out.check(prof->dropped_events() == 0,
                  r.w->name + ": profiler dropped events");
        r.instr_s.push_back(s);
        sum_instr += s;
        profiler_bytes = std::max(
            profiler_bytes, static_cast<double>(prof->memory_bytes()));
        {
          const spans::Span span("core.report.render", pass);
          const double o = time_s([&] {
            std::ostringstream report;
            cc::print_report(report, *prof, ropts);
            cc::write_matrix(report,
                             prof->communication_matrix().trimmed(kThreads));
          });
          r.output_s.push_back(o);
          render_ms.push_back(o * 1e3);
        }
        if (traced) {
          tally_traced(*timed, s, clock_ns, span_id, span_start, pass,
                       !probed, layers);
        }
        const spans::Span span("core.profiler.destroy", pass);
        timed.reset();
        prof.reset();
      };
      if ((pass + i) % 2 == 0) {
        native();
        instrumented();
      } else {
        instrumented();
        native();
      }
    }
    probed = probed || traced;
    p_setup.push_back(setup);
    (traced ? traced_instr : plain_instr).push_back(sum_instr);
  }

  // Per replica, the lower quartile of its samples: transient host
  // interference stays out of it, while the native samples still span many
  // heap placements. The suite figures sum over the 14 replicas (slowdown =
  // sum instrumented / sum native).
  double sum_native = 0.0, sum_instr_q = 0.0, sum_output = 0.0;
  double sum_acc = 0.0;
  for (const Replica& r : replicas) {
    sum_native += quantile(r.native_s, 0.25);
    sum_instr_q += quantile(r.instr_s, 0.25);
    sum_output += quantile(r.output_s, 0.25);
    sum_acc += static_cast<double>(r.accesses);
  }
  std::printf("live_suite: %zu passes x 14 replicas, scale large, %d threads "
              "(times: lower quartile of each replica's runs)\n",
              p_setup.size(), kThreads);
  std::printf("  %-11s %11s %11s %9s %12s %9s\n", "replica", "native_ms",
              "instr_ms", "slowdown", "accesses", "ns/access");
  for (const Replica& r : replicas) {
    const double n = quantile(r.native_s, 0.25);
    const double i = quantile(r.instr_s, 0.25);
    std::printf("  %-11s %11.3f %11.3f %9.2f %12llu %9.2f\n",
                r.w->name.c_str(), n * 1e3, i * 1e3, n > 0.0 ? i / n : 0.0,
                static_cast<unsigned long long>(r.accesses),
                i * 1e9 / static_cast<double>(r.accesses));
  }

  if (!cfg.trace) {
    out.put("setup_s", median(p_setup), "s");
    out.put("slowdown", sum_instr_q / sum_native, "x");
    out.put("profiler_mb", profiler_bytes / 1048576.0, "MB");
    out.put("peak_rss_mb", peak_rss_mb(), "MB");
    out.note("events_per_s", sum_acc / sum_instr_q, "1/s");
    out.note("ns_per_access", sum_instr_q * 1e9 / sum_acc, "ns");
    out.note("output_s", sum_output, "s");
    out.note("passes", static_cast<double>(p_setup.size()), "count");
    return out;
  }

  out.put("core.profiler.access_ns",
          ratio(layers.access_ns, static_cast<double>(layers.access_samples)),
          "ns");
  out.put("core.profiler.loop_ns",
          ratio(layers.loop_ns, static_cast<double>(layers.loop_calls)), "ns");
  out.put("core.profiler.accesses_per_loop",
          ratio(static_cast<double>(layers.accesses),
                static_cast<double>(layers.loop_calls) / 2.0),
          "count");
  out.put("core.profiler.busy_share", ratio(layers.busy_ns, layers.worker_ns),
          "ratio");
  out.put("core.profiler.construct_ms", median(construct_ms), "ms");
  out.put("core.profiler.finalize_ms", median(layers.finalize_ms), "ms");
  out.put("core.raw.drain_ns",
          ratio(layers.probe_drain_ns, static_cast<double>(layers.probe_events)),
          "ns");
  out.put("core.raw.deps_per_kaccess",
          ratio(1e3 * static_cast<double>(layers.probe_deps),
                static_cast<double>(layers.probe_events)),
          "count");
  out.put("support.hash_ns",
          ratio(layers.probe_hash_ns, static_cast<double>(layers.probe_events)),
          "ns");
  out.put("sigmem.mb", static_cast<double>(layers.sig_bytes) / 1048576.0, "MB");
  out.put("threading.access_skew",
          ratio(layers.skew_weighted, layers.skew_weight), "x");
  out.put("core.report.render_ms", median(render_ms), "ms");
  out.put("trace.overhead", ratio(median(traced_instr), median(plain_instr)),
          "x");
  return out;
}

}  // namespace perfbench
