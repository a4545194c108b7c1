// replay_observed: offline replay of recorded traces through the full
// ingest stack, one thread, no contention.
//
// Once per run, simsmall traces of radix, ocean_ncp, fft, water_nsq and
// raytrace are recorded on 4 threads (record_small: the recorded per-thread
// streams in a fixed interleaving) and written with write_trace. Each
// repetition then, per trace (in seeded order): read_trace; construct a
// Profiler configured as `commscope replay --batch=64 --epoch-every=65536
// --phases=1048576 --slots=10000000 --checkpoint=... --checkpoint-every=
// 262144`; replay it through a GuardedSink; write the epoch file and render
// the HTML report. The same events are also replayed through an empty sink,
// so `slowdown` is the profiled replay over bare event delivery.
//
// The 10M-slot signature (~115 MB) is far larger than the 2 MiB L2 per core,
// so signature probes miss cache; radix and ocean_ncp communicate heavily
// while raytrace is nearly silent, so the dependency path and the probe path
// move separately.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <unordered_set>

#include "core/epoch_io.hpp"
#include "core/matrix_io.hpp"
#include "core/profiler.hpp"
#include "core/report.hpp"
#include "core/timeline_report.hpp"
#include "instrument/trace.hpp"
#include "resilience/guarded_sink.hpp"
#include "record.hpp"
#include "spans.hpp"
#include "telemetry/metrics.hpp"
#include "timed_sink.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace cc = commscope::core;
namespace ci = commscope::instrument;
namespace cr = commscope::resilience;
namespace ctl = commscope::telemetry;
namespace fs = std::filesystem;

constexpr const char* kReplicas[] = {"radix", "ocean_ncp", "fft", "water_nsq",
                                     "raytrace"};
constexpr std::size_t kSlots = 10'000'000;
constexpr std::uint32_t kBatch = 64;
constexpr std::uint64_t kEpochEvery = 65536;
constexpr std::uint64_t kPhaseBytes = 1u << 20;
constexpr std::uint64_t kCheckpointEvery = 1u << 18;
constexpr std::uint32_t kSampleEvery = 61;  // prime, see TimedSink
constexpr int kOutputRepeats = 5;

cc::ProfilerOptions replay_options() {
  cc::ProfilerOptions o;
  o.max_threads = kThreads;
  o.signature_slots = kSlots;
  o.batch_size = kBatch;
  o.epoch_accesses = kEpochEvery;
  o.phase_window_bytes = kPhaseBytes;
  return o;
}

/// Event delivery with no profiling: the replay's native twin. Out of line,
/// so whole-program optimisation cannot fold the replay loop away.
class BareSink final : public ci::AccessSink {
 public:
  [[gnu::noinline]] void on_thread_begin(int) override {}
  [[gnu::noinline]] void on_loop_enter(int, ci::LoopId) override {}
  [[gnu::noinline]] void on_loop_exit(int) override {}
  [[gnu::noinline]] void on_access(int, std::uintptr_t, std::uint32_t,
                                   ci::AccessKind) override {
    ++accesses;
  }
  std::uint64_t accesses = 0;
};

struct Trace {
  std::string name;
  fs::path file;
  std::uint64_t events = 0;
  std::uint64_t accesses = 0;
  std::uint64_t reference = 0;  ///< digest of the batch-0 replay's outputs
  cc::Matrix exact;             ///< exact-backend matrix
  std::vector<double> profiled_s;  ///< per repetition
  std::vector<double> bare_s;
  std::vector<double> output_s;
};

/// Everything a replay must reproduce bit for bit: the whole-program matrix,
/// the region tree, the phase timeline and the epoch file. Loop ids are
/// process-local (every read_trace re-declares the trace's loops in the
/// LoopRegistry), so epochs are compared with each loop id replaced by its
/// label; every other field of the file is compared as written.
std::uint64_t output_digest(const cc::Profiler& prof) {
  std::ostringstream os;
  cc::write_matrix(os, prof.communication_matrix());
  cc::write_csv(os, prof.regions());
  for (const cc::Matrix& m : prof.phase_timeline()) cc::write_matrix(os, m);
  const cc::EpochTimeline t = prof.epoch_timeline();
  os << t.threads << ' ' << t.sealed << ' ' << t.dropped << '\n';
  for (const cc::EpochSample& e : t.epochs) {
    os << e.index << ' ' << e.first_access << ' ' << e.last_access << ' '
       << e.dependencies << ' ' << e.bytes << ' ' << cc::to_string(e.reason);
    for (const cc::EpochCell& c : e.cells) {
      os << ' ' << c.producer << '>' << c.consumer << '=' << c.bytes;
    }
    std::vector<std::pair<std::string, std::uint64_t>> loops;
    for (const cc::EpochLoopShare& l : e.loops) {
      loops.emplace_back(t.label_of(l.loop), l.bytes);
    }
    std::sort(loops.begin(), loops.end());
    for (const auto& [label, bytes] : loops) os << ' ' << label << '=' << bytes;
    os << '\n';
  }
  return digest(os.str());
}

/// parent = direct + sum of children's aggregates, on every region.
bool tree_sums_hold(const cc::RegionNode& node) {
  cc::Matrix expect = node.direct();
  for (const cc::RegionNode* c : node.children()) {
    const cc::Matrix ca = c->aggregate();
    for (int p = 0; p < expect.size(); ++p) {
      for (int q = 0; q < expect.size(); ++q) expect.at(p, q) += ca.at(p, q);
    }
    if (!tree_sums_hold(*c)) return false;
  }
  return expect == node.aggregate();
}

std::vector<ci::TraceEvent> load(const fs::path& file) {
  std::ifstream in(file);
  if (!in) throw std::runtime_error("cannot read " + file.string());
  return ci::read_trace(in);
}

/// Replays `events` once through a fresh profiler built from `o`, guarded or
/// bare, and returns the replay wall time (construction excluded).
double timed_replay(const std::vector<ci::TraceEvent>& events,
                    const cc::ProfilerOptions& o, bool guarded,
                    const fs::path& checkpoint) {
  auto prof = std::make_unique<cc::Profiler>(o);
  if (!guarded) return time_s([&] { ci::replay(events, *prof); });
  cr::GuardedSink::Options g;
  g.checkpoint_every = kCheckpointEvery;
  g.checkpoint_path = checkpoint.string();
  cr::GuardedSink sink(*prof, nullptr, g);
  return time_s([&] { ci::replay(events, sink); });
}

std::uint64_t counter_value(const char* name) {
  for (const ctl::MetricSnapshot& m : ctl::snapshot_all()) {
    if (m.name == name) return m.value;
  }
  return 0;
}

}  // namespace

Outcome run_replay_observed(const RunConfig& cfg) {
  Outcome out;
  const fs::path dir = cfg.work_dir / "replay";
  fs::create_directories(dir);
  const cc::ProfilerOptions popts = replay_options();
  const double clock_ns = cfg.trace ? clock_pair_ns() : 0.0;

  std::vector<Trace> traces;
  {
    const spans::Span span("replay.record");
    for (const char* name : kReplicas) {
      Trace t;
      t.name = name;
      t.file = dir / (t.name + ".trace");
      std::ofstream os(t.file);
      ci::write_trace(os, record_small(t.name, out));
      if (!os) throw std::runtime_error("cannot write " + t.file.string());
      traces.push_back(std::move(t));
    }
  }
  seeded_shuffle(traces, cfg.seed);

  // References, once per run: a batch-0 replay of the same pipeline (every
  // repetition must reproduce it bit for bit) and an exact-backend replay
  // (the ground truth matrix_error is measured against).
  double l1 = 0.0;
  double exact_total = 0.0;
  double false_cells = 0.0;
  std::vector<double> access_skew;
  std::vector<double> skew_weight;
  {
    const spans::Span span("replay.reference");
    for (Trace& t : traces) {
      const std::vector<ci::TraceEvent> events = load(t.file);
      t.events = events.size();
      std::vector<std::uint64_t> per_tid(kThreads, 0);
      std::unordered_set<std::uint64_t> words;
      for (const ci::TraceEvent& e : events) {
        if (e.kind != ci::TraceEvent::Kind::kAccess) continue;
        ++t.accesses;
        if (e.tid < kThreads) ++per_tid[e.tid];
        words.insert(e.payload);
      }
      std::uint64_t max_tid = 0;
      for (const std::uint64_t n : per_tid) max_tid = std::max(max_tid, n);
      access_skew.push_back(static_cast<double>(max_tid) * kThreads /
                            static_cast<double>(t.accesses));
      skew_weight.push_back(static_cast<double>(t.accesses));

      cc::ProfilerOptions ref = popts;
      ref.batch_size = 0;
      auto prof = std::make_unique<cc::Profiler>(ref);
      {
        cr::GuardedSink::Options g;
        g.checkpoint_every = kCheckpointEvery;
        g.checkpoint_path = (dir / ("ref-" + t.name + ".ck")).string();
        cr::GuardedSink sink(*prof, nullptr, g);
        ci::replay(events, sink);
      }
      t.reference = output_digest(*prof);
      const cc::Matrix sig = prof->communication_matrix();
      const std::uint64_t reads = prof->stats().reads;
      prof.reset();

      cc::ProfilerOptions ex;
      ex.max_threads = kThreads;
      ex.backend = cc::Backend::kExact;
      cc::Profiler exact(ex);
      ci::replay(events, exact);
      t.exact = exact.communication_matrix();

      double trace_l1 = 0.0;
      for (int p = 0; p < kThreads; ++p) {
        for (int q = 0; q < kThreads; ++q) {
          const double s = static_cast<double>(sig.at(p, q));
          const double e = static_cast<double>(t.exact.at(p, q));
          trace_l1 += std::fabs(s - e);
          if (s > 0.0 && e == 0.0) ++false_cells;
        }
      }
      // Eq. 2 envelope (as in the differential FPR test): bloom false
      // positives suppress at most fp_rate of the reads, slot aliasing
      // perturbs about W^2 / 2n word pairs; 5x both, 8 bytes per edge.
      const double w = static_cast<double>(words.size());
      const double bound =
          8.0 * 5.0 *
          (popts.fp_rate * static_cast<double>(reads) +
           w * w / (2.0 * static_cast<double>(kSlots)));
      out.check(trace_l1 <= bound,
                t.name + ": signature matrix outside the Eq. 2 bound (L1 " +
                    std::to_string(trace_l1) + " > " + std::to_string(bound) +
                    ")");
      l1 += trace_l1;
      exact_total += static_cast<double>(t.exact.total());
    }
  }
  const double matrix_error = exact_total > 0.0 ? l1 / exact_total : 0.0;

  std::vector<double> r_setup, r_read;
  std::vector<double> traced_replay, plain_replay;
  std::vector<double> construct_ms, finalize_ms, write_ms, render_ms, parse_us;
  double epoch_mb = 0.0;
  double checkpoint_mb = 0.0;
  std::uint64_t checkpoints = 0;
  std::uint64_t epochs = 0;
  std::uint64_t epoch_cells = 0;
  double profiler_bytes = 0.0;
  double access_ns = 0.0, loop_ns = 0.0, drain_ns = 0.0, busy_ns = 0.0;
  std::uint64_t samples = 0, loops = 0, drained = 0, accesses = 0;
  double replay_ns = 0.0;
  std::uint64_t batch_flushes = 0, batch_events = 0;

  const Clock::time_point t_start = Clock::now();
  for (std::uint64_t rep = 0;
       rep < 4 || seconds_since(t_start) < cfg.seconds; ++rep) {
    const spans::Span rep_span("replay.repetition", rep, spans::kContainer);
    const bool traced = cfg.trace && rep % 2 == 0;
    double setup = 0.0, replay = 0.0, read = 0.0;
    std::uint64_t ck_written = 0;
    double ck_bytes = 0.0;
    double ep_bytes = 0.0;
    for (std::size_t i = 0; i < traces.size(); ++i) {
      Trace& t = traces[i];
      std::vector<ci::TraceEvent> ev;
      {
        const spans::Span span("instrument.read_trace", rep);
        const double s = time_s([&] { ev = load(t.file); });
        setup += s;
        read += s;
      }
      out.check(ev.size() == t.events, t.name + ": read_trace lost events");
      std::unique_ptr<cc::Profiler> prof;
      {
        const spans::Span span("core.profiler.construct", rep);
        const double s =
            time_s([&] { prof = std::make_unique<cc::Profiler>(popts); });
        setup += s;
        construct_ms.push_back(s * 1e3);
      }
      const fs::path ck = dir / (t.name + ".ck");
      const auto run_bare = [&] {
        const spans::Span span("instrument.replay_bare", rep);
        BareSink b;
        t.bare_s.push_back(time_s([&] { ci::replay(ev, b); }));
      };
      const auto run_profiled = [&] {
        cr::GuardedSink::Options g;
        g.checkpoint_every = kCheckpointEvery;
        g.checkpoint_path = ck.string();
        cr::GuardedSink guard(*prof, nullptr, g);
        std::unique_ptr<TimedSink> timed;
        if (traced) {
          timed = std::make_unique<TimedSink>(guard, *prof, kThreads,
                                              kSampleEvery, 0);
        }
        ci::AccessSink& sink =
            traced ? static_cast<ci::AccessSink&>(*timed) : guard;
        const std::uint64_t flushes0 =
            traced ? counter_value("sink.batch.flushes") : 0;
        const std::uint64_t events0 =
            traced ? counter_value("sink.batch.events") : 0;
        double s = 0.0;
        {
          const spans::Span span("instrument.replay_guarded", rep);
          s = time_s([&] { ci::replay(ev, sink); });
          if (traced) {
            double est = 0.0;
            for (int tid = 0; tid < kThreads; ++tid) {
              const TimedSink::PerThread& p = timed->thread(tid);
              const double mean = TimedSink::access_mean_ns(p, clock_ns);
              const double lp =
                  TimedSink::corrected(p.loop_ns, p.loops, clock_ns);
              const double dr =
                  TimedSink::corrected(p.drain_ns, p.drains, clock_ns);
              access_ns += mean * static_cast<double>(p.sampled);
              samples += p.sampled;
              loop_ns += lp;
              loops += p.loops;
              drain_ns += dr;
              drained += p.drain_events;
              accesses += p.accesses;
              est += timed->access_ns_estimate(tid, clock_ns) + lp + dr;
            }
            busy_ns += est;
            replay_ns += s * 1e9;
            finalize_ms.push_back(
                static_cast<double>(timed->finalize_ns()) * 1e-6);
            // Single replay thread: the profiler's busy time is wall time.
            const auto est_wall = static_cast<std::uint64_t>(
                std::min(est, s * 1e9));
            spans::add_sampled("core.profiler.calls", span.id(),
                               span.start_ns(), est_wall, rep);
          }
        }
        if (traced) {
          batch_flushes += counter_value("sink.batch.flushes") - flushes0;
          batch_events += counter_value("sink.batch.events") - events0;
        }
        replay += s;
        t.profiled_s.push_back(s);
        ck_written += guard.checkpoints_written();
      };
      if ((rep + i) % 2 == 0) {
        run_bare();
        run_profiled();
      } else {
        run_profiled();
        run_bare();
      }

      const fs::path epoch_file = dir / (t.name + ".epochs");
      const fs::path html_file = dir / (t.name + ".html");
      const cc::EpochTimeline timeline = prof->epoch_timeline();
      // One output takes well under a millisecond, so it is written
      // kOutputRepeats times back to back and the median kept.
      std::vector<double> w_s, r_s, o_s;
      for (int k = 0; k < kOutputRepeats; ++k) {
        {
          const spans::Span span("core.epoch_io.write", rep);
          w_s.push_back(time_s([&] {
            std::ofstream os(epoch_file);
            cc::write_epochs(os, timeline);
            if (!os) throw std::runtime_error("cannot write epoch file");
          }));
        }
        {
          const spans::Span span("core.report.render", rep);
          r_s.push_back(time_s([&] {
            cc::ReportModel model;
            model.title = t.name;
            model.timeline = timeline;
            model.program = prof->communication_matrix();
            model.has_program = true;
            std::ofstream os(html_file);
            cc::render_html(os, model);
            if (!os) throw std::runtime_error("cannot write html report");
          }));
        }
        o_s.push_back(w_s.back() + r_s.back());
      }
      t.output_s.push_back(median(o_s));
      write_ms.push_back(median(w_s) * 1e3);
      render_ms.push_back(median(r_s) * 1e3);

      {
        const spans::Span span("bench.check", rep);
        const std::string text = read_file(epoch_file);
        ep_bytes += static_cast<double>(text.size());
        cc::EpochTimeline parsed;
        const double p_s = time_s([&] { parsed = cc::read_epochs(text); });
        if (!timeline.epochs.empty()) {
          parse_us.push_back(p_s * 1e6 /
                             static_cast<double>(timeline.epochs.size()));
        }
        out.check(parsed.epochs == timeline.epochs,
                  t.name + ": epoch file does not read back identically");
        out.check(output_digest(*prof) == t.reference,
                  t.name + ": outputs differ from the batch-0 replay (rep " +
                      std::to_string(rep) + ")");
        out.check(tree_sums_hold(prof->regions().root()),
                  t.name + ": a region's aggregate is not direct + children");
        out.check(prof->communication_matrix() ==
                      prof->regions().root().aggregate(),
                  t.name + ": program matrix differs from the root aggregate");
        epochs += timeline.epochs.size();
        for (const cc::EpochSample& e : timeline.epochs) {
          epoch_cells += e.cells.size();
        }
        for (const fs::path& f : {ck, fs::path(ck.string() + ".epochs")}) {
          std::error_code ec;
          const auto n = fs::file_size(f, ec);
          if (!ec) ck_bytes += static_cast<double>(n);
        }
        profiler_bytes = std::max(profiler_bytes,
                                  static_cast<double>(prof->memory_bytes()));
      }
      const spans::Span span("core.profiler.destroy", rep);
      prof.reset();
    }
    r_setup.push_back(setup);
    r_read.push_back(read);
    (traced ? traced_replay : plain_replay).push_back(replay);
    checkpoints = ck_written;
    checkpoint_mb = ck_bytes / 1048576.0;
    epoch_mb = ep_bytes / 1048576.0;
  }

  std::printf("replay_observed: %zu repetitions x %zu traces, 10M slots, "
              "batch 64, %d threads recorded\n",
              r_setup.size(), traces.size(), kThreads);
  for (const Trace& t : traces) {
    std::printf("  %-10s %9llu events %9llu accesses  exact bytes %llu\n",
                t.name.c_str(), static_cast<unsigned long long>(t.events),
                static_cast<unsigned long long>(t.accesses),
                static_cast<unsigned long long>(t.exact.total()));
  }

  if (!cfg.trace) {
    // Per trace, the lower quartile over the repetitions (transient host
    // interference stays out of it); the figures sum over the five traces.
    double profiled = 0.0, bare = 0.0, output = 0.0, events = 0.0;
    for (const Trace& t : traces) {
      profiled += quantile(t.profiled_s, 0.25);
      bare += quantile(t.bare_s, 0.25);
      output += quantile(t.output_s, 0.25);
      events += static_cast<double>(t.events);
    }
    out.put("setup_s", median(r_setup), "s");
    out.put("slowdown", profiled / bare, "x");
    out.put("profiler_mb", profiler_bytes / 1048576.0, "MB");
    out.put("peak_rss_mb", peak_rss_mb(), "MB");
    out.note("events_per_s", events / profiled, "1/s");
    out.note("output_s", output, "s");
    out.note("matrix_error", matrix_error, "ratio");
    out.note("repetitions", static_cast<double>(r_setup.size()), "count");
    return out;
  }

  // Ablations on the same traces (traced run only): batch 64 vs 0, recorder
  // and phases on vs off, GuardedSink vs the bare profiler. Configurations
  // alternate within each round; the fastest of the rounds counts.
  struct Config {
    const char* name;
    cc::ProfilerOptions o;
    bool guarded;
    std::vector<double> best;
  };
  std::vector<Config> configs;
  configs.push_back({"ablation.guarded", popts, true, {}});
  configs.push_back({"ablation.bare", popts, false, {}});
  {
    cc::ProfilerOptions o = popts;
    o.batch_size = 0;
    configs.push_back({"ablation.batch0", o, false, {}});
    o = popts;
    o.epoch_accesses = 0;
    configs.push_back({"ablation.no_recorder", o, false, {}});
    o = popts;
    o.phase_window_bytes = 0;
    configs.push_back({"ablation.no_phases", o, false, {}});
  }
  double probe_hash = 0.0, probe_drain = 0.0;
  std::uint64_t probe_events = 0, probe_deps = 0, sig_bytes = 0;
  for (const Trace& t : traces) {
    std::vector<ci::TraceEvent> ev;
    {
      const spans::Span span("instrument.read_trace");
      ev = load(t.file);
    }
    for (Config& c : configs) c.best.push_back(1e300);
    for (int round = 0; round < 2; ++round) {
      for (Config& c : configs) {
        const spans::Span span(c.name, static_cast<std::uint64_t>(round));
        const double s = timed_replay(ev, c.o, c.guarded, dir / "ablation.ck");
        c.best.back() = std::min(c.best.back(), s);
      }
    }
    const spans::Span span("probe.lanes");
    std::vector<Lanes> lanes(kThreads);
    for (const ci::TraceEvent& e : ev) {
      if (e.kind != ci::TraceEvent::Kind::kAccess || e.tid >= kThreads) {
        continue;
      }
      lanes[e.tid].addr.push_back(static_cast<std::uintptr_t>(e.payload));
      lanes[e.tid].meta.push_back(
          e.size | (static_cast<ci::AccessKind>(e.access) ==
                            ci::AccessKind::kWrite
                        ? cc::AsymmetricDetector::kMetaWriteBit
                        : 0u));
    }
    const LaneProbe lp =
        probe_lanes(lanes, kSlots, kThreads, popts.fp_rate, kBatch);
    probe_hash += lp.hash_ns * static_cast<double>(lp.events);
    probe_drain += lp.drain_ns * static_cast<double>(lp.events);
    probe_events += lp.events;
    probe_deps += lp.deps;
    sig_bytes = std::max(sig_bytes, lp.sig_bytes);
  }
  double all_events = 0.0;
  for (const Trace& t : traces) all_events += static_cast<double>(t.events);
  const auto total = [&](const char* name) {
    for (const Config& c : configs) {
      if (std::string(c.name) == name) return sum(c.best);
    }
    return 0.0;
  };
  const auto marginal_ns = [&](const char* with, const char* without) {
    return (total(with) - total(without)) * 1e9 / all_events;
  };
  double skew = 0.0;
  for (std::size_t i = 0; i < access_skew.size(); ++i) {
    skew += access_skew[i] * skew_weight[i];
  }

  out.put("instrument.read_trace_s", median(r_read), "s");
  out.put("core.profiler.access_ns",
          ratio(access_ns, static_cast<double>(samples)), "ns");
  out.put("core.profiler.loop_ns", ratio(loop_ns, static_cast<double>(loops)),
          "ns");
  out.put("core.profiler.accesses_per_loop",
          ratio(static_cast<double>(accesses), static_cast<double>(loops) / 2.0),
          "count");
  out.put("core.profiler.busy_share", ratio(busy_ns, replay_ns), "ratio");
  out.put("core.profiler.construct_ms", median(construct_ms), "ms");
  out.put("core.profiler.finalize_ms", median(finalize_ms), "ms");
  out.put("core.profiler.drain_ns",
          ratio(drain_ns, static_cast<double>(drained)), "ns");
  out.put("core.batch.fill",
          ratio(static_cast<double>(batch_events),
                static_cast<double>(batch_flushes) * kBatch),
          "ratio");
  out.put("core.batch.gain",
          ratio(total("ablation.batch0"), total("ablation.bare")), "x");
  out.put("core.raw.drain_ns",
          ratio(probe_drain, static_cast<double>(probe_events)), "ns");
  out.put("core.raw.deps_per_kaccess",
          ratio(1e3 * static_cast<double>(probe_deps),
                static_cast<double>(probe_events)),
          "count");
  out.put("support.hash_ns",
          ratio(probe_hash, static_cast<double>(probe_events)), "ns");
  out.put("sigmem.mb", static_cast<double>(sig_bytes) / 1048576.0, "MB");
  out.put("sigmem.false_cells", false_cells, "count");
  out.put("sigmem.matrix_error", matrix_error, "ratio");
  out.put("threading.access_skew", ratio(skew, sum(skew_weight)), "x");
  out.put("core.recorder.epochs",
          ratio(static_cast<double>(epochs), static_cast<double>(r_setup.size())),
          "count");
  out.put("core.recorder.cells_per_epoch",
          ratio(static_cast<double>(epoch_cells), static_cast<double>(epochs)),
          "count");
  out.put("core.recorder.marginal_ns",
          marginal_ns("ablation.bare", "ablation.no_recorder"), "ns");
  out.put("core.phase.marginal_ns",
          marginal_ns("ablation.bare", "ablation.no_phases"), "ns");
  out.put("core.epoch_io.write_ms", median(write_ms), "ms");
  out.put("core.epoch_io.mb", epoch_mb, "MB");
  out.put("core.epoch_io.parse_us", median(parse_us), "us");
  out.put("core.report.render_ms", median(render_ms), "ms");
  out.put("resilience.guard.marginal_ns",
          marginal_ns("ablation.guarded", "ablation.bare"), "ns");
  out.put("resilience.checkpoints", static_cast<double>(checkpoints), "count");
  out.put("resilience.checkpoint_mb", checkpoint_mb, "MB");
  out.put("trace.overhead", ratio(median(traced_replay), median(plain_replay)),
          "x");
  return out;
}

}  // namespace perfbench
