// Phase timeline: dynamic-behaviour detection (Section V.A.4). Runs a
// program with two distinct computation phases — a stencil sweep followed by
// an all-to-all reduction — and shows CommScope segmenting the execution
// into phases with different communication patterns, where whole-run
// profilers would report one blurred matrix.
//
//   ./build/examples/example_phase_timeline
#include <iostream>
#include <vector>

#include "core/phase.hpp"
#include "core/profiler.hpp"
#include "instrument/loop_scope.hpp"
#include "support/table.hpp"
#include "threading/thread_pool.hpp"

namespace cc = commscope::core;
namespace ci = commscope::instrument;
namespace cs = commscope::support;
namespace ct = commscope::threading;

int main() {
  constexpr int kThreads = 8;
  constexpr std::size_t kItems = 4096;
  constexpr int kSweeps = 4;

  cc::ProfilerOptions opts;
  opts.max_threads = kThreads;
  opts.signature_slots = 1 << 18;
  opts.phase_window_bytes = 16 * 1024;  // one snapshot per 16 KiB of traffic
  cc::Profiler profiler(opts);

  std::vector<double> field(kItems, 1.0);
  std::vector<double> next(kItems, 0.0);
  std::vector<double> partial(kThreads, 0.0);
  ct::ThreadTeam team(kThreads);

  team.run([&](int tid) {
    profiler.on_thread_begin(tid);
    ci::AccessSink& sink = profiler;
    // Interleaved ownership: every neighbour read crosses threads, so the
    // stencil phase carries real inter-thread volume.
    // Phase 1: neighbour-halo stencil sweeps (structured-grid pattern).
    for (int sweep = 0; sweep < kSweeps; ++sweep) {
      COMMSCOPE_LOOP(sink, tid, "phase_demo", "stencil");
      for (std::size_t i = static_cast<std::size_t>(tid); i < kItems;
           i += kThreads) {
        const std::size_t l = i == 0 ? kItems - 1 : i - 1;
        const std::size_t r = i + 1 == kItems ? 0 : i + 1;
        sink.read(tid, &field[l]);
        sink.read(tid, &field[r]);
        sink.write(tid, &next[i]);
        next[i] = 0.5 * (field[l] + field[r]);
      }
      team.barrier().arrive_and_wait();
      {
        COMMSCOPE_LOOP(sink, tid, "phase_demo", "copyback");
        for (std::size_t i = static_cast<std::size_t>(tid); i < kItems;
             i += kThreads) {
          sink.read(tid, &next[i]);
          sink.write(tid, &field[i]);
          field[i] = next[i];
        }
      }
      team.barrier().arrive_and_wait();
    }

    // Phase 2: all-to-all — every thread reads the full field (n-body-like).
    {
      COMMSCOPE_LOOP(sink, tid, "phase_demo", "alltoall");
      double sum = 0.0;
      for (std::size_t i = 0; i < kItems; ++i) {
        sink.read(tid, &field[i]);
        sum += field[i];
      }
      partial[static_cast<std::size_t>(tid)] = sum;
      sink.write(tid, &partial[static_cast<std::size_t>(tid)]);
    }
  });
  profiler.finalize();

  const std::vector<cc::Matrix> windows = profiler.phase_timeline();
  const std::vector<cc::Phase> phases = cc::detect_phases(windows, 0.75);

  std::cout << "Captured " << windows.size() << " communication windows, "
            << phases.size() << " phases detected\n\n";
  for (std::size_t p = 0; p < phases.size(); ++p) {
    const cc::Phase& ph = phases[p];
    std::cout << "Phase " << p + 1 << ": windows " << ph.first_window << ".."
              << ph.last_window << ", volume "
              << cs::Table::bytes(ph.pattern.total()) << "\n";
    const cc::Matrix trimmed = ph.pattern.trimmed(kThreads);
    cs::print_heatmap(std::cout, trimmed.cells(),
                      static_cast<std::size_t>(trimmed.size()),
                      "  pattern");
  }
  std::cout << "The stencil windows show the tri-diagonal halo band; the "
               "reduction phase lights up whole producer rows.\n";
  return 0;
}
