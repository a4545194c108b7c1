// DVFS-advisor tests: boundness estimation, level selection under a
// slowdown budget, energy accounting, end-to-end from a real phase timeline.
#include <gtest/gtest.h>

#include <memory>

#include "core/profiler.hpp"
#include "power/dvfs.hpp"

namespace cc = commscope::core;
namespace ci = commscope::instrument;
namespace cpw = commscope::power;

namespace {

/// Appends one epoch carrying `m` and spanning `accesses` raw accesses.
void add_epoch(cc::EpochTimeline& t, const cc::Matrix& m,
               std::uint64_t accesses) {
  cc::EpochSample e;
  e.index = t.epochs.size();
  e.first_access = t.epochs.empty() ? 0 : t.epochs.back().last_access;
  e.last_access = e.first_access + accesses;
  e.reason = cc::EpochSeal::kBytes;
  for (int p = 0; p < m.size(); ++p) {
    for (int c = 0; c < m.size(); ++c) {
      if (m.at(p, c) == 0) continue;
      e.cells.push_back(cc::EpochCell{static_cast<std::uint16_t>(p),
                                      static_cast<std::uint16_t>(c),
                                      m.at(p, c)});
      e.bytes += m.at(p, c);
    }
  }
  t.epochs.push_back(std::move(e));
  t.sealed = t.epochs.size();
}

/// Builds a synthetic timeline: `comm_windows` fully-communication-bound
/// epochs (few accesses per byte) followed by `compute_windows` nearly
/// communication-free epochs (many accesses per byte), with orthogonal
/// patterns so they segment into two phases.
cc::EpochTimeline make_timeline(int comm_windows, int compute_windows) {
  cc::EpochTimeline t;
  t.threads = 4;
  for (int w = 0; w < comm_windows; ++w) {
    cc::Matrix m(4);
    for (int p = 0; p < 4; ++p) m.at(p, (p + 1) % 4) = 4096;  // ring
    add_epoch(t, m, 4096);  // ~4 bytes per access: heavily bound
  }
  for (int w = 0; w < compute_windows; ++w) {
    cc::Matrix m(4);
    for (int p = 0; p < 4; ++p) m.at(p, (p + 2) % 4) = 4096;  // offset-2 ring
    add_epoch(t, m, 4'000'000);  // ~0.004 B/access: compute-bound
  }
  return t;
}

}  // namespace

TEST(DvfsPlan, CommPhasesDownclockComputePhasesDoNot) {
  const cpw::DvfsPlan plan = cpw::plan_dvfs(make_timeline(3, 3));
  ASSERT_EQ(plan.phases.size(), 2u);
  const cpw::PhasePlan& comm = plan.phases[0];
  const cpw::PhasePlan& compute = plan.phases[1];
  EXPECT_GT(comm.boundness, 0.9);
  EXPECT_LT(compute.boundness, 0.05);
  // Communication phase drops to the lowest level; compute stays at the top.
  EXPECT_LT(comm.chosen.ghz, compute.chosen.ghz);
  EXPECT_DOUBLE_EQ(compute.chosen.ghz, 2.7);
  EXPECT_DOUBLE_EQ(comm.chosen.ghz, 1.2);
}

TEST(DvfsPlan, SavingPositiveAndSlowdownWithinBudget) {
  cpw::DvfsOptions opts;
  opts.max_slowdown = 1.10;
  const cpw::DvfsPlan plan = cpw::plan_dvfs(make_timeline(4, 2), opts);
  EXPECT_GT(plan.saving_fraction, 0.0);
  EXPECT_LE(plan.overall_slowdown, opts.max_slowdown + 1e-9);
  for (const cpw::PhasePlan& pp : plan.phases) {
    EXPECT_LE(pp.est_slowdown, opts.max_slowdown + 1e-9);
  }
  EXPECT_LT(plan.planned_energy, plan.baseline_energy);
}

TEST(DvfsPlan, FullyCommBoundTimelineApproachesPowerRatioSaving) {
  // All windows fully bound -> the advisor can run everything at the lowest
  // level with no slowdown; the saving equals 1 - watts_low/watts_high
  // (~52% with the default table), comfortably covering the paper's quoted
  // 30% for communication phases.
  const cpw::DvfsPlan plan = cpw::plan_dvfs(make_timeline(5, 0));
  EXPECT_NEAR(plan.saving_fraction, 1.0 - 62.0 / 130.0, 1e-9);
  EXPECT_NEAR(plan.overall_slowdown, 1.0, 1e-9);
  EXPECT_GE(plan.saving_fraction, 0.30);
}

TEST(DvfsPlan, TightBudgetKeepsComputePhasesFast) {
  cpw::DvfsOptions opts;
  opts.max_slowdown = 1.01;  // compute phases cannot afford any downclock
  const cpw::DvfsPlan plan = cpw::plan_dvfs(make_timeline(0, 3), opts);
  EXPECT_NEAR(plan.saving_fraction, 0.0, 1e-9);
  for (const cpw::PhasePlan& pp : plan.phases) {
    EXPECT_DOUBLE_EQ(pp.chosen.ghz, 2.7);
  }
}

TEST(DvfsPlan, RejectsEmptyLevelTable) {
  cpw::DvfsOptions no_levels;
  no_levels.levels.clear();
  EXPECT_THROW((void)cpw::plan_dvfs(make_timeline(2, 0), no_levels),
               std::invalid_argument);
}

TEST(DvfsPlan, IntensityReadsEpochAccessSpans) {
  // One communication-bound epoch: 4 x 4096 bytes over 4096 accesses.
  const cpw::DvfsPlan plan = cpw::plan_dvfs(make_timeline(1, 0));
  ASSERT_EQ(plan.phases.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.phases[0].work, 4096.0);
  EXPECT_DOUBLE_EQ(plan.phases[0].intensity, 4.0);
}

TEST(DvfsPlan, EndToEndFromProfilerTimeline) {
  // Real pipeline: profile a two-phase synthetic program, feed its epoch
  // timeline (cut by the bytes trigger) straight into the advisor.
  cc::ProfilerOptions o;
  o.max_threads = 4;
  o.backend = cc::Backend::kExact;
  o.phase_window_bytes = 2048;
  auto prof = std::make_unique<cc::Profiler>(o);
  for (int t = 0; t < 4; ++t) prof->on_thread_begin(t);
  // Communication-heavy stretch: write/read handoffs, few extra accesses.
  for (int i = 0; i < 1024; ++i) {
    const auto addr = static_cast<std::uintptr_t>(0x9000 + i * 8);
    prof->on_access(0, addr, 8, ci::AccessKind::kWrite);
    prof->on_access(1, addr, 8, ci::AccessKind::kRead);
  }
  // Compute-heavy stretch: mostly private traffic, a thin comm trickle with
  // a different pattern (2->3).
  for (int i = 0; i < 1024; ++i) {
    const auto priv = static_cast<std::uintptr_t>(0x80000 + i * 8);
    for (int r = 0; r < 40; ++r) {
      prof->on_access(2, priv, 8, ci::AccessKind::kRead);
    }
    // Consumer 0 gives this phase offset 2 (circular), distinct from the
    // offset-1 handoffs of the first phase so the segmentation splits them.
    const auto addr = static_cast<std::uintptr_t>(0x20000 + i * 8);
    prof->on_access(2, addr, 8, ci::AccessKind::kWrite);
    prof->on_access(0, addr, 8, ci::AccessKind::kRead);
  }
  prof->finalize();

  const cc::EpochTimeline timeline = prof->epoch_timeline();
  ASSERT_GE(timeline.epochs.size(), 2u);
  const cpw::DvfsPlan plan = cpw::plan_dvfs(timeline);
  ASSERT_GE(plan.phases.size(), 2u);
  // The first phase (dense handoffs) must be judged more communication-bound
  // than the last (compute-dominated) one.
  EXPECT_GT(plan.phases.front().boundness, plan.phases.back().boundness);
  EXPECT_GT(plan.saving_fraction, 0.0);
  EXPECT_FALSE(plan.to_string().empty());
}
