// Phase-detection tests: offset signatures and similarity-based
// segmentation. Windowing itself is the flight recorder's bytes trigger
// (test_recorder).
#include <gtest/gtest.h>

#include "core/phase.hpp"

namespace cc = commscope::core;

TEST(DetectPhases, EmptyTimeline) {
  EXPECT_TRUE(cc::detect_phases({}).empty());
}

TEST(DetectPhases, UniformTimelineIsOnePhase) {
  std::vector<cc::Matrix> windows;
  for (int i = 0; i < 5; ++i) {
    cc::Matrix m(4);
    m.at(0, 1) = 100 + static_cast<std::uint64_t>(i);  // same direction
    windows.push_back(m);
  }
  const auto phases = cc::detect_phases(windows, 0.8);
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_EQ(phases[0].first_window, 0u);
  EXPECT_EQ(phases[0].last_window, 4u);
  EXPECT_EQ(phases[0].pattern.at(0, 1), 100u + 101 + 102 + 103 + 104);
}

TEST(DetectPhases, OrthogonalPatternsSplit) {
  std::vector<cc::Matrix> windows;
  for (int i = 0; i < 3; ++i) {
    cc::Matrix m(4);
    m.at(0, 1) = 50;  // offset +1
    windows.push_back(m);
  }
  for (int i = 0; i < 3; ++i) {
    cc::Matrix m(4);
    m.at(1, 3) = 50;  // offset +2
    windows.push_back(m);
  }
  const auto phases = cc::detect_phases(windows, 0.8);
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].last_window, 2u);
  EXPECT_EQ(phases[1].first_window, 3u);
}

TEST(DetectPhases, ThresholdControlsMergeAggressiveness) {
  cc::Matrix a(4);
  a.at(0, 1) = 100;  // offset +1
  cc::Matrix mix(4);
  mix.at(0, 1) = 100;
  mix.at(0, 2) = 60;  // offset +2
  const std::vector<cc::Matrix> windows{a, mix};
  // cos(a, mix) = 100 / sqrt(100^2+60^2) ~ 0.857 over the offset histogram.
  EXPECT_EQ(cc::detect_phases(windows, 0.80).size(), 1u);
  EXPECT_EQ(cc::detect_phases(windows, 0.95).size(), 2u);
}

TEST(OffsetSignature, CircularBinning) {
  cc::Matrix m(4);
  m.at(0, 1) = 10;  // offset +1
  m.at(3, 0) = 5;   // offset (0-3+4)%4 = +1
  m.at(2, 0) = 7;   // offset (0-2+4)%4 = +2
  const std::vector<double> sig = cc::offset_signature(m);
  ASSERT_EQ(sig.size(), 4u);
  EXPECT_DOUBLE_EQ(sig[0], 0.0);  // no self-communication
  EXPECT_DOUBLE_EQ(sig[1], 15.0);
  EXPECT_DOUBLE_EQ(sig[2], 7.0);
  EXPECT_DOUBLE_EQ(sig[3], 0.0);
}

TEST(OffsetSignature, ConsumerTranslationInvariance) {
  // Two windows that sampled different single consumers of an all-to-all
  // phase must have identical offset signatures (the scheduling-robustness
  // property phase detection relies on).
  cc::Matrix w0(8);
  cc::Matrix w5(8);
  for (int p = 0; p < 8; ++p) {
    if (p != 0) w0.at(p, 0) = 100;
    if (p != 5) w5.at(p, 5) = 100;
  }
  EXPECT_EQ(cc::offset_signature(w0), cc::offset_signature(w5));
}

TEST(DetectPhases, MergesConsumerSlicesAndSplitsHalo) {
  // Timeline: two single-consumer slices of the same all-to-all phase, then
  // a halo window. The slices share one phase; the halo starts another.
  std::vector<cc::Matrix> windows;
  for (const int consumer : {1, 6}) {
    cc::Matrix w(8);
    for (int p = 0; p < 8; ++p) {
      if (p != consumer) w.at(p, consumer) = 64;
    }
    windows.push_back(w);
  }
  cc::Matrix halo(8);
  for (int i = 0; i + 1 < 8; ++i) {
    halo.at(i, i + 1) = 64;
    halo.at(i + 1, i) = 64;
  }
  windows.push_back(halo);

  const auto phases = cc::detect_phases(windows, 0.75);
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].last_window, 1u);
}
