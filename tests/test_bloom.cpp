// Bloom-filter tests: Eq. 2 sizing law, no-false-negative guarantee, a
// parameterized sweep verifying the realized FPR respects the configured
// target across (capacity, fp_rate) operating points, and the word-level
// probe paths (bloom_probes_for / insert_probes / contains_probes /
// clear_sparing) the read signature and the batched ingest drain run on.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <tuple>
#include <vector>

#include "support/bloom.hpp"

namespace cs = commscope::support;

TEST(BloomParams, MatchesEq2Formula) {
  // m = -t ln(p) / ln^2(2); the paper's reference point t=32, p=0.001
  // gives ~460 bits (rounded up to a 64-bit word multiple).
  const cs::BloomParams p = cs::bloom_params(32, 0.001);
  const double ln2 = std::log(2.0);
  const double m = -32.0 * std::log(0.001) / (ln2 * ln2);
  EXPECT_NEAR(static_cast<double>(p.bits), m, 64.0);
  EXPECT_EQ(p.bits % 64, 0u);
  // k = m/t * ln 2 ~ 10 hash functions at p = 0.001.
  EXPECT_NEAR(p.hashes, 10u, 1u);
}

TEST(BloomParams, DegenerateInputsAreClamped) {
  EXPECT_GE(cs::bloom_params(0, 0.001).bits, 64u);
  EXPECT_GE(cs::bloom_params(8, -1.0).hashes, 1u);
  EXPECT_GE(cs::bloom_params(8, 2.0).hashes, 1u);
}

TEST(BloomFilter, NoFalseNegatives) {
  cs::BloomFilter bf(64, 0.01);
  for (std::uint64_t k = 0; k < 64; ++k) bf.insert(k * 977 + 13);
  for (std::uint64_t k = 0; k < 64; ++k) EXPECT_TRUE(bf.contains(k * 977 + 13));
}

TEST(BloomFilter, EmptyFilterContainsNothing) {
  cs::BloomFilter bf(32, 0.001);
  EXPECT_TRUE(bf.empty());
  for (std::uint64_t k = 0; k < 100; ++k) EXPECT_FALSE(bf.contains(k));
}

TEST(BloomFilter, InsertReportsPriorMembership) {
  cs::BloomFilter bf(32, 0.001);
  EXPECT_FALSE(bf.insert(7));  // first insertion: not previously present
  EXPECT_TRUE(bf.insert(7));   // second: already present
}

TEST(BloomFilter, ClearResets) {
  cs::BloomFilter bf(32, 0.001);
  bf.insert(1);
  bf.insert(2);
  ASSERT_FALSE(bf.empty());
  bf.clear();
  EXPECT_TRUE(bf.empty());
  EXPECT_FALSE(bf.contains(1));
  EXPECT_FALSE(bf.contains(2));
}

TEST(BloomFilter, ByteSizeMatchesParams) {
  cs::BloomFilter bf(32, 0.001);
  EXPECT_EQ(bf.byte_size(), bf.bit_count() / 8);
}

TEST(BloomFilter, EstimatedFprGrowsWithFill) {
  cs::BloomFilter bf(16, 0.01);
  const double before = bf.estimated_fpr();
  for (std::uint64_t k = 0; k < 16; ++k) bf.insert(k);
  EXPECT_LT(before, bf.estimated_fpr());
  EXPECT_LE(bf.estimated_fpr(), 1.0);
}

// --- word-level probe paths -------------------------------------------------

TEST(BloomProbes, ProbesForDedupesWordsAndBoundsCount) {
  // Across many keys and parameter points: probe-group words must be unique
  // (the dedupe insert_probes' skip test relies on), group count bounded by
  // the hash count, and every mask nonzero and confined to in-range words.
  for (const auto& [cap, fp] : {std::pair<std::size_t, double>{8, 0.01},
                                {32, 0.001},
                                {64, 0.001}}) {
    const cs::BloomParams params = cs::bloom_params(cap, fp);
    for (std::uint64_t key = 0; key < 200; ++key) {
      cs::BloomProbe probes[cs::kBloomMaxProbes];
      const std::uint32_t n = cs::bloom_probes_for(params, key, probes);
      ASSERT_GE(n, 1u);
      ASSERT_LE(n, params.hashes);
      std::uint32_t total_bits = 0;
      for (std::uint32_t i = 0; i < n; ++i) {
        ASSERT_NE(probes[i].mask, 0u);
        ASSERT_LT(probes[i].word, params.bits / 64);
        total_bits += static_cast<std::uint32_t>(
            __builtin_popcountll(probes[i].mask));
        for (std::uint32_t j = i + 1; j < n; ++j) {
          ASSERT_NE(probes[i].word, probes[j].word) << "key " << key;
        }
      }
      // Grouped masks hold exactly the distinct probed positions.
      ASSERT_LE(total_bits, params.hashes);
    }
  }
}

TEST(BloomProbes, InsertProbesMatchesPerKeyInsertExactly) {
  // Drive two filters with the same key sequence, one through insert(), one
  // through the precomputed-probe path; state and return values must agree
  // at every step (this is the bit-identity the signature fast path assumes).
  const cs::BloomParams params = cs::bloom_params(16, 0.001);
  cs::BloomFilter a(params);
  cs::BloomFilter b(params);
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t key = 0; key < 16; ++key) {
      cs::BloomProbe probes[cs::kBloomMaxProbes];
      const std::uint32_t n = cs::bloom_probes_for(params, key, probes);
      ASSERT_EQ(a.insert(key), b.insert_probes(probes, n))
          << "round " << round << " key " << key;
      ASSERT_EQ(a.popcount(), b.popcount());
      ASSERT_TRUE(b.contains_probes(probes, n));
      ASSERT_EQ(a.contains(key), b.contains(key));
    }
  }
}

TEST(BloomProbes, InsertProbesSecondCallTakesLoadSkipPath) {
  // The load-before-RMW skip: a fully-present probe set must still report
  // "already present" and leave the filter unchanged.
  const cs::BloomParams params = cs::bloom_params(32, 0.001);
  cs::BloomFilter bf(params);
  cs::BloomProbe probes[cs::kBloomMaxProbes];
  const std::uint32_t n = cs::bloom_probes_for(params, 5, probes);
  EXPECT_FALSE(bf.insert_probes(probes, n));
  const std::size_t pop = bf.popcount();
  EXPECT_TRUE(bf.insert_probes(probes, n));
  EXPECT_EQ(bf.popcount(), pop);
}

TEST(BloomProbes, ClearSparingMatchesClear) {
  const cs::BloomParams params = cs::bloom_params(64, 0.001);
  cs::BloomFilter bf(params);
  for (std::uint64_t k = 0; k < 64; ++k) bf.insert(k);
  ASSERT_FALSE(bf.empty());
  bf.clear_sparing();
  EXPECT_TRUE(bf.empty());
  for (std::uint64_t k = 0; k < 64; ++k) EXPECT_FALSE(bf.contains(k));
  bf.clear_sparing();  // idempotent on an empty filter
  EXPECT_TRUE(bf.empty());
}

TEST(BloomProbes, ConcurrentSameFilterInsertsLoseNoKey) {
  // Concurrent insert_probes into ONE filter — the hot-slot contention shape
  // of the signature drain; run under TSan in CI. No key may be lost, and
  // the final state must equal the union of all probe masks.
  const cs::BloomParams params = cs::bloom_params(64, 0.001);
  cs::BloomFilter bf(params);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&bf, &params, t] {
      cs::BloomProbe probes[cs::kBloomMaxProbes];
      for (int rep = 0; rep < 500; ++rep) {
        for (std::uint64_t key = static_cast<std::uint64_t>(t); key < 64;
             key += kThreads) {
          const std::uint32_t n =
              cs::bloom_probes_for(params, key, probes);
          bf.insert_probes(probes, n);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::uint64_t key = 0; key < 64; ++key) {
    EXPECT_TRUE(bf.contains(key)) << "lost key " << key;
  }
}

// Parameterized sweep: fill to capacity, then measure the false-positive
// rate on 20000 keys never inserted; it must stay within ~4x of the target
// (the standard bloom bound is asymptotic; small filters wobble).
class BloomFprSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(BloomFprSweep, RealizedFprRespectsTarget) {
  const auto [capacity, target] = GetParam();
  cs::BloomFilter bf(capacity, target);
  for (std::uint64_t k = 0; k < capacity; ++k) {
    bf.insert(0xabcd0000 + k * 3);
  }
  int fp = 0;
  constexpr int kProbes = 20000;
  for (int i = 0; i < kProbes; ++i) {
    if (bf.contains(0x99990000 + static_cast<std::uint64_t>(i) * 7 + 1)) ++fp;
  }
  const double realized = static_cast<double>(fp) / kProbes;
  EXPECT_LE(realized, std::max(4.0 * target, 8e-4))
      << "capacity=" << capacity << " target=" << target
      << " realized=" << realized;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BloomFprSweep,
    ::testing::Values(std::make_tuple(std::size_t{8}, 0.01),
                      std::make_tuple(std::size_t{16}, 0.01),
                      std::make_tuple(std::size_t{32}, 0.001),
                      std::make_tuple(std::size_t{32}, 0.01),
                      std::make_tuple(std::size_t{64}, 0.001),
                      std::make_tuple(std::size_t{64}, 0.1),
                      std::make_tuple(std::size_t{128}, 0.001)));
