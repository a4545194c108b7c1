// Signature-memory unit tests: one-level write signature, read signature
// (flat inline blooms charged at construction, clear-on-write), the exact
// baseline's Algorithm-1 semantics, and the Eq. 2 memory model including the
// paper's "~580 MB at n=10^7, t=32, p=0.001" reference point.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "sigmem/exact_signature.hpp"
#include "sigmem/read_signature.hpp"
#include "sigmem/size_model.hpp"
#include "sigmem/write_signature.hpp"
#include "support/memtrack.hpp"

namespace sg = commscope::sigmem;
namespace cs = commscope::support;

// --- WriteSignature ---------------------------------------------------------

TEST(WriteSignature, EmptySlotsHaveNoWriter) {
  sg::WriteSignature ws(128);
  for (std::size_t s = 0; s < 128; ++s) {
    EXPECT_FALSE(ws.last_writer(s).has_value());
  }
  EXPECT_EQ(ws.occupancy(), 0u);
}

TEST(WriteSignature, RecordsLastWriter) {
  sg::WriteSignature ws(64);
  ws.record(5, 3);
  ASSERT_TRUE(ws.last_writer(5).has_value());
  EXPECT_EQ(*ws.last_writer(5), 3);
  ws.record(5, 7);  // overwrite: only the last writer survives
  EXPECT_EQ(*ws.last_writer(5), 7);
  EXPECT_EQ(ws.occupancy(), 1u);
}

TEST(WriteSignature, TidZeroIsDistinguishableFromEmpty) {
  sg::WriteSignature ws(8);
  ws.record(0, 0);
  ASSERT_TRUE(ws.last_writer(0).has_value());
  EXPECT_EQ(*ws.last_writer(0), 0);
}

TEST(WriteSignature, ClearEmptiesEverything) {
  sg::WriteSignature ws(16);
  for (std::size_t s = 0; s < 16; ++s) ws.record(s, 1);
  ws.clear();
  EXPECT_EQ(ws.occupancy(), 0u);
}

TEST(WriteSignature, FourBytesPerSlotPerEq2) {
  sg::WriteSignature ws(1000);
  EXPECT_EQ(ws.byte_size(), 4000u);
}

TEST(WriteSignature, SlotMappingIsStableAndInRange) {
  sg::WriteSignature ws(97);
  const std::uintptr_t addr = 0x7fff12345678;
  EXPECT_EQ(ws.slot_of(addr), ws.slot_of(addr));
  for (std::uintptr_t a = 0; a < 1000; ++a) {
    EXPECT_LT(ws.slot_of(0x1000 + a * 8), 97u);
  }
}

TEST(WriteSignature, ChargesTracker) {
  cs::MemoryTracker tracker;
  {
    sg::WriteSignature ws(256, &tracker);
    EXPECT_EQ(tracker.current(), 1024u);
  }
  EXPECT_EQ(tracker.current(), 0u);  // released on destruction
}

TEST(WriteSignature, RejectsZeroSlots) {
  EXPECT_THROW(sg::WriteSignature(0), std::invalid_argument);
}

// --- ReadSignature ----------------------------------------------------------

TEST(ReadSignature, InsertReportsPriorMembership) {
  sg::ReadSignature rs(16, 8, 0.001);
  EXPECT_FALSE(rs.insert(4, 5));
  EXPECT_TRUE(rs.insert(4, 5));
  EXPECT_TRUE(rs.contains(4, 5));
  EXPECT_FALSE(rs.contains(4, 6));
  EXPECT_FALSE(rs.contains(5, 5));  // different slot untouched
}

TEST(ReadSignature, ClearSlotRecyclesFilter) {
  sg::ReadSignature rs(16, 8, 0.001);
  rs.insert(2, 1);
  rs.insert(2, 3);
  rs.clear_slot(2);
  EXPECT_FALSE(rs.contains(2, 1));
  EXPECT_FALSE(rs.contains(2, 3));
  EXPECT_FALSE(rs.any(2));
  // The slot is immediately reusable.
  EXPECT_FALSE(rs.insert(2, 1));
  EXPECT_TRUE(rs.contains(2, 1));
}

TEST(ReadSignature, ClearAllSlots) {
  sg::ReadSignature rs(8, 4, 0.01);
  for (std::size_t s = 0; s < 8; ++s) rs.insert(s, 2);
  rs.clear();
  for (std::size_t s = 0; s < 8; ++s) EXPECT_FALSE(rs.contains(s, 2));
}

TEST(ReadSignature, BloomSizingMatchesEq2Term) {
  sg::ReadSignature rs(8, 32, 0.001);
  const cs::BloomParams expected = cs::bloom_params(32, 0.001);
  EXPECT_EQ(rs.bloom_params().bits, expected.bits);
  EXPECT_EQ(rs.bloom_params().hashes, expected.hashes);
}

TEST(ReadSignature, ByteSizeIsFlatAndChargedAtConstruction) {
  // n slots x W inline bloom words, W = bits / 64, whatever is inserted:
  // t = 4 -> W = 1, t = 8 -> W = 2, t = 32 -> W = 8 at p = 0.001.
  for (const int t : {4, 8, 32}) {
    const std::size_t n = 1000;  // not a power of two: exact stripe lengths
    const std::size_t w =
        cs::bloom_params(static_cast<std::size_t>(t), 0.001).bits / 64;
    cs::MemoryTracker tracker;
    {
      sg::ReadSignature rs(n, t, 0.001, &tracker);
      EXPECT_EQ(rs.word_count(), w);
      EXPECT_EQ(rs.byte_size(), n * 8 * w) << "t=" << t;
      EXPECT_EQ(tracker.current(), n * 8 * w) << "charged at construction";
      for (std::size_t s = 0; s < n; ++s) rs.insert(s, static_cast<int>(s) % t);
      EXPECT_EQ(rs.byte_size(), n * 8 * w) << "inserts allocate nothing";
      EXPECT_EQ(tracker.current(), n * 8 * w);
    }
    EXPECT_EQ(tracker.current(), 0u) << "released on destruction";
  }
  EXPECT_EQ(cs::bloom_params(4, 0.001).bits / 64, 1u);
  EXPECT_EQ(cs::bloom_params(8, 0.001).bits / 64, 2u);
  EXPECT_EQ(cs::bloom_params(32, 0.001).bits / 64, 8u);
}

TEST(ReadSignature, ConcurrentInsertsIntoOneSlotKeepEveryReader) {
  // Eight readers racing on one slot's inline words (a multi-word filter at
  // t = 32): fetch_or never loses a bit, so every tid must be present.
  sg::ReadSignature rs(4, 32, 0.001);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&rs, t] {
      for (int rep = 0; rep < 200; ++rep) rs.insert(1, t);
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 8; ++t) {
    EXPECT_TRUE(rs.contains(1, t)) << "lost tid " << t;
  }
  for (const std::size_t other : {0, 2, 3}) EXPECT_FALSE(rs.any(other));
}

TEST(ReadSignature, OutOfRangeTidsMatchBloomFilterReference) {
  // tids >= max_threads take the uncapped per-bit path and negative tids are
  // rejected; a BloomFilter built from the same params is the reference for
  // both the insert answers and every later membership query.
  for (const int t : {4, 32}) {
    sg::ReadSignature rs(64, t, 0.001);
    cs::BloomFilter ref(rs.bloom_params());
    for (const int tid : {t, t + 1, 2 * t + 5, 1000, t, 1000}) {
      EXPECT_EQ(rs.insert(7, tid), ref.insert(static_cast<std::uint64_t>(tid)))
          << "t=" << t << " tid=" << tid;
    }
    EXPECT_TRUE(rs.insert(7, -3));  // rejected: never reaches the filter
    EXPECT_EQ(rs.rejected(), 1u);
    EXPECT_EQ(rs.overflow_inserts(), 6u);
    for (int tid = -64; tid < 2048; ++tid) {
      ASSERT_EQ(rs.contains(7, tid),
                ref.contains(static_cast<std::uint64_t>(tid)))
          << "t=" << t << " tid=" << tid;
    }
    // In-range tids go through the precomputed probes; same positions.
    for (int tid = 0; tid < t; ++tid) {
      EXPECT_EQ(rs.insert(7, tid), ref.insert(static_cast<std::uint64_t>(tid)));
    }
    for (int tid = -64; tid < 2048; ++tid) {
      ASSERT_EQ(rs.contains(7, tid),
                ref.contains(static_cast<std::uint64_t>(tid)));
    }
  }
}

TEST(ReadSignature, RejectsBadArguments) {
  EXPECT_THROW(sg::ReadSignature(0, 8, 0.001), std::invalid_argument);
  EXPECT_THROW(sg::ReadSignature(8, 0, 0.001), std::invalid_argument);
}

// --- ExactSignature ---------------------------------------------------------

TEST(ExactSignature, ReportsRawOncePerReaderPerWrite) {
  sg::ExactSignature sig(8);
  sig.on_write(0x100, 0);
  const auto first = sig.on_read(0x100, 1);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, 0);
  // Second read by the same thread: first-touch rule suppresses it.
  EXPECT_FALSE(sig.on_read(0x100, 1).has_value());
  // A different reader still counts.
  EXPECT_EQ(sig.on_read(0x100, 2).value(), 0);
}

TEST(ExactSignature, SelfReadIsNotCommunication) {
  sg::ExactSignature sig(8);
  sig.on_write(0x200, 3);
  EXPECT_FALSE(sig.on_read(0x200, 3).has_value());
}

TEST(ExactSignature, WriteResetsReaderSet) {
  sg::ExactSignature sig(8);
  sig.on_write(0x300, 0);
  EXPECT_TRUE(sig.on_read(0x300, 1).has_value());
  sig.on_write(0x300, 2);  // new producing write
  const auto again = sig.on_read(0x300, 1);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, 2);  // attributed to the new producer
}

TEST(ExactSignature, ReadBeforeAnyWriteIsSilent) {
  sg::ExactSignature sig(8);
  EXPECT_FALSE(sig.on_read(0x400, 1).has_value());
  // ...and that early read does not mask a later RAW.
  sig.on_write(0x400, 0);
  EXPECT_TRUE(sig.on_read(0x400, 1).has_value());
}

TEST(ExactSignature, DistinctAddressesNeverCollide) {
  sg::ExactSignature sig(4);
  sig.on_write(0x1000, 0);
  // A read at a different address must not see 0x1000's writer.
  EXPECT_FALSE(sig.on_read(0x1008, 1).has_value());
}

TEST(ExactSignature, MemoryGrowsWithDistinctAddresses) {
  cs::MemoryTracker tracker;
  sg::ExactSignature sig(8, &tracker);
  const std::uint64_t before = tracker.current();
  for (std::uintptr_t a = 0; a < 100; ++a) sig.on_write(0x5000 + a * 8, 0);
  EXPECT_GT(tracker.current(), before);
  EXPECT_EQ(sig.tracked_addresses(), 100u);
  sig.clear();
  EXPECT_EQ(sig.tracked_addresses(), 0u);
  EXPECT_EQ(tracker.current(), before);
}

TEST(ExactSignature, RejectsBadThreadCounts) {
  EXPECT_THROW(sg::ExactSignature(0), std::invalid_argument);
  EXPECT_THROW(sg::ExactSignature(65), std::invalid_argument);
}

// --- Eq. 2 size model -------------------------------------------------------

TEST(SizeModel, PaperReferencePointIsAbout580MB) {
  // Section V.A.2: n = 10^7, t = 32, FPRate = 0.001 -> "around 580MB".
  const sg::SigMemModel m = sg::sigmem_model(10'000'000, 32, 0.001);
  EXPECT_NEAR(m.total() / (1024.0 * 1024.0), 580.0, 30.0);
}

TEST(SizeModel, WriteTermIsFourBytesPerSlot) {
  const sg::SigMemModel m = sg::sigmem_model(1000, 32, 0.001);
  EXPECT_DOUBLE_EQ(m.write_bytes, 4000.0);
}

TEST(SizeModel, ScalesLinearlyInSlots) {
  const sg::SigMemModel a = sg::sigmem_model(1000, 32, 0.001);
  const sg::SigMemModel b = sg::sigmem_model(2000, 32, 0.001);
  EXPECT_NEAR(b.total(), 2.0 * a.total(), 1e-6);
}

TEST(SizeModel, MoreThreadsNeedBiggerBlooms) {
  const sg::SigMemModel t8 = sg::sigmem_model(1000, 8, 0.001);
  const sg::SigMemModel t32 = sg::sigmem_model(1000, 32, 0.001);
  EXPECT_GT(t32.read_bytes, t8.read_bytes);
  EXPECT_EQ(t32.write_bytes, t8.write_bytes);
}

TEST(SizeModel, StricterFprCostsMoreBits) {
  const sg::SigMemModel loose = sg::sigmem_model(1000, 32, 0.01);
  const sg::SigMemModel tight = sg::sigmem_model(1000, 32, 0.0001);
  EXPECT_GT(tight.bloom_bits_per_slot, loose.bloom_bits_per_slot);
}

// --- invalid-tid contracts --------------------------------------------------

TEST(WriteSignature, RejectsNegativeTidsWithCount) {
  sg::WriteSignature ws(64);
  ws.record(3, -1);  // e.g. ThreadRegistry::kUnregistered leaking through
  EXPECT_FALSE(ws.last_writer(3).has_value());
  EXPECT_EQ(ws.rejected(), 1u);
  ws.record(3, 5);
  ASSERT_TRUE(ws.last_writer(3).has_value());
  EXPECT_EQ(*ws.last_writer(3), 5);
  ws.record(4, -17);
  EXPECT_EQ(ws.rejected(), 2u);
}

TEST(ReadSignature, RejectsNegativeTidAndCountsOverflowInserts) {
  sg::ReadSignature rs(256, 8, 0.001);
  // Negative tid: rejected, counted, and reported as "already present" so
  // Algorithm 1 never manufactures a dependence from an invalid id.
  EXPECT_TRUE(rs.insert(1, -1));
  EXPECT_EQ(rs.rejected(), 1u);
  EXPECT_FALSE(rs.any(1));

  // tid >= max_threads: the bloom hash domain accepts it, but the configured
  // FP rate no longer holds — counted as provenance.
  EXPECT_EQ(rs.overflow_inserts(), 0u);
  (void)rs.insert(2, 8);
  (void)rs.insert(2, 63);
  EXPECT_EQ(rs.overflow_inserts(), 2u);
  EXPECT_TRUE(rs.any(2));
}
