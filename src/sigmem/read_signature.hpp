// Read signature (Figure 3a of the paper).
//
// "Two-level signature memory is designed for 'Read Signature' because we
// need to store the list of all threads which have accessed the correspondent
// memory location. It uses a fixed-length array of size n ... in combination
// with an efficient MurmurHash function that maps memory addresses to array
// indexes. The first-level array stores the pointers to the second-level
// arrays which are actually bloom filters."
//
// Each of the n slots holds one bloom filter of reader thread ids, sized
// from (thread count, FPRate) exactly as Eq. 2 prescribes: W = bits / 64
// words. The filters are stored inline — slot s's W words sit at a fixed
// place in the striped table (sigmem/stripes.hpp) — instead of behind the
// paper's per-slot pointer. That is the layout Eq. 2 models (n bloom
// filters, no pointer term): the footprint is a constant n * 8W bytes
// charged at construction, whatever the input (the property Figure 5
// demonstrates), and a read probes its filter with one memory access
// instead of chasing pointer, filter header and bit words (DESIGN.md §1).
// A write "clears the correspondent bloom filter" in place.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "sigmem/stripes.hpp"
#include "support/bloom.hpp"
#include "support/hash.hpp"
#include "support/memtrack.hpp"

namespace commscope::sigmem {

class ReadSignature {
 public:
  /// `slots`: slot count n. `max_threads`: bloom capacity t.
  /// `fp_rate`: bloom false-positive target (paper default 0.001).
  ReadSignature(std::size_t slots, int max_threads, double fp_rate,
                support::MemoryTracker* tracker = nullptr);
  ~ReadSignature();

  ReadSignature(const ReadSignature&) = delete;
  ReadSignature& operator=(const ReadSignature&) = delete;

  /// Maps a memory address to its slot index; same mapping as the modulo
  /// (`h & (slots-1) == h % slots` for power-of-two slot counts), minus the
  /// per-event hardware divide. See WriteSignature::slot_of.
  [[nodiscard]] std::size_t slot_of(std::uintptr_t addr) const noexcept {
    return slot_from_hash(
        support::murmur_mix64(static_cast<std::uint64_t>(addr)));
  }

  /// slot_of with the murmur mix already done — callers probing both
  /// signatures hash the address once and reduce twice.
  [[nodiscard]] std::size_t slot_from_hash(std::uint64_t h) const noexcept {
    return slot_mask_ != 0 ? (h & slot_mask_) : h % slots_;
  }

  /// `slot`'s bloom words (word_count() of them). The batched drain gathers
  /// these for a whole block and probes through them with the
  /// support::bloom_* word functions. Stable for the signature's lifetime.
  [[nodiscard]] std::atomic<std::uint64_t>* words(std::size_t slot) const
      noexcept {
    return words_.slot(slot);
  }
  /// Words per slot: W = bloom_params().bits / 64.
  [[nodiscard]] std::size_t word_count() const noexcept { return width_; }

  /// Hints `slot`'s bloom words into cache for writing.
  void prefetch(std::size_t slot) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    const std::atomic<std::uint64_t>* w = words(slot);
    __builtin_prefetch(w, 1 /*write*/, 1);
    __builtin_prefetch(w + (width_ - 1), 1 /*write*/, 1);
#else
    (void)slot;
#endif
  }

  /// The precomputed probe set insert(slot, tid)/contains(slot, tid) uses for
  /// an in-range tid — shared by every slot (same BloomParams), which is
  /// what lets the batched drain probe a whole block with one probe set.
  /// Valid only for 0 <= tid < max_threads().
  struct ProbeSet {
    const support::BloomProbe* probes;
    std::uint32_t count;
  };
  [[nodiscard]] ProbeSet probes_of(int tid) const noexcept {
    return ProbeSet{&probes_[static_cast<std::size_t>(tid) * probe_stride_],
                    probe_counts_[static_cast<std::size_t>(tid)]};
  }

  /// Inserts reader `tid` into `slot`'s bloom filter. Returns true if the
  /// tid was (apparently) already present — the "a not in read signature"
  /// test of Algorithm 1 in one atomic pass.
  ///
  /// Contract: negative tids are rejected (counted in rejected(), reported
  /// "already present" so no dependence is manufactured); tids >=
  /// max_threads still insert — the bloom hash domain is unbounded — but are
  /// counted in overflow_inserts() because the Eq. 2 sizing (and hence the
  /// configured FP rate) assumed at most max_threads distinct members.
  bool insert(std::size_t slot, int tid) noexcept;

  /// Membership query without insertion.
  [[nodiscard]] bool contains(std::size_t slot, int tid) const noexcept;

  /// True if any reader has been recorded in `slot` since its last clear.
  /// Used by the approximate WAR/RAR classification extension.
  [[nodiscard]] bool any(std::size_t slot) const noexcept;

  /// Clears `slot`'s reader set — Algorithm 1's response to a write ("clear
  /// correspondent bloom filter in read signature"). Already-zero words are
  /// left untouched (support::bloom_clear_sparing).
  void clear_slot(std::size_t slot) noexcept;

  void clear() noexcept;

  [[nodiscard]] std::size_t slots() const noexcept { return slots_; }
  [[nodiscard]] int max_threads() const noexcept { return max_threads_; }
  [[nodiscard]] double fp_rate() const noexcept { return fp_rate_; }
  [[nodiscard]] support::BloomParams bloom_params() const noexcept {
    return bloom_params_;
  }

  /// insert() calls rejected for carrying a negative tid.
  [[nodiscard]] std::uint64_t rejected() const noexcept {
    return rejected_.load(std::memory_order_relaxed);
  }
  /// insert() calls whose tid was >= max_threads: the filter accepted them,
  /// but the configured false-positive rate no longer holds for those slots.
  [[nodiscard]] std::uint64_t overflow_inserts() const noexcept {
    return overflow_inserts_.load(std::memory_order_relaxed);
  }

  /// Bytes held: n slots * W words * 8, all charged at construction.
  [[nodiscard]] std::size_t byte_size() const noexcept {
    return slots_ * width_ * sizeof(std::uint64_t);
  }

 private:
  std::size_t slots_;
  int max_threads_;
  double fp_rate_;
  support::BloomParams bloom_params_;
  std::size_t width_;      // W, bloom words per slot
  std::size_t slot_mask_;  // slots - 1 when slots is a power of two, else 0
  /// Per-tid precomputed bloom probe sets (tids 0..max_threads-1, the only
  /// keys Algorithm 1 inserts): `probe_stride_` entries per tid, count in
  /// `probe_counts_`. Every slot shares bloom_params_, so the positions are
  /// computed once here instead of k hash evaluations per insert, and are
  /// bit-identical to hashing inline (see support::bloom_insert_probes).
  std::uint32_t probe_stride_;
  std::vector<support::BloomProbe> probes_;
  std::vector<std::uint32_t> probe_counts_;
  StripedCells<std::atomic<std::uint64_t>> words_;
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> overflow_inserts_{0};
  support::MemoryTracker* tracker_;
};

}  // namespace commscope::sigmem
