// Concurrent bloom filter, auto-sized from capacity and target false-positive
// rate per the paper's Eq. 2 sizing law.
//
// The read signature's second level is "a bloom filter [used] to save the
// list of threads which accessed the same memory address" (Section IV.D.2).
// Because the element universe is thread ids, capacity is the program's
// thread count t; the bit count m and hash count k are derived from the
// standard bloom formulas the paper plugs into Eq. 2:
//
//   m = -t * ln(FPRate) / ln^2(2)        (bits)
//   k =  (m / t) * ln(2)                 (hash functions)
//
// Hashes come from Kirsch–Mitzenmacher double hashing over one Murmur
// evaluation ("a linear combination of hash functions ... to automatically
// adjust the number of hash functions according to the false positive rate
// required by the user").
#pragma once

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "support/bitset.hpp"
#include "support/hash.hpp"

namespace commscope::support {

/// Sizing parameters derived from (capacity, fp_rate).
struct BloomParams {
  std::size_t bits = 0;    ///< m, rounded up to a multiple of 64
  std::uint32_t hashes = 0;  ///< k, at least 1
};

/// Computes bloom parameters for `capacity` expected insertions at target
/// false-positive rate `fp_rate` (clamped to a sane range).
[[nodiscard]] inline BloomParams bloom_params(std::size_t capacity,
                                              double fp_rate) noexcept {
  if (capacity == 0) capacity = 1;
  if (fp_rate <= 0.0) fp_rate = 1e-9;
  if (fp_rate >= 1.0) fp_rate = 0.5;
  const double ln2 = std::log(2.0);
  const double m =
      -static_cast<double>(capacity) * std::log(fp_rate) / (ln2 * ln2);
  const double k = m / static_cast<double>(capacity) * ln2;
  BloomParams p;
  p.bits = ((static_cast<std::size_t>(std::ceil(m)) + 63) / 64) * 64;
  p.hashes = static_cast<std::uint32_t>(std::lround(std::max(1.0, k)));
  return p;
}

// --- word-level probing ---------------------------------------------------
// A filter is params.bits / 64 atomic words. These functions are the one
// implementation of probing, for BloomFilter and the read signature's inline
// filters. Keys are thread ids, so callers precompute a key's probes once,
// grouped by word (bloom_probes_for): one RMW or load per touched word
// instead of k hash evaluations and k RMWs.

/// One precomputed probe group: the OR of every probed bit of `word`.
struct BloomProbe {
  std::uint32_t word;
  std::uint64_t mask;
};

/// Maximum probe groups a key can produce (distinct words <= hash count).
inline constexpr std::uint32_t kBloomMaxProbes = 32;

/// Writes the probe set bloom_insert/bloom_contains would touch for `key`
/// under `params` — identical double-hashing positions, grouped by word —
/// and returns the group count. `out` must hold at least
/// min(params.hashes, kBloomMaxProbes) entries.
inline std::uint32_t bloom_probes_for(BloomParams params, std::uint64_t key,
                                      BloomProbe* out) noexcept {
  const HashPair hp = split_hash(murmur_mix64(key));
  std::uint32_t n = 0;
  for (std::uint32_t i = 0; i < params.hashes && n < kBloomMaxProbes; ++i) {
    const std::size_t bit = km_hash(hp.h1, hp.h2, i) % params.bits;
    const auto w = static_cast<std::uint32_t>(bit >> 6);
    std::uint32_t j = 0;
    while (j < n && out[j].word != w) ++j;
    if (j == n) out[n++] = BloomProbe{w, 0};
    out[j].mask |= 1ULL << (bit & 63U);
  }
  return n;
}

/// Inserts `key` bit by bit, all k hashes (uncapped); returns true if every
/// probed bit was already set (the key was apparently present).
inline bool bloom_insert(std::atomic<std::uint64_t>* words, BloomParams params,
                         std::uint64_t key) noexcept {
  const HashPair hp = split_hash(murmur_mix64(key));
  bool all_set = true;
  for (std::uint32_t i = 0; i < params.hashes; ++i) {
    const std::size_t bit = km_hash(hp.h1, hp.h2, i) % params.bits;
    const std::uint64_t mask = 1ULL << (bit & 63U);
    all_set &= (words[bit >> 6].fetch_or(mask, std::memory_order_acq_rel) &
                mask) != 0;
  }
  return all_set;
}

[[nodiscard]] inline bool bloom_contains(
    const std::atomic<std::uint64_t>* words, BloomParams params,
    std::uint64_t key) noexcept {
  const HashPair hp = split_hash(murmur_mix64(key));
  for (std::uint32_t i = 0; i < params.hashes; ++i) {
    const std::size_t bit = km_hash(hp.h1, hp.h2, i) % params.bits;
    if ((words[bit >> 6].load(std::memory_order_acquire) &
         (1ULL << (bit & 63U))) == 0) {
      return false;
    }
  }
  return true;
}

/// bloom_insert with the probe set precomputed: bit-identical end state and
/// answer, since "every distinct probed bit was already set" is exactly
/// (old & mask) == mask per word.
inline bool bloom_insert_probes(std::atomic<std::uint64_t>* words,
                                const BloomProbe* probes,
                                std::uint32_t n) noexcept {
  bool all_set = true;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::atomic<std::uint64_t>& w = words[probes[i].word];
    const std::uint64_t mask = probes[i].mask;
    // Under the first-touch rule most reads are repeats whose bits are all
    // set already; a plain load then costs a fraction of the RMW.
    if ((w.load(std::memory_order_acquire) & mask) == mask) continue;
    all_set &= (w.fetch_or(mask, std::memory_order_acq_rel) & mask) == mask;
  }
  return all_set;
}

/// bloom_contains with the probe set precomputed.
[[nodiscard]] inline bool bloom_contains_probes(
    const std::atomic<std::uint64_t>* words, const BloomProbe* probes,
    std::uint32_t n) noexcept {
  for (std::uint32_t i = 0; i < n; ++i) {
    if ((words[probes[i].word].load(std::memory_order_acquire) &
         probes[i].mask) != probes[i].mask) {
      return false;
    }
  }
  return true;
}

/// Zeroes the filter, skipping words already zero, so clearing the (commonly
/// empty) reader set of a write-dominated slot does not dirty its line.
/// Races like a plain clear: either serialization with an insert is legal.
inline void bloom_clear_sparing(std::atomic<std::uint64_t>* words,
                                std::size_t nwords) noexcept {
  for (std::size_t w = 0; w < nwords; ++w) {
    if (words[w].load(std::memory_order_relaxed) != 0) {
      words[w].store(0, std::memory_order_release);
    }
  }
}

/// Thread-safe bloom filter over 64-bit keys, owning its words.
class BloomFilter {
 public:
  BloomFilter(std::size_t capacity, double fp_rate)
      : BloomFilter(bloom_params(capacity, fp_rate)) {}
  explicit BloomFilter(BloomParams params) : params_(params), bits_(params.bits) {}

  /// Inserts `key`; returns true if the key was (apparently) already present.
  bool insert(std::uint64_t key) noexcept {
    return bloom_insert(bits_.words(), params_, key);
  }
  [[nodiscard]] bool contains(std::uint64_t key) const noexcept {
    return bloom_contains(bits_.words(), params_, key);
  }
  bool insert_probes(const BloomProbe* probes, std::uint32_t n) noexcept {
    return bloom_insert_probes(bits_.words(), probes, n);
  }
  [[nodiscard]] bool contains_probes(const BloomProbe* probes,
                                     std::uint32_t n) const noexcept {
    return bloom_contains_probes(bits_.words(), probes, n);
  }

  void clear() noexcept { bits_.clear(); }
  void clear_sparing() noexcept {
    bloom_clear_sparing(bits_.words(), bits_.word_count());
  }

  [[nodiscard]] std::size_t bit_count() const noexcept { return params_.bits; }
  [[nodiscard]] std::uint32_t hash_count() const noexcept {
    return params_.hashes;
  }
  [[nodiscard]] std::size_t byte_size() const noexcept {
    return bits_.byte_size();
  }
  [[nodiscard]] std::size_t popcount() const noexcept { return bits_.count(); }
  [[nodiscard]] bool empty() const noexcept { return !bits_.any(); }

  /// Measured false-positive probability given the current fill level:
  /// (popcount/m)^k. Used by tests to validate the sizing law.
  [[nodiscard]] double estimated_fpr() const noexcept;

 private:
  BloomParams params_{};
  AtomicBitset bits_;
};

}  // namespace commscope::support
