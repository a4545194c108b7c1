#include "sigmem/read_signature.hpp"

#include <algorithm>
#include <stdexcept>

namespace commscope::sigmem {

namespace {
support::BloomParams checked_params(std::size_t slots, int max_threads,
                                    double fp_rate) {
  if (slots == 0) throw std::invalid_argument("ReadSignature needs >= 1 slot");
  if (max_threads < 1) throw std::invalid_argument("max_threads must be >= 1");
  return support::bloom_params(static_cast<std::size_t>(max_threads), fp_rate);
}
}  // namespace

ReadSignature::ReadSignature(std::size_t slots, int max_threads, double fp_rate,
                             support::MemoryTracker* tracker)
    : slots_(slots),
      max_threads_(max_threads),
      fp_rate_(fp_rate),
      bloom_params_(checked_params(slots, max_threads, fp_rate)),
      width_(bloom_params_.bits / 64),
      slot_mask_((slots & (slots - 1)) == 0 ? slots - 1 : 0),
      probe_stride_(std::min(bloom_params_.hashes, support::kBloomMaxProbes)),
      probes_(static_cast<std::size_t>(max_threads) * probe_stride_),
      probe_counts_(static_cast<std::size_t>(max_threads)),
      words_(slots, width_),
      tracker_(tracker) {
  for (int t = 0; t < max_threads_; ++t) {
    probe_counts_[static_cast<std::size_t>(t)] = support::bloom_probes_for(
        bloom_params_, static_cast<std::uint64_t>(t),
        &probes_[static_cast<std::size_t>(t) * probe_stride_]);
  }
  if (tracker_ != nullptr) tracker_->add(byte_size());
}

ReadSignature::~ReadSignature() {
  if (tracker_ != nullptr) tracker_->sub(byte_size());
}

bool ReadSignature::insert(std::size_t slot, int tid) noexcept {
  if (tid < 0) [[unlikely]] {
    // Reporting "already present" keeps Algorithm 1 from manufacturing a
    // dependence out of an unattributable reader.
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  if (tid >= max_threads_) [[unlikely]] {
    overflow_inserts_.fetch_add(1, std::memory_order_relaxed);
    return support::bloom_insert(words(slot), bloom_params_,
                                 static_cast<std::uint64_t>(tid));
  }
  // In-range tids (every insert Algorithm 1 issues) use the probe set
  // precomputed in the constructor: same bit positions, one RMW per word.
  const ProbeSet ps = probes_of(tid);
  return support::bloom_insert_probes(words(slot), ps.probes, ps.count);
}

bool ReadSignature::contains(std::size_t slot, int tid) const noexcept {
  if (tid < 0 || tid >= max_threads_) [[unlikely]] {
    return support::bloom_contains(words(slot), bloom_params_,
                                   static_cast<std::uint64_t>(tid));
  }
  const ProbeSet ps = probes_of(tid);
  return support::bloom_contains_probes(words(slot), ps.probes, ps.count);
}

bool ReadSignature::any(std::size_t slot) const noexcept {
  const std::atomic<std::uint64_t>* w = words(slot);
  return std::any_of(w, w + width_, [](const std::atomic<std::uint64_t>& x) {
    return x.load(std::memory_order_relaxed) != 0;
  });
}

void ReadSignature::clear_slot(std::size_t slot) noexcept {
  support::bloom_clear_sparing(words(slot), width_);
}

void ReadSignature::clear() noexcept {
  words_.for_each([](std::atomic<std::uint64_t>& w) {
    w.store(0, std::memory_order_release);
  });
}

}  // namespace commscope::sigmem
