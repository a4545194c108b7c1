// Algorithm 1 of the paper: RAW thread-dependence detection over the
// asymmetric signature memory.
//
//   for all memory access a in the program do
//     if Type(a) is read access then
//       if a in write signature then
//         if a not in read signature & lastWrite.tid != a.tid then
//           add RAW dependency to comm. matrix
//       else
//         insert a to read signature
//     else  {a is write access}
//       clear correspondent bloom filter in read signature
//       insert a to write signature
//
// Two published-text ambiguities are resolved here (rationale in DESIGN.md
// §1): the dependence condition uses lastWrite.tid != a.tid (the printed "="
// is a typo — the matrix is *inter*-thread by definition), and a read found
// in the write signature is still inserted into the read signature so each
// (address, reader) pair is counted once per producing write, which is the
// paper's own first-touch rule ("only first time access by a thread is
// counted as a communication", Section V.A.5) — the mechanism that makes the
// profiler resilient to false-positive communication.
//
// The detector is executed inline by the accessing application threads
// themselves ("we use the same threads in the program ... without any need
// to any extra threads"); all shared state is lock-free.
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>

#include "sigmem/exact_signature.hpp"
#include "sigmem/read_signature.hpp"
#include "sigmem/write_signature.hpp"
#include "support/memtrack.hpp"

namespace commscope::core {

/// Backend concept shared by the asymmetric detector and the exact baseline:
/// on_read returns the producer tid when the access completes a new
/// inter-thread RAW dependency.
template <typename B>
concept RawBackend = requires(B& b, std::uintptr_t addr, int tid) {
  { b.on_read(addr, tid) } -> std::same_as<std::optional<int>>;
  b.on_write(addr, tid);
};

/// Algorithm 1 over the two signature memories of Figure 3.
class AsymmetricDetector {
 public:
  AsymmetricDetector(std::size_t slots, int max_threads, double fp_rate,
                     support::MemoryTracker* tracker = nullptr)
      : read_sig_(slots, max_threads, fp_rate, tracker),
        write_sig_(slots, tracker) {}

  /// Precomputed slot pair for one address: the hashing hoisted out of the
  /// probe (on_read_at/on_write_at). Identical algorithm, same slots.
  struct Slots {
    std::size_t read;
    std::size_t write;
  };

  [[nodiscard]] Slots slots_of(std::uintptr_t addr) const noexcept {
    // Both signatures reduce the same murmur mix, so hash once, reduce twice
    // — identical slot ids to calling each signature's slot_of directly.
    const std::uint64_t h =
        support::murmur_mix64(static_cast<std::uint64_t>(addr));
    return Slots{read_sig_.slot_from_hash(h), write_sig_.slot_from_hash(h)};
  }

  std::optional<int> on_read(std::uintptr_t addr, int tid) noexcept {
    return on_read_at(slots_of(addr), tid);
  }

  /// on_read with the hashing already done; bit-identical to on_read.
  std::optional<int> on_read_at(Slots s, int tid) noexcept {
    const std::size_t wslot = s.write;
    const std::optional<int> last_writer = write_sig_.last_writer(wslot);
    const std::size_t rslot = s.read;
    if (last_writer.has_value()) {
      // "a in write signature": the reader joins the read signature; the
      // returned prior-membership bit is the "a not in read signature" test.
      const bool already_reader = read_sig_.insert(rslot, tid);
      if (!already_reader && *last_writer != tid) return last_writer;
      return std::nullopt;
    }
    // "a not in write signature": insert a to read signature.
    read_sig_.insert(rslot, tid);
    return std::nullopt;
  }

  void on_write(std::uintptr_t addr, int tid) noexcept {
    on_write_at(slots_of(addr), tid);
  }

  /// on_write with the hashing already done; bit-identical to on_write.
  void on_write_at(Slots s, int tid) noexcept {
    read_sig_.clear_slot(s.read);
    write_sig_.record(s.write, tid);
  }

  /// Largest block drain_batch accepts per call (the profiler's micro-batch
  /// capacity; sized so every working array lives on the stack).
  static constexpr std::uint32_t kMaxDrainBlock = 256;

  /// Bit 31 of a drain_batch meta word marks the event a write; the low 31
  /// bits are the access byte count (unused by the detector but carried in
  /// the same lane by the profiler's batch buffer, which packs kind and size
  /// into one store per event).
  static constexpr std::uint32_t kMetaWriteBit = 0x8000'0000u;

  /// Result of drain_batch: event counts plus the dependencies found, as a
  /// dense list sorted by event index (`dep_evt[i]` produced a RAW edge from
  /// `dep_producer[i]`, arrays provided by the caller).
  struct DrainResult {
    std::uint32_t writes = 0;  ///< write events in the block
    std::uint32_t deps = 0;    ///< entries filled into dep_evt/dep_producer
  };

  /// Runs Algorithm 1 over a whole micro-batch of same-thread accesses,
  /// bit-identical (for the drain's position in the event order) to calling
  /// on_read_at/on_write_at per event in issue order, but restructured as a
  /// hash -> classify -> gather -> apply pipeline:
  ///
  ///   1. murmur_mix64_batch hashes the block (AVX2 when dispatched);
  ///   2. a per-batch slot table collapses repeats — under the first-touch
  ///      rule only a slot's FIRST pre-write read can yield a dependency, a
  ///      slot's writes collapse to one clear+record, and only a read after
  ///      the last write re-populates the reader set;
  ///   3. a gather pass loads every distinct slot's write-sig cell and
  ///      prefetches its inline bloom words: independent accesses, so the
  ///      misses overlap (memory-level parallelism);
  ///   4. the apply pass mutates each distinct slot in its per-slot issue
  ///      order (read-insert, then clear+record, then post-write insert).
  ///
  /// Distinct slots touch disjoint signature state, so cross-slot apply
  /// order is unobservable; per-slot order is preserved, which is what the
  /// bit-identity contract needs. Both signatures are built with the same
  /// slot count, so one slot id indexes both (asserted).
  ///
  /// `meta[i] & kMetaWriteBit` marks a write. `dep_evt`/`dep_producer` must
  /// hold n entries. Requires n <= kMaxDrainBlock and 0 <= tid < max_threads
  /// (negative/overflow tids fall back to the per-event path internally so
  /// the rejection contracts of the signatures are preserved).
  DrainResult drain_batch(const std::uintptr_t* addrs,
                          const std::uint32_t* meta, std::uint32_t n, int tid,
                          std::uint16_t* dep_evt,
                          std::int8_t* dep_producer) noexcept;

  /// Classified variants for the optional WAR/WAW/RAR extension. Bloom
  /// filters cannot enumerate members, so "other readers" is approximated:
  /// a RAR is reported when the slot already had readers and `tid` was not
  /// among them; a WAR when the slot had any readers at all (which may be
  /// the writer's own — an overcount the exact backend does not make).
  [[nodiscard]] sigmem::ExactSignature::ReadObservation on_read_classified(
      std::uintptr_t addr, int tid) noexcept {
    sigmem::ExactSignature::ReadObservation obs;
    const std::size_t rslot = read_sig_.slot_of(addr);
    obs.rar = read_sig_.any(rslot) && !read_sig_.contains(rslot, tid);
    obs.producer = on_read(addr, tid);
    return obs;
  }

  sigmem::ExactSignature::WriteObservation on_write_classified(
      std::uintptr_t addr, int tid) noexcept {
    sigmem::ExactSignature::WriteObservation obs;
    obs.had_other_readers = read_sig_.any(read_sig_.slot_of(addr));
    obs.prev_writer = write_sig_.last_writer(write_sig_.slot_of(addr));
    on_write(addr, tid);
    return obs;
  }

  [[nodiscard]] const sigmem::ReadSignature& read_signature() const noexcept {
    return read_sig_;
  }
  [[nodiscard]] const sigmem::WriteSignature& write_signature() const noexcept {
    return write_sig_;
  }

  [[nodiscard]] std::uint64_t byte_size() const noexcept {
    return read_sig_.byte_size() + write_sig_.byte_size();
  }

 private:
  sigmem::ReadSignature read_sig_;
  sigmem::WriteSignature write_sig_;
};

static_assert(RawBackend<AsymmetricDetector>);

}  // namespace commscope::core
