// One-level write signature (Figure 3b of the paper).
//
// "One-level signature memory tries to only store source thread numbers and
// is used for representing 'Write Signature'. In every situation, the values
// stored in the elements of this signature represent the last thread number
// which accessed the relevant memory location."
//
// Each slot is one lock-free 32-bit atomic holding `tid + 1` (0 = empty), so
// a slot is simultaneously an occupancy flag and the last-writer id —
// matching the 4-bytes-per-slot term of Eq. 2. Addresses map to slots with
// MurmurHash; distinct addresses may collide, which is the signature's
// designed-in approximation (Section IV.D.2 discusses the accuracy/memory
// trade-off the slot count controls).
//
// Storage is striped (sigmem/stripes.hpp): a pure relayout that keeps slot
// ids and the Eq. 2 byte count of the flat array.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>

#include "sigmem/stripes.hpp"
#include "support/hash.hpp"
#include "support/memtrack.hpp"

namespace commscope::sigmem {

class WriteSignature {
 public:
  /// Creates a signature with `slots` elements; allocation is charged to
  /// `tracker` when provided.
  explicit WriteSignature(std::size_t slots,
                          support::MemoryTracker* tracker = nullptr);
  ~WriteSignature();

  WriteSignature(const WriteSignature&) = delete;
  WriteSignature& operator=(const WriteSignature&) = delete;

  /// Maps a memory address to its slot index. When the slot count is a power
  /// of two (every default and every degradation rung — halving preserves
  /// it), `h & (slots-1) == h % slots`, so the mask path is the identical
  /// mapping minus the hardware divide the hot loop would otherwise pay
  /// twice per event.
  [[nodiscard]] std::size_t slot_of(std::uintptr_t addr) const noexcept {
    return slot_from_hash(
        support::murmur_mix64(static_cast<std::uint64_t>(addr)));
  }

  /// slot_of with the murmur mix already done — callers probing both
  /// signatures hash the address once and reduce twice.
  [[nodiscard]] std::size_t slot_from_hash(std::uint64_t h) const noexcept {
    return slot_mask_ != 0 ? (h & slot_mask_) : h % slots_;
  }

  /// Records thread `tid` as the last writer of `slot`. Contract: tid must
  /// be a valid dense id (>= 0). A negative id — an unregistered thread, a
  /// registry overflow sentinel — cannot be encoded in the tid+1 cell
  /// scheme; it is rejected and counted instead of aliasing as a bogus
  /// writer after the unsigned cast wraps.
  void record(std::size_t slot, int tid) noexcept {
    if (tid < 0) [[unlikely]] {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    cell(slot).store(static_cast<std::uint32_t>(tid) + 1,
                     std::memory_order_release);
  }

  /// Last writer of `slot`, or nullopt if no write has been recorded.
  [[nodiscard]] std::optional<int> last_writer(std::size_t slot) const noexcept {
    const std::uint32_t v = cell(slot).load(std::memory_order_acquire);
    if (v == 0) return std::nullopt;
    return static_cast<int>(v - 1);
  }

  /// The raw cell encoding: 0 = empty, else last-writer tid + 1. The batched
  /// drain gathers these for a whole block of slots in one load pass (and
  /// skips the record() store when the cell already holds tid + 1 — same end
  /// state, no dirtied line).
  [[nodiscard]] std::uint32_t raw_last_writer(std::size_t slot) const noexcept {
    return cell(slot).load(std::memory_order_acquire);
  }

  /// The slot's backing cell. The batched drain gathers these pointers for a
  /// whole block up front and performs both its snapshot load and the
  /// conditional record() store through them, instead of re-deriving the
  /// stripe indexing on every touch of the slot. The pointer is stable for
  /// the signature's lifetime. Callers own the tid-validity contract that
  /// record() enforces (only encode tid + 1 for tid >= 0).
  [[nodiscard]] std::atomic<std::uint32_t>* cell_ptr(std::size_t slot) noexcept {
    return &cell(slot);
  }

  void clear() noexcept;

  [[nodiscard]] std::size_t slots() const noexcept { return slots_; }
  [[nodiscard]] std::size_t byte_size() const noexcept {
    return slots_ * sizeof(std::uint32_t);
  }
  /// Number of occupied slots (diagnostics / fill-rate tests).
  [[nodiscard]] std::size_t occupancy() const noexcept;

  /// record() calls rejected for carrying an invalid (negative) tid.
  [[nodiscard]] std::uint64_t rejected() const noexcept {
    return rejected_.load(std::memory_order_relaxed);
  }

 private:
  std::size_t slots_;
  std::size_t slot_mask_;  // slots - 1 when slots is a power of two, else 0
  StripedCells<std::atomic<std::uint32_t>> cells_;
  support::MemoryTracker* tracker_;
  std::atomic<std::uint64_t> rejected_{0};

  [[nodiscard]] std::atomic<std::uint32_t>& cell(std::size_t slot) const
      noexcept {
    return *cells_.slot(slot);
  }
};

}  // namespace commscope::sigmem
