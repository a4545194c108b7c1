// Power-of-two striped slot storage shared by both signature memories.
//
// The n slots are sharded into S = min(kSignatureStripes, floor_pow2(n))
// heap blocks keyed by the low bits of the (already murmur-mixed) slot id:
// stripe = slot & (S-1), row = slot >> log2(S). Each slot owns `width`
// consecutive cells of its row. The mapping is a pure relayout — slot ids,
// slot_of() and the total cell count n * width are what a flat array gives,
// so the Eq. 2 size/accuracy math is untouched — but hash-adjacent slots
// live in different allocations, so concurrent batch flushers probing
// neighbouring slot ids do not serialize on shared cache lines. Stripes
// start on a cache line, so a slot of at most 64 bytes whose size is a
// power of two never straddles two lines.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <vector>

namespace commscope::sigmem {

/// Stripe count used by both signature tables; clamped down to the largest
/// power of two <= slots so tiny test configurations stay valid.
inline constexpr std::size_t kSignatureStripes = 64;

/// `width` zero-initialized cells per slot, striped as described above.
/// Cells must be trivially destructible (atomics of integers).
template <typename Cell>
class StripedCells {
 public:
  StripedCells(std::size_t slots, std::size_t width) : width_(width) {
    std::size_t n_stripes = 1;
    while (n_stripes < kSignatureStripes && n_stripes * 2 <= slots) {
      n_stripes *= 2;
      ++shift_;
    }
    mask_ = n_stripes - 1;
    stripes_.reserve(n_stripes);
    for (std::size_t s = 0; s < n_stripes; ++s) {
      // Exact row count of the stripe: no padding, so the stripes partition
      // exactly slots * width cells.
      const std::size_t cells = ((slots - s + mask_) >> shift_) * width_;
      Cell* p = static_cast<Cell*>(
          ::operator new[](cells * sizeof(Cell), std::align_val_t{kLine}));
      for (std::size_t i = 0; i < cells; ++i) ::new (p + i) Cell(0);
      stripes_.emplace_back(p, cells);
    }
  }

  /// First of `slot`'s `width` cells. Stable for the table's lifetime.
  [[nodiscard]] Cell* slot(std::size_t slot) const noexcept {
    return stripes_[slot & mask_].cells.get() + (slot >> shift_) * width_;
  }

  /// Calls `f(cell)` on every cell, stripe by stripe.
  template <typename F>
  void for_each(F&& f) const {
    for (const Stripe& s : stripes_) {
      for (std::size_t i = 0; i < s.len; ++i) f(s.cells[i]);
    }
  }

 private:
  static constexpr std::size_t kLine = 64;
  struct Free {
    void operator()(Cell* p) const noexcept {
      ::operator delete[](p, std::align_val_t{kLine});
    }
  };
  struct Stripe {
    Stripe(Cell* p, std::size_t n) : cells(p), len(n) {}
    std::unique_ptr<Cell[], Free> cells;
    std::size_t len;
  };

  std::size_t width_;
  std::size_t mask_ = 0;  // stripe count - 1; the count is a power of two
  unsigned shift_ = 0;    // log2(stripe count)
  std::vector<Stripe> stripes_;
};

}  // namespace commscope::sigmem
