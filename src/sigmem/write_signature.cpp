#include "sigmem/write_signature.hpp"

#include <stdexcept>

namespace commscope::sigmem {

namespace {
std::size_t checked_slots(std::size_t slots) {
  if (slots == 0) throw std::invalid_argument("WriteSignature needs >= 1 slot");
  return slots;
}
}  // namespace

WriteSignature::WriteSignature(std::size_t slots,
                               support::MemoryTracker* tracker)
    : slots_(checked_slots(slots)),
      slot_mask_((slots & (slots - 1)) == 0 ? slots - 1 : 0),
      cells_(slots, 1),
      tracker_(tracker) {
  if (tracker_ != nullptr) tracker_->add(byte_size());
}

WriteSignature::~WriteSignature() {
  if (tracker_ != nullptr) tracker_->sub(byte_size());
}

void WriteSignature::clear() noexcept {
  cells_.for_each([](std::atomic<std::uint32_t>& c) {
    c.store(0, std::memory_order_release);
  });
}

std::size_t WriteSignature::occupancy() const noexcept {
  std::size_t n = 0;
  cells_.for_each([&n](const std::atomic<std::uint32_t>& c) {
    n += c.load(std::memory_order_relaxed) != 0;
  });
  return n;
}

}  // namespace commscope::sigmem
