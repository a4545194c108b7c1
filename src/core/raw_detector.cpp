#include "core/raw_detector.hpp"

#include <array>
#include <cassert>
#include <cstring>
#include <type_traits>

#include "support/bloom.hpp"
#include "support/hash.hpp"

namespace commscope::core {

namespace {

// Per-slot classification flags for one micro-batch. The batch is a single
// thread's issue-ordered window, so per-slot history within it collapses:
//
//   kPreRead   a read was issued before any write to the slot. Only the
//              FIRST such read can yield a dependency (it inserts tid into
//              the reader set; later pre-write reads find it there — the
//              first-touch rule), so one event index is remembered.
//   kWrite     at least one write. All of a slot's writes collapse to one
//              clear+record: intermediate (read, write)* churn ends in
//              whatever the LAST write left, which is clear+record(tid).
//   kPostRead  a read was issued after the LAST write. Such reads can never
//              be dependencies (the last writer is tid itself) but must
//              re-populate the cleared reader set; reads after earlier,
//              overwritten writes are erased by the later clear and need no
//              replay.
constexpr std::uint8_t kPreRead = 1;
constexpr std::uint8_t kWrite = 2;
constexpr std::uint8_t kPostRead = 4;

/// The flag state machine as a lookup table, indexed by (is_write << 3) |
/// flags. Classify's transition branches (read-vs-write, first-vs-repeat)
/// follow the access stream, so they mispredict heavily; a table walk plus
/// conditional moves retires the same state machine with no data-dependent
/// branch at all.
///
///   read:  a write-seen slot gains kPostRead; an untouched slot gains
///          kPreRead; a pre-read slot is a repeat (unchanged).
///   write: gains kWrite and erases kPostRead (a later write erases any
///          post-write reads of the earlier one).
constexpr auto kNextFlags = [] {
  std::array<std::uint8_t, 16> t{};
  for (std::uint8_t f = 0; f < 8; ++f) {
    t[f] = (f & kWrite) != 0 ? static_cast<std::uint8_t>(f | kPostRead)
           : f == 0          ? kPreRead
                             : f;
    t[8 | f] = static_cast<std::uint8_t>((f | kWrite) & ~kPostRead);
  }
  return t;
}();

}  // namespace

AsymmetricDetector::DrainResult AsymmetricDetector::drain_batch(
    const std::uintptr_t* addrs, const std::uint32_t* meta, std::uint32_t n,
    int tid, std::uint16_t* dep_evt, std::int8_t* dep_producer) noexcept {
  DrainResult result{};
  if (n == 0) return result;
  assert(n <= kMaxDrainBlock);
  // One slot id indexes both signatures: they are constructed with the same
  // slot count and reduce the same murmur mix (slots_of relies on this too).
  assert(read_sig_.slots() == write_sig_.slots());

  if (tid < 0 || tid >= read_sig_.max_threads()) [[unlikely]] {
    // Out-of-contract tids carry per-signature rejection/overflow accounting
    // the fast path's precomputed probe sets cannot reproduce; take the
    // per-event path verbatim.
    for (std::uint32_t i = 0; i < n; ++i) {
      const Slots s = slots_of(addrs[i]);
      if ((meta[i] & kMetaWriteBit) != 0) {
        ++result.writes;
        on_write_at(s, tid);
        continue;
      }
      const std::optional<int> producer = on_read_at(s, tid);
      if (producer.has_value()) {
        dep_evt[result.deps] = static_cast<std::uint16_t>(i);
        dep_producer[result.deps] = static_cast<std::int8_t>(*producer);
        ++result.deps;
      }
    }
    return result;
  }

  // --- stage 1: hash the whole block (SIMD-dispatched) ---------------------
  std::uint64_t hashes[kMaxDrainBlock];
  const std::uint64_t* keys;
  [[maybe_unused]] std::uint64_t keybuf[kMaxDrainBlock];
  if constexpr (std::is_same_v<std::uintptr_t, std::uint64_t>) {
    keys = addrs;  // LP64: the address lane IS the key lane, no copy
  } else {
    for (std::uint32_t i = 0; i < n; ++i) {
      keybuf[i] = static_cast<std::uint64_t>(addrs[i]);
    }
    keys = keybuf;
  }
  support::murmur_mix64_batch(keys, hashes, n);

  // --- stage 2: classify, collapsing slot repeats ---------------------------
  // Open-addressing table keyed by slot id (already murmur-mixed, so low
  // bits index uniformly); values are dense indexes into the per-slot
  // arrays. Capacity 2x the block bound keeps probe chains short; a
  // length-proportional table was tried and measured slower — the higher
  // load factor lengthens probe chains by more than the smaller clear saves.
  constexpr std::uint32_t kTab = kMaxDrainBlock * 2;
  static_assert((kTab & (kTab - 1)) == 0);
  constexpr std::uint32_t tmask = kTab - 1;
  std::uint16_t tab[kTab];
  std::memset(tab, 0, sizeof tab);  // 0 = empty, else dense index + 1

  std::size_t uslot[kMaxDrainBlock];
  std::uint8_t flags[kMaxDrainBlock];
  // One scratch entry past the block: conditional stores are retired as an
  // unconditional store to a conditionally-selected index, so the
  // "first pre-write read" bookkeeping needs a bit bucket for every other
  // event (see below).
  std::uint16_t first_read[kMaxDrainBlock + 1];
  std::uint32_t m = 0;
  // Every classified slot carries at least one flag, so flags[k] == 0 reads
  // as "untouched this batch" without per-slot initialization branches.
  std::memset(flags, 0, n);

  for (std::uint32_t i = 0; i < n; ++i) {
    const std::size_t s = read_sig_.slot_from_hash(hashes[i]);
    std::uint32_t t = static_cast<std::uint32_t>(s) & tmask;
    std::uint16_t e = tab[t];
    // Collision skip: occupied by a DIFFERENT slot. At <= 12.5% load factor
    // this is the only branch the stream data can steer, and it is rarely
    // taken; the fresh-vs-repeat distinction below is all conditional moves
    // (it tracks the access stream and mispredicts badly as a branch).
    while (e != 0 && uslot[e - 1] != s) [[unlikely]] {
      t = (t + 1) & tmask;
      e = tab[t];
    }
    const bool fresh = e == 0;
    const std::uint32_t k = fresh ? m : static_cast<std::uint32_t>(e) - 1;
    // Repeats rewrite their existing entry/slot id with the same values.
    tab[t] = static_cast<std::uint16_t>(k + 1);
    uslot[k] = s;
    m += fresh;
    const std::uint32_t is_w = meta[i] >> 31;
    static_assert(kMetaWriteBit == 0x8000'0000u);
    result.writes += is_w;
    const std::uint8_t f = flags[k];
    flags[k] = kNextFlags[(is_w << 3) | f];
    // A slot's dependency-eligible read is its FIRST pre-write read, i.e.
    // the slot was untouched (fresh <=> f == 0) and this is a read; every
    // other event parks its index in the scratch entry.
    first_read[fresh && is_w == 0 ? k : kMaxDrainBlock] =
        static_cast<std::uint16_t>(i);
  }

  // --- stage 3: gather ------------------------------------------------------
  // Pre-apply snapshots of every distinct slot's write cell, plus a prefetch
  // of its inline bloom words: a tight loop of independent accesses, so the
  // misses overlap instead of serializing slot by slot in the apply pass.
  // The write cell and the bloom words are gathered as POINTERS so the apply
  // pass reaches both without re-deriving the stripe indexing.
  std::atomic<std::uint32_t>* wcell[kMaxDrainBlock];
  std::uint32_t lw_raw[kMaxDrainBlock];
  std::atomic<std::uint64_t>* rwords[kMaxDrainBlock];
  for (std::uint32_t k = 0; k < m; ++k) {
    wcell[k] = write_sig_.cell_ptr(uslot[k]);
    lw_raw[k] = wcell[k]->load(std::memory_order_acquire);
    rwords[k] = read_sig_.words(uslot[k]);
    read_sig_.prefetch(uslot[k]);
  }

  // --- stage 4: apply, per-slot issue order ---------------------------------
  // Distinct slots own disjoint signature state, so applying slot-by-slot is
  // unobservable against the issue order; within a slot the order is
  // pre-write read insert, then clear+record, then post-write insert — the
  // collapsed form of the slot's event sequence. The pre-write insert's
  // "already present" answer is the "a not in read signature" judgement;
  // bloom_insert_probes loads before it RMWs, so a repeat reader (the common
  // case) costs loads only.
  const sigmem::ReadSignature::ProbeSet ps = read_sig_.probes_of(tid);
  const std::size_t nwords = read_sig_.word_count();
  const std::uint32_t tid_cell = static_cast<std::uint32_t>(tid) + 1;
  for (std::uint32_t k = 0; k < m; ++k) {
    const std::uint8_t f = flags[k];
    std::atomic<std::uint64_t>* w = rwords[k];
    if ((f & kPreRead) != 0) {
      const bool already = support::bloom_insert_probes(w, ps.probes, ps.count);
      const std::uint32_t lw = lw_raw[k];
      if (!already && lw != 0 && lw != tid_cell) {
        dep_evt[result.deps] = first_read[k];
        dep_producer[result.deps] = static_cast<std::int8_t>(lw - 1);
        ++result.deps;
      }
    }
    if ((f & kWrite) != 0) {
      support::bloom_clear_sparing(w, nwords);
      if (lw_raw[k] != tid_cell) {
        wcell[k]->store(tid_cell, std::memory_order_release);
      }
    }
    if ((f & kPostRead) != 0) {
      (void)support::bloom_insert_probes(w, ps.probes, ps.count);
    }
  }
  return result;
}

}  // namespace commscope::core
