// In-memory span recorder and per-layer ledger for the traced run.
//
// Spans are recorded only by the benchmark's own code, around its calls into
// the library. Each span has a name, start, end, parent span and a group id
// (one per pass, repetition or ship). They stay in memory while the run
// measures and are written out when it ends. Recording is off unless the run
// was started with --trace 1; a disabled Span costs one branch.
//
// The ledger sums each name's self time: the span's duration minus the part
// of it that its children cover. A layer span wraps the benchmark's call into
// one library layer (or a named piece of the benchmark's own work, such as a
// correctness check). A container span only groups other spans (the run, a
// pass, a repetition): its self time is time no layer span explains, so it
// is added to the root's self time and printed as the `untraced` row, never
// dropped.
#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench::spans {

enum class Kind : std::uint8_t { kLayer, kContainer };
inline constexpr Kind kContainer = Kind::kContainer;

struct Record {
  std::int64_t id = -1;
  std::int64_t parent = -1;  ///< -1 for a root
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t group = 0;
  /// Derived from sampled timings inside a parent span rather than from a
  /// clock pair around one call; the ledger marks such rows.
  bool sampled = false;
  bool container = false;
};

void enable(bool on) noexcept;
[[nodiscard]] bool enabled() noexcept;

/// Monotonic nanoseconds (steady clock).
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// Scoped span; a child of the innermost open span on this thread.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t group = 0,
                Kind kind = Kind::kLayer) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::int64_t id() const noexcept { return id_; }
  [[nodiscard]] std::uint64_t start_ns() const noexcept { return start_; }

 private:
  std::int64_t id_ = -1;
  std::int64_t prev_ = -1;
  const char* name_;
  std::uint64_t group_;
  bool container_;
  std::uint64_t start_ = 0;
};

/// Makes `parent` (a span open on another thread) the parent of the spans
/// this thread opens while the guard lives.
class Adopt {
 public:
  explicit Adopt(std::int64_t parent) noexcept;
  ~Adopt();
  Adopt(const Adopt&) = delete;
  Adopt& operator=(const Adopt&) = delete;

 private:
  std::int64_t prev_;
};

/// Records a sampled child of `parent` lasting `dur_ns` from `start_ns`.
void add_sampled(const char* name, std::int64_t parent, std::uint64_t start_ns,
                 std::uint64_t dur_ns, std::uint64_t group);

/// Every span recorded so far (closed spans only).
[[nodiscard]] std::vector<Record> collect();

struct LedgerRow {
  std::string name;
  std::uint64_t count = 0;
  double self_s = 0.0;   ///< summed self time
  double total_s = 0.0;  ///< summed duration
  bool sampled = false;
  bool container = false;  ///< self time is part of untraced_s
};

struct Ledger {
  double wall_s = 0.0;       ///< root span duration
  double untraced_s = 0.0;   ///< self time of the root and of containers
  double coverage = 0.0;     ///< 1 - untraced / wall
  std::vector<LedgerRow> rows;  ///< by self time, descending
};

/// Builds the ledger of the tree under `root` (a container).
[[nodiscard]] Ledger build_ledger(const std::vector<Record>& records,
                                  std::int64_t root);

void print_ledger(std::ostream& os, const Ledger& ledger, double tolerance);

/// One tab-separated line per span: id, parent, group, name, start, end,
/// sampled and container flags.
void write_records(const std::filesystem::path& path,
                   const std::vector<Record>& records);

}  // namespace perfbench::spans
