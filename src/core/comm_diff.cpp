#include "core/comm_diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>

namespace commscope::core {

namespace {

std::uint64_t abs_diff(std::uint64_t a, std::uint64_t b) noexcept {
  return a > b ? a - b : b - a;
}

std::string pct(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f%%", x * 100.0);
  return buf;
}

std::string num(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", x);
  return buf;
}

/// Per-loop byte totals across a timeline's surviving epochs, keyed by label
/// (labels, not ids, so two runs that registered loops in different orders
/// still align).
std::map<std::string, std::uint64_t> loop_totals(const EpochTimeline& t) {
  std::map<std::string, std::uint64_t> totals;
  for (const EpochSample& e : t.epochs) {
    for (const EpochLoopShare& share : e.loops) {
      totals[t.label_of(share.loop)] += share.bytes;
    }
  }
  return totals;
}

std::vector<LoopDrift> diff_loops(const EpochTimeline& a,
                                  const EpochTimeline& b) {
  const auto ta = loop_totals(a);
  const auto tb = loop_totals(b);
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> merged;
  for (const auto& [label, bytes] : ta) merged[label].first = bytes;
  for (const auto& [label, bytes] : tb) merged[label].second = bytes;
  std::vector<LoopDrift> out;
  out.reserve(merged.size());
  for (const auto& [label, pair] : merged) {
    LoopDrift d;
    d.label = label;
    d.bytes_a = pair.first;
    d.bytes_b = pair.second;
    const std::uint64_t hi = std::max(d.bytes_a, d.bytes_b);
    d.drift = hi == 0 ? 0.0
                      : static_cast<double>(abs_diff(d.bytes_a, d.bytes_b)) /
                            static_cast<double>(hi);
    out.push_back(std::move(d));
  }
  std::sort(out.begin(), out.end(), [](const LoopDrift& x, const LoopDrift& y) {
    if (x.drift != y.drift) return x.drift > y.drift;
    return x.label < y.label;
  });
  return out;
}

TimelineDiff finish(TimelineDiff d, const DiffThresholds& th) {
  d.regressed = d.total.norm_l1 > th.norm_l1 ||
                d.total.norm_max_cell > th.norm_max_cell;
  if (d.regressed) {
    d.verdict = "REGRESSED: normalized L1 " + pct(d.total.norm_l1) +
                " (threshold " + pct(th.norm_l1) + "), max cell " +
                pct(d.total.norm_max_cell) + " (threshold " +
                pct(th.norm_max_cell) + ")";
  } else {
    d.verdict = "clean: normalized L1 " + pct(d.total.norm_l1) +
                ", max cell " + pct(d.total.norm_max_cell) +
                (d.total.l1 == 0 ? " (bit-identical totals)" : "");
  }
  return d;
}

}  // namespace

MatrixDistance matrix_distance(const Matrix& a, const Matrix& b) {
  MatrixDistance d;
  const int n = std::max(a.size(), b.size());
  std::uint64_t max_any = 0;
  for (int p = 0; p < n; ++p) {
    for (int c = 0; c < n; ++c) {
      const std::uint64_t va =
          (p < a.size() && c < a.size()) ? a.at(p, c) : 0;
      const std::uint64_t vb =
          (p < b.size() && c < b.size()) ? b.at(p, c) : 0;
      const std::uint64_t delta = abs_diff(va, vb);
      d.l1 += delta;
      d.max_cell = std::max(d.max_cell, delta);
      max_any = std::max({max_any, va, vb});
    }
  }
  const std::uint64_t denom = std::max(a.total(), b.total());
  if (denom != 0) {
    d.norm_l1 = static_cast<double>(d.l1) / static_cast<double>(denom);
  }
  if (max_any != 0) {
    d.norm_max_cell =
        static_cast<double>(d.max_cell) / static_cast<double>(max_any);
  }
  return d;
}

TimelineDiff diff_timelines(const EpochTimeline& a, const EpochTimeline& b,
                            const DiffThresholds& th) {
  TimelineDiff d;
  d.total = matrix_distance(a.total(), b.total());
  d.epochs_a = a.epochs.size();
  d.epochs_b = b.epochs.size();
  const int threads = std::max(a.threads, b.threads);
  const std::size_t aligned = std::min(a.epochs.size(), b.epochs.size());
  d.epochs.reserve(aligned);
  for (std::size_t i = 0; i < aligned; ++i) {
    EpochDiff e;
    e.index = i;
    e.distance = matrix_distance(a.epochs[i].dense(threads),
                                 b.epochs[i].dense(threads));
    d.worst_epoch_l1 = std::max(d.worst_epoch_l1, e.distance.norm_l1);
    d.epochs.push_back(std::move(e));
  }
  d.loops = diff_loops(a, b);
  return finish(std::move(d), th);
}

TimelineDiff diff_matrices(const Matrix& a, const Matrix& b,
                           const DiffThresholds& th) {
  TimelineDiff d;
  d.total = matrix_distance(a, b);
  return finish(std::move(d), th);
}

// --- bench comparison --------------------------------------------------------

namespace {

/// Cursor over the JSON the benches write (bench/bench_common.hpp): objects,
/// arrays, unescaped strings and numbers. Anything else throws.
struct JsonCursor {
  const std::string& s;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("bench json: " + what + " at byte " +
                             std::to_string(pos));
  }
  /// Skips whitespace; true when the text ends there.
  bool at_end() {
    pos = std::min(s.find_first_not_of(" \t\r\n", pos), s.size());
    return pos == s.size();
  }
  bool consume(char c) {
    const bool hit = !at_end() && s[pos] == c;
    pos += hit ? 1 : 0;
    return hit;
  }
  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }
  /// A string's contents, or the text of a bare (number) token.
  std::string scalar() {
    const bool quoted = consume('"');
    const std::size_t from = pos;
    const std::size_t end =
        s.find_first_of(quoted ? "\"" : ",:]} \t\r\n", from);
    if (end == std::string::npos || (!quoted && end == from)) fail("no value");
    pos = end + (quoted ? 1 : 0);
    return s.substr(from, end - from);
  }
  double number() {
    const std::string text = scalar();
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' || !std::isfinite(v)) fail("bad number");
    return v;
  }
  /// `open item (, item)* close`, calling `item()` for each.
  template <class Fn>
  void list(char open, char close, Fn item) {
    expect(open);
    if (consume(close)) return;
    do item(); while (consume(','));
    expect(close);
  }
  /// An object: `member(key)` runs with the cursor on each member's value.
  template <class Fn>
  void object(Fn member) {
    list('{', '}', [&] {
      const std::string key = scalar();
      expect(':');
      member(key);
    });
  }
};

struct Point {
  std::string name, unit, better;
  double value = std::nan("");
  std::optional<double> bound;
};

struct BenchFile {
  std::string bench;
  std::string provenance;  ///< " key=value" per entry, in file order
  std::vector<Point> points;
};

BenchFile parse_bench(const std::string& text) {
  BenchFile f;
  JsonCursor in{text};
  in.object([&](const std::string& key) {
    if (key == "bench") {
      f.bench = in.scalar();
    } else if (key == "provenance") {
      in.object([&](const std::string& k) {
        f.provenance += " " + k + "=" + in.scalar();
      });
    } else if (key == "points") {
      in.list('[', ']', [&] {
        Point& p = f.points.emplace_back();
        in.object([&](const std::string& k) {
          if (k == "name") p.name = in.scalar();
          else if (k == "unit") p.unit = in.scalar();
          else if (k == "better") p.better = in.scalar();
          else if (k == "value") p.value = in.number();
          else if (k == "bound") p.bound = in.number();
          else in.fail("unknown point key '" + k + "'");
        });
        if (p.name.empty() || std::isnan(p.value) ||
            (p.better != "higher" && p.better != "lower")) {
          in.fail("a point needs a name, a value and better: higher|lower");
        }
      });
    } else {
      in.fail("not a commscope bench file (unknown key '" + key + "')");
    }
  });
  if (!in.at_end()) in.fail("trailing data");
  if (f.bench.empty() || f.points.empty()) {
    in.fail("not a commscope bench file (no bench name or points)");
  }
  return f;
}

}  // namespace

BenchDiff diff_bench(const std::string& baseline_json,
                     const std::string& fresh_json, double max_regression) {
  const BenchFile base = parse_bench(baseline_json);
  const BenchFile fresh = parse_bench(fresh_json);
  if (base.bench != fresh.bench || base.provenance != fresh.provenance) {
    throw std::runtime_error("bench diff: cannot compare bench " + base.bench +
                             base.provenance + " with bench " + fresh.bench +
                             fresh.provenance);
  }
  BenchDiff d;
  std::string failures;
  for (const Point& b : base.points) {
    BenchDelta& x = d.points.emplace_back(
        BenchDelta{b.name, b.unit, b.value, std::nullopt, 0.0, ""});
    const auto f = std::find_if(
        fresh.points.begin(), fresh.points.end(),
        [&](const Point& p) { return p.name == b.name; });
    if (f == fresh.points.end()) {
      x.failure = "missing from the fresh run";
    } else if (f->unit != b.unit || f->better != b.better) {
      throw std::runtime_error("bench diff: cannot compare point " + b.name +
                               ": its unit or direction changed");
    } else {
      const bool higher = b.better == "higher";
      x.fresh = f->value;
      x.change = b.value == 0.0 ? 0.0 : (f->value - b.value) / b.value;
      if (b.bound && (higher ? f->value < *b.bound : f->value > *b.bound)) {
        x.failure = "past its bound " + num(*b.bound);
      } else if ((higher ? -x.change : x.change) > max_regression) {
        x.failure = pct(std::abs(x.change)) + " worse than baseline";
      }
    }
    if (!x.failure.empty()) failures += "; " + x.name + " " + x.failure;
  }
  d.regressed = !failures.empty();
  d.verdict = d.regressed ? "REGRESSED (threshold " + pct(max_regression) +
                                "): " + failures.substr(2)
                          : "clean: " + std::to_string(d.points.size()) +
                                " points within " + pct(max_regression) +
                                " of baseline and inside their bounds";
  return d;
}

}  // namespace commscope::core
