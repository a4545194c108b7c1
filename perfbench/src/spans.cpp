#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <unordered_map>

namespace perfbench::spans {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::int64_t> g_next_id{0};
std::mutex g_mu;
std::vector<Record> g_records;  // guarded by g_mu
thread_local std::int64_t t_current = -1;

void push(const Record& r) {
  const std::lock_guard<std::mutex> lock(g_mu);
  g_records.push_back(r);
}

}  // namespace

void enable(bool on) noexcept { g_enabled.store(on); }
bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Span::Span(const char* name, std::uint64_t group, Kind kind) noexcept
    : name_(name), group_(group), container_(kind == Kind::kContainer) {
  if (!enabled()) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  prev_ = t_current;
  t_current = id_;
  start_ = now_ns();
}

Span::~Span() {
  if (id_ < 0) return;
  Record r;
  r.id = id_;
  r.parent = prev_;
  r.name = name_;
  r.start_ns = start_;
  r.end_ns = now_ns();
  r.group = group_;
  r.container = container_;
  t_current = prev_;
  push(r);
}

Adopt::Adopt(std::int64_t parent) noexcept : prev_(t_current) {
  t_current = parent;
}

Adopt::~Adopt() { t_current = prev_; }

void add_sampled(const char* name, std::int64_t parent, std::uint64_t start_ns,
                 std::uint64_t dur_ns, std::uint64_t group) {
  if (!enabled() || parent < 0) return;
  Record r;
  r.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  r.parent = parent;
  r.name = name;
  r.start_ns = start_ns;
  r.end_ns = start_ns + dur_ns;
  r.group = group;
  r.sampled = true;
  push(r);
}

std::vector<Record> collect() {
  const std::lock_guard<std::mutex> lock(g_mu);
  return g_records;
}

Ledger build_ledger(const std::vector<Record>& records, std::int64_t root) {
  std::unordered_map<std::int64_t, std::size_t> index;
  std::unordered_map<std::int64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < records.size(); ++i) {
    index[records[i].id] = i;
    if (records[i].parent >= 0) children[records[i].parent].push_back(i);
  }
  Ledger ledger;
  const auto root_it = index.find(root);
  if (root_it == index.end()) return ledger;

  // Self time: duration minus the union of the children's intervals clipped
  // to the span. Children on other threads may overlap one another, so the
  // union (not the sum) is what the parent did not spend itself.
  const auto self_of = [&](const Record& r) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
    if (const auto it = children.find(r.id); it != children.end()) {
      for (const std::size_t c : it->second) {
        const std::uint64_t s = std::max(records[c].start_ns, r.start_ns);
        const std::uint64_t e = std::min(records[c].end_ns, r.end_ns);
        if (e > s) iv.emplace_back(s, e);
      }
    }
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t cur_s = 0;
    std::uint64_t cur_e = 0;
    bool open = false;
    for (const auto& [s, e] : iv) {
      if (!open || s > cur_e) {
        if (open) covered += cur_e - cur_s;
        cur_s = s;
        cur_e = e;
        open = true;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (open) covered += cur_e - cur_s;
    const std::uint64_t dur = r.end_ns - r.start_ns;
    return covered >= dur ? 0.0 : static_cast<double>(dur - covered) * 1e-9;
  };

  std::map<std::string, LedgerRow> rows;
  std::vector<std::int64_t> stack{root};
  while (!stack.empty()) {
    const std::int64_t id = stack.back();
    stack.pop_back();
    const Record& r = records[index[id]];
    const double self = self_of(r);
    if (id == root) {
      ledger.wall_s = static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
      ledger.untraced_s += self;
    } else {
      LedgerRow& row = rows[r.name];
      row.name = r.name;
      ++row.count;
      row.self_s += self;
      row.total_s += static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
      row.sampled = row.sampled || r.sampled;
      row.container = row.container || r.container;
      if (r.container) ledger.untraced_s += self;
    }
    if (const auto it = children.find(id); it != children.end()) {
      for (const std::size_t c : it->second) stack.push_back(records[c].id);
    }
  }
  for (auto& [name, row] : rows) ledger.rows.push_back(row);
  std::sort(ledger.rows.begin(), ledger.rows.end(),
            [](const LedgerRow& a, const LedgerRow& b) {
              return a.self_s > b.self_s;
            });
  ledger.coverage =
      ledger.wall_s > 0.0 ? 1.0 - ledger.untraced_s / ledger.wall_s : 0.0;
  return ledger;
}

void print_ledger(std::ostream& os, const Ledger& ledger, double tolerance) {
  char line[256];
  os << "ledger (self time per span name; * = derived from sampled timings,\n"
        "        + = container, its self time is counted in untraced)\n";
  std::snprintf(line, sizeof line, "  %-34s %9s %12s %12s %7s\n", "span",
                "count", "self_s", "total_s", "share");
  os << line;
  const auto share = [&](double s) {
    return ledger.wall_s > 0.0 ? 100.0 * s / ledger.wall_s : 0.0;
  };
  for (const LedgerRow& r : ledger.rows) {
    std::snprintf(line, sizeof line, "  %-33s%s %9llu %12.6f %12.6f %6.2f%%\n",
                  r.name.c_str(), r.sampled ? "*" : (r.container ? "+" : " "),
                  static_cast<unsigned long long>(r.count), r.self_s,
                  r.total_s, share(r.self_s));
    os << line;
  }
  std::snprintf(line, sizeof line, "  %-34s %9s %12.6f %12s %6.2f%%\n",
                "untraced", "-", ledger.untraced_s, "-",
                share(ledger.untraced_s));
  os << line;
  std::snprintf(line, sizeof line,
                "  traced wall %.6f s, layer spans cover %.2f%% "
                "(tolerance: at least %.0f%%)\n",
                ledger.wall_s, 100.0 * ledger.coverage, 100.0 * tolerance);
  os << line;
}

void write_records(const std::filesystem::path& path,
                   const std::vector<Record>& records) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  out << "id\tparent\tgroup\tname\tstart_ns\tend_ns\tsampled\tcontainer\n";
  for (const Record& r : records) {
    out << r.id << '\t' << r.parent << '\t' << r.group << '\t' << r.name
        << '\t' << r.start_ns << '\t' << r.end_ns << '\t'
        << (r.sampled ? 1 : 0) << '\t' << (r.container ? 1 : 0) << '\n';
  }
}

}  // namespace perfbench::spans
