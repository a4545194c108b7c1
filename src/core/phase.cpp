#include "core/phase.hpp"

#include "support/stats.hpp"

namespace commscope::core {

std::vector<double> offset_signature(const Matrix& m) {
  const int n = m.size();
  std::vector<double> sig(static_cast<std::size_t>(n), 0.0);
  for (int p = 0; p < n; ++p) {
    for (int c = 0; c < n; ++c) {
      sig[static_cast<std::size_t>((c - p + n) % n)] +=
          static_cast<double>(m.at(p, c));
    }
  }
  return sig;
}

std::vector<Phase> detect_phases(const std::vector<Matrix>& windows,
                                 double threshold) {
  std::vector<Phase> phases;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const std::vector<double> cur = offset_signature(windows[w]);
    if (!phases.empty() &&
        support::cosine_similarity(offset_signature(phases.back().pattern),
                                   cur) >= threshold) {
      phases.back().last_window = w;
      phases.back().pattern += windows[w];
      continue;
    }
    Phase p;
    p.first_window = w;
    p.last_window = w;
    p.pattern = windows[w];
    phases.push_back(std::move(p));
  }
  return phases;
}

}  // namespace commscope::core
