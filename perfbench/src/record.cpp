#include "record.hpp"

#include <algorithm>

#include "threading/thread_pool.hpp"
#include "workloads.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

std::vector<commscope::instrument::TraceEvent> record_small(
    const std::string& name, Outcome& out) {
  namespace ci = commscope::instrument;
  namespace cw = commscope::workloads;
  constexpr std::size_t kTurn = 64;

  ci::TraceRecorder rec;
  {
    commscope::threading::ThreadTeam team(kThreads);
    const cw::Workload* w = cw::find(name);
    out.check(w != nullptr && w->run(cw::Scale::kSmall, team, &rec).ok,
              name + ": recording run failed verification");
  }
  std::vector<std::vector<ci::TraceEvent>> streams;
  for (const ci::TraceEvent& e : rec.events()) {
    if (e.tid >= streams.size()) streams.resize(e.tid + 1u);
    streams[e.tid].push_back(e);
  }
  std::vector<ci::TraceEvent> merged;
  merged.reserve(rec.size());
  for (std::size_t base = 0; merged.size() < rec.size(); base += kTurn) {
    for (const std::vector<ci::TraceEvent>& s : streams) {
      for (std::size_t i = base; i < std::min(base + kTurn, s.size()); ++i) {
        merged.push_back(s[i]);
      }
    }
  }
  return merged;
}

}  // namespace perfbench
