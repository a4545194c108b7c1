#include "power/dvfs.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "core/phase.hpp"

namespace commscope::power {

namespace {

/// First-order DVFS time model (see header).
double time_at(double work, double boundness, double ghz, double top_ghz) {
  return work * (boundness + (1.0 - boundness) * top_ghz / ghz);
}

}  // namespace

DvfsPlan plan_dvfs(const core::EpochTimeline& timeline,
                   const DvfsOptions& options) {
  if (options.levels.empty()) {
    throw std::invalid_argument("plan_dvfs: need at least one level");
  }
  const FrequencyLevel top = options.levels.front();

  DvfsPlan plan;
  const std::vector<core::Phase> phases =
      core::detect_phases(timeline.windows(), 0.75);

  double baseline_time = 0.0;
  double planned_time = 0.0;
  for (const core::Phase& ph : phases) {
    PhasePlan pp;
    pp.first_window = ph.first_window;
    pp.last_window = ph.last_window;

    std::uint64_t phase_accesses = 0;
    for (std::size_t w = ph.first_window; w <= ph.last_window; ++w) {
      const core::EpochSample& e = timeline.epochs[w];
      phase_accesses += e.last_access - e.first_access;
    }
    pp.work = static_cast<double>(std::max<std::uint64_t>(1, phase_accesses));
    pp.intensity =
        static_cast<double>(ph.pattern.total()) / pp.work;
    pp.boundness =
        std::min(1.0, pp.intensity / options.saturation_intensity);

    // Pick the most energy-efficient level whose slowdown stays within
    // budget; levels are ordered highest frequency first.
    const double t_top = time_at(pp.work, pp.boundness, top.ghz, top.ghz);
    pp.chosen = top;
    double best_energy = top.watts * t_top;
    pp.est_slowdown = 1.0;
    for (const FrequencyLevel& lvl : options.levels) {
      const double t = time_at(pp.work, pp.boundness, lvl.ghz, top.ghz);
      if (t / t_top > options.max_slowdown) continue;
      const double energy = lvl.watts * t;
      if (energy < best_energy) {
        best_energy = energy;
        pp.chosen = lvl;
        pp.est_slowdown = t / t_top;
      }
    }

    baseline_time += t_top;
    planned_time += t_top * pp.est_slowdown;
    plan.baseline_energy += top.watts * t_top;
    plan.planned_energy += best_energy;
    plan.phases.push_back(pp);
  }

  plan.saving_fraction =
      plan.baseline_energy > 0.0
          ? 1.0 - plan.planned_energy / plan.baseline_energy
          : 0.0;
  plan.overall_slowdown =
      baseline_time > 0.0 ? planned_time / baseline_time : 1.0;
  return plan;
}

std::string DvfsPlan::to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhasePlan& pp = phases[i];
    os << "phase " << i + 1 << " [" << pp.first_window << ".."
       << pp.last_window << "] intensity " << pp.intensity << " B/access, "
       << "boundness " << pp.boundness << " -> " << pp.chosen.ghz << " GHz ("
       << pp.chosen.watts << " W), slowdown x" << pp.est_slowdown << "\n";
  }
  os << "energy: baseline " << baseline_energy << " -> planned "
     << planned_energy << " (saving " << saving_fraction * 100.0
     << "%), overall slowdown x" << overall_slowdown << "\n";
  return os.str();
}

}  // namespace commscope::power
