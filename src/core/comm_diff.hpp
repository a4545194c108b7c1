// Run-to-run communication comparison — the analysis behind `commscope diff`.
//
// Two runs of the same program should communicate the same way; when they do
// not, either the program changed (a real regression worth gating CI on) or
// the profiler did (a measurement bug worth catching just as early). This
// module quantifies "the same way": normalized L1 and max-cell distances
// between whole-run matrices, per-epoch distances between flight-recorder
// timelines, per-loop volume drift, and a point-by-point comparison of the
// BENCH_*.json files the benches emit. Thresholds turn the distances into a
// clean/regressed verdict the CLI maps to exit code 0 / 3.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/comm_matrix.hpp"
#include "core/flight_recorder.hpp"

namespace commscope::core {

/// Distance between two communication matrices. Dimensions may differ; the
/// smaller matrix is treated as zero-padded to the larger.
struct MatrixDistance {
  std::uint64_t l1 = 0;        ///< sum of |a - b| over all cells
  std::uint64_t max_cell = 0;  ///< max |a - b| over all cells
  /// l1 / max(total(a), total(b)); 0 when both matrices are empty. 0 means
  /// bit-identical, 2 means fully disjoint traffic.
  double norm_l1 = 0.0;
  /// max_cell / max cell value across both matrices; 0 when both empty.
  double norm_max_cell = 0.0;
};

[[nodiscard]] MatrixDistance matrix_distance(const Matrix& a, const Matrix& b);

/// Regression thresholds on the normalized distances. The defaults tolerate
/// scheduling jitter between two runs of one binary while catching a loop
/// whose traffic moved or vanished; a self-diff is exactly zero.
struct DiffThresholds {
  double norm_l1 = 0.05;
  double norm_max_cell = 0.25;
  /// Relative per-loop volume drift ( |a-b| / max(a,b) ) above which a loop
  /// is listed as drifted; informational unless it also moves the matrix
  /// distances past their thresholds.
  double loop_drift = 0.25;
};

/// Per-epoch entry of a timeline comparison (epochs aligned by position).
struct EpochDiff {
  std::uint64_t index = 0;  ///< position in the aligned timelines
  MatrixDistance distance;
};

/// Per-loop volume drift between two runs.
struct LoopDrift {
  std::string label;
  std::uint64_t bytes_a = 0;
  std::uint64_t bytes_b = 0;
  double drift = 0.0;  ///< |a-b| / max(a,b)
};

/// Full comparison of two epoch timelines (and their total matrices).
struct TimelineDiff {
  MatrixDistance total;            ///< distance between summed matrices
  std::vector<EpochDiff> epochs;   ///< aligned by position, oldest first
  std::size_t epochs_a = 0;
  std::size_t epochs_b = 0;
  std::vector<LoopDrift> loops;    ///< sorted by descending drift
  double worst_epoch_l1 = 0.0;     ///< max norm_l1 over aligned epochs
  bool regressed = false;          ///< any threshold exceeded
  std::string verdict;             ///< one-line human summary
};

/// Compares two recorded timelines under `th`. Epoch-count mismatch alone is
/// reported but does not regress (rings may have dropped different amounts);
/// the total-matrix distances and worst epoch distance decide.
[[nodiscard]] TimelineDiff diff_timelines(const EpochTimeline& a,
                                          const EpochTimeline& b,
                                          const DiffThresholds& th = {});

/// Matrix-only comparison under the same thresholds (for matrix_io files).
[[nodiscard]] TimelineDiff diff_matrices(const Matrix& a, const Matrix& b,
                                         const DiffThresholds& th = {});

// --- bench comparison (the CI perf gate) -------------------------------------

/// One compared point of a bench file (schema: README, "commscope diff").
struct BenchDelta {
  std::string name, unit;
  double base = 0.0;
  std::optional<double> fresh;  ///< empty when the fresh file lacks it
  double change = 0.0;          ///< (fresh - base) / base
  std::string failure;  ///< why the point fails the gate; empty = passes
};

struct BenchDiff {
  std::vector<BenchDelta> points;  ///< one per baseline point, in its order
  bool regressed = false;
  std::string verdict;
};

/// Compares a fresh bench file against a baseline (schema and rules: README,
/// "commscope diff"). Throws std::runtime_error on a file outside the schema
/// and ("cannot compare") on a bench, provenance, unit or direction mismatch.
[[nodiscard]] BenchDiff diff_bench(const std::string& baseline_json,
                                   const std::string& fresh_json,
                                   double max_regression = 0.25);

}  // namespace commscope::core
