#ifndef WAVEBATCH_ENGINE_PROGRESSION_TRACE_H_
#define WAVEBATCH_ENGINE_PROGRESSION_TRACE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "engine/eval_session.h"
#include "penalty/penalty.h"
#include "util/status.h"
#include "util/table.h"

namespace wavebatch {

/// Records the quality of progressive estimates as coefficients are
/// retrieved — the raw material for every error-decay figure in the paper
/// (Figures 5–7). At each checkpoint the recorder measures the error
/// vector (estimates − exact) under a set of penalty functions, plus mean
/// and max relative error (Fig. 5's metric).
class ProgressionTrace {
 public:
  struct Point {
    uint64_t retrieved;
    /// One value per measure, in registration order.
    std::vector<double> penalties;
    double mean_relative_error;
    double max_relative_error;
    /// Theorem 1 worst-case bound at this step (filled when a K is given).
    double worst_case_bound;
    /// Theorem 2 expected penalty at this step (session's own penalty).
    double expected_penalty;
    /// Σ ι_p over coefficients consumed without data (FaultPolicy::kSkip);
    /// shows how much of the error decay is lost to faults rather than
    /// progression.
    double skipped_importance;
  };

  /// A named penalty under which the error vector is measured; `penalty`
  /// must outlive the trace run. `normalizer` divides the measured value
  /// (e.g. Σ exact² to plot the paper's *normalized* SSE); pass 1.0 for
  /// raw values.
  struct Measure {
    std::string name;
    const PenaltyFunction* penalty;
    double normalizer = 1.0;
  };

  /// Steps `session` to completion one coefficient at a time, recording at
  /// geometrically spaced checkpoints: every step up to `dense_until`, then
  /// steps spaced by factor `growth`, plus the final step. `exact` are
  /// reference results (a kKeyOrder RunToExact or brute force). Queries
  /// with exact == 0 are skipped by the relative-error metrics. If
  /// `k_sum_abs` > 0 the Theorem 1 bound column is filled; if
  /// `domain_cells` > 0 the Theorem 2 column is filled; a kSkip session
  /// gets the skipped-importance column.
  ///
  /// Returns the first non-OK Status a step reports (under kFail, a fetch
  /// that keeps failing); the session is left resumable at that step.
  static Result<ProgressionTrace> Run(EvalSession& session,
                                      std::span<const double> exact,
                                      std::vector<Measure> measures,
                                      uint64_t dense_until = 64,
                                      double growth = 1.15,
                                      double k_sum_abs = 0.0,
                                      uint64_t domain_cells = 0);

  const std::vector<Point>& points() const { return points_; }
  const std::vector<std::string>& measure_names() const {
    return measure_names_;
  }

  /// Columns: retrieved, <one per measure>, mre, max_rel_err
  /// [, worst_case_bound][, expected_penalty][, skipped_importance].
  Table ToTable() const;

 private:
  std::vector<std::string> measure_names_;
  std::vector<Point> points_;
  bool has_bounds_ = false;
  bool has_expected_ = false;
  bool has_skipped_ = false;
};

}  // namespace wavebatch

#endif  // WAVEBATCH_ENGINE_PROGRESSION_TRACE_H_
