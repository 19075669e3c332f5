#ifndef WAVEBATCH_ENGINE_BOUNDED_H_
#define WAVEBATCH_ENGINE_BOUNDED_H_

#include <cstdint>
#include <vector>

#include "engine/eval_session.h"
#include "query/batch.h"
#include "strategy/linear_strategy.h"

namespace wavebatch {

/// Result of a workspace-bounded exact run through the engine.
struct BoundedRunResult {
  std::vector<double> results;
  /// I/O across all groups (retrievals between the fully-shared master-list
  /// size and the naive per-query total).
  IoStats io;
  /// Largest number of query coefficients materialized at any moment.
  uint64_t peak_workspace = 0;
  /// Number of query groups the batch was split into.
  size_t num_groups = 0;
  /// Per-query error enclosure, parallel to `results`: |reported − exact|
  /// ≤ error_bounds[q]. All zeros over an exact store ("exact" run in the
  /// usual sense); over a lossy store (quantized compressed pages) each
  /// query accumulates Σ_ξ |c_q(ξ)| · ε(ξ) over its own coefficients, so a
  /// "bounded-workspace exact" run stays honest about what it computed.
  std::vector<double> error_bounds;
};

/// Exact batch evaluation under a workspace budget, expressed in engine
/// terms: queries are greedily packed into groups whose materialized
/// coefficient lists fit `max_workspace_coefficients`; each group becomes a
/// penalty-free EvalPlan evaluated to exactness by a kKeyOrder EvalSession
/// and discarded before the next group starts. A single query over budget
/// gets its own group — exactness is never sacrificed. A budget of one
/// coefficient is the naive per-query plan, an unbounded budget the fully
/// shared one. Results and retrieval counts reproduce the reference
/// EvaluateWithBoundedWorkspace (tests/reference/) bit for bit.
///
/// Fallible: a failed fetch (or query transform) surfaces as a non-OK
/// Status. Groups completed before the failure are discarded with the
/// partial result — the workspace-bounded run is all-or-nothing.
Result<BoundedRunResult> RunWithBoundedWorkspace(
    const QueryBatch& batch, const LinearStrategy& strategy,
    const CoefficientStore& store, uint64_t max_workspace_coefficients);

}  // namespace wavebatch

#endif  // WAVEBATCH_ENGINE_BOUNDED_H_
