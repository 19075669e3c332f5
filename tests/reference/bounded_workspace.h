#ifndef WAVEBATCH_TESTS_REFERENCE_BOUNDED_WORKSPACE_H_
#define WAVEBATCH_TESTS_REFERENCE_BOUNDED_WORKSPACE_H_

#include <cstdint>
#include <vector>

#include "core/master_list.h"
#include "storage/coefficient_store.h"

namespace wavebatch {

/// Result of a workspace-bounded exact batch evaluation.
struct BoundedWorkspaceResult {
  std::vector<double> results;
  /// Total coefficient retrievals (between the fully-shared master-list
  /// size and the naive per-query total).
  uint64_t retrievals = 0;
  /// Largest number of query coefficients materialized at any moment.
  uint64_t peak_workspace = 0;
  /// Number of query groups the batch was split into.
  size_t num_groups = 0;
};

/// Exact batch evaluation under a workspace budget — the paper's Section
/// 2.2 concern: the shared algorithm wants *all* nonzero query
/// coefficients in memory at once, which for huge batches may be
/// undesirable.
///
/// Queries are processed in greedy groups: each group's coefficient lists
/// are materialized, merged, evaluated with full sharing (one pass over the
/// master list in key order), and discarded before the next group starts.
/// `max_workspace_coefficients` bounds the materialized coefficients per
/// group (a single query whose list exceeds the budget gets a group of its
/// own — exactness is never sacrificed).
///
/// Test-only reference implementation that engine_test holds
/// RunWithBoundedWorkspace bit-identical against.
BoundedWorkspaceResult EvaluateWithBoundedWorkspace(
    const QueryBatch& batch, const LinearStrategy& strategy,
    const CoefficientStore& store, uint64_t max_workspace_coefficients);

}  // namespace wavebatch

#endif  // WAVEBATCH_TESTS_REFERENCE_BOUNDED_WORKSPACE_H_
