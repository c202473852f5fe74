// Internal helpers shared by the in-process RID pipeline (rid.cpp) and the
// process-sharded runner (rid_sharded.cpp). Not part of the public API —
// the sharded runner must degrade, fall back, and merge *exactly* like the
// in-process run so the two are bit-identical, which means sharing the
// implementations instead of duplicating them.
#pragma once

#include <exception>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/cascade_extraction.hpp"
#include "core/isomit.hpp"
#include "core/rid.hpp"
#include "core/tree_dp.hpp"
#include "util/trace.hpp"

namespace rid::core::internal {

/// The body run_rid and run_rid_sharded share: optional repair of the
/// snapshot and candidate mask (RepairPolicy::kRepair), forest extraction,
/// candidate mask, then `solve` on the forest. Fills the result's repairs,
/// extraction and total seconds (total from `span`, the caller's run span)
/// and attaches the stage totals.
DetectionResult detect_with(
    const graph::ColumnarGraphView& diffusion,
    std::span<const graph::NodeState> states, const RidConfig& config,
    const util::trace::TraceSpan& span,
    const std::function<DetectionResult(const CascadeForest&)>& solve);

/// Copies the trace's per-stage totals into the diagnostics when tracing is
/// live (the breakdown covers every span recorded since trace::start(), so
/// in multi-run processes it is cumulative — exactly what the CLI wants).
void attach_stage_totals(RunDiagnostics& diagnostics);

/// RID-Tree fallback for a tree whose DP failed: the extracted root is the
/// sole initiator, with its observed/imputed state and the real objective
/// value of that one-initiator assignment. Returns an empty solution when
/// the root is excluded by the candidate mask (nothing to fall back to).
TreeSolution root_only_fallback(const CascadeTree& tree);

struct FailureInfo {
  bool budget = false;
  std::string message;
};

/// Classifies a captured per-tree failure for diagnostics.
FailureInfo describe_failure(const std::exception_ptr& error);

/// Resolves TreeDpOptions::num_threads == 0 (inherit) to this run's
/// per-tree share of the pool (see rid.cpp for the policy). Depends only on
/// the config and the forest shape, never on scheduling.
std::size_t intra_tree_threads(const RidConfig& config,
                               const CascadeForest& forest);

/// Merges per-tree solutions (one per tree, in tree order) into the
/// DetectionResult: global initiator ids sorted ascending, totals summed in
/// tree order — the accumulation order is part of the bit-identity contract.
void merge_solutions(const CascadeForest& forest,
                     const std::vector<const TreeSolution*>& solutions,
                     DetectionResult& out);

/// Runs the solve of one tree with the pipeline's per-tree fault isolation:
/// on a throw, the tree degrades to the root-only fallback (kDegraded), or
/// kFailed when even that is unavailable. Fills `solution` and the
/// failure-related fields of `tree` (status, budget_hit, error,
/// fallback_root_only) exactly as run_rid_on_forest would. Timing fields
/// are left to the caller.
void solve_tree_guarded(const CascadeTree& cascade, double beta,
                        const TreeDpOptions& dp, TreeSolution& solution,
                        TreeDiagnostics& tree);

}  // namespace rid::core::internal
