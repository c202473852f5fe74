#include "core/rid.hpp"

#include <algorithm>
#include <exception>
#include <numeric>
#include <utility>

#include "core/rid_internal.hpp"
#include "util/failpoint.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace rid::core {

namespace {

namespace trace = util::trace;

/// Pipeline-level metrics series (looked up once; see util/metrics.hpp).
struct RidMetrics {
  util::metrics::Counter& runs = util::metrics::global().counter("rid.runs");
  util::metrics::Counter& trees_ok =
      util::metrics::global().counter("rid.trees_ok");
  util::metrics::Counter& trees_degraded =
      util::metrics::global().counter("rid.trees_degraded");
  util::metrics::Counter& trees_failed =
      util::metrics::global().counter("rid.trees_failed");
  util::metrics::Counter& budget_tree_hits =
      util::metrics::global().counter("rid.budget_tree_hits");
  util::metrics::Histogram& tree_solve_ns =
      util::metrics::global().histogram("rid.tree_solve_ns");
  util::metrics::Histogram& extraction_ns =
      util::metrics::global().histogram("rid.extraction_ns");
};

RidMetrics& rid_metrics() {
  static RidMetrics instance;
  return instance;
}

/// Shared fault-isolation harness for the single-beta and multi-beta runs:
/// solves every tree (optionally in parallel), converts failures into
/// root-only fallbacks via `fallback`, and files one diagnostics entry per
/// tree into `diagnostics`. Every failing tree keeps its own error text —
/// a multi-tree failure surfaces one line per tree in summary(), never just
/// the first exception.
template <typename Solve, typename Fallback>
void solve_trees_isolated(const CascadeForest& forest,
                          std::size_t num_threads, const Solve& solve,
                          const Fallback& fallback,
                          RunDiagnostics& diagnostics) {
  const std::size_t n = forest.trees.size();
  // Per-tree timing is captured on the worker (trace-clock timestamps plus
  // thread id); the solve_tree span is emitted after the join, once the
  // tree's final TreeStatus is known and can be tagged.
  std::vector<std::uint64_t> start_ns(n, 0);
  std::vector<std::uint64_t> end_ns(n, 0);
  std::vector<std::uint32_t> tid(n, 0);
  const std::vector<std::exception_ptr> errors =
      util::parallel_for_each_collect(n, num_threads, [&](std::size_t i) {
        start_ns[i] = trace::now_ns();
        tid[i] = trace::current_tid();
        try {
          RID_FAILPOINT("rid.solve_tree");
          solve(i);
        } catch (...) {
          end_ns[i] = trace::now_ns();
          throw;
        }
        end_ns[i] = trace::now_ns();
      });

  RidMetrics& rm = rid_metrics();
  for (std::size_t t = 0; t < n; ++t) {
    TreeDiagnostics tree;
    tree.tree_index = t;
    tree.num_nodes = forest.trees[t].size();
    tree.seconds = static_cast<double>(end_ns[t] - start_ns[t]) * 1e-9;
    if (errors[t]) {
      const internal::FailureInfo failure =
          internal::describe_failure(errors[t]);
      tree.budget_hit = failure.budget;
      tree.error = failure.message;
      // Degrade to the RID-Tree answer; failed outright when even that is
      // unavailable (root excluded by the candidate mask) or the fallback
      // itself threw — in which case both error texts are preserved rather
      // than collapsing the tree's entry to the first exception.
      try {
        tree.fallback_root_only = fallback(t);
      } catch (...) {
        const internal::FailureInfo second =
            internal::describe_failure(std::current_exception());
        tree.error += "; fallback: " + second.message;
        tree.fallback_root_only = false;
      }
      tree.status =
          tree.fallback_root_only ? TreeStatus::kDegraded : TreeStatus::kFailed;
    }
    switch (tree.status) {
      case TreeStatus::kOk:
        rm.trees_ok.add(1);
        break;
      case TreeStatus::kDegraded:
        rm.trees_degraded.add(1);
        break;
      case TreeStatus::kFailed:
        rm.trees_failed.add(1);
        break;
    }
    if (tree.budget_hit) rm.budget_tree_hits.add(1);
    rm.tree_solve_ns.observe(end_ns[t] - start_ns[t]);
    const trace::TagValue tags[] = {
        {"tree_index", nullptr, static_cast<std::int64_t>(t)},
        {"nodes", nullptr, static_cast<std::int64_t>(tree.num_nodes)},
        {"status", status_name(tree.status), 0},
    };
    trace::emit_span("solve_tree", start_ns[t], end_ns[t], tid[t], tags);
    diagnostics.record(std::move(tree));
  }
}

}  // namespace

namespace internal {

void attach_stage_totals(RunDiagnostics& diagnostics) {
  if (!trace::enabled()) return;
  diagnostics.stages.clear();
  for (const trace::StageTotal& stage : trace::aggregate_stage_totals())
    diagnostics.stages.push_back({stage.name, stage.count, stage.seconds});
  diagnostics.spans_dropped =
      trace::snapshot().dropped + trace::remote_spans_dropped();
}

TreeSolution root_only_fallback(const CascadeTree& tree) {
  TreeSolution solution;
  if (!tree.can_initiate.empty() && !tree.can_initiate[tree.root])
    return solution;
  solution.k = 1;
  solution.initiators = {tree.root};
  solution.states = {tree.state[tree.root]};
  solution.opt = evaluate_initiators(tree, solution.initiators);
  solution.objective = -solution.opt;
  return solution;
}

FailureInfo describe_failure(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const util::BudgetExceededError& e) {
    return {true, e.what()};
  } catch (const std::exception& e) {
    return {false, e.what()};
  } catch (...) {
    return {false, "unknown error"};
  }
}

std::size_t intra_tree_threads(const RidConfig& config,
                               const CascadeForest& forest) {
  // The tree-level parallelism claims min(threads, trees) workers and the
  // leftover goes to the intra-tree DP — so the giant-component case (one
  // tree) hands the whole pool to the DP.
  const std::size_t pool = std::max<std::size_t>(1, config.num_threads);
  const std::size_t outer =
      std::min(pool, std::max<std::size_t>(1, forest.trees.size()));
  return std::max<std::size_t>(1, pool / outer);
}

void merge_solutions(const CascadeForest& forest,
                     const std::vector<const TreeSolution*>& solutions,
                     DetectionResult& out) {
  std::vector<std::pair<graph::NodeId, graph::NodeState>> found;
  for (std::size_t t = 0; t < forest.trees.size(); ++t) {
    const CascadeTree& tree = forest.trees[t];
    const TreeSolution& solution = *solutions[t];
    out.total_opt += solution.opt;
    out.total_objective += solution.objective;
    for (std::size_t i = 0; i < solution.initiators.size(); ++i) {
      found.emplace_back(tree.global[solution.initiators[i]],
                         solution.states[i]);
    }
  }
  std::sort(found.begin(), found.end());
  out.initiators.reserve(found.size());
  out.states.reserve(found.size());
  for (const auto& [node, state] : found) {
    out.initiators.push_back(node);
    out.states.push_back(state);
  }
}

void solve_tree_guarded(const CascadeTree& cascade, double beta,
                        const TreeDpOptions& dp, TreeSolution& solution,
                        TreeDiagnostics& tree) {
  try {
    RID_FAILPOINT("rid.solve_tree");
    solution = solve_tree(cascade, beta, dp);
    return;
  } catch (...) {
    const FailureInfo failure = describe_failure(std::current_exception());
    tree.budget_hit = failure.budget;
    tree.error = failure.message;
  }
  try {
    solution = root_only_fallback(cascade);
    tree.fallback_root_only = !solution.initiators.empty();
  } catch (...) {
    const FailureInfo second = describe_failure(std::current_exception());
    tree.error += "; fallback: " + second.message;
    solution = TreeSolution{};
    tree.fallback_root_only = false;
  }
  tree.status =
      tree.fallback_root_only ? TreeStatus::kDegraded : TreeStatus::kFailed;
}

}  // namespace internal

DetectionResult run_rid_on_forest(const CascadeForest& forest,
                                  const RidConfig& config) {
  DetectionResult out;
  out.num_components = forest.num_components;
  out.num_trees = forest.trees.size();

  trace::TraceSpan span("solve_forest");
  span.tag("trees", static_cast<std::int64_t>(forest.trees.size()));
  const util::BudgetScope scope(config.budget);
  TreeDpOptions dp = config.dp;
  if (!config.budget.unlimited()) dp.budget = &scope;
  if (dp.num_threads == 0)
    dp.num_threads = internal::intra_tree_threads(config, forest);

  // Trees are independent; solve them (optionally) in parallel with per-tree
  // fault isolation, then merge in deterministic tree order.
  std::vector<TreeSolution> solutions(forest.trees.size());
  solve_trees_isolated(
      forest, config.num_threads,
      [&](std::size_t i) {
        solutions[i] = solve_tree(forest.trees[i], config.beta, dp);
      },
      [&](std::size_t i) {
        solutions[i] = internal::root_only_fallback(forest.trees[i]);
        return !solutions[i].initiators.empty();
      },
      out.diagnostics);

  std::vector<const TreeSolution*> views(solutions.size());
  for (std::size_t t = 0; t < solutions.size(); ++t) views[t] = &solutions[t];
  internal::merge_solutions(forest, views, out);
  out.diagnostics.total_seconds = span.seconds();
  internal::attach_stage_totals(out.diagnostics);
  return out;
}

std::vector<DetectionResult> run_rid_betas(const CascadeForest& forest,
                                            std::span<const double> betas,
                                            const RidConfig& config) {
  std::vector<DetectionResult> out(betas.size());
  for (DetectionResult& result : out) {
    result.num_components = forest.num_components;
    result.num_trees = forest.trees.size();
  }

  trace::TraceSpan span("solve_forest_betas");
  span.tag("trees", static_cast<std::int64_t>(forest.trees.size()));
  span.tag("betas", static_cast<std::int64_t>(betas.size()));
  const util::BudgetScope scope(config.budget);
  TreeDpOptions dp = config.dp;
  if (!config.budget.unlimited()) dp.budget = &scope;
  if (dp.num_threads == 0)
    dp.num_threads = internal::intra_tree_threads(config, forest);

  // Per-tree multi-beta solves (optionally parallel over trees, isolated
  // per tree), merged in deterministic tree order per beta.
  RunDiagnostics diagnostics;
  std::vector<std::vector<TreeSolution>> solutions(forest.trees.size());
  solve_trees_isolated(
      forest, config.num_threads,
      [&](std::size_t i) {
        solutions[i] = solve_tree_betas(forest.trees[i], betas, dp);
      },
      [&](std::size_t i) {
        // The fallback does not depend on beta: one root-only solution,
        // replicated per beta (objective = -opt since k = 1).
        solutions[i].assign(betas.size(),
                            internal::root_only_fallback(forest.trees[i]));
        return !betas.empty() && !solutions[i][0].initiators.empty();
      },
      diagnostics);
  diagnostics.total_seconds = span.seconds();
  internal::attach_stage_totals(diagnostics);

  for (std::size_t b = 0; b < betas.size(); ++b) {
    std::vector<const TreeSolution*> views(solutions.size());
    for (std::size_t t = 0; t < solutions.size(); ++t)
      views[t] = &solutions[t][b];
    internal::merge_solutions(forest, views, out[b]);
    out[b].diagnostics = diagnostics;
  }
  return out;
}

namespace internal {

DetectionResult detect_with(
    const graph::ColumnarGraphView& diffusion,
    std::span<const graph::NodeState> states, const RidConfig& config,
    const trace::TraceSpan& span,
    const std::function<DetectionResult(const CascadeForest&)>& solve) {
  // kRepair sanitizes copies of the snapshot and candidate mask up front;
  // kReject leaves validation to extract_cascade_forest (which throws on a
  // size mismatch, exactly as before).
  std::vector<graph::NodeState> repaired_states;
  std::vector<bool> repaired_candidates;
  std::span<const graph::NodeState> view = states;
  const std::vector<bool>* candidates = &config.candidates;
  SanitizeReport repairs;
  if (config.repair_policy == RepairPolicy::kRepair) {
    repaired_states.assign(states.begin(), states.end());
    repairs.merge(sanitize_states(diffusion.num_nodes(), repaired_states,
                                  RepairPolicy::kRepair));
    view = repaired_states;
    repaired_candidates = config.candidates;
    repairs.merge(sanitize_candidates(diffusion.num_nodes(),
                                      repaired_candidates,
                                      RepairPolicy::kRepair));
    candidates = &repaired_candidates;
  }

  // extract_cascade_forest records its own "extract_forest" span; the
  // timestamps here only feed the diagnostics and the histogram.
  const std::uint64_t extraction_start_ns = trace::now_ns();
  ExtractionConfig extraction = config.extraction;
  if (extraction.num_threads == 0) extraction.num_threads = config.num_threads;
  CascadeForest forest = extract_cascade_forest(diffusion, view, extraction);
  const std::uint64_t extraction_end_ns = trace::now_ns();
  rid_metrics().extraction_ns.observe(extraction_end_ns -
                                      extraction_start_ns);
  if (!candidates->empty()) apply_candidate_mask(forest, *candidates);

  DetectionResult result = solve(forest);
  result.diagnostics.repairs = std::move(repairs.repairs);
  result.diagnostics.extraction_seconds =
      static_cast<double>(extraction_end_ns - extraction_start_ns) * 1e-9;
  result.diagnostics.total_seconds = span.seconds();
  attach_stage_totals(result.diagnostics);
  return result;
}

}  // namespace internal

DetectionResult run_rid(const graph::ColumnarGraphView& diffusion,
                        std::span<const graph::NodeState> states,
                        const RidConfig& config) {
  trace::TraceSpan span("run_rid");
  rid_metrics().runs.add(1);
  DetectionResult result = internal::detect_with(
      diffusion, states, config, span, [&](const CascadeForest& forest) {
        return run_rid_on_forest(forest, config);
      });
  util::log_debug("run_rid(beta=", config.beta, "): ", result.initiators.size(),
                  " initiators from ", result.num_trees, " trees (",
                  result.diagnostics.num_degraded, " degraded, ",
                  result.diagnostics.num_failed, " failed)");
  return result;
}

}  // namespace rid::core
