// MfcEngine / MfcWorkspace — allocation-free repeated MFC simulation.
//
// `simulate_mfc` pays O(n + m) per trial just to zero its scratch state,
// which dominates when thousands of Monte-Carlo cascades touch a few
// percent of a large graph. The engine splits that cost:
//
//  * MfcEngine binds a (graph, MfcConfig) pair once and precomputes the
//    per-edge success probability table (the positive-link boost
//    min(1, alpha * w) is folded in at construction), so the hot loop is a
//    single array load + one bernoulli draw per attempt.
//  * MfcWorkspace owns epoch-stamped scratch buffers (node state/activator/
//    activation-edge/step, per-edge attempted marks). A trial begins by
//    bumping a 32-bit epoch counter; a slot is live only if its stamp
//    equals the current epoch, so per-trial reset is O(touched) instead of
//    O(n + m). The compacted touched-list doubles as the cascade's
//    `infected` order and is what rebuilds a dense `Cascade` on demand.
//
// Determinism contract:
//  * run(seeds, ws, rng) consumes the Rng stream exactly like the original
//    `simulate_mfc` (one bernoulli per attempted edge, in CSR order), so it
//    is bit-for-bit equivalent under the same stream — property-tested.
//  * run_batch derives one independent counter-seeded stream per trial from
//    (base_seed, trial_index) via util::mix_seed, and folds results in
//    trial order, so aggregates are bit-identical for any thread count.
//
// A workspace is not tied to one engine: binding it to a different graph
// just grows (never shrinks) its buffers. Reuse one workspace per thread;
// workspaces are not thread-safe, engines are immutable and shareable.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "diffusion/mfc.hpp"
#include "graph/columnar.hpp"

namespace rid::diffusion {

class MfcEngine;

/// Reusable scratch state for MFC trials. Cheap to default-construct; all
/// buffers are grown lazily by the engine on first use and kept across
/// trials (including the infected high-water mark used for reservations).
class MfcWorkspace {
 public:
  MfcWorkspace() = default;

  /// Nodes activated in the most recent trial, in activation order (seeds
  /// first) — identical to Cascade::infected. Valid until the next trial.
  std::span<const graph::NodeId> infected() const noexcept {
    return touched_;
  }

  /// Largest number of infected nodes seen by any trial run through this
  /// workspace (reservation hint replacing the old `seeds * 4` heuristic).
  std::size_t infected_high_water() const noexcept {
    return infected_high_water_;
  }

  /// Bytes currently held by the scratch buffers (capacity planning).
  std::size_t memory_bytes() const noexcept;

 private:
  friend class MfcEngine;

  /// Grows buffers to cover `num_nodes` / `num_edges` and starts a new
  /// epoch (clearing all stamps in O(n + m) only on 32-bit wraparound).
  void begin_trial(graph::NodeId num_nodes, std::size_t num_edges);

  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> node_epoch_;  // per node: stamp of last touch
  std::vector<std::uint32_t> edge_epoch_;  // per edge: stamp of last attempt
  std::vector<graph::NodeState> state_;    // valid iff node stamp == epoch_
  std::vector<graph::NodeId> activator_;
  std::vector<graph::EdgeId> activation_edge_;
  std::vector<std::uint32_t> step_;
  std::vector<graph::NodeId> touched_;  // activation order, seeds first
  std::vector<graph::NodeId> recent_;   // R in Algorithm 1
  std::vector<graph::NodeId> next_;     // N in Algorithm 1
  std::size_t infected_high_water_ = 0;

  // Aggregates of the most recent trial (read back by the engine).
  std::size_t num_flips_ = 0;
  std::size_t num_attempts_ = 0;
  std::uint32_t num_steps_ = 0;
};

/// Cheap per-trial aggregate for batch workloads that do not need the full
/// dense cascade (spread estimation, figure sweeps, benchmarks).
struct MfcTrialStats {
  std::size_t num_infected = 0;
  std::size_t num_flips = 0;
  std::size_t num_attempts = 0;
  std::uint32_t num_steps = 0;
};

/// Result of MfcEngine::run_batch: per-trial stats in trial-major order
/// (seed set s, trial t lives at index s * num_trials + t).
struct MfcBatchResult {
  std::vector<MfcTrialStats> trials;
  std::size_t num_seed_sets = 0;
  std::size_t num_trials = 0;

  std::span<const MfcTrialStats> trials_for(std::size_t seed_set) const {
    return std::span<const MfcTrialStats>(trials).subspan(
        seed_set * num_trials, num_trials);
  }

  /// Monte-Carlo estimate of the expected spread of one seed set.
  double mean_infected(std::size_t seed_set) const;
};

/// Immutable simulation engine bound to one (diffusion graph, MfcConfig)
/// pair. The referenced graph must outlive the engine; reassigning edge
/// weights after construction requires building a new engine (the
/// probability table is a snapshot).
///
/// The hot loop runs over the view's flat CSR columns (offsets, dst, sign),
/// which alias the backing store, so the engine simulates over an in-RAM
/// SignedGraph or a mapped .ridg identically — the Rng stream and every
/// result are bit-for-bit equal for equal content.
class MfcEngine {
 public:
  /// Validates the config (alpha >= 1) and precomputes the per-edge
  /// success-probability table. Throws std::invalid_argument on bad config.
  MfcEngine(const graph::ColumnarGraphView& diffusion,
            const MfcConfig& config);

  /// The bound graph.
  const graph::ColumnarGraphView& graph() const noexcept { return graph_; }
  const MfcConfig& config() const noexcept { return config_; }

  graph::NodeId num_nodes() const noexcept { return graph_.num_nodes(); }
  std::size_t num_edges() const noexcept { return graph_.num_edges(); }

  /// Per-edge activation probability with the positive boost folded in.
  std::span<const double> edge_probabilities() const noexcept {
    return probability_;
  }

  /// Runs one cascade into the workspace, consuming `rng` exactly like
  /// `simulate_mfc`. Per-node results stay in the workspace (valid until
  /// its next trial); the return value carries the aggregates. Throws
  /// std::invalid_argument on a malformed seed set.
  MfcTrialStats run(const SeedSet& seeds, MfcWorkspace& workspace,
                    util::Rng& rng) const;

  /// Runs one cascade and materializes the dense Cascade (what
  /// `simulate_mfc` returns); O(touched + n) for the dense arrays.
  Cascade run_cascade(const SeedSet& seeds, MfcWorkspace& workspace,
                      util::Rng& rng) const;

  /// Rebuilds the dense Cascade of the workspace's most recent trial (which
  /// must have been produced by an engine on the same graph).
  Cascade export_cascade(const MfcWorkspace& workspace) const;

  /// Runs `num_trials` independent cascades for every seed set. Trial
  /// (s, t) draws from Rng(mix_seed(base_seed, s * num_trials + t)), so the
  /// result is bit-identical for any `num_threads`; threads run disjoint
  /// strided trial subsets, each with its own workspace.
  MfcBatchResult run_batch(std::span<const SeedSet> seed_sets,
                           std::size_t num_trials, std::uint64_t base_seed,
                           std::size_t num_threads = 1) const;

 private:
  graph::ColumnarGraphView graph_;
  MfcConfig config_;
  std::vector<double> probability_;  // min(1, alpha*w) on boosted edges
};

}  // namespace rid::diffusion
