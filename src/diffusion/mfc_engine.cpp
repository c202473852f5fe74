#include "diffusion/mfc_engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace rid::diffusion {

std::size_t MfcWorkspace::memory_bytes() const noexcept {
  return node_epoch_.capacity() * sizeof(std::uint32_t) +
         edge_epoch_.capacity() * sizeof(std::uint32_t) +
         state_.capacity() * sizeof(graph::NodeState) +
         activator_.capacity() * sizeof(graph::NodeId) +
         activation_edge_.capacity() * sizeof(graph::EdgeId) +
         step_.capacity() * sizeof(std::uint32_t) +
         (touched_.capacity() + recent_.capacity() + next_.capacity()) *
             sizeof(graph::NodeId);
}

void MfcWorkspace::begin_trial(graph::NodeId num_nodes,
                               std::size_t num_edges) {
  // Growing with value 0 is safe: epoch 0 is never a live stamp.
  if (node_epoch_.size() < num_nodes) {
    node_epoch_.resize(num_nodes, 0);
    state_.resize(num_nodes);
    activator_.resize(num_nodes);
    activation_edge_.resize(num_nodes);
    step_.resize(num_nodes);
  }
  if (edge_epoch_.size() < num_edges) edge_epoch_.resize(num_edges, 0);
  ++epoch_;
  if (epoch_ == 0) {  // 32-bit wraparound: stale stamps could collide
    std::fill(node_epoch_.begin(), node_epoch_.end(), 0);
    std::fill(edge_epoch_.begin(), edge_epoch_.end(), 0);
    epoch_ = 1;
  }
  touched_.clear();
  touched_.reserve(infected_high_water_);
  recent_.clear();
  next_.clear();
  num_flips_ = 0;
  num_attempts_ = 0;
  num_steps_ = 0;
}

MfcEngine::MfcEngine(const graph::ColumnarGraphView& diffusion,
                     const MfcConfig& config)
    : graph_(diffusion), config_(config) {
  if (config_.alpha < 1.0)
    throw std::invalid_argument("MfcEngine: alpha must be >= 1");
  const std::size_t m = graph_.num_edges();
  probability_.resize(m);
  for (graph::EdgeId e = 0; e < m; ++e) {
    double p = graph_.edge_weight(e);
    if (config_.boost_positive &&
        graph_.edge_sign(e) == graph::Sign::kPositive)
      p = std::min(1.0, config_.alpha * p);
    probability_[e] = p;
  }
}

MfcTrialStats MfcEngine::run(const SeedSet& seeds, MfcWorkspace& ws,
                             util::Rng& rng) const {
  validate_seed_set(seeds, graph_.num_nodes());
  ws.begin_trial(graph_.num_nodes(), graph_.num_edges());
  const std::uint32_t epoch = ws.epoch_;

  for (std::size_t i = 0; i < seeds.nodes.size(); ++i) {
    const graph::NodeId s = seeds.nodes[i];
    ws.node_epoch_[s] = epoch;
    ws.state_[s] = seeds.states[i];
    ws.activator_[s] = graph::kInvalidNode;
    ws.activation_edge_[s] = graph::kInvalidEdge;
    ws.step_[s] = 0;
    ws.touched_.push_back(s);
    ws.recent_.push_back(s);
  }

  std::uint32_t step = 0;
  while (!ws.recent_.empty()) {
    ++step;
    if (config_.max_steps != 0 && step > config_.max_steps) break;
    ws.next_.clear();
    for (const graph::NodeId u : ws.recent_) {
      const graph::NodeState su = ws.state_[u];
      for (const graph::EdgeId e : graph_.out_edge_ids(u)) {
        if (ws.edge_epoch_[e] == epoch) continue;  // one attempt per pair
        const graph::NodeId v = graph_.edge_dst(e);
        const graph::Sign sign = graph_.edge_sign(e);
        const graph::NodeState sv = ws.node_epoch_[v] == epoch
                                        ? ws.state_[v]
                                        : graph::NodeState::kInactive;

        // Eligibility (Algorithm 1 line 8): v inactive, or a trusted
        // neighbor with a different state (flip candidate).
        const bool inactive = sv == graph::NodeState::kInactive;
        const bool flip_candidate = config_.allow_flipping &&
                                    graph::is_opinion(sv) &&
                                    sign == graph::Sign::kPositive && sv != su;
        if (!inactive && !flip_candidate) continue;

        ws.edge_epoch_[e] = epoch;
        ++ws.num_attempts_;
        if (!rng.bernoulli(probability_[e])) continue;

        // Success: v adopts s(u) * s(u, v) and becomes recently infected.
        if (inactive) {
          ws.node_epoch_[v] = epoch;
          ws.touched_.push_back(v);
        } else {
          ++ws.num_flips_;
        }
        ws.state_[v] = graph::propagate_state(su, sign);
        ws.activator_[v] = u;
        ws.activation_edge_[v] = e;
        ws.step_[v] = step;
        ws.next_.push_back(v);
      }
    }
    std::swap(ws.recent_, ws.next_);
  }
  ws.num_steps_ = step;
  ws.infected_high_water_ =
      std::max(ws.infected_high_water_, ws.touched_.size());
  return MfcTrialStats{ws.touched_.size(), ws.num_flips_, ws.num_attempts_,
                       ws.num_steps_};
}

Cascade MfcEngine::export_cascade(const MfcWorkspace& ws) const {
  const graph::NodeId n = graph_.num_nodes();
  Cascade out;
  out.state.assign(n, graph::NodeState::kInactive);
  out.activator.assign(n, graph::kInvalidNode);
  out.activation_edge.assign(n, graph::kInvalidEdge);
  out.step.assign(n, 0);
  out.infected.reserve(
      std::max(ws.infected_high_water_, ws.touched_.size()));
  out.infected.assign(ws.touched_.begin(), ws.touched_.end());
  for (const graph::NodeId v : ws.touched_) {
    out.state[v] = ws.state_[v];
    out.activator[v] = ws.activator_[v];
    out.activation_edge[v] = ws.activation_edge_[v];
    out.step[v] = ws.step_[v];
  }
  out.num_flips = ws.num_flips_;
  out.num_attempts = ws.num_attempts_;
  out.num_steps = ws.num_steps_;
  return out;
}

Cascade MfcEngine::run_cascade(const SeedSet& seeds, MfcWorkspace& ws,
                               util::Rng& rng) const {
  run(seeds, ws, rng);
  return export_cascade(ws);
}

double MfcBatchResult::mean_infected(std::size_t seed_set) const {
  const auto span = trials_for(seed_set);
  double total = 0.0;
  for (const MfcTrialStats& t : span)
    total += static_cast<double>(t.num_infected);
  return span.empty() ? 0.0 : total / static_cast<double>(span.size());
}

MfcBatchResult MfcEngine::run_batch(std::span<const SeedSet> seed_sets,
                                    std::size_t num_trials,
                                    std::uint64_t base_seed,
                                    std::size_t num_threads) const {
  MfcBatchResult result;
  result.num_seed_sets = seed_sets.size();
  result.num_trials = num_trials;
  const std::size_t total = seed_sets.size() * num_trials;
  result.trials.resize(total);
  if (total == 0) return result;

  util::trace::TraceSpan span("mfc_run_batch");
  span.tag("seed_sets", static_cast<std::int64_t>(seed_sets.size()));
  span.tag("trials", static_cast<std::int64_t>(total));
  util::metrics::Counter& trials_counter =
      util::metrics::global().counter("mfc.trials");
  util::metrics::Counter& infected_counter =
      util::metrics::global().counter("mfc.infected_total");
  util::metrics::Counter& attempts_counter =
      util::metrics::global().counter("mfc.attempts_total");
  util::metrics::global().counter("mfc.batches").add(1);

  // Each thread owns one workspace and a strided subset of trial indices;
  // trial (s, t) always draws from Rng(mix_seed(base_seed, s*num_trials+t))
  // and lands at a fixed slot, so the result does not depend on the stride.
  const std::size_t stride =
      std::max<std::size_t>(1, std::min(num_threads, total));
  util::parallel_for_each(stride, stride, [&](std::size_t chunk) {
    MfcWorkspace ws;
    // Throughput counters accumulate chunk-locally: one atomic add per
    // chunk, nothing per trial.
    std::size_t chunk_trials = 0;
    std::size_t chunk_infected = 0;
    std::size_t chunk_attempts = 0;
    for (std::size_t i = chunk; i < total; i += stride) {
      util::Rng rng(util::mix_seed(base_seed, i));
      result.trials[i] = run(seed_sets[i / num_trials], ws, rng);
      ++chunk_trials;
      chunk_infected += result.trials[i].num_infected;
      chunk_attempts += result.trials[i].num_attempts;
    }
    trials_counter.add(chunk_trials);
    infected_counter.add(chunk_infected);
    attempts_counter.add(chunk_attempts);
  });
  return result;
}

}  // namespace rid::diffusion
