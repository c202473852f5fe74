// Input validation and repair for snapshots, candidate masks, and graph
// weights — the front door of the fault-isolated pipeline.
//
// Each sanitize_* function scans one input for structural problems (size
// mismatches against the graph, invalid state bytes, non-finite or
// out-of-range weights) and either repairs in place (RepairPolicy::kRepair)
// or throws util::InputError listing every issue (kReject, the default used
// by run_rid). Repairs are deterministic and reported as human-readable
// strings, which run_rid copies into RunDiagnostics::repairs.
#pragma once

#include <string>
#include <vector>

#include "graph/signed_graph.hpp"

namespace rid::core {

enum class RepairPolicy {
  kReject,  // throw util::InputError describing every issue found
  kRepair,  // fix in place and report what was changed
};

struct SanitizeReport {
  /// One entry per repair applied (kRepair) — empty means the input was
  /// already clean. kReject never returns with issues (it throws).
  std::vector<std::string> repairs;

  bool clean() const noexcept { return repairs.empty(); }
  void merge(SanitizeReport other) {
    for (std::string& r : other.repairs) repairs.push_back(std::move(r));
  }
};

/// Snapshot repair: resizes `states` to the graph's node count (padding with
/// kInactive) and resets state bytes outside {+1, -1, 0, ?} to kInactive.
/// Only the node count matters, so callers holding a graph view (run_rid)
/// use the num_nodes overload directly.
SanitizeReport sanitize_states(graph::NodeId num_nodes,
                               std::vector<graph::NodeState>& states,
                               RepairPolicy policy);
SanitizeReport sanitize_states(const graph::SignedGraph& diffusion,
                               std::vector<graph::NodeState>& states,
                               RepairPolicy policy);

/// Candidate-mask repair: an empty mask means "everyone eligible" and is
/// left alone; otherwise the mask is resized to the node count, padding new
/// nodes as eligible.
SanitizeReport sanitize_candidates(graph::NodeId num_nodes,
                                   std::vector<bool>& candidates,
                                   RepairPolicy policy);
SanitizeReport sanitize_candidates(const graph::SignedGraph& diffusion,
                                   std::vector<bool>& candidates,
                                   RepairPolicy policy);

/// Weight repair: NaN weights become 0, and every weight is clamped into
/// [0, 1] (the diffusion-probability domain the whole pipeline assumes).
SanitizeReport sanitize_graph_weights(graph::SignedGraph& graph,
                                      RepairPolicy policy);

}  // namespace rid::core
