// Weakly-connected components (paper Definition 6 / Section III-E1):
// connectivity of the directed graph with edge directions ignored.
#pragma once

#include <span>
#include <vector>

#include "graph/columnar.hpp"
#include "util/work_budget.hpp"

namespace rid::algo {

struct Components {
  /// label[v] = component index in [0, count), or kInvalidNode for nodes
  /// excluded from the restriction set.
  std::vector<graph::NodeId> label;
  graph::NodeId count = 0;

  /// Members of each component, grouped (ascending node ids per group).
  std::vector<std::vector<graph::NodeId>> groups() const;
};

/// Components over all nodes. Streams the edge columns in fixed-size
/// edge_range windows, so only one block of a mapped edge array needs to be
/// resident at a time, and polls an armed WorkBudget between blocks.
Components weakly_connected_components(const graph::ColumnarGraphView& graph,
                                       const util::BudgetScope* budget =
                                           nullptr);

/// Components of the subgraph induced by `restrict_to` (edges between
/// selected nodes only). Nodes outside the set get label kInvalidNode. A
/// mapped view is swept in edge windows as above; an in-RAM view walks the
/// selected nodes' out-edges, which touches only their adjacency. Labels
/// depend only on the partition (they are assigned by ascending node scan),
/// so both walks give the same labels.
Components weakly_connected_components(const graph::ColumnarGraphView& graph,
                                       std::span<const graph::NodeId>
                                           restrict_to,
                                       const util::BudgetScope* budget =
                                           nullptr);

}  // namespace rid::algo
