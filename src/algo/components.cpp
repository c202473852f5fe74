#include "algo/components.hpp"

#include <algorithm>

#include "algo/union_find.hpp"

namespace rid::algo {

namespace {

/// Edges per streamed window: large enough that the per-block budget check
/// is noise, small enough that only a sliver of the edge columns has to be
/// resident at once (64Ki edges = 512 KiB of src+dst).
constexpr graph::EdgeId kEdgeBlock = 1u << 16;

/// How far the streamed sweeps run ahead before dropping the edge-column
/// pages behind the cursor (4Mi edges ≈ 68 MiB across the four columns).
/// Keeps resident set O(stride) on multi-GB files; page-cache re-faults are
/// cheap if a later phase re-reads the range.
constexpr graph::EdgeId kDropStride = 1u << 22;

/// Assigns component labels by ascending node scan, so labels depend only
/// on the partition, not on the order edges were united in.
Components label_components(UnionFind& uf, graph::NodeId num_nodes,
                            const std::vector<bool>* selected) {
  Components out;
  out.label.assign(num_nodes, graph::kInvalidNode);
  std::vector<graph::NodeId> root_label(num_nodes, graph::kInvalidNode);
  for (graph::NodeId v = 0; v < num_nodes; ++v) {
    if (selected != nullptr && !(*selected)[v]) continue;
    const auto root = uf.find(v);
    if (root_label[root] == graph::kInvalidNode) root_label[root] = out.count++;
    out.label[v] = root_label[root];
  }
  return out;
}

/// Calls `visit(src, dst)` for every edge in ascending EdgeId order, one
/// edge_range window at a time, polling `budget` between windows and
/// dropping the mapped pages behind the cursor every kDropStride edges.
template <typename Visit>
void sweep_edges(const graph::ColumnarGraphView& graph,
                 const util::BudgetScope* budget, const Visit& visit) {
  const auto num_edges = static_cast<graph::EdgeId>(graph.num_edges());
  graph::EdgeId drop_from = 0;
  for (graph::EdgeId lo = 0; lo < num_edges; lo += kEdgeBlock) {
    const graph::EdgeId hi =
        std::min<graph::EdgeId>(num_edges, lo + kEdgeBlock);
    const graph::EdgeWindow w = graph.edge_range(lo, hi);
    for (std::size_t i = 0; i < w.size(); ++i) visit(w.srcs[i], w.dsts[i]);
    if (budget != nullptr) budget->check();
    if (hi - drop_from >= kDropStride) {
      graph.drop_edge_pages(drop_from, hi);
      drop_from = hi;
    }
  }
}

}  // namespace

std::vector<std::vector<graph::NodeId>> Components::groups() const {
  std::vector<std::vector<graph::NodeId>> out(count);
  for (graph::NodeId v = 0; v < label.size(); ++v) {
    if (label[v] != graph::kInvalidNode) out[label[v]].push_back(v);
  }
  return out;
}

Components weakly_connected_components(const graph::ColumnarGraphView& graph,
                                       const util::BudgetScope* budget) {
  UnionFind uf(graph.num_nodes());
  sweep_edges(graph, budget, [&](graph::NodeId u, graph::NodeId v) {
    uf.unite(u, v);
  });
  return label_components(uf, graph.num_nodes(), nullptr);
}

Components weakly_connected_components(
    const graph::ColumnarGraphView& graph,
    std::span<const graph::NodeId> restrict_to,
    const util::BudgetScope* budget) {
  std::vector<bool> selected(graph.num_nodes(), false);
  for (const graph::NodeId v : restrict_to) selected[v] = true;

  UnionFind uf(graph.num_nodes());
  if (graph.mapped()) {
    sweep_edges(graph, budget, [&](graph::NodeId u, graph::NodeId v) {
      if (selected[u] && selected[v]) uf.unite(u, v);
    });
  } else {
    for (const graph::NodeId u : restrict_to) {
      for (const graph::NodeId v : graph.out_neighbors(u))
        if (selected[v]) uf.unite(u, v);
    }
  }
  return label_components(uf, graph.num_nodes(), &selected);
}

}  // namespace rid::algo
