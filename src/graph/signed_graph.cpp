#include "graph/signed_graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace rid::graph {

std::string to_string(Sign s) {
  return s == Sign::kPositive ? "+1" : "-1";
}

std::string to_string(NodeState s) {
  switch (s) {
    case NodeState::kPositive:
      return "+1";
    case NodeState::kNegative:
      return "-1";
    case NodeState::kInactive:
      return "0";
    case NodeState::kUnknown:
      return "?";
  }
  return "invalid";
}

SignedGraphBuilder::SignedGraphBuilder(NodeId num_nodes)
    : num_nodes_(num_nodes) {}

SignedGraphBuilder& SignedGraphBuilder::add_edge(NodeId src, NodeId dst,
                                                 Sign sign, double weight) {
  if (src >= num_nodes_ || dst >= num_nodes_)
    throw std::out_of_range("SignedGraphBuilder::add_edge: node id >= n");
  if (!(weight >= 0.0 && weight <= 1.0))
    throw std::invalid_argument(
        "SignedGraphBuilder::add_edge: weight outside [0, 1]");
  srcs_.push_back(src);
  dsts_.push_back(dst);
  signs_.push_back(sign);
  weights_.push_back(weight);
  return *this;
}

void SignedGraphBuilder::ensure_node(NodeId id) {
  if (id == kInvalidNode)
    throw std::out_of_range("SignedGraphBuilder::ensure_node: invalid id");
  if (id >= num_nodes_) num_nodes_ = id + 1;
}

SignedGraph SignedGraphBuilder::build() { return build(BuildOptions{}); }

SignedGraph SignedGraphBuilder::build(const BuildOptions& options) {
  const std::size_t raw_m = srcs_.size();
  if (raw_m >= kInvalidEdge)
    throw std::length_error("SignedGraphBuilder::build: too many edges");
  // CSR order is (src, dst, insertion order), which also makes dedup keep
  // each pair's first occurrence. Two stable counting passes produce it in
  // O(n + m): bucket by dst in insertion order, then stably by src.
  std::vector<EdgeId> cursor(std::size_t{num_nodes_} + 1);
  const auto bucket_starts = [&](const std::vector<NodeId>& key) {
    std::fill(cursor.begin(), cursor.end(), EdgeId{0});
    for (const NodeId k : key) ++cursor[std::size_t{k} + 1];
    for (NodeId u = 0; u < num_nodes_; ++u) cursor[u + 1] += cursor[u];
  };
  std::vector<EdgeId> by_dst(raw_m);
  bucket_starts(dsts_);
  for (std::size_t i = 0; i < raw_m; ++i)
    by_dst[cursor[dsts_[i]]++] = static_cast<EdgeId>(i);
  std::vector<EdgeId> order(raw_m);
  bucket_starts(srcs_);
  for (const EdgeId i : by_dst) order[cursor[srcs_[i]]++] = i;
  by_dst = {};

  SignedGraph g;
  g.out_offsets_.assign(num_nodes_ + 1, 0);
  g.src_.reserve(raw_m);
  g.dst_.reserve(raw_m);
  g.sign_.reserve(raw_m);
  g.weight_.reserve(raw_m);

  NodeId prev_src = kInvalidNode;
  NodeId prev_dst = kInvalidNode;
  for (const EdgeId i : order) {
    const NodeId s = srcs_[i];
    const NodeId d = dsts_[i];
    if (options.drop_self_loops && s == d) continue;
    if (options.dedup_parallel_edges && s == prev_src && d == prev_dst)
      continue;
    prev_src = s;
    prev_dst = d;
    g.src_.push_back(s);
    g.dst_.push_back(d);
    g.sign_.push_back(signs_[i]);
    g.weight_.push_back(weights_[i]);
    ++g.out_offsets_[s + 1];
  }
  for (NodeId u = 0; u < num_nodes_; ++u)
    g.out_offsets_[u + 1] += g.out_offsets_[u];

  const auto m = static_cast<EdgeId>(g.dst_.size());

  // In-adjacency via counting sort on destination.
  g.in_offsets_.assign(num_nodes_ + 1, 0);
  for (const NodeId d : g.dst_) ++g.in_offsets_[d + 1];
  for (NodeId v = 0; v < num_nodes_; ++v)
    g.in_offsets_[v + 1] += g.in_offsets_[v];
  g.in_edge_.resize(m);
  for (NodeId v = 0; v < num_nodes_; ++v)
    cursor[v] = static_cast<EdgeId>(g.in_offsets_[v]);
  for (EdgeId e = 0; e < m; ++e) g.in_edge_[cursor[g.dst_[e]]++] = e;

  // Release builder storage.
  srcs_.clear();
  dsts_.clear();
  signs_.clear();
  weights_.clear();
  return g;
}

void SignedGraph::set_edge_weight(EdgeId e, double weight) {
  if (!(weight >= 0.0 && weight <= 1.0))
    throw std::invalid_argument(
        "SignedGraph::set_edge_weight: weight outside [0, 1]");
  weight_[e] = weight;
}

EdgeId SignedGraph::find_edge(NodeId src, NodeId dst) const noexcept {
  if (src >= num_nodes()) return kInvalidEdge;
  const auto begin = dst_.begin() + out_offsets_[src];
  const auto end = dst_.begin() + out_offsets_[src + 1];
  const auto it = std::lower_bound(begin, end, dst);
  if (it == end || *it != dst) return kInvalidEdge;
  return static_cast<EdgeId>(it - dst_.begin());
}

SignedGraph SignedGraph::reversed() const {
  if (out_offsets_.empty()) return SignedGraphBuilder(0).build();
  // The reversed edges in builder order, (dst, src, edge id), are exactly
  // in_edge_'s order, so reversed edge k is in_edge_[k]. The out-CSR of the
  // result is this graph's in-CSR and vice versa; reversed edge k enters
  // edge_src(in_edge_[k]), and an out-range of this graph lists its edges
  // in ascending k, so the result's in_edge is the inverse of in_edge_.
  const std::size_t m = num_edges();
  SignedGraph r;
  r.out_offsets_ = in_offsets_;
  r.in_offsets_ = out_offsets_;
  r.src_.resize(m);
  r.dst_.resize(m);
  r.sign_.resize(m);
  r.weight_.resize(m);
  r.in_edge_.resize(m);
  for (NodeId v = 0; v < num_nodes(); ++v) {
    const auto last = static_cast<EdgeId>(in_offsets_[v + 1]);
    for (auto k = static_cast<EdgeId>(in_offsets_[v]); k < last; ++k) {
      const EdgeId e = in_edge_[k];
      r.src_[k] = v;
      r.dst_[k] = src_[e];
      r.sign_[k] = sign_[e];
      r.weight_[k] = weight_[e];
      r.in_edge_[e] = k;
    }
  }
  return r;
}

std::size_t SignedGraph::memory_bytes() const noexcept {
  return out_offsets_.capacity() * sizeof(std::uint64_t) +
         src_.capacity() * sizeof(NodeId) + dst_.capacity() * sizeof(NodeId) +
         sign_.capacity() * sizeof(Sign) +
         weight_.capacity() * sizeof(double) +
         in_offsets_.capacity() * sizeof(std::uint64_t) +
         in_edge_.capacity() * sizeof(EdgeId);
}

}  // namespace rid::graph
