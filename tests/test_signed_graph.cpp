#include "graph/signed_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <random>
#include <type_traits>
#include <vector>

#include "graph/columnar.hpp"
#include "graph/diffusion_network.hpp"
#include "graph/types.hpp"

namespace rid::graph {
namespace {

// A named graph converts to the read type every algorithm takes; a view of
// a temporary would dangle once the full expression ends, so that
// conversion must not compile.
static_assert(std::is_convertible_v<const SignedGraph&, ColumnarGraphView>);
static_assert(!std::is_convertible_v<SignedGraph&&, ColumnarGraphView>);
static_assert(!std::is_convertible_v<const SignedGraph&&, ColumnarGraphView>);

SignedGraph make_triangle() {
  SignedGraphBuilder builder(3);
  builder.add_edge(0, 1, Sign::kPositive, 0.5)
      .add_edge(1, 2, Sign::kNegative, 0.25)
      .add_edge(2, 0, Sign::kPositive, 0.75);
  return builder.build();
}

TEST(Types, SignArithmetic) {
  EXPECT_EQ(Sign::kPositive * Sign::kPositive, Sign::kPositive);
  EXPECT_EQ(Sign::kPositive * Sign::kNegative, Sign::kNegative);
  EXPECT_EQ(Sign::kNegative * Sign::kNegative, Sign::kPositive);
  EXPECT_EQ(sign_value(Sign::kNegative), -1);
  EXPECT_EQ(sign_from_value(-5), Sign::kNegative);
  EXPECT_EQ(sign_from_value(1), Sign::kPositive);
}

TEST(Types, StatePredicates) {
  EXPECT_TRUE(is_active(NodeState::kPositive));
  EXPECT_TRUE(is_active(NodeState::kNegative));
  EXPECT_TRUE(is_active(NodeState::kUnknown));
  EXPECT_FALSE(is_active(NodeState::kInactive));
  EXPECT_TRUE(is_opinion(NodeState::kPositive));
  EXPECT_FALSE(is_opinion(NodeState::kUnknown));
  EXPECT_FALSE(is_opinion(NodeState::kInactive));
}

TEST(Types, PropagateStateFollowsSignProduct) {
  EXPECT_EQ(propagate_state(NodeState::kPositive, Sign::kPositive),
            NodeState::kPositive);
  EXPECT_EQ(propagate_state(NodeState::kPositive, Sign::kNegative),
            NodeState::kNegative);
  EXPECT_EQ(propagate_state(NodeState::kNegative, Sign::kNegative),
            NodeState::kPositive);
  EXPECT_EQ(propagate_state(NodeState::kNegative, Sign::kPositive),
            NodeState::kNegative);
}

TEST(Types, ToStringRepresentations) {
  EXPECT_EQ(to_string(Sign::kPositive), "+1");
  EXPECT_EQ(to_string(NodeState::kUnknown), "?");
  EXPECT_EQ(to_string(NodeState::kInactive), "0");
}

TEST(SignedGraph, BasicAccessors) {
  const SignedGraph g = make_triangle();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  const EdgeId e01 = g.find_edge(0, 1);
  ASSERT_NE(e01, kInvalidEdge);
  EXPECT_EQ(g.edge_src(e01), 0u);
  EXPECT_EQ(g.edge_dst(e01), 1u);
  EXPECT_EQ(g.edge_sign(e01), Sign::kPositive);
  EXPECT_DOUBLE_EQ(g.edge_weight(e01), 0.5);
  EXPECT_EQ(g.find_edge(0, 2), kInvalidEdge);
  EXPECT_EQ(g.find_edge(2, 1), kInvalidEdge);
}

TEST(SignedGraph, DegreesAndAdjacency) {
  const SignedGraph g = make_triangle();
  for (NodeId v = 0; v < 3; ++v) {
    EXPECT_EQ(g.out_degree(v), 1u);
    EXPECT_EQ(g.in_degree(v), 1u);
  }
  EXPECT_EQ(g.out_neighbors(0).size(), 1u);
  EXPECT_EQ(g.out_neighbors(0)[0], 1u);
  ASSERT_EQ(g.in_edge_ids(0).size(), 1u);
  EXPECT_EQ(g.edge_src(g.in_edge_ids(0)[0]), 2u);
}

TEST(SignedGraph, OutNeighborsAreSorted) {
  SignedGraphBuilder builder(5);
  builder.add_edge(0, 4, Sign::kPositive, 1.0)
      .add_edge(0, 1, Sign::kPositive, 1.0)
      .add_edge(0, 3, Sign::kNegative, 1.0);
  const SignedGraph g = builder.build();
  const auto neighbors = g.out_neighbors(0);
  ASSERT_EQ(neighbors.size(), 3u);
  EXPECT_TRUE(std::is_sorted(neighbors.begin(), neighbors.end()));
}

TEST(SignedGraph, InEdgesSortedBySource) {
  SignedGraphBuilder builder(4);
  builder.add_edge(3, 0, Sign::kPositive, 1.0)
      .add_edge(1, 0, Sign::kPositive, 1.0)
      .add_edge(2, 0, Sign::kNegative, 1.0);
  const SignedGraph g = builder.build();
  const auto in = g.in_edge_ids(0);
  ASSERT_EQ(in.size(), 3u);
  EXPECT_EQ(g.edge_src(in[0]), 1u);
  EXPECT_EQ(g.edge_src(in[1]), 2u);
  EXPECT_EQ(g.edge_src(in[2]), 3u);
}

TEST(SignedGraphBuilder, RejectsBadInput) {
  SignedGraphBuilder builder(2);
  EXPECT_THROW(builder.add_edge(0, 2, Sign::kPositive, 0.5),
               std::out_of_range);
  EXPECT_THROW(builder.add_edge(0, 1, Sign::kPositive, 1.5),
               std::invalid_argument);
  EXPECT_THROW(builder.add_edge(0, 1, Sign::kPositive, -0.1),
               std::invalid_argument);
}

TEST(SignedGraphBuilder, DropsSelfLoopsByDefault) {
  SignedGraphBuilder builder(2);
  builder.add_edge(0, 0, Sign::kPositive, 1.0)
      .add_edge(0, 1, Sign::kPositive, 1.0);
  const SignedGraph g = builder.build();
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(SignedGraphBuilder, KeepsSelfLoopsWhenAsked) {
  SignedGraphBuilder builder(2);
  builder.add_edge(0, 0, Sign::kPositive, 1.0);
  const SignedGraph g = builder.build(
      {.drop_self_loops = false, .dedup_parallel_edges = true});
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(SignedGraphBuilder, DedupKeepsFirstOccurrence) {
  SignedGraphBuilder builder(2);
  builder.add_edge(0, 1, Sign::kPositive, 0.9)
      .add_edge(0, 1, Sign::kNegative, 0.1);
  const SignedGraph g = builder.build();
  EXPECT_EQ(g.num_edges(), 1u);
  const EdgeId e = g.find_edge(0, 1);
  EXPECT_EQ(g.edge_sign(e), Sign::kPositive);
  EXPECT_DOUBLE_EQ(g.edge_weight(e), 0.9);
}

TEST(SignedGraphBuilder, EnsureNodeGrowsUniverse) {
  SignedGraphBuilder builder(1);
  builder.ensure_node(5);
  EXPECT_EQ(builder.num_nodes(), 6u);
  builder.add_edge(5, 0, Sign::kPositive, 1.0);
  EXPECT_EQ(builder.build().num_nodes(), 6u);
}

TEST(SignedGraph, SetEdgeWeightValidates) {
  SignedGraph g = make_triangle();
  const EdgeId e = g.find_edge(0, 1);
  g.set_edge_weight(e, 0.33);
  EXPECT_DOUBLE_EQ(g.edge_weight(e), 0.33);
  EXPECT_THROW(g.set_edge_weight(e, 2.0), std::invalid_argument);
}

TEST(SignedGraph, ReversedSwapsDirections) {
  const SignedGraph g = make_triangle();
  const SignedGraph r = g.reversed();
  EXPECT_EQ(r.num_nodes(), g.num_nodes());
  EXPECT_EQ(r.num_edges(), g.num_edges());
  const EdgeId e10 = r.find_edge(1, 0);
  ASSERT_NE(e10, kInvalidEdge);
  EXPECT_EQ(r.edge_sign(e10), Sign::kPositive);
  EXPECT_DOUBLE_EQ(r.edge_weight(e10), 0.5);
  EXPECT_EQ(r.find_edge(0, 1), kInvalidEdge);
}

TEST(SignedGraph, ReverseTwiceIsIdentity) {
  const SignedGraph g = make_triangle();
  EXPECT_EQ(g.reversed().reversed(), g);
}

TEST(SignedGraph, DiffusionNetworkEqualsReversed) {
  const SignedGraph g = make_triangle();
  EXPECT_EQ(make_diffusion_network(g), g.reversed());
}

TEST(SignedGraph, EmptyGraph) {
  SignedGraphBuilder builder(0);
  const SignedGraph g = builder.build();
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(SignedGraph, NodesWithoutEdges) {
  SignedGraphBuilder builder(10);
  builder.add_edge(0, 9, Sign::kPositive, 1.0);
  const SignedGraph g = builder.build();
  EXPECT_EQ(g.out_degree(5), 0u);
  EXPECT_EQ(g.in_degree(5), 0u);
  EXPECT_TRUE(g.out_neighbors(5).empty());
}

TEST(SignedGraph, MemoryBytesIsPositive) {
  EXPECT_GT(make_triangle().memory_bytes(), 0u);
}

TEST(SignedGraph, ParallelEdgeHeavyBuild) {
  SignedGraphBuilder builder(3);
  for (int i = 0; i < 100; ++i)
    builder.add_edge(0, 1, Sign::kPositive, 0.01 * i / 100.0);
  builder.add_edge(1, 2, Sign::kNegative, 0.5);
  const SignedGraph g = builder.build();
  EXPECT_EQ(g.num_edges(), 2u);
}

// --- counting-sort build and O(m) reversal against reference versions -----

struct RawEdge {
  NodeId src;
  NodeId dst;
  Sign sign;
  double weight;
};

/// Random insertion order over `n` nodes: duplicate pairs, self-loops, and
/// (with the ids above n/2 unused) isolated nodes.
std::vector<RawEdge> random_edges(std::mt19937_64& rng, NodeId n,
                                  std::size_t m) {
  std::vector<RawEdge> edges;
  const NodeId used = std::max<NodeId>(1, n / 2);
  std::uniform_int_distribution<NodeId> node(0, used - 1);
  std::uniform_real_distribution<double> weight(0.0, 1.0);
  for (std::size_t i = 0; i < m; ++i) {
    RawEdge e{node(rng), node(rng), rng() % 3 == 0 ? Sign::kNegative
                                                   : Sign::kPositive,
              weight(rng)};
    if (rng() % 8 == 0) e.dst = e.src;                           // self-loop
    if (rng() % 4 == 0 && !edges.empty()) {                      // duplicate
      const RawEdge& prev = edges[rng() % edges.size()];
      e.src = prev.src;
      e.dst = prev.dst;
    }
    edges.push_back(e);
  }
  return edges;
}

/// The builder's contract, computed with a comparison sort: edges in
/// (src, dst, insertion) order, then self-loops and repeated pairs dropped.
std::vector<RawEdge> reference_csr_order(
    const std::vector<RawEdge>& edges,
    const SignedGraphBuilder::BuildOptions& options) {
  std::vector<std::size_t> order(edges.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (edges[a].src != edges[b].src) return edges[a].src < edges[b].src;
    if (edges[a].dst != edges[b].dst) return edges[a].dst < edges[b].dst;
    return a < b;
  });
  std::vector<RawEdge> kept;
  for (const std::size_t i : order) {
    const RawEdge& e = edges[i];
    if (options.drop_self_loops && e.src == e.dst) continue;
    if (options.dedup_parallel_edges && !kept.empty() &&
        kept.back().src == e.src && kept.back().dst == e.dst)
      continue;
    kept.push_back(e);
  }
  return kept;
}

void expect_csr_matches(const SignedGraph& g, NodeId n,
                        const std::vector<RawEdge>& want) {
  ASSERT_EQ(g.num_nodes(), n);
  ASSERT_EQ(g.num_edges(), want.size());
  for (EdgeId e = 0; e < want.size(); ++e) {
    EXPECT_EQ(g.edge_src(e), want[e].src) << "edge " << e;
    EXPECT_EQ(g.edge_dst(e), want[e].dst) << "edge " << e;
    EXPECT_EQ(g.edge_sign(e), want[e].sign) << "edge " << e;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(g.edge_weight(e)),
              std::bit_cast<std::uint64_t>(want[e].weight))
        << "edge " << e;
  }
  for (NodeId u = 0; u < n; ++u) {
    std::vector<EdgeId> out, in;
    for (EdgeId e = 0; e < want.size(); ++e) {
      if (want[e].src == u) out.push_back(e);
      if (want[e].dst == u) in.push_back(e);
    }
    const auto got_out = g.out_edge_ids(u);
    const auto got_in = g.in_edge_ids(u);
    EXPECT_EQ(std::vector<EdgeId>(got_out.begin(), got_out.end()), out)
        << "node " << u;
    EXPECT_EQ(std::vector<EdgeId>(got_in.begin(), got_in.end()), in)
        << "node " << u;
  }
}

/// The builder-based reversal: every edge re-added swapped, nothing dropped.
SignedGraph reference_reversal(const SignedGraph& g) {
  SignedGraphBuilder builder(g.num_nodes());
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    builder.add_edge(g.edge_dst(e), g.edge_src(e), g.edge_sign(e),
                     g.edge_weight(e));
  return builder.build(
      {.drop_self_loops = false, .dedup_parallel_edges = false});
}

TEST(SignedGraphBuilder, CountingSortBuildMatchesComparisonSort) {
  std::mt19937_64 rng(20170605);
  for (int trial = 0; trial < 40; ++trial) {
    const NodeId n = static_cast<NodeId>(1 + rng() % 60);
    const std::size_t m = rng() % 400;
    const std::vector<RawEdge> edges = random_edges(rng, n, m);
    for (const bool drop : {false, true}) {
      for (const bool dedup : {false, true}) {
        const SignedGraphBuilder::BuildOptions options{
            .drop_self_loops = drop, .dedup_parallel_edges = dedup};
        SignedGraphBuilder builder(n);
        for (const RawEdge& e : edges)
          builder.add_edge(e.src, e.dst, e.sign, e.weight);
        SCOPED_TRACE(::testing::Message() << "trial " << trial << " drop "
                                          << drop << " dedup " << dedup);
        expect_csr_matches(builder.build(options), n,
                           reference_csr_order(edges, options));
      }
    }
  }
}

TEST(SignedGraph, ReversalMatchesBuilderReversal) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    const NodeId n = static_cast<NodeId>(1 + rng() % 60);
    const std::vector<RawEdge> edges = random_edges(rng, n, rng() % 400);
    for (const bool drop : {false, true}) {
      for (const bool dedup : {false, true}) {
        SignedGraphBuilder builder(n);
        for (const RawEdge& e : edges)
          builder.add_edge(e.src, e.dst, e.sign, e.weight);
        const SignedGraph g = builder.build(
            {.drop_self_loops = drop, .dedup_parallel_edges = dedup});
        const SignedGraph r = g.reversed();
        EXPECT_EQ(r, reference_reversal(g)) << "trial " << trial;
        EXPECT_EQ(r.reversed(), g) << "trial " << trial;
      }
    }
  }
  EXPECT_EQ(SignedGraph{}.reversed(), reference_reversal(SignedGraph{}));
}

}  // namespace
}  // namespace rid::graph
