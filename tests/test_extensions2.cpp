// Tests for the second extension batch: cascade analytics and greedy
// influence maximization.
#include <gtest/gtest.h>

#include "diffusion/cascade_stats.hpp"
#include "diffusion/influence_max.hpp"
#include "diffusion/mfc.hpp"
#include "gen/sign_assigner.hpp"
#include "gen/topologies.hpp"
#include "util/rng.hpp"

namespace rid {
namespace {

using graph::NodeId;
using graph::NodeState;
using graph::Sign;
using graph::SignedGraph;
using graph::SignedGraphBuilder;

// --- cascade stats -------------------------------------------------------------

diffusion::Cascade chain_cascade() {
  // 0 -> 1 -> 2 with certain links; seed at 0.
  SignedGraphBuilder builder(4);
  builder.add_edge(0, 1, Sign::kPositive, 1.0)
      .add_edge(1, 2, Sign::kPositive, 1.0);
  util::Rng rng(1);
  return diffusion::simulate_mfc(
      builder.build(), {{0}, {NodeState::kPositive}}, {}, rng);
}

TEST(CascadeStats, PerStepCounts) {
  const auto cascade = chain_cascade();
  const auto per_step = diffusion::infected_per_step(cascade);
  ASSERT_EQ(per_step.size(), 3u);
  EXPECT_EQ(per_step[0], 1u);  // seed
  EXPECT_EQ(per_step[1], 1u);
  EXPECT_EQ(per_step[2], 1u);
  const auto cumulative = diffusion::cumulative_infected(cascade);
  EXPECT_EQ(cumulative.back(), 3u);
  EXPECT_TRUE(std::is_sorted(cumulative.begin(), cumulative.end()));
}

TEST(CascadeStats, OpinionBalance) {
  SignedGraphBuilder builder(3);
  builder.add_edge(0, 1, Sign::kNegative, 1.0)
      .add_edge(0, 2, Sign::kPositive, 1.0);
  util::Rng rng(1);
  const auto cascade = diffusion::simulate_mfc(
      builder.build(), {{0}, {NodeState::kPositive}}, {}, rng);
  const auto balance = diffusion::opinion_balance(cascade);
  EXPECT_EQ(balance.positive, 2u);  // seed + node 2
  EXPECT_EQ(balance.negative, 1u);  // node 1 via the distrust link
  EXPECT_DOUBLE_EQ(balance.positive_fraction, 2.0 / 3.0);
}

TEST(CascadeStats, ActivationDepths) {
  const auto cascade = chain_cascade();
  const auto depths = diffusion::activation_depths(cascade);
  EXPECT_EQ(depths[0], 0u);
  EXPECT_EQ(depths[1], 1u);
  EXPECT_EQ(depths[2], 2u);
  EXPECT_EQ(depths[3], diffusion::kInvalidDepth);  // untouched node
}

TEST(CascadeStats, DepthsOnRandomNoFlipCascadeMatchSteps) {
  util::Rng rng(9);
  const auto el = gen::erdos_renyi(150, 900, rng);
  SignedGraph g = gen::assign_signs_all_positive(el);
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e)
    g.set_edge_weight(e, rng.uniform(0.1, 0.5));
  diffusion::MfcConfig config;
  config.allow_flipping = false;
  const auto cascade = diffusion::simulate_mfc(
      g, {{0, 1}, {NodeState::kPositive, NodeState::kPositive}}, config, rng);
  const auto depths = diffusion::activation_depths(cascade);
  // Without flipping the activation forest is well-formed: every infected
  // node has a valid depth equal to its activation step.
  for (const NodeId v : cascade.infected) {
    ASSERT_NE(depths[v], diffusion::kInvalidDepth);
    EXPECT_EQ(depths[v], cascade.step[v]);
  }
}

TEST(CascadeStats, FlipCyclesAreMarkedInvalid) {
  // Build the 2-cycle flip scenario: 0 -(pos)-> 1, 1 -(pos)-> 0 with seeds
  // of opposite opinions; with certain weights each flips the other once,
  // leaving activator pointers 0 <-> 1.
  SignedGraphBuilder builder(2);
  builder.add_edge(0, 1, Sign::kPositive, 1.0)
      .add_edge(1, 0, Sign::kPositive, 1.0);
  util::Rng rng(3);
  const auto cascade = diffusion::simulate_mfc(
      builder.build(),
      {{0, 1}, {NodeState::kPositive, NodeState::kNegative}}, {}, rng);
  if (cascade.activator[0] != graph::kInvalidNode &&
      cascade.activator[1] != graph::kInvalidNode) {
    const auto depths = diffusion::activation_depths(cascade);
    EXPECT_EQ(depths[0], diffusion::kInvalidDepth);
    EXPECT_EQ(depths[1], diffusion::kInvalidDepth);
  }
}

// --- influence maximization ---------------------------------------------------------

TEST(InfluenceMax, EstimateSpreadOnDeterministicChain) {
  SignedGraphBuilder builder(3);
  builder.add_edge(0, 1, Sign::kPositive, 1.0)
      .add_edge(1, 2, Sign::kPositive, 1.0);
  const SignedGraph g = builder.build();
  util::Rng rng(1);
  const double spread = diffusion::estimate_spread(
      g, {{0}, {NodeState::kPositive}}, {}, 20, rng);
  EXPECT_DOUBLE_EQ(spread, 3.0);
}

TEST(InfluenceMax, GreedyPicksTheHub) {
  // A star hub with certain links dominates every other node.
  SignedGraphBuilder builder(8);
  for (NodeId v = 1; v < 6; ++v) builder.add_edge(0, v, Sign::kPositive, 1.0);
  builder.add_edge(6, 7, Sign::kPositive, 1.0);
  const SignedGraph g = builder.build();
  util::Rng rng(5);
  diffusion::InfluenceMaxConfig config;
  config.k = 1;
  config.num_samples = 10;
  const auto result = diffusion::greedy_influence_max(g, config, rng);
  ASSERT_EQ(result.seeds.size(), 1u);
  EXPECT_EQ(result.seeds[0], 0u);
  EXPECT_DOUBLE_EQ(result.total_spread, 6.0);
}

TEST(InfluenceMax, MarginalGainsAreDiminishingOnDisjointStars) {
  // Two disjoint certain stars of sizes 4 and 3: greedy takes the bigger
  // hub first, and marginal gains decrease.
  SignedGraphBuilder builder(7);
  for (NodeId v = 1; v < 4; ++v) builder.add_edge(0, v, Sign::kPositive, 1.0);
  for (NodeId v = 5; v < 7; ++v) builder.add_edge(4, v, Sign::kPositive, 1.0);
  const SignedGraph g = builder.build();
  util::Rng rng(5);
  diffusion::InfluenceMaxConfig config;
  config.k = 2;
  config.num_samples = 5;
  const auto result = diffusion::greedy_influence_max(g, config, rng);
  ASSERT_EQ(result.seeds.size(), 2u);
  EXPECT_EQ(result.seeds[0], 0u);
  EXPECT_EQ(result.seeds[1], 4u);
  EXPECT_DOUBLE_EQ(result.marginal_spread[0], 4.0);
  EXPECT_DOUBLE_EQ(result.marginal_spread[1], 3.0);
  EXPECT_DOUBLE_EQ(result.total_spread, 7.0);
}

TEST(InfluenceMax, CandidatePoolRestrictsSearch) {
  SignedGraphBuilder builder(10);
  for (NodeId v = 1; v < 6; ++v) builder.add_edge(0, v, Sign::kPositive, 1.0);
  const SignedGraph g = builder.build();
  util::Rng rng(7);
  diffusion::InfluenceMaxConfig config;
  config.k = 1;
  config.num_samples = 5;
  config.candidate_pool = 1;  // only the top-out-degree node: the hub
  const auto result = diffusion::greedy_influence_max(g, config, rng);
  ASSERT_EQ(result.seeds.size(), 1u);
  EXPECT_EQ(result.seeds[0], 0u);
}

TEST(InfluenceMax, Validation) {
  SignedGraphBuilder builder(3);
  const SignedGraph g = builder.build();
  util::Rng rng(1);
  diffusion::InfluenceMaxConfig config;
  config.k = 0;
  EXPECT_THROW(diffusion::greedy_influence_max(g, config, rng),
               std::invalid_argument);
  config.k = 1;
  config.seed_state = NodeState::kUnknown;
  EXPECT_THROW(diffusion::greedy_influence_max(g, config, rng),
               std::invalid_argument);
  EXPECT_THROW(
      diffusion::estimate_spread(g, {{0}, {NodeState::kPositive}}, {}, 0, rng),
      std::invalid_argument);
}

}  // namespace
}  // namespace rid
