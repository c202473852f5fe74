// Adversarial-initiator study: how much harder is detection when the rumor
// is seeded by the MOST influential users (greedy influence maximization
// under MFC) instead of random ones?
//
//   ./examples/adversarial_initiators [--scale=0.01] [--k=5] [--beta=2.0]
//                                     [--samples=30] [--seed=3]
#include <cstdio>

#include "core/rid.hpp"
#include "diffusion/cascade_stats.hpp"
#include "diffusion/influence_max.hpp"
#include "gen/profiles.hpp"
#include "graph/diffusion_network.hpp"
#include "graph/jaccard.hpp"
#include "metrics/classification.hpp"
#include "util/flags.hpp"
#include "util/logging.hpp"

namespace {

using namespace rid;

struct Outcome {
  std::size_t infected = 0;
  metrics::IdentityScores scores;
};

Outcome run_case(const diffusion::MfcEngine& engine,
                 diffusion::MfcWorkspace& workspace,
                 const diffusion::SeedSet& seeds, double beta,
                 util::Rng& rng) {
  const graph::ColumnarGraphView& diffusion = engine.graph();
  const diffusion::Cascade cascade =
      engine.run_cascade(seeds, workspace, rng);
  core::RidConfig config;
  config.beta = beta;
  config.extraction.likelihood.alpha = engine.config().alpha;
  const core::DetectionResult result =
      core::run_rid(diffusion, cascade.state, config);
  return {cascade.num_infected(),
          metrics::score_identities(result.initiators, seeds.nodes)};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rid;
  const auto flags = util::Flags::parse(argc, argv);
  util::ScopedLogLevel quiet(util::LogLevel::kWarn);
  util::Rng rng(static_cast<std::uint64_t>(flags.get_int("seed", 3)));
  const auto k = static_cast<std::size_t>(flags.get_int("k", 5));
  const double beta = flags.get_double("beta", 2.0);
  const double alpha = 3.0;

  graph::SignedGraph social = gen::generate_dataset(
      gen::epinions_profile(), flags.get_double("scale", 0.01), rng);
  graph::apply_jaccard_weights(social, rng);
  const graph::SignedGraph diffusion = graph::make_diffusion_network(social);
  std::printf("network: %u nodes, %zu diffusion links\n",
              diffusion.num_nodes(), diffusion.num_edges());

  // Adversarial seeds: greedy influence maximization under MFC.
  diffusion::InfluenceMaxConfig im;
  im.k = k;
  im.num_samples = static_cast<std::size_t>(flags.get_int("samples", 30));
  im.mfc.alpha = alpha;
  im.candidate_pool = 200;  // top out-degree candidates keep this snappy
  const auto adversarial = diffusion::greedy_influence_max(diffusion, im, rng);
  std::printf("influence-max seeds (expected spread %.1f):",
              adversarial.total_spread);
  for (const auto v : adversarial.seeds) std::printf(" %u", v);
  std::printf("\n");

  diffusion::SeedSet strong;
  strong.nodes = adversarial.seeds;
  strong.states.assign(k, graph::NodeState::kPositive);

  // Random seeds of the same size for comparison.
  diffusion::SeedSet random;
  for (const auto v :
       rng.sample_without_replacement(diffusion.num_nodes(), k)) {
    random.nodes.push_back(static_cast<graph::NodeId>(v));
    random.states.push_back(graph::NodeState::kPositive);
  }

  // One engine + workspace serve both evaluation cascades.
  const diffusion::MfcEngine engine(diffusion, im.mfc);
  diffusion::MfcWorkspace workspace;
  const Outcome strong_outcome = run_case(engine, workspace, strong, beta, rng);
  const Outcome random_outcome = run_case(engine, workspace, random, beta, rng);

  std::printf("\n%-14s %10s %10s %10s %10s\n", "seeding", "infected",
              "precision", "recall", "F1");
  std::printf("%-14s %10zu %10.3f %10.3f %10.3f\n", "influence-max",
              strong_outcome.infected, strong_outcome.scores.precision,
              strong_outcome.scores.recall, strong_outcome.scores.f1);
  std::printf("%-14s %10zu %10.3f %10.3f %10.3f\n", "random",
              random_outcome.infected, random_outcome.scores.precision,
              random_outcome.scores.recall, random_outcome.scores.f1);
  std::printf(
      "\nInfluential initiators blanket far more of the network, which "
      "merges their cascades\nand typically makes exact initiator recovery "
      "harder than for random seeds.\n");
  return 0;
}
