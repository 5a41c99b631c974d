// d-separation, both ways. Soundness: if the Bayes-ball algorithm
// declares X and Y d-separated given Z, then P(X, Y | Z) must factorize
// for EVERY parameterization of the graph — checked on randomized DAGs
// with randomized CPTs and all Z-assignments. Exactness: `d_separated`
// answers as an in-test Bayes-ball does, on every (x, y, z) with
// |z| <= 3 over randomized DAGs, so a search that reports "connected"
// more (or less) often than Bayes-ball fails too.
#include <gtest/gtest.h>

#include <cmath>
#include <queue>
#include <utility>

#include "bayesnet/inference.hpp"
#include "prob/rng.hpp"
#include "core/tolerance.hpp"

namespace tol = sysuq::tolerance;

namespace bn = sysuq::bayesnet;
namespace pr = sysuq::prob;

namespace {

bn::BayesianNetwork random_network(pr::Rng& rng, std::size_t n) {
  bn::BayesianNetwork net;
  std::vector<std::size_t> cards;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t card = 2 + rng.uniform_index(2);
    cards.push_back(card);
    std::vector<std::string> states;
    for (std::size_t s = 0; s < card; ++s) states.push_back("s" + std::to_string(s));
    net.add_variable("v" + std::to_string(i), std::move(states));
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<bn::VariableId> parents;
    for (std::size_t j = 0; j < i; ++j) {
      if (rng.bernoulli(0.35)) parents.push_back(j);
    }
    std::size_t rows = 1;
    for (auto p : parents) rows *= cards[p];
    std::vector<pr::Categorical> cpt;
    for (std::size_t r = 0; r < rows; ++r) {
      std::vector<double> w(cards[i]);
      for (double& x : w) x = rng.uniform() + 0.05;
      cpt.push_back(pr::Categorical::normalized(std::move(w)));
    }
    net.set_cpt(i, std::move(parents), std::move(cpt));
  }
  return net;
}

// Exhaustively checks P(x, y | z) == P(x | z) P(y | z) for one Z
// assignment via the enumeration oracle.
bool conditionally_independent(const bn::BayesianNetwork& net, bn::VariableId x,
                               bn::VariableId y, const bn::Evidence& z) {
  const double pz = bn::enumerate_evidence_probability(net, z);
  if (pz < tol::kTiny) return true;  // conditioning event never happens
  const auto px = bn::enumerate_posterior(net, x, z);
  const auto py = bn::enumerate_posterior(net, y, z);
  for (std::size_t sx = 0; sx < net.variable(x).cardinality(); ++sx) {
    for (std::size_t sy = 0; sy < net.variable(y).cardinality(); ++sy) {
      bn::Evidence zxy = z;
      zxy[x] = sx;
      zxy[y] = sy;
      const double joint = bn::enumerate_evidence_probability(net, zxy) / pz;
      if (std::fabs(joint - px.p(sx) * py.p(sy)) > tol::kProbSum) return false;
    }
  }
  return true;
}

// Bayes-ball from `x` with `z` observed, by the rules of the differential
// suite's reference_bayes_ball (Shachter 1998): a FIFO schedule of
// visits, each from a child or from a parent, with top and bottom marks,
// over child lists read off the parent lists. Every scheduled visit marks
// its node visited, blocked ones included.
std::vector<char> reference_visited(const bn::BayesianNetwork& net, bn::VariableId x,
                                    const std::vector<bn::VariableId>& z) {
  std::vector<std::vector<bn::VariableId>> children(net.size());
  for (bn::VariableId c = 0; c < net.size(); ++c) {
    for (const bn::VariableId p : net.parents(c)) children[p].push_back(c);
  }
  std::vector<char> observed(net.size(), 0), visited(net.size(), 0);
  std::vector<char> top(net.size(), 0), bottom(net.size(), 0);
  for (const bn::VariableId v : z) observed[v] = 1;
  std::queue<std::pair<bn::VariableId, bool>> schedule;  // (node, from a child)
  schedule.emplace(x, true);
  while (!schedule.empty()) {
    const auto [j, from_child] = schedule.front();
    schedule.pop();
    visited[j] = 1;
    const auto visit_parents = [&] {
      if (std::exchange(top[j], 1) != 0) return;
      for (const bn::VariableId p : net.parents(j)) schedule.emplace(p, true);
    };
    const auto visit_children = [&] {
      if (std::exchange(bottom[j], 1) != 0) return;
      for (const bn::VariableId c : children[j]) schedule.emplace(c, false);
    };
    if (from_child && !observed[j]) {
      visit_parents();
      visit_children();
    } else if (!from_child) {
      if (observed[j]) visit_parents();
      else visit_children();
    }
  }
  return visited;
}

}  // namespace

TEST(DSeparation, MatchesReferenceBayesBall) {
  pr::Rng rng(20260805);
  std::size_t separated = 0, connected = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 4 + rng.uniform_index(5);
    const auto net = random_network(rng, n);
    // Every z with |z| <= 3, x and y included.
    std::vector<std::vector<bn::VariableId>> zsets{{}};
    for (bn::VariableId a = 0; a < n; ++a) {
      zsets.push_back({a});
      for (bn::VariableId b = a + 1; b < n; ++b) {
        zsets.push_back({a, b});
        for (bn::VariableId c = b + 1; c < n; ++c) zsets.push_back({a, b, c});
      }
    }
    for (const auto& z : zsets) {
      for (bn::VariableId x = 0; x < n; ++x) {
        const std::vector<char> visited = reference_visited(net, x, z);
        for (bn::VariableId y = 0; y < n; ++y) {
          const bool want = visited[y] == 0;
          ASSERT_EQ(net.d_separated(x, y, z), want)
              << "trial " << trial << " x=" << x << " y=" << y << " |z|=" << z.size();
          ++(want ? separated : connected);
        }
      }
    }
  }
  // Both answers are common, so neither direction passes vacuously.
  EXPECT_GT(separated, 10000u);
  EXPECT_GT(connected, 10000u);
}

class DSeparationSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DSeparationSoundness, DSeparationImpliesConditionalIndependence) {
  pr::Rng rng(GetParam());
  const auto net = random_network(rng, 5);

  for (bn::VariableId x = 0; x < net.size(); ++x) {
    for (bn::VariableId y = x + 1; y < net.size(); ++y) {
      // Try Z = empty and Z = each single third variable.
      std::vector<std::vector<bn::VariableId>> zsets{{}};
      for (bn::VariableId z = 0; z < net.size(); ++z) {
        if (z != x && z != y) zsets.push_back({z});
      }
      for (const auto& zset : zsets) {
        if (!net.d_separated(x, y, zset)) continue;
        // Check independence for every assignment of Z.
        std::size_t zcard = 1;
        for (auto z : zset) zcard *= net.variable(z).cardinality();
        for (std::size_t flat = 0; flat < zcard; ++flat) {
          bn::Evidence ev;
          std::size_t rem = flat;
          for (auto z : zset) {
            ev[z] = rem % net.variable(z).cardinality();
            rem /= net.variable(z).cardinality();
          }
          ASSERT_TRUE(conditionally_independent(net, x, y, ev))
              << "x=" << x << " y=" << y << " |Z|=" << zset.size()
              << " assignment " << flat;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DSeparationSoundness,
                         ::testing::Values(101, 202, 303, 404, 505, 606));
