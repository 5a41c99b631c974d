#include "bayesnet/builders.hpp"

#include <cmath>
#include <numeric>
#include <span>
#include <stdexcept>

#include "bayesnet/kernels.hpp"
#include "core/contracts.hpp"
#include "prob/special.hpp"

namespace sysuq::bayesnet {

std::vector<prob::Categorical> noisy_or_cpt(
    const std::vector<double>& link_probabilities, double leak) {
  SYSUQ_EXPECT(!link_probabilities.empty(), "noisy_or_cpt: no parents");
  for (double p : link_probabilities) {
    SYSUQ_ASSERT_PROB(p, "noisy_or_cpt: link probability");
  }
  SYSUQ_ASSERT_PROB(leak, "noisy_or_cpt: leak");

  const std::size_t n = link_probabilities.size();
  const std::vector<std::size_t> cards(n, 2);
  const std::size_t rows = kernels::checked_table_size(
      cards.data(), n, "noisy_or_cpt: row count overflows size_t");
  std::vector<prob::Categorical> out;
  out.reserve(rows);
  for (std::size_t cfg = 0; cfg < rows; ++cfg) {
    double not_fire = 1.0 - leak;
    // Bit i of cfg is parent i's state, with the LAST parent varying
    // fastest: parent i corresponds to bit (n - 1 - i).
    for (std::size_t i = 0; i < n; ++i) {
      const bool active = ((cfg >> (n - 1 - i)) & 1u) != 0;
      if (active) not_fire *= 1.0 - link_probabilities[i];
    }
    const double row[] = {not_fire, 1.0 - not_fire};
    out.emplace_back(std::span<const double>(row));
  }
  return out;
}

std::vector<prob::Categorical> ranked_node_cpt(
    const std::vector<std::size_t>& parent_cards,
    const std::vector<double>& weights, std::size_t child_card, double sigma) {
  SYSUQ_EXPECT(!parent_cards.empty(), "ranked_node_cpt: no parents");
  // A hard throw in every build mode: each row reads one weight per parent.
  if (weights.size() != parent_cards.size())
    throw std::invalid_argument("ranked_node_cpt: weight count mismatch");
  SYSUQ_EXPECT(child_card >= 2, "ranked_node_cpt: child_card < 2");
  SYSUQ_EXPECT(sigma > 0.0, "ranked_node_cpt: sigma <= 0");
  SYSUQ_EXPECT(contracts::is_finite_nonneg(weights),
               "ranked_node_cpt: negative weight");
  const double wsum = std::accumulate(weights.begin(), weights.end(), 0.0);
  SYSUQ_EXPECT(wsum > 0.0, "ranked_node_cpt: all weights zero");
  for (std::size_t c : parent_cards) {
    SYSUQ_EXPECT(c >= 2, "ranked_node_cpt: parent card < 2");
  }

  const std::size_t n = parent_cards.size();
  const std::size_t rows = kernels::checked_table_size(
      parent_cards.data(), n, "ranked_node_cpt: row count overflows size_t");

  // Midpoint of rank r on [0, 1] for a k-state ordinal variable.
  const auto midpoint = [](std::size_t r, std::size_t k) {
    return (static_cast<double>(r) + 0.5) / static_cast<double>(k);
  };

  std::vector<prob::Categorical> out;
  out.reserve(rows);
  std::vector<std::size_t> pstate(n, 0);
  for (std::size_t row = 0; row < rows; ++row) {
    double mu = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      mu += weights[i] * midpoint(pstate[i], parent_cards[i]);
    mu /= wsum;

    // Discretize TNormal(mu, sigma) on [0,1] over child_card equal bins,
    // normalizing by the truncated mass.
    const double z0 = prob::std_normal_cdf((0.0 - mu) / sigma);
    const double z1 = prob::std_normal_cdf((1.0 - mu) / sigma);
    const double mass = z1 - z0;
    std::vector<double> probs(child_card);
    for (std::size_t k = 0; k < child_card; ++k) {
      const double lo = static_cast<double>(k) / static_cast<double>(child_card);
      const double hi =
          static_cast<double>(k + 1) / static_cast<double>(child_card);
      const double plo = prob::std_normal_cdf((lo - mu) / sigma);
      const double phi = prob::std_normal_cdf((hi - mu) / sigma);
      probs[k] = (phi - plo) / mass;
    }
    out.push_back(prob::Categorical::normalized(std::move(probs)));

    for (std::size_t k = n; k-- > 0;) {
      if (++pstate[k] < parent_cards[k]) break;
      pstate[k] = 0;
    }
  }
  return out;
}

std::size_t full_cpt_parameter_count(const std::vector<std::size_t>& parent_cards,
                                     std::size_t child_card) {
  SYSUQ_EXPECT(child_card >= 1,
               "full_cpt_parameter_count: child cardinality must be >= 1");
  const std::size_t rows = kernels::checked_table_size(
      parent_cards.data(), parent_cards.size(),
      "full_cpt_parameter_count: row count overflows size_t");
  SYSUQ_EXPECT(!kernels::mul_overflows(rows, child_card - 1),
               "full_cpt_parameter_count: parameter count overflows size_t");
  return rows * (child_card - 1);
}

}  // namespace sysuq::bayesnet
