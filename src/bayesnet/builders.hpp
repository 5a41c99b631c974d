// CPT construction techniques that tame the exponential parameter growth
// the paper flags in Sec. V.B ("several techniques to deal with this
// problem are available" — citing Fenton et al. ranked nodes among them).
#pragma once

#include <cstddef>
#include <vector>

#include "prob/discrete.hpp"

namespace sysuq::bayesnet {

/// Noisy-OR CPT for a binary child with n binary parents: the child fires
/// if any active parent's independent cause fires.
///
///   P(child=1 | parents) = 1 - (1 - leak) * prod_{i active} (1 - p_i)
///
/// Parameter count is n + 1 instead of 2^n. Rows are ordered with the last
/// parent varying fastest; child states are {false, true}. Throws
/// std::invalid_argument when 2^n overflows size_t.
[[nodiscard]] std::vector<prob::Categorical> noisy_or_cpt(
    const std::vector<double>& link_probabilities, double leak = 0.0);

/// Ranked-node CPT (Fenton, Neil & Caballero 2007): child and parents are
/// ordinal variables mapped onto [0, 1]; each parent configuration yields
/// a child distribution by discretizing a truncated normal whose mean is
/// the weighted mean of the parent rank midpoints.
///
/// `parent_cards` — cardinality of each (ordinal) parent;
/// `weights`      — non-negative importance weights, one per parent;
/// `child_card`   — number of child ranks;
/// `sigma`        — spread of the truncated normal (> 0; small = parents
///                  determine the child sharply).
/// Returns rows ordered with the last parent varying fastest. Throws
/// std::invalid_argument when the row count overflows size_t.
[[nodiscard]] std::vector<prob::Categorical> ranked_node_cpt(
    const std::vector<std::size_t>& parent_cards,
    const std::vector<double>& weights, std::size_t child_card, double sigma);

/// Parameters a full CPT would need for the same shape (for reporting the
/// compression factor in the E11 ablation): (#parent configs) * (k - 1).
/// Throws std::invalid_argument when that count overflows size_t.
[[nodiscard]] std::size_t full_cpt_parameter_count(
    const std::vector<std::size_t>& parent_cards, std::size_t child_card);

}  // namespace sysuq::bayesnet
