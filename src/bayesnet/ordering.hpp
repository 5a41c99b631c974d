// Elimination orderings for variable elimination.
//
// The quality of an elimination ordering determines the induced width of
// the run — the size of the largest intermediate factor — which dominates
// both time and memory of exact inference. This module computes orderings
// over an *interaction graph* (the moral graph of the network, restricted
// by evidence, as sorted adjacency vectors) that is maintained
// incrementally while the ordering is built: an elimination updates only
// the edges and fill costs it touches, so no round rescans the factor
// scopes or re-scores every vertex.
#pragma once

#include <cstddef>
#include <vector>

#include "bayesnet/factor.hpp"
#include "bayesnet/network.hpp"

namespace sysuq::bayesnet {

/// An elimination ordering plus the quality statistics the planner and
/// the benches report.
struct EliminationOrdering {
  /// Variables to eliminate, in elimination order. Kept and evidence
  /// variables never appear.
  std::vector<VariableId> order;
  /// Largest neighbourhood (clique minus the eliminated vertex) seen when
  /// executing the ordering — the induced-width proxy.
  std::size_t induced_width = 0;
  /// Total fill edges introduced by the ordering.
  std::size_t fill_edges = 0;
  /// Cells of the largest elimination clique (an eliminated vertex plus
  /// its live neighbours), saturating at SIZE_MAX: the largest product
  /// a step of eliminating `order` sums over and, for the `keep = {}`
  /// form, the junction tree's largest clique table. 0 when nothing is
  /// eliminated.
  std::size_t max_table_cells = 0;
};

/// Computes a greedy min-fill elimination ordering (each step eliminates
/// the vertex introducing the fewest fill edges) for `net` with `keep`
/// retained in the result factor and `evidence_keys` observed (their
/// factors are reduced before elimination, so they are deleted from the
/// interaction graph). Deterministic: ties break toward the smallest
/// VariableId.
///
/// Every pending vertex's fill cost sits in one ordered set of
/// (cost, id), whose first entry is the next pick. Eliminating v changes
/// only two kinds of score: each fill edge (a, b) lowers by one the cost
/// of every pending common neighbour of a and b outside N(v), and v's
/// pending neighbours are re-scored in full. Nothing else is rescanned.
/// Opens a `bayesnet.ordering.min_fill` trace span.
[[nodiscard]] EliminationOrdering compute_elimination_order(
    const BayesianNetwork& net, const std::vector<VariableId>& keep,
    const std::vector<VariableId>& evidence_keys);

}  // namespace sysuq::bayesnet
