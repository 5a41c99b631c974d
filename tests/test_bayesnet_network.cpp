// BayesianNetwork structure tests: construction, validation, topology,
// d-separation, parameter counting, and forward sampling.
#include "bayesnet/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <queue>
#include <string>
#include <vector>

#include "bayesnet/arena.hpp"
#include "bayesnet/builders.hpp"
#include "bayesnet/io.hpp"
#include "bayesnet/serialize.hpp"
#include "perception/table1.hpp"
#include "prob/rng.hpp"

namespace bn = sysuq::bayesnet;
namespace pr = sysuq::prob;

namespace {

// The probabilities as a vector, so an exact comparison prints them.
std::vector<double> probs_of(const pr::Categorical& c) {
  const auto p = c.probs();
  return std::vector<double>(p.begin(), p.end());
}

// The paper's Fig. 4 / Table I network (default repair: deficit -> none).
bn::BayesianNetwork paper_network() {
  return sysuq::perception::table1_network();
}

// Reference topological order: the former O(V·E) scan, which on popping
// v walks every node in id order and releases the children of v. The
// library's Kahn order must match it exactly (seeded sampling follows it).
std::vector<bn::VariableId> reference_topological_order(
    const bn::BayesianNetwork& net) {
  std::vector<std::size_t> indegree(net.size());
  std::queue<bn::VariableId> ready;
  for (bn::VariableId v = 0; v < net.size(); ++v) {
    indegree[v] = net.parents(v).size();
    if (indegree[v] == 0) ready.push(v);
  }
  std::vector<bn::VariableId> order;
  while (!ready.empty()) {
    const bn::VariableId v = ready.front();
    ready.pop();
    order.push_back(v);
    for (bn::VariableId c = 0; c < net.size(); ++c) {
      for (const bn::VariableId p : net.parents(c))
        if (p == v && --indegree[c] == 0) ready.push(c);
    }
  }
  return order;
}

// Random DAG of 2-4-state variables whose parents may carry larger ids
// than the child and are listed in a shuffled order, so a CPT's row
// layout differs from its factor's sorted scope. `given[v]`, when asked
// for, receives the rows passed to set_cpt for v.
bn::BayesianNetwork random_shuffled_network(
    pr::Rng& rng, std::size_t n,
    std::vector<std::vector<pr::Categorical>>* given = nullptr) {
  bn::BayesianNetwork net;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::string> states(2 + rng.uniform_index(3));
    for (std::size_t s = 0; s < states.size(); ++s) states[s] = "s" + std::to_string(s);
    net.add_variable("v" + std::to_string(i), std::move(states));
  }
  if (given != nullptr) given->assign(n, {});
  // A random topological order: each variable draws parents from those
  // placed before it.
  std::vector<bn::VariableId> topo(n);
  for (std::size_t i = 0; i < n; ++i) topo[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(topo[i - 1], topo[rng.uniform_index(i)]);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<bn::VariableId> parents;
    for (std::size_t j = 0; j < i && parents.size() < 3; ++j)
      if (rng.bernoulli(0.5)) parents.push_back(topo[j]);
    for (std::size_t k = parents.size(); k > 1; --k)
      std::swap(parents[k - 1], parents[rng.uniform_index(k)]);
    std::size_t rows = 1;
    for (const auto p : parents) rows *= net.variable(p).cardinality();
    std::vector<pr::Categorical> cpt;
    for (std::size_t r = 0; r < rows; ++r) {
      std::vector<double> w(net.variable(topo[i]).cardinality());
      for (double& x : w) x = rng.uniform() + 0.05;
      cpt.push_back(pr::Categorical::normalized(std::move(w)));
    }
    if (given != nullptr) (*given)[topo[i]] = cpt;
    net.set_cpt(topo[i], std::move(parents), std::move(cpt));
  }
  return net;
}

}  // namespace

TEST(Variable, ConstructionValidation) {
  EXPECT_NO_THROW(bn::Variable("x", {"a", "b"}));
  EXPECT_THROW(bn::Variable("", {"a", "b"}), std::invalid_argument);
  EXPECT_THROW(bn::Variable("x", {"a"}), std::invalid_argument);
  EXPECT_THROW(bn::Variable("x", {"a", "a"}), std::invalid_argument);
  EXPECT_THROW(bn::Variable("x", {"a", ""}), std::invalid_argument);
}

TEST(Variable, StateLookup) {
  bn::Variable v("gt", {"car", "pedestrian", "unknown"});
  EXPECT_EQ(v.cardinality(), 3u);
  EXPECT_EQ(v.state_index("pedestrian"), 1u);
  EXPECT_TRUE(v.has_state("unknown"));
  EXPECT_FALSE(v.has_state("bike"));
  EXPECT_THROW((void)v.state_index("bike"), std::invalid_argument);
  EXPECT_THROW((void)v.state_name(3), std::out_of_range);
}

TEST(Network, ShapeChecksThrowInEveryBuildMode) {
  // Compiled out, a variable with fewer than two states would reach a
  // division by its cardinality in set_cpt, and a ranked node with fewer
  // weights than parents would read past them: both checks are hard
  // throws with their contract messages, contracts on or off.
  const auto message = [](const auto& call) -> std::string {
    try {
      call();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no throw";
  };
  EXPECT_EQ(message([] { (void)bn::Variable("x", {}); }), "Variable 'x': need >= 2 states");
  EXPECT_EQ(message([] { (void)bn::Variable("x", {"a"}); }), "Variable 'x': need >= 2 states");
  EXPECT_EQ(message([] { (void)bn::ranked_node_cpt({3, 3}, {1.0}, 3, 0.1); }),
            "ranked_node_cpt: weight count mismatch");
}

TEST(Network, DuplicateNameRejected) {
  bn::BayesianNetwork net;
  net.add_variable("x", {"a", "b"});
  EXPECT_THROW(net.add_variable("x", {"c", "d"}), std::invalid_argument);
}

TEST(Network, CptValidation) {
  bn::BayesianNetwork net;
  const auto x = net.add_variable("x", {"a", "b"});
  const auto y = net.add_variable("y", {"a", "b", "c"});
  // Wrong number of rows.
  EXPECT_THROW(net.set_cpt(y, {x}, {pr::Categorical::uniform(3)}),
               std::invalid_argument);
  // Wrong row size.
  EXPECT_THROW(net.set_cpt(y, {x},
                           {pr::Categorical::uniform(2),
                            pr::Categorical::uniform(2)}),
               std::invalid_argument);
  // Self-parent.
  EXPECT_THROW(net.set_cpt(x, {x}, {pr::Categorical::uniform(2),
                                    pr::Categorical::uniform(2)}),
               std::invalid_argument);
  // Duplicate parent.
  EXPECT_THROW(net.set_cpt(y, {x, x},
                           std::vector<pr::Categorical>(
                               4, pr::Categorical::uniform(3))),
               std::invalid_argument);
  // Valid.
  EXPECT_NO_THROW(net.set_cpt(y, {x},
                              {pr::Categorical::uniform(3),
                               pr::Categorical::uniform(3)}));
  // 64 binary parents: 2^64 parent configurations wrap size_t to 0, so
  // zero rows must not pass for them; the previous CPT stays.
  bn::BayesianNetwork wide;
  std::vector<bn::VariableId> parents;
  for (std::size_t i = 0; i < 64; ++i)
    parents.push_back(wide.add_variable("p" + std::to_string(i), {"a", "b"}));
  const auto child = wide.add_variable("c", {"a", "b"});
  wide.set_cpt(child, {}, {pr::Categorical({0.25, 0.75})});
  EXPECT_THROW(wide.set_cpt(child, parents, {}), std::invalid_argument);
  EXPECT_TRUE(wide.parents(child).empty());
  EXPECT_EQ(probs_of(wide.cpt_rows(child)[0]), (std::vector<double>{0.25, 0.75}));
}

TEST(Network, ValidateRequiresAllCpts) {
  bn::BayesianNetwork net;
  const auto x = net.add_variable("x", {"a", "b"});
  net.add_variable("y", {"a", "b"});
  net.set_cpt(x, {}, {pr::Categorical::uniform(2)});
  EXPECT_THROW(net.validate(), std::logic_error);
}

TEST(Network, CycleDetected) {
  bn::BayesianNetwork net;
  const auto x = net.add_variable("x", {"a", "b"});
  const auto y = net.add_variable("y", {"a", "b"});
  auto rows2 = std::vector<pr::Categorical>(2, pr::Categorical::uniform(2));
  net.set_cpt(x, {y}, rows2);
  net.set_cpt(y, {x}, rows2);
  EXPECT_THROW(net.validate(), std::logic_error);
  EXPECT_THROW((void)net.topological_order(), std::logic_error);
}

TEST(Network, TopologicalOrderRespectsEdges) {
  bn::BayesianNetwork net;
  const auto a = net.add_variable("a", {"0", "1"});
  const auto b = net.add_variable("b", {"0", "1"});
  const auto c = net.add_variable("c", {"0", "1"});
  auto rows1 = std::vector<pr::Categorical>{pr::Categorical::uniform(2)};
  auto rows2 = std::vector<pr::Categorical>(2, pr::Categorical::uniform(2));
  auto rows4 = std::vector<pr::Categorical>(4, pr::Categorical::uniform(2));
  net.set_cpt(a, {}, rows1);
  net.set_cpt(b, {a}, rows2);
  net.set_cpt(c, {a, b}, rows4);
  const auto order = net.topological_order();
  const auto pos = [&](bn::VariableId v) {
    return std::find(order.begin(), order.end(), v) - order.begin();
  };
  EXPECT_LT(pos(a), pos(b));
  EXPECT_LT(pos(b), pos(c));

  // Ids out of topological order, with shared children and several roots:
  // the order is pinned, not just edge-consistent.
  bn::BayesianNetwork shuffled;
  for (std::size_t i = 0; i < 8; ++i)
    shuffled.add_variable("v" + std::to_string(i), {"0", "1"});
  const std::vector<std::vector<bn::VariableId>> parents = {
      {5, 3}, {}, {1}, {2, 7}, {}, {4, 1}, {0}, {}};
  for (bn::VariableId v = 0; v < parents.size(); ++v) {
    shuffled.set_cpt(v, parents[v],
                     std::vector<pr::Categorical>(std::size_t{1} << parents[v].size(),
                                                  pr::Categorical::uniform(2)));
  }
  const auto kahn = shuffled.topological_order();
  EXPECT_EQ(kahn, reference_topological_order(shuffled));
  EXPECT_EQ(kahn, (std::vector<bn::VariableId>{1, 4, 7, 2, 5, 3, 0, 6}));

  // set_cpt keeps the child lists: each equals a scan of the parent
  // lists (so it is exact and ascending), and Kahn's order over them is
  // the reference order, whatever order the CPTs are set in.
  const auto check_child_lists = [](const bn::BayesianNetwork& g) {
    for (bn::VariableId v = 0; v < g.size(); ++v) {
      std::vector<bn::VariableId> scan;
      for (bn::VariableId c = 0; c < g.size(); ++c) {
        const auto& ps = g.parents(c);
        if (std::find(ps.begin(), ps.end(), v) != ps.end()) scan.push_back(c);
      }
      EXPECT_EQ(g.children(v), scan) << "children of " << v;
    }
    EXPECT_EQ(g.topological_order(), reference_topological_order(g));
  };
  const auto rows_for = [](std::size_t parent_count) {
    return std::vector<pr::Categorical>(std::size_t{1} << parent_count,
                                        pr::Categorical::uniform(2));
  };
  check_child_lists(shuffled);
  // CPTs set out of id order (descending).
  bn::BayesianNetwork reversed;
  for (std::size_t i = 0; i < 8; ++i)
    reversed.add_variable("v" + std::to_string(i), {"0", "1"});
  for (bn::VariableId v = parents.size(); v-- > 0;)
    reversed.set_cpt(v, parents[v], rows_for(parents[v].size()));
  check_child_lists(reversed);
  EXPECT_EQ(reversed.topological_order(), kahn);
  EXPECT_EQ(reversed.children(1), (std::vector<bn::VariableId>{2, 5}));

  // One child re-parented by a second set_cpt: 3 leaves the lists of 2
  // and 7 and joins those of 4 and 1, in the middle of 1's. A failed
  // call (wrong row count) changes no list.
  EXPECT_THROW(reversed.set_cpt(3, {4, 1}, rows_for(1)), std::invalid_argument);
  check_child_lists(reversed);
  EXPECT_EQ(reversed.children(2), (std::vector<bn::VariableId>{3}));
  reversed.set_cpt(3, {4, 1}, rows_for(2));
  check_child_lists(reversed);
  EXPECT_TRUE(reversed.children(2).empty());
  EXPECT_TRUE(reversed.children(7).empty());
  EXPECT_EQ(reversed.children(1), (std::vector<bn::VariableId>{2, 3, 5}));
  EXPECT_EQ(reversed.children(4), (std::vector<bn::VariableId>{3, 5}));
}

TEST(Network, PaperNetworkBasics) {
  const auto net = paper_network();
  EXPECT_NO_THROW(net.validate());
  EXPECT_EQ(net.size(), 2u);
  EXPECT_EQ(net.id_of("perception"), 1u);
  EXPECT_TRUE(net.has_variable("ground_truth"));
  EXPECT_FALSE(net.has_variable("lidar"));
  // Parameters: root 3-1=2; child 3 rows * (4-1) = 9; total 11.
  EXPECT_EQ(net.parameter_count(), 11u);
  EXPECT_EQ(net.children(0), std::vector<bn::VariableId>{1});
  EXPECT_TRUE(net.parents(0).empty());
  // Table I row lookup.
  EXPECT_DOUBLE_EQ(net.cpt_row(1, {0}).p(0), 0.9);
  // Published Table I row (0, 0, 0.2, 0.7) sums to 0.9; default repair
  // assigns the deficit to `none`.
  EXPECT_DOUBLE_EQ(net.cpt_row(1, {2}).p(3), 0.8);
  EXPECT_DOUBLE_EQ(net.cpt_row(1, {2}).p(2), 0.2);
}

TEST(Network, CptFactorMatchesRows) {
  const auto net = paper_network();
  const auto f = net.cpt_factor(1);
  ASSERT_EQ(f.scope(), (std::vector<bn::VariableId>{0, 1}));
  for (std::size_t g = 0; g < 3; ++g) {
    for (std::size_t p = 0; p < 4; ++p) {
      EXPECT_DOUBLE_EQ(f.at({g, p}), net.cpt_row(1, {g}).p(p)) << g << "," << p;
    }
  }
  // Root factor.
  const auto fr = net.cpt_factor(0);
  EXPECT_DOUBLE_EQ(fr.at({0}), 0.6);
  EXPECT_DOUBLE_EQ(fr.at({2}), 0.1);
}

TEST(Network, CptFactorUnderEvidenceEqualsStepwiseReduction) {
  pr::Rng rng(20261017ULL);
  pr::Rng fresh(7);  // the update rows; `rng` draws what it always drew
  std::size_t scalars = 0;
  for (std::size_t t = 0; t < 30; ++t) {
    std::vector<std::vector<pr::Categorical>> given;
    const auto net = random_shuffled_network(rng, 4 + rng.uniform_index(4), &given);
    // The rows read back off the table are the doubles given, bit for
    // bit, before and after an update, and the text form round-trips.
    const std::string text = bn::to_text(net);
    EXPECT_EQ(bn::to_text(bn::from_text(text)), text) << "net " << t;
    auto updated = net;
    for (bn::VariableId v = 0; v < net.size(); ++v) {
      const auto rows = net.cpt_rows(v);
      ASSERT_EQ(rows.size(), given[v].size()) << "net " << t << " var " << v;
      for (std::size_t r = 0; r < rows.size(); ++r)
        ASSERT_EQ(probs_of(rows[r]), probs_of(given[v][r])) << "net " << t << " var " << v;
      std::vector<pr::Categorical> next;
      for (std::size_t r = 0; r < rows.size(); ++r) {
        std::vector<double> w(rows[r].size());
        for (double& x : w) x = fresh.uniform() + 0.05;
        next.push_back(pr::Categorical::normalized(std::move(w)));
      }
      updated.update_cpt_rows(v, next);
      const auto back = updated.cpt_rows(v);
      for (std::size_t r = 0; r < back.size(); ++r)
        ASSERT_EQ(probs_of(back[r]), probs_of(next[r])) << "net " << t << " var " << v;
    }
    for (bn::VariableId v = 0; v < net.size(); ++v) {
      const auto& parents = net.parents(v);
      // The unreduced factor reads every CPT entry off its row.
      const bn::Factor full = net.cpt_factor(v);
      std::vector<std::size_t> states(full.scope().size(), 0);
      for (double value : full.values()) {
        std::vector<std::size_t> parent_states;
        std::size_t child_state = 0;
        for (const auto p : parents) {
          const auto it = std::lower_bound(full.scope().begin(), full.scope().end(), p);
          parent_states.push_back(states[static_cast<std::size_t>(it - full.scope().begin())]);
        }
        for (std::size_t k = 0; k < full.scope().size(); ++k)
          if (full.scope()[k] == v) child_state = states[k];
        ASSERT_EQ(value, net.cpt_row(v, parent_states).p(child_state)) << "net " << t << " var " << v;
        for (std::size_t k = states.size(); k-- > 0;) {
          if (++states[k] < full.cardinalities()[k]) break;
          states[k] = 0;
        }
      }

      // Evidence on the parents, on the child, off the family, on the
      // whole family, and on a random subset of all variables.
      const auto draw = [&](bn::VariableId u) { return rng.uniform_index(net.variable(u).cardinality()); };
      std::vector<bn::Evidence> cases(5);
      for (const auto p : parents) cases[0][p] = draw(p);
      cases[1][v] = draw(v);
      for (bn::VariableId u = 0; u < net.size(); ++u)
        if (u != v && std::find(parents.begin(), parents.end(), u) == parents.end()) cases[2][u] = draw(u);
      cases[3] = cases[0];
      cases[3][v] = draw(v);
      for (bn::VariableId u = 0; u < net.size(); ++u)
        if (rng.bernoulli(0.4)) cases[4][u] = draw(u);
      for (std::size_t c = 0; c < cases.size(); ++c) {
        bn::Factor want = full;
        for (const auto& [u, state] : cases[c])
          if (want.contains(u)) want = want.reduce(u, state);
        const bn::Factor got = net.cpt_factor(v).reduce(cases[c]);
        ASSERT_EQ(got.scope(), want.scope()) << "net " << t << " var " << v << " case " << c;
        ASSERT_EQ(got.cardinalities(), want.cardinalities()) << "net " << t << " var " << v;
        ASSERT_EQ(got.values(), want.values()) << "net " << t << " var " << v << " case " << c;
        if (got.scope().empty()) ++scalars;
      }
    }
  }
  EXPECT_GT(scalars, 0u);  // the whole-family case reduces to a scalar
}

TEST(Network, CptFactorRejectsAnOutOfRangeEvidenceState) {
  const auto net = paper_network();  // 0: ground truth (3 states) -> 1: perception (4)
  EXPECT_THROW((void)net.cpt_factor(1).reduce({{0, 3}}), std::out_of_range);
  EXPECT_THROW((void)net.cpt_factor(1).reduce({{1, 4}}), std::out_of_range);
  EXPECT_THROW((void)net.cpt_factor(0).reduce({{0, 3}}), std::out_of_range);
  // Evidence off the family is not the factor's business.
  EXPECT_EQ(net.cpt_factor(0).reduce({{1, 0}}).values(), net.cpt_factor(0).values());
}

TEST(Network, DSeparationChainForkCollider) {
  bn::BayesianNetwork net;
  const auto a = net.add_variable("a", {"0", "1"});
  const auto b = net.add_variable("b", {"0", "1"});
  const auto c = net.add_variable("c", {"0", "1"});
  auto rows1 = std::vector<pr::Categorical>{pr::Categorical::uniform(2)};
  auto rows2 = std::vector<pr::Categorical>(2, pr::Categorical::uniform(2));

  // Chain a -> b -> c.
  net.set_cpt(a, {}, rows1);
  net.set_cpt(b, {a}, rows2);
  net.set_cpt(c, {b}, rows2);
  EXPECT_FALSE(net.d_separated(a, c, {}));
  EXPECT_TRUE(net.d_separated(a, c, {b}));
  // Unknown ids throw, z's included, and so do bayes_ball's bad inputs.
  EXPECT_THROW((void)net.d_separated(a, 3, {}), std::out_of_range);
  EXPECT_THROW((void)net.d_separated(a, c, {b, 3}), std::out_of_range);
  std::vector<char> marks(net.size() - 1, 0);
  bn::Arena scratch;
  EXPECT_THROW(net.bayes_ball(std::vector<bn::VariableId>{a}, marks, scratch),
               std::invalid_argument);
  marks.push_back(0);
  EXPECT_THROW(net.bayes_ball(std::vector<bn::VariableId>{3}, marks, scratch),
               std::out_of_range);

  // Fork: b <- a -> c.
  bn::BayesianNetwork fork;
  const auto fa = fork.add_variable("a", {"0", "1"});
  const auto fb = fork.add_variable("b", {"0", "1"});
  const auto fc = fork.add_variable("c", {"0", "1"});
  fork.set_cpt(fa, {}, rows1);
  fork.set_cpt(fb, {fa}, rows2);
  fork.set_cpt(fc, {fa}, rows2);
  EXPECT_FALSE(fork.d_separated(fb, fc, {}));
  EXPECT_TRUE(fork.d_separated(fb, fc, {fa}));

  // Collider: a -> c <- b ("common cause identification" structure).
  bn::BayesianNetwork col;
  const auto ca = col.add_variable("a", {"0", "1"});
  const auto cb = col.add_variable("b", {"0", "1"});
  const auto cc = col.add_variable("c", {"0", "1"});
  auto rows4 = std::vector<pr::Categorical>(4, pr::Categorical::uniform(2));
  col.set_cpt(ca, {}, rows1);
  col.set_cpt(cb, {}, rows1);
  col.set_cpt(cc, {ca, cb}, rows4);
  EXPECT_TRUE(col.d_separated(ca, cb, {}));
  EXPECT_FALSE(col.d_separated(ca, cb, {cc}));  // explaining away
}

TEST(Network, DSeparationDescendantOfCollider) {
  // a -> c <- b, c -> d: conditioning on d also opens the collider.
  bn::BayesianNetwork net;
  const auto a = net.add_variable("a", {"0", "1"});
  const auto b = net.add_variable("b", {"0", "1"});
  const auto c = net.add_variable("c", {"0", "1"});
  const auto d = net.add_variable("d", {"0", "1"});
  auto rows1 = std::vector<pr::Categorical>{pr::Categorical::uniform(2)};
  auto rows2 = std::vector<pr::Categorical>(2, pr::Categorical::uniform(2));
  auto rows4 = std::vector<pr::Categorical>(4, pr::Categorical::uniform(2));
  net.set_cpt(a, {}, rows1);
  net.set_cpt(b, {}, rows1);
  net.set_cpt(c, {a, b}, rows4);
  net.set_cpt(d, {c}, rows2);
  EXPECT_TRUE(net.d_separated(a, b, {}));
  EXPECT_FALSE(net.d_separated(a, b, {d}));
}

TEST(Network, DSeparationNeedsTheParentsItPassesThrough) {
  // a -> b, with a's CPT not set: a ball from b, or from a itself, must
  // pass up through a, whose parents are unknown. Observed, a blocks the
  // ball from its child, so its parents do not matter.
  bn::BayesianNetwork net;
  const auto a = net.add_variable("a", {"0", "1"});
  const auto b = net.add_variable("b", {"0", "1"});
  const auto c = net.add_variable("c", {"0", "1"});
  net.set_cpt(b, {a}, std::vector<pr::Categorical>(2, pr::Categorical::uniform(2)));
  net.set_cpt(c, {}, {pr::Categorical::uniform(2)});
  EXPECT_THROW((void)net.d_separated(b, c, {}), std::logic_error);
  EXPECT_THROW((void)net.d_separated(a, c, {}), std::logic_error);
  EXPECT_TRUE(net.d_separated(b, c, {a}));
  EXPECT_FALSE(net.d_separated(b, b, {}));
}

TEST(Network, SampleMatchesMarginals) {
  const auto net = paper_network();
  pr::Rng rng(77);
  std::vector<std::size_t> gt_counts(3, 0);
  const std::size_t n = 60000;
  for (std::size_t i = 0; i < n; ++i) {
    const auto s = net.sample(rng);
    ++gt_counts[s[0]];
  }
  EXPECT_NEAR(static_cast<double>(gt_counts[0]) / n, 0.6, 0.01);
  EXPECT_NEAR(static_cast<double>(gt_counts[1]) / n, 0.3, 0.01);
  EXPECT_NEAR(static_cast<double>(gt_counts[2]) / n, 0.1, 0.01);
}

TEST(Network, UpdateCptRows) {
  auto net = paper_network();
  auto rows = net.cpt_rows(1);
  rows[2] = pr::Categorical({0.0, 0.0, 0.5, 0.5});
  net.update_cpt_rows(1, rows);
  EXPECT_DOUBLE_EQ(net.cpt_row(1, {2}).p(2), 0.5);
  EXPECT_THROW(net.update_cpt_rows(1, {pr::Categorical::uniform(4)}),
               std::invalid_argument);
}

TEST(NetworkIo, DotAndTableContainNames) {
  const auto net = paper_network();
  const auto dot = bn::to_dot(net);
  EXPECT_NE(dot.find("ground_truth"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  const auto table = bn::cpt_table(net, 1);
  EXPECT_NE(table.find("car/pedestrian"), std::string::npos);
  EXPECT_NE(table.find("0.9"), std::string::npos);
  const auto desc = bn::describe(net);
  EXPECT_NE(desc.find("11 free parameters"), std::string::npos);
}
