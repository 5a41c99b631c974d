// Loopy-BP backend tests (label: bp).
//
// Covers the checklist for the approximate backend: flooding BP is
// exact on tree-structured networks (matches the engine's variable
// elimination to tolerance::kProbSum), damping / convergence / iteration-cap behavior,
// the deterministic message schedule (byte-identical posteriors across
// runs and engine thread counts), impossible-evidence parity with the
// unified domain_error message, and the kAuto checked-table-size guard
// that escalates to BP — or throws a clear ContractViolation when the
// escalation is disabled.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bayesnet/engine.hpp"
#include "bayesnet/inference.hpp"
#include "bayesnet/loopy_bp.hpp"
#include "core/contracts.hpp"
#include "core/tolerance.hpp"
#include "prob/rng.hpp"

namespace bn = sysuq::bayesnet;
namespace pr = sysuq::prob;

namespace {

// Exact answers on one thread: never escalates to BP, starts no pool.
const bn::InferenceEngine::Options kExact{
    .threads = 1, .backend = bn::Backend::kVariableElimination};

// Random tree-structured network: variable i > 0 picks one earlier
// parent. All CPT entries strictly positive.
bn::BayesianNetwork random_tree(pr::Rng& rng, std::size_t n) {
  bn::BayesianNetwork net;
  std::vector<std::size_t> cards;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t card = 2 + rng.uniform_index(4);  // 2..5 states
    cards.push_back(card);
    std::vector<std::string> states;
    for (std::size_t s = 0; s < card; ++s)
      states.push_back("s" + std::to_string(s));
    net.add_variable("v" + std::to_string(i), std::move(states));
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<bn::VariableId> parents;
    if (i > 0) parents.push_back(rng.uniform_index(i));
    std::size_t rows = 1;
    for (const auto p : parents) rows *= cards[p];
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

// Small loopy network: diamond a -> {b, c} -> d plus a tail. The
// moralized/factor graph has a cycle through a, b, c, d.
bn::BayesianNetwork diamond_network() {
  bn::BayesianNetwork net;
  const auto a = net.add_variable("a", {"0", "1"});
  const auto b = net.add_variable("b", {"0", "1"});
  const auto c = net.add_variable("c", {"0", "1"});
  const auto d = net.add_variable("d", {"0", "1"});
  const auto e = net.add_variable("e", {"0", "1"});
  net.set_cpt(a, {}, {pr::Categorical({0.6, 0.4})});
  net.set_cpt(b, {a},
              {pr::Categorical({0.7, 0.3}), pr::Categorical({0.2, 0.8})});
  net.set_cpt(c, {a},
              {pr::Categorical({0.4, 0.6}), pr::Categorical({0.8, 0.2})});
  net.set_cpt(d, {b, c},
              {pr::Categorical({0.9, 0.1}), pr::Categorical({0.35, 0.65}),
               pr::Categorical({0.5, 0.5}), pr::Categorical({0.15, 0.85})});
  net.set_cpt(e, {d},
              {pr::Categorical({0.55, 0.45}), pr::Categorical({0.3, 0.7})});
  return net;
}

// w x h binary grid, parents = left and up neighbors; weakly coupled,
// strictly positive CPTs. Treewidth grows with min(w, h), so large
// grids are exactly the regime where simulate_elimination predicts the
// exact backends would explode.
bn::BayesianNetwork grid_network(std::size_t w, std::size_t h) {
  bn::BayesianNetwork net;
  for (std::size_t r = 0; r < h; ++r)
    for (std::size_t c = 0; c < w; ++c)
      net.add_variable("g" + std::to_string(r) + "_" + std::to_string(c),
                       {"0", "1"});
  for (std::size_t r = 0; r < h; ++r) {
    for (std::size_t c = 0; c < w; ++c) {
      const bn::VariableId v = r * w + c;
      std::vector<bn::VariableId> parents;
      if (c > 0) parents.push_back(v - 1);      // left
      if (r > 0) parents.push_back(v - w);      // up
      std::vector<pr::Categorical> cpt;
      const std::size_t rows = std::size_t{1} << parents.size();
      for (std::size_t row = 0; row < rows; ++row) {
        // Weak coupling: each active parent nudges state 1 by 0.1.
        double p1 = 0.35;
        for (std::size_t k = 0; k < parents.size(); ++k)
          if ((row >> k) & 1u) p1 += 0.1;
        cpt.push_back(pr::Categorical({1.0 - p1, p1}));
      }
      net.set_cpt(v, std::move(parents), std::move(cpt));
    }
  }
  return net;
}

// Chain a -> b where b = 1 is unreachable.
bn::BayesianNetwork unreachable_state_network() {
  bn::BayesianNetwork net;
  const auto a = net.add_variable("a", {"0", "1"});
  const auto b = net.add_variable("b", {"0", "1"});
  net.set_cpt(a, {}, {pr::Categorical({0.5, 0.5})});
  net.set_cpt(b, {a},
              {pr::Categorical({1.0, 0.0}), pr::Categorical({1.0, 0.0})});
  return net;
}

}  // namespace

// ---- exactness on trees ----

TEST(LoopyBP, ExactOnTreesAndIntervalsContainTruth) {
  pr::Rng rng(20260808ULL);
  for (int t = 0; t < 8; ++t) {
    const auto net = random_tree(rng, 6 + rng.uniform_index(5));
    const bn::InferenceEngine ve(net, kExact);
    for (std::size_t ec : {std::size_t{0}, std::size_t{2}}) {
      bn::Evidence ev;
      for (std::size_t k = 0; k < ec; ++k) {
        const bn::VariableId v = rng.uniform_index(net.size());
        ev[v] = rng.uniform_index(net.variable(v).cardinality());
      }
      const bn::LoopyBP bp(net, ev);
      EXPECT_TRUE(bp.acyclic()) << "tree " << t;
      EXPECT_TRUE(bp.converged()) << "tree " << t;
      for (bn::VariableId q = 0; q < net.size(); ++q) {
        const auto& bounded = bp.query(q);
        if (ev.contains(q)) {
          EXPECT_EQ(bounded.point.p(ev.at(q)), 1.0);
          EXPECT_EQ(bounded.width(), 0.0);
          continue;
        }
        const auto exact = ve.query(q, ev);
        ASSERT_EQ(bounded.point.size(), exact.size());
        for (std::size_t s = 0; s < exact.size(); ++s) {
          ASSERT_NEAR(bounded.point.p(s), exact.p(s),
                      sysuq::tolerance::kProbSum)
              << "tree " << t << " var " << q << " state " << s;
        }
        // On an acyclic graph the certified interval is tight and must
        // contain both the BP point and the exact posterior.
        EXPECT_TRUE(bounded.contains(bounded.point.probs()));
        EXPECT_TRUE(bounded.contains(exact.probs()))
            << "tree " << t << " var " << q;
        EXPECT_LT(bounded.width(), 1e-4);
      }
    }
  }
}

TEST(LoopyBP, ScheduleIsNamedFlooding) {
  EXPECT_STREQ(bn::LoopyBP::schedule(), "flooding");
}

// ---- damping, convergence, iteration cap ----

TEST(LoopyBP, DampingReachesTheSameFixpoint) {
  const auto net = diamond_network();
  const bn::Evidence ev{{4, 1}};
  const bn::LoopyBP plain(net, ev);
  bn::LoopyBP::Options damped_opts;
  damped_opts.damping = 0.4;
  const bn::LoopyBP damped(net, ev, damped_opts);
  ASSERT_TRUE(plain.converged());
  ASSERT_TRUE(damped.converged());
  EXPECT_FALSE(plain.acyclic());
  for (bn::VariableId q = 0; q < net.size(); ++q) {
    for (std::size_t s = 0; s < plain.query(q).point.size(); ++s) {
      EXPECT_NEAR(plain.query(q).point.p(s), damped.query(q).point.p(s),
                  1e-6)
          << q << "/" << s;
    }
  }
  // Damping slows per-iteration progress; it must not be free.
  EXPECT_GE(damped.iterations(), plain.iterations());
}

TEST(LoopyBP, IterationCapReportsNonConvergenceButStaysSound) {
  const auto net = diamond_network();
  bn::LoopyBP::Options opts;
  opts.max_iterations = 1;
  const bn::LoopyBP bp(net, {}, opts);
  EXPECT_FALSE(bp.converged());
  EXPECT_EQ(bp.iterations(), 1u);
  EXPECT_GT(bp.final_residual(), opts.tolerance);
  // The Markov-blanket convexity box is sound regardless of
  // convergence: the exact posterior must still lie inside it.
  const bn::InferenceEngine ve(net, kExact);
  for (bn::VariableId q = 0; q < net.size(); ++q) {
    const auto& bounded = bp.query(q);
    EXPECT_FALSE(bounded.converged);
    EXPECT_TRUE(bounded.contains(ve.query(q, {}).probs())) << q;
    EXPECT_TRUE(bounded.contains(bounded.point.probs())) << q;
  }
}

TEST(LoopyBP, ConvergedRunBeatsItsTolerance) {
  const auto net = diamond_network();
  const bn::LoopyBP bp(net, {{3, 1}});
  EXPECT_TRUE(bp.converged());
  EXPECT_GE(bp.iterations(), 2u);
  EXPECT_LT(bp.final_residual(), bn::LoopyBP::Options{}.tolerance);
  // Loopy point estimates stay close to exact on this weakly coupled
  // diamond, and the certified interval always contains exact.
  const bn::InferenceEngine ve(net, kExact);
  for (bn::VariableId q = 0; q < net.size(); ++q) {
    const auto& bounded = bp.query(q);
    EXPECT_TRUE(bounded.contains(ve.query(q, {{3, 1}}).probs())) << q;
  }
}

TEST(LoopyBP, SweepKeepsExactZeros) {
  // A deterministic OR of four parents, observed false, with parent a
  // certainly off: a's message into the OR factor is (1, 0). A sweep
  // that divided a cell total by a's own message would read 0/0 on a's
  // "on" state; multiplying prefix and suffix products keeps it 0.
  bn::BayesianNetwork net;
  std::vector<bn::VariableId> parents;
  const std::vector<double> priors{0.0, 0.3, 0.4, 0.5};  // P(on)
  for (std::size_t i = 0; i < priors.size(); ++i) {
    const auto id = net.add_variable("p" + std::to_string(i), {"off", "on"});
    net.set_cpt(id, {}, {pr::Categorical({1.0 - priors[i], priors[i]})});
    parents.push_back(id);
  }
  const auto any = net.add_variable("any", {"false", "true"});
  std::vector<pr::Categorical> rows;
  for (std::size_t row = 0; row < (std::size_t{1} << parents.size()); ++row)
    rows.push_back(row == 0 ? pr::Categorical({1.0, 0.0}) : pr::Categorical({0.0, 1.0}));
  net.set_cpt(any, parents, std::move(rows));

  const bn::Evidence ev{{any, 0}};
  const bn::LoopyBP bp(net, ev);
  EXPECT_TRUE(bp.converged());
  const bn::InferenceEngine ve(net, kExact);
  for (const auto p : parents) {
    const auto& bounded = bp.query(p);
    const auto exact = ve.query(p, ev);
    for (std::size_t s = 0; s < 2; ++s) {
      EXPECT_TRUE(std::isfinite(bounded.point.p(s))) << p << "/" << s;
      EXPECT_TRUE(std::isfinite(bounded.lo[s]) && std::isfinite(bounded.hi[s])) << p;
    }
    // Every parent is off for certain; its "on" state is an exact zero.
    ASSERT_EQ(exact.p(1), 0.0) << p;
    EXPECT_EQ(bounded.point.p(1), 0.0) << p;
    EXPECT_EQ(bounded.point.p(0), 1.0) << p;
    EXPECT_TRUE(bounded.contains(exact.probs())) << p;
  }
}

TEST(LoopyBP, UnlimitedBlanketCapFallsBackOnOverflow) {
  // A root with 65 binary children: its blanket has 2^65 configurations,
  // past what a size_t counts. With no cap (SIZE_MAX) the root must still
  // fall back to the relaxation, as at the default cap, and not read the
  // overflow as an empty enumeration (impossible evidence).
  bn::BayesianNetwork net;
  const auto root = net.add_variable("root", {"off", "on"});
  net.set_cpt(root, {}, {pr::Categorical({0.3, 0.7})});
  for (std::size_t k = 0; k < 65; ++k) {
    const auto child = net.add_variable("c" + std::to_string(k), {"0", "1"});
    net.set_cpt(child, {root},
                {pr::Categorical({0.8, 0.2}), pr::Categorical({0.4, 0.6})});
  }
  bn::LoopyBP::Options unlimited;
  unlimited.max_blanket_configs = SIZE_MAX;
  const bn::LoopyBP capped(net, {});
  const bn::LoopyBP uncapped(net, {}, unlimited);
  const auto& want = capped.query(root);
  const auto& got = uncapped.query(root);
  EXPECT_EQ(got.lo, want.lo);
  EXPECT_EQ(got.hi, want.hi);
  EXPECT_TRUE(got.contains(std::vector<double>{0.3, 0.7}));
}

TEST(LoopyBP, OptionContractsAreEnforced) {
  const auto net = diamond_network();
  bn::LoopyBP::Options bad;
  bad.max_iterations = 0;
  EXPECT_THROW(bn::LoopyBP(net, {}, bad),
               sysuq::contracts::ContractViolation);
  bad = {};
  bad.damping = 1.0;
  EXPECT_THROW(bn::LoopyBP(net, {}, bad),
               sysuq::contracts::ContractViolation);
  bad = {};
  bad.damping = -0.1;
  EXPECT_THROW(bn::LoopyBP(net, {}, bad),
               sysuq::contracts::ContractViolation);
  bad = {};
  bad.tolerance = 0.0;
  EXPECT_THROW(bn::LoopyBP(net, {}, bad),
               sysuq::contracts::ContractViolation);
  bad = {};
  bad.max_blanket_configs = 0;
  EXPECT_THROW(bn::LoopyBP(net, {}, bad),
               sysuq::contracts::ContractViolation);
  EXPECT_THROW(bn::LoopyBP(net, {{99, 0}}), std::out_of_range);
  EXPECT_THROW(bn::LoopyBP(net, {{0, 7}}), std::out_of_range);
  const bn::LoopyBP ok(net, {});
  EXPECT_THROW((void)ok.query(99), std::out_of_range);
}

// ---- deterministic schedule ----

TEST(LoopyBP, ByteIdenticalAcrossRepeatedRuns) {
  pr::Rng rng(4242ULL);
  const auto tree = random_tree(rng, 9);
  const auto loopy = diamond_network();
  for (const auto* net : {&tree, &loopy}) {
    const bn::Evidence ev{{1, 0}};
    const bn::LoopyBP first(*net, ev);
    const bn::LoopyBP second(*net, ev);
    ASSERT_EQ(first.iterations(), second.iterations());
    for (bn::VariableId q = 0; q < net->size(); ++q) {
      const auto& a = first.query(q);
      const auto& b = second.query(q);
      for (std::size_t s = 0; s < a.point.size(); ++s) {
        EXPECT_EQ(a.point.p(s), b.point.p(s)) << q << "/" << s;
        EXPECT_EQ(a.lo[s], b.lo[s]) << q << "/" << s;
        EXPECT_EQ(a.hi[s], b.hi[s]) << q << "/" << s;
      }
    }
  }
}

TEST(LoopyBP, ByteIdenticalAcrossEngineThreadCounts) {
  pr::Rng rng(99ULL);
  const auto net = random_tree(rng, 10);
  std::vector<bn::QuerySpec> batch;
  for (bn::VariableId q = 0; q < net.size(); ++q) {
    batch.push_back({q, {}});
    batch.push_back({q, {{0, 1}}});
  }
  bn::InferenceEngine one(net,
                          {.threads = 1, .backend = bn::Backend::kLoopyBP});
  bn::InferenceEngine many(net,
                           {.threads = 4, .backend = bn::Backend::kLoopyBP});
  const auto a = one.query_batch(batch);
  const auto b = many.query_batch(batch);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    for (std::size_t s = 0; s < a[i].size(); ++s)
      EXPECT_EQ(a[i].p(s), b[i].p(s)) << i << "/" << s;
}

// ---- impossible-evidence parity ----

TEST(LoopyBP, ImpossibleEvidenceThrowsTheUnifiedMessage) {
  const auto net = unreachable_state_network();
  const bn::Evidence impossible{{1, 1}};
  const std::string expected =
      bn::impossible_evidence_message(net, impossible);

  const bn::LoopyBP bp(net, impossible);
  try {
    (void)bp.query(0);
    FAIL() << "expected std::domain_error";
  } catch (const std::domain_error& e) {
    EXPECT_EQ(std::string(e.what()), expected);
  }
  EXPECT_THROW((void)bp.all_marginals(), std::domain_error);

  bn::InferenceEngine engine(
      net, {.threads = 1, .backend = bn::Backend::kLoopyBP});
  const auto expect_throws = [&](auto&& fn, const char* tag) {
    try {
      fn();
      FAIL() << tag << ": expected std::domain_error";
    } catch (const std::domain_error& e) {
      EXPECT_EQ(std::string(e.what()), expected) << tag;
    }
  };
  expect_throws([&] { (void)engine.query(0, impossible); }, "query");
  expect_throws([&] { (void)engine.all_marginals(impossible); },
                "all_marginals");
  expect_throws([&] { (void)engine.query_batch({{0, impossible}}); },
                "query_batch");
  expect_throws([&] { (void)engine.query_bounded(0, impossible); },
                "query_bounded");
  expect_throws([&] { (void)engine.all_marginals_bounded(impossible); },
                "all_marginals_bounded");
}

// ---- engine integration: kLoopyBP backend and bounded queries ----

TEST(LoopyBP, EngineBackendMatchesDirectConstruction) {
  const auto net = diamond_network();
  const bn::Evidence ev{{4, 0}};
  bn::InferenceEngine engine(
      net, {.threads = 2, .backend = bn::Backend::kLoopyBP});
  const bn::LoopyBP direct(net, ev);
  for (bn::VariableId q = 0; q < net.size(); ++q) {
    const auto p = engine.query(q, ev);
    for (std::size_t s = 0; s < p.size(); ++s)
      EXPECT_EQ(p.p(s), direct.query(q).point.p(s)) << q << "/" << s;
  }
  // One BP run serves every unobserved query through the assignment
  // cache (the observed variable short-circuits to its delta).
  EXPECT_EQ(engine.bp_cache_stats().entries, 1u);
  EXPECT_GE(engine.bp_cache_stats().hits, 3u);

  const auto all = engine.all_marginals_bounded(ev);
  ASSERT_EQ(all.size(), net.size());
  EXPECT_TRUE(all[4].converged);
  EXPECT_EQ(all[4].width(), 0.0);  // observed variable holds a delta
}

TEST(LoopyBP, QueryBoundedWorksUnderExactBackends) {
  // query_bounded routes through BP no matter which backend answers
  // plain queries, so exact users can ask for certified intervals.
  pr::Rng rng(7ULL);
  const auto net = random_tree(rng, 8);
  bn::InferenceEngine engine(
      net, {.threads = 1, .backend = bn::Backend::kVariableElimination});
  const auto exact = engine.query(2, {{5, 0}});
  const auto bounded = engine.query_bounded(2, {{5, 0}});
  EXPECT_TRUE(bounded.converged);
  EXPECT_TRUE(bounded.contains(exact.probs()));
}

TEST(LoopyBP, EngineExplainReportsTheBpPlan) {
  const auto net = diamond_network();
  bn::InferenceEngine engine(
      net, {.threads = 1, .backend = bn::Backend::kLoopyBP});
  const auto p = engine.explain(0, {{4, 1}});
  EXPECT_EQ(p.backend, "loopy_bp");
  EXPECT_EQ(p.schedule, "flooding");
  EXPECT_FALSE(p.bp_cache_hit);
  EXPECT_TRUE(p.bp_converged);
  EXPECT_GE(p.bp_iterations, 1u);
  EXPECT_LT(p.final_residual, bn::LoopyBP::Options{}.tolerance);
  EXPECT_GT(p.bound_width, 0.0);
  const auto again = engine.explain(0, {{4, 1}});
  EXPECT_TRUE(again.bp_cache_hit);
  // The rendered plan and JSON name the schedule.
  EXPECT_NE(p.to_plan().find("flooding"), std::string::npos);
  EXPECT_NE(p.to_json().find("\"schedule\""), std::string::npos);
}

TEST(LoopyBP, EngineExplainReportsTheDampedRetry) {
  // Near-deterministic CPTs and two observations: undamped flooding BP
  // oscillates to the iteration cap, the engine's damping-0.5 retry
  // converges, and explain() must describe the retry it kept.
  using C = pr::Categorical;
  bn::BayesianNetwork net;
  for (int i = 0; i < 7; ++i)
    net.add_variable("v" + std::to_string(i), {"0", "1"});
  net.set_cpt(0, {}, {C({0.92, 0.08})});
  net.set_cpt(1, {}, {C({0.09, 0.91})});
  net.set_cpt(2, {0, 1},
              {C({0.12, 0.88}), C({0.93, 0.07}), C({0.06, 0.94}),
               C({0.96, 0.04})});
  net.set_cpt(3, {1}, {C({0.14, 0.86}), C({0.91, 0.09})});
  net.set_cpt(4, {0, 1},
              {C({0.13, 0.87}), C({0.98, 0.02}), C({0.98, 0.02}),
               C({0.09, 0.91})});
  net.set_cpt(5, {1, 2, 3},
              {C({0.17, 0.83}), C({0.10, 0.90}), C({0.17, 0.83}),
               C({0.92, 0.08}), C({0.99, 0.01}), C({0.89, 0.11}),
               C({0.97, 0.03}), C({0.04, 0.96})});
  net.set_cpt(6, {2, 4},
              {C({0.93, 0.07}), C({0.85, 0.15}), C({0.14, 0.86}),
               C({0.08, 0.92})});
  const bn::Evidence ev{{0, 0}, {5, 1}};
  ASSERT_FALSE(bn::LoopyBP(net, ev).converged());
  const bn::LoopyBP damped(net, ev, {.damping = 0.5});
  ASSERT_TRUE(damped.converged());

  const bn::InferenceEngine engine(
      net, {.threads = 1, .backend = bn::Backend::kLoopyBP});
  const auto p = engine.explain(3, ev);
  EXPECT_EQ(p.bp_damping, 0.5);
  EXPECT_TRUE(p.bp_converged);
  EXPECT_EQ(p.bp_iterations, damped.iterations());
  EXPECT_NE(p.to_plan().find("damping 0.5"), std::string::npos);
}

// ---- kAuto checked-table-size guard (regression for the escalation) ----

TEST(LoopyBP, AutoEscalatesToBpWhenExactPlanExceedsCeiling) {
  const auto net = diamond_network();
  // Ceiling of one cell: every exact plan is "infeasible", so kAuto
  // must route the query to BP instead of materializing the tables.
  bn::InferenceEngine engine(net, {.threads = 1,
                                   .backend = bn::Backend::kAuto,
                                   .max_exact_table_cells = 1});
  const bn::LoopyBP direct(net, {});
  const auto p = engine.query(0);
  for (std::size_t s = 0; s < p.size(); ++s)
    EXPECT_EQ(p.p(s), direct.query(0).point.p(s)) << s;
  EXPECT_EQ(engine.bp_cache_stats().entries, 1u);

  const auto profile = engine.explain(0);
  EXPECT_EQ(profile.backend, "loopy_bp");
  EXPECT_NE(profile.backend_reason.find("escalated"), std::string::npos);
  EXPECT_NE(profile.backend_reason.find("max_exact_table_cells"),
            std::string::npos);

  // BP cannot answer P(e), log P(e) or a joint, so past the ceiling they
  // throw the guard's contract instead of materializing the exact plan.
  const auto expect_guard = [](auto&& fn, const char* tag) {
    try {
      fn();
      ADD_FAILURE() << tag << ": expected ContractViolation";
    } catch (const sysuq::contracts::ContractViolation& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("infeasible"), std::string::npos) << what;
      EXPECT_NE(what.find(" cells, ceiling 1)"), std::string::npos) << what;
    }
  };
  expect_guard([&] { (void)engine.evidence_probability({}); }, "P(e)");
  expect_guard([&] { (void)engine.log_evidence_probability({}); }, "log P(e)");
  expect_guard([&] { (void)engine.joint(0, 1); }, "joint");
}

TEST(LoopyBP, AutoWithBpDisabledFailsFastWithAClearContract) {
  const auto net = diamond_network();
  bn::InferenceEngine engine(net, {.threads = 1,
                                   .backend = bn::Backend::kAuto,
                                   .max_exact_table_cells = 1,
                                   .enable_bp = false});
  try {
    (void)engine.query(0);
    FAIL() << "expected ContractViolation";
  } catch (const sysuq::contracts::ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("infeasible"), std::string::npos) << what;
    EXPECT_NE(what.find("enable_bp"), std::string::npos) << what;
    EXPECT_NE(what.find("max_exact_table_cells"), std::string::npos) << what;
  }
}

TEST(LoopyBP, AutoStaysExactUnderTheDefaultCeiling) {
  const auto net = diamond_network();
  bn::InferenceEngine auto_engine(net,
                                  {.threads = 1, .backend = bn::Backend::kAuto});
  bn::InferenceEngine ve_engine(
      net, {.threads = 1, .backend = bn::Backend::kVariableElimination});
  for (bn::VariableId q = 0; q < net.size(); ++q) {
    const auto a = auto_engine.query(q, {{4, 1}});
    const auto b = ve_engine.query(q, {{4, 1}});
    for (std::size_t s = 0; s < a.size(); ++s)
      EXPECT_EQ(a.p(s), b.p(s)) << q << "/" << s;
  }
  // No BP run was ever built: the exact plan fits the default ceiling.
  EXPECT_EQ(auto_engine.bp_cache_stats().entries, 0u);
  EXPECT_EQ(auto_engine.bp_cache_stats().misses, 0u);
}

// ---- treewidth-hostile grid through kAuto ----

TEST(LoopyBP, AutoAnswersAGridThatBreaksTheExactCeiling) {
  // 12x12 binary grid: treewidth ~12, largest elimination table around
  // 2^13 cells. With the ceiling pinned below that, kAuto must escalate
  // to BP and still answer — converged, with finite certified bounds.
  const auto net = grid_network(12, 12);
  bn::InferenceEngine engine(net, {.threads = 2,
                                   .backend = bn::Backend::kAuto,
                                   .max_exact_table_cells = 1024});
  const auto p = engine.query(net.size() / 2);
  EXPECT_NEAR(p.p(0) + p.p(1), 1.0, sysuq::tolerance::kProbSum);
  const auto bounded = engine.query_bounded(net.size() / 2);
  EXPECT_TRUE(bounded.converged);
  EXPECT_GT(bounded.width(), 0.0);
  EXPECT_LT(bounded.width(), 1.0);
  EXPECT_TRUE(bounded.contains(bounded.point.probs()));
  EXPECT_EQ(engine.bp_cache_stats().entries, 1u);
}
