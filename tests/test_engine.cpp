// InferenceEngine tests: agreement with the enumeration oracle on the
// Table I perception network and on random DAGs, byte-identical batch
// determinism across thread counts, ordering-cache behaviour, the unified
// out-of-range and impossible-evidence error semantics, and the
// engine-backed module wiring (FTA diagnosis, evidential networks, BN
// fusion).
#include "bayesnet/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bayesnet/inference.hpp"
#include "bayesnet/junction_tree.hpp"
#include "bayesnet/ordering.hpp"
#include "bayesnet/profile.hpp"
#include "core/contracts.hpp"
#include "evidence/evidential_network.hpp"
#include "fta/analysis.hpp"
#include "fta/fta_to_bn.hpp"
#include "obs/registry.hpp"
#include "perception/fusion.hpp"
#include "perception/table1.hpp"
#include "core/tolerance.hpp"
#include "tests/relay_network.hpp"

namespace tol = sysuq::tolerance;

namespace bn = sysuq::bayesnet;
namespace pr = sysuq::prob;

namespace {

// The probabilities as a vector, so an exact comparison prints them.
std::vector<double> probs_of(const pr::Categorical& c) {
  const auto p = c.probs();
  return std::vector<double>(p.begin(), p.end());
}

// Exact answers on one thread: never escalates to BP, starts no pool.
const bn::InferenceEngine::Options kExact{
    .threads = 1, .backend = bn::Backend::kVariableElimination};

bn::BayesianNetwork paper_network() {
  return sysuq::perception::table1_network();
}

// Random DAG over n binary/ternary variables where each node's parents
// are a random subset of lower-id nodes.
bn::BayesianNetwork random_network(pr::Rng& rng, std::size_t n) {
  bn::BayesianNetwork net;
  std::vector<std::size_t> cards;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t card = 2 + rng.uniform_index(2);
    cards.push_back(card);
    std::vector<std::string> states;
    for (std::size_t s = 0; s < card; ++s)
      states.push_back("s" + std::to_string(s));
    net.add_variable("v" + std::to_string(i), std::move(states));
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<bn::VariableId> parents;
    for (std::size_t j = 0; j < i; ++j) {
      if (rng.bernoulli(0.4)) parents.push_back(j);
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

// Chain a -> b where b = 1 is unreachable: {b: 1} is impossible evidence
// whose zero sits inside a CPT row (the likelihood-weighting trap).
bn::BayesianNetwork unreachable_state_network() {
  bn::BayesianNetwork net;
  const auto a = net.add_variable("a", {"0", "1"});
  const auto b = net.add_variable("b", {"0", "1"});
  net.set_cpt(a, {}, {pr::Categorical({0.5, 0.5})});
  net.set_cpt(b, {a},
              {pr::Categorical({1.0, 0.0}), pr::Categorical({1.0, 0.0})});
  return net;
}

// A 1-thread VE engine whose ceiling sits below the network plan's
// largest table: it holds no network plan, so each evidence signature
// runs min-fill once and memoizes its plan.
bn::InferenceEngine::Options per_signature_plans(const bn::BayesianNetwork& net) {
  return {.threads = 1,
          .backend = bn::Backend::kVariableElimination,
          .max_exact_table_cells =
              bn::compute_elimination_order(net, {}, {}).max_table_cells - 1};
}

std::vector<bn::QuerySpec> table1_batch(const bn::BayesianNetwork& net,
                                        std::size_t n) {
  const auto gt = net.id_of("ground_truth");
  const auto perc = net.id_of("perception");
  std::vector<bn::QuerySpec> batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    batch.push_back({gt, {{perc, i % 4}}});
  }
  return batch;
}

}  // namespace

TEST(Engine, MatchesOracleOnTable1) {
  const auto net = paper_network();
  bn::InferenceEngine engine(net);
  for (std::size_t state = 0; state < 4; ++state) {
    const bn::Evidence e{{1, state}};
    const auto fast = engine.query(0, e);
    const auto oracle = bn::enumerate_posterior(net, 0, e);
    for (std::size_t s = 0; s < oracle.size(); ++s)
      EXPECT_NEAR(fast.p(s), oracle.p(s), tol::kTiny) << "state " << state;
  }
  // Prior marginal (no evidence) agrees too.
  const auto prior = engine.query(net.id_of("perception"));
  EXPECT_NEAR(prior.p(0), 0.5415, tol::kTiny);
  EXPECT_NEAR(prior.p(3), 0.1205, tol::kTiny);
}

TEST(Engine, MatchesOracleOnRandomNetworks) {
  // Min-fill orderings on nontrivial DAGs stay exact.
  pr::Rng rng(77);
  for (int trial = 0; trial < 8; ++trial) {
    const auto net = random_network(rng, 5 + rng.uniform_index(3));
    bn::InferenceEngine engine(net);
    for (bn::VariableId q = 0; q < net.size(); ++q) {
      const auto exact = bn::enumerate_posterior(net, q);
      const auto fast = engine.query(q);
      for (std::size_t s = 0; s < exact.size(); ++s)
        ASSERT_NEAR(fast.p(s), exact.p(s), tol::kProbSum) << "trial " << trial;
    }
    const bn::VariableId ev = rng.uniform_index(net.size());
    const std::size_t state = rng.uniform_index(net.variable(ev).cardinality());
    if (bn::enumerate_evidence_probability(net, {{ev, state}}) > tol::kProbSum) {
      for (bn::VariableId q = 0; q < net.size(); ++q) {
        if (q == ev) continue;
        const auto exact = bn::enumerate_posterior(net, q, {{ev, state}});
        const auto fast = engine.query(q, {{ev, state}});
        for (std::size_t s = 0; s < exact.size(); ++s)
          ASSERT_NEAR(fast.p(s), exact.p(s), tol::kProbSum) << "trial " << trial;
      }
      ASSERT_NEAR(engine.evidence_probability({{ev, state}}),
                  bn::enumerate_evidence_probability(net, {{ev, state}}), tol::kProbSum);
    }
  }
}

TEST(Engine, BatchByteIdenticalAcrossThreadCounts) {
  const auto net = paper_network();
  const auto batch = table1_batch(net, 257);

  bn::InferenceEngine single(net, {.threads = 1});
  bn::InferenceEngine pooled(net, {.threads = 4});
  const auto a = single.query_batch(batch);
  const auto b = pooled.query_batch(batch);
  const auto c = pooled.query_batch(batch);  // same engine, cache warm

  ASSERT_EQ(a.size(), batch.size());
  ASSERT_EQ(b.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    // Sequential query through the same engine as the reference.
    const auto ref = single.query(batch[i].query, batch[i].evidence);
    for (std::size_t s = 0; s < ref.size(); ++s) {
      EXPECT_EQ(a[i].p(s), ref.p(s)) << i;  // byte-identical, not NEAR
      EXPECT_EQ(b[i].p(s), ref.p(s)) << i;
      EXPECT_EQ(c[i].p(s), ref.p(s)) << i;
    }
  }

  // A batch whose groups the engine must sort out: Table I plus eight
  // relay stages (ids 2-9), four assignments interleaved and repeated.
  // `to_jt` holds 8 distinct query variables (jt_batch_threshold), so
  // its group reads the calibrated tree; `seven` holds 9 queries but 7
  // distinct ones and stays on VE, like the rest; `few` asks for its own
  // observed variable (the evidence delta).
  const auto chain = relay::network(8);
  const bn::Evidence to_jt{{4, 2}}, seven{{6, 1}}, few{{3, 0}, {8, 3}},
      prior{};
  std::vector<std::pair<bn::Evidence, std::vector<bn::VariableId>>> groups = {
      {to_jt, {0, 1, 2, 3, 5, 6, 7, 9, 5}},
      {seven, {0, 9, 1, 2, 3, 4, 5, 9, 0}},
      {few, {9, 3, 0, 9}},
      {prior, {5, 5, 1}}};
  std::vector<bn::QuerySpec> mixed;
  for (std::size_t round = 0; round < 9; ++round) {
    for (const auto& [ev, queries] : groups) {
      if (round < queries.size()) mixed.push_back({queries[round], ev});
    }
  }
  // A JT group's slots match a kJunctionTree engine's query(), every
  // other slot the kAuto engine's (VE, or the delta).
  const bn::InferenceEngine jt(chain, {.threads = 1, .backend = bn::Backend::kJunctionTree});
  for (const std::size_t threads : {1, 4}) {
    SCOPED_TRACE(threads);
    const bn::InferenceEngine engine(chain, {.threads = threads});
    const auto got = engine.query_batch(mixed);
    ASSERT_EQ(got.size(), mixed.size());
    for (std::size_t i = 0; i < mixed.size(); ++i) {
      const auto& [q, ev] = mixed[i];
      const auto ref = ev == to_jt ? jt.query(q, ev) : engine.query(q, ev);
      EXPECT_EQ(probs_of(got[i]), probs_of(ref)) << i;
    }
    EXPECT_EQ(engine.jt_cache_stats().misses, 1u);  // to_jt alone
  }
}

TEST(Engine, SampleBatchDeterministicForFixedSeed) {
  const auto net = paper_network();
  const auto batch = table1_batch(net, 24);

  bn::InferenceEngine single(net, {.threads = 1});
  bn::InferenceEngine pooled(net, {.threads = 4});
  const auto a = single.sample_batch(batch, 2000, /*seed=*/42);
  const auto b = pooled.sample_batch(batch, 2000, /*seed=*/42);
  const auto c = pooled.sample_batch(batch, 2000, /*seed=*/43);

  bool any_differs_across_seeds = false;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    for (std::size_t s = 0; s < a[i].size(); ++s) {
      EXPECT_EQ(a[i].p(s), b[i].p(s)) << i;  // same seed: byte-identical
      if (a[i].p(s) != c[i].p(s)) any_differs_across_seeds = true;
    }
  }
  EXPECT_TRUE(any_differs_across_seeds);  // the seed actually matters
}

TEST(Engine, OrderingCacheKeyedByEvidenceSignature) {
  const auto net = paper_network();
  bn::InferenceEngine engine(net, per_signature_plans(net));
  EXPECT_EQ(engine.cache_stats().misses, 0u);

  // 16 queries, all with the same (query, evidence-keys) signature but
  // different evidence values: one plan, 15 hits.
  for (std::size_t i = 0; i < 16; ++i)
    (void)engine.query(0, {{1, i % 4}});
  auto stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 15u);
  EXPECT_EQ(stats.entries, 1u);

  // A different signature (no evidence) adds one miss.
  (void)engine.query(1);
  stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_GT(stats.hit_rate(), 0.8);

  engine.clear_cache();
  stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST(Engine, ResetCacheStatsWindowsWithoutDroppingPlans) {
  const auto net = paper_network();
  bn::InferenceEngine engine(net, per_signature_plans(net));
  for (std::size_t i = 0; i < 4; ++i) (void)engine.query(0, {{1, i % 4}});
  auto stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 3u);

  // Zero the window; cached plans survive, so the next same-signature
  // query is a pure hit (a clear_cache would have made it a miss).
  engine.reset_cache_stats();
  stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hit_rate(), 0.0);  // no lookups in the new window

  (void)engine.query(0, {{1, 0}});
  stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.hit_rate(), 1.0);
}

TEST(Engine, ResetAndClearWindowEveryCache) {
  // One row per cache: its entries gauge, the options whose query makes
  // exactly one lookup in it, and the accessor that reports it. Only an
  // engine without a network plan looks orderings up.
  struct Row {
    const char* gauge;
    bn::InferenceEngine::Options options;
    bn::InferenceEngine::CacheStats (bn::InferenceEngine::*stats)() const;
  };
  const auto net = paper_network();
  const Row rows[] = {
      {"bayesnet.engine.ordering_cache.entries", per_signature_plans(net),
       &bn::InferenceEngine::cache_stats},
      {"bayesnet.jt.cache.entries",
       {.threads = 1, .backend = bn::Backend::kJunctionTree},
       &bn::InferenceEngine::jt_cache_stats},
      {"bayesnet.bp.cache.entries",
       {.threads = 1, .backend = bn::Backend::kLoopyBP},
       &bn::InferenceEngine::bp_cache_stats},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.gauge);
    bn::InferenceEngine engine(net, row.options);
    const auto lookup = [&] { (void)engine.query(0, {{1, 0}}); };
    const auto stats = [&] { return (engine.*row.stats)(); };
    lookup();
    lookup();
    EXPECT_EQ(stats().misses, 1u);
    EXPECT_EQ(stats().hits, 1u);
    EXPECT_EQ(stats().entries, 1u);

    // reset_cache_stats zeroes the window and keeps the entry ...
    engine.reset_cache_stats();
    EXPECT_EQ(stats().hits, 0u);
    EXPECT_EQ(stats().misses, 0u);
    EXPECT_EQ(stats().entries, 1u);
    lookup();
    EXPECT_EQ(stats().hits, 1u);
    EXPECT_EQ(stats().misses, 0u);

    // ... while clear_cache drops it, so the next lookup misses again.
    engine.clear_cache();
    EXPECT_EQ(stats().hits, 0u);
    EXPECT_EQ(stats().misses, 0u);
    EXPECT_EQ(stats().entries, 0u);
    EXPECT_EQ(sysuq::obs::Registry::global().gauge(row.gauge).value(), 0.0);
    lookup();
    EXPECT_EQ(stats().misses, 1u);
    EXPECT_EQ(stats().entries, 1u);
  }
}

TEST(Engine, NetworkPlanMemoizesNoSignaturePlan) {
  // 1024 distinct evidence signatures (every set of at most five of 11
  // binary variables, observed at a sampled joint state) streamed
  // through every exact API. An engine whose network plan fits runs that
  // plan for all of them, under kAuto and under kVariableElimination:
  // it looks no signature plan up and memoizes none, and every answer is
  // the oracle's.
  pr::Rng rng(59);
  constexpr bn::VariableId kVars = 11;
  bn::BayesianNetwork net;
  for (bn::VariableId v = 0; v < kVars; ++v) {
    net.add_variable("v" + std::to_string(v), {"0", "1"});
    std::vector<bn::VariableId> parents;
    for (bn::VariableId p = 0; p < v; ++p)
      if (parents.size() < 3 && rng.bernoulli(0.4)) parents.push_back(p);
    std::vector<pr::Categorical> rows;
    for (std::size_t r = 0; r < (std::size_t{1} << parents.size()); ++r) {
      const double x = 0.05 + 0.9 * rng.uniform();
      rows.push_back(pr::Categorical::normalized({x, 1.0 - x}));
    }
    net.set_cpt(v, std::move(parents), std::move(rows));
  }
  auto& entries = sysuq::obs::Registry::global().gauge(
      "bayesnet.engine.ordering_cache.entries");
  entries.set(0.0);  // an ordering-memo insert anywhere raises it again
  const bn::InferenceEngine auto_engine(net, {.threads = 1});
  const bn::InferenceEngine ve(net, kExact);
  const auto expect_near = [](const pr::Categorical& got, const pr::Categorical& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t s = 0; s < want.size(); ++s) EXPECT_NEAR(got.p(s), want.p(s), tol::kProbSum);
  };

  std::vector<bn::QuerySpec> batch;
  std::vector<pr::Categorical> batch_want;
  for (unsigned keys = 0; keys < (1u << kVars); ++keys) {
    if (std::popcount(keys) > 5) continue;
    const auto states = net.sample(rng);
    bn::Evidence ev;
    std::vector<bn::VariableId> free;
    for (bn::VariableId v = 0; v < kVars; ++v) {
      if (((keys >> v) & 1u) != 0) {
        ev[v] = states[v];
      } else {
        free.push_back(v);
      }
    }
    SCOPED_TRACE("signature " + std::to_string(keys));
    const double pe = bn::enumerate_evidence_probability(net, ev);
    std::vector<pr::Categorical> marginal(kVars, pr::Categorical::uniform(2));
    for (const bn::VariableId v : free) marginal[v] = bn::enumerate_posterior(net, v, ev);
    const bn::VariableId q = free[rng.uniform_index(free.size())];
    const bn::VariableId a = free.front(), b = free.back();
    double joint[2][2];
    for (std::size_t i = 0; i < 2; ++i) {
      for (std::size_t j = 0; j < 2; ++j) {
        bn::Evidence with = ev;
        with[a] = i;
        with[b] = j;
        joint[i][j] = bn::enumerate_evidence_probability(net, with) / pe;
      }
    }
    for (const bn::InferenceEngine* engine : {&auto_engine, &ve}) {
      expect_near(engine->query(q, ev), marginal[q]);
      const auto profile = engine->explain(q, ev);
      EXPECT_TRUE(profile.ordering_cache_hit);
      expect_near(pr::Categorical(profile.posterior), marginal[q]);
      EXPECT_NEAR(engine->evidence_probability(ev), pe, tol::kProbSum);
      EXPECT_NEAR(engine->log_evidence_probability(ev), std::log(pe), tol::kProbSum);
      const auto all = engine->all_marginals(ev);
      for (const bn::VariableId v : free) expect_near(all[v], marginal[v]);
      const auto got = engine->joint(a, b, ev);
      for (std::size_t i = 0; i < 2; ++i)
        for (std::size_t j = 0; j < 2; ++j) EXPECT_NEAR(got.p(i, j), joint[i][j], tol::kProbSum);
    }
    batch.push_back({q, ev});
    batch_want.push_back(marginal[q]);
  }
  ASSERT_EQ(batch.size(), 1024u);
  for (const bn::InferenceEngine* engine : {&auto_engine, &ve}) {
    const auto got = engine->query_batch(batch);
    for (std::size_t i = 0; i < batch.size(); ++i) expect_near(got[i], batch_want[i]);
    const auto stats = engine->cache_stats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.entries, 0u);
  }
  EXPECT_EQ(entries.value(), 0.0);
}

namespace {

// Roots r and s; a | r holds an exact zero and b | a, s. A barren
// subtree hangs off a: z1 | a, z2 | z1 and z3 | z1, s, with exact-zero
// rows. A query outside the subtree never multiplies its CPTs in.
bn::BayesianNetwork barren_subtree_network() {
  bn::BayesianNetwork net;
  const auto r = net.add_variable("r", {"r0", "r1"});
  const auto s = net.add_variable("s", {"s0", "s1", "s2"});
  const auto a = net.add_variable("a", {"a0", "a1", "a2"});
  const auto b = net.add_variable("b", {"b0", "b1"});
  const auto z1 = net.add_variable("z1", {"z0", "z1", "z2"});
  const auto z2 = net.add_variable("z2", {"y0", "y1"});
  const auto z3 = net.add_variable("z3", {"x0", "x1"});
  net.set_cpt(r, {}, {pr::Categorical({0.3, 0.7})});
  net.set_cpt(s, {}, {pr::Categorical({0.2, 0.5, 0.3})});
  net.set_cpt(a, {r},
              {pr::Categorical({0.5, 0.5, 0.0}), pr::Categorical({0.2, 0.3, 0.5})});
  std::vector<pr::Categorical> b_rows;
  for (std::size_t i = 0; i < 9; ++i)
    b_rows.push_back(pr::Categorical::normalized({1.0 + i, 9.0 - i}));
  net.set_cpt(b, {a, s}, std::move(b_rows));
  net.set_cpt(z1, {a},
              {pr::Categorical({1.0, 0.0, 0.0}), pr::Categorical({0.0, 1.0, 0.0}),
               pr::Categorical({0.0, 0.4, 0.6})});
  net.set_cpt(z2, {z1},
              {pr::Categorical({1.0, 0.0}), pr::Categorical({0.0, 1.0}),
               pr::Categorical({0.5, 0.5})});
  std::vector<pr::Categorical> z3_rows;
  for (std::size_t i = 0; i < 9; ++i)
    z3_rows.push_back(i % 2 == 0 ? pr::Categorical({1.0, 0.0})
                                 : pr::Categorical({0.25, 0.75}));
  net.set_cpt(z3, {z1, s}, std::move(z3_rows));
  return net;
}

}  // namespace

TEST(Engine, AncestralSetKeepsEveryContract) {
  // VE multiplies only the CPTs of the ancestors of the kept and observed
  // variables. Over random evidence on a network with a barren subtree
  // of exact zeros, every VE entry point must still match enumeration,
  // impossible evidence must still throw, and explain() must list only
  // the steps that ran.
  const auto net = barren_subtree_network();
  const bn::InferenceEngine engine(
      net, {.threads = 1, .backend = bn::Backend::kVariableElimination});
  pr::Rng rng(29);
  std::size_t possible = 0, impossible = 0;
  for (int trial = 0; trial < 300; ++trial) {
    bn::Evidence ev;
    const std::size_t count = rng.uniform_index(4);
    for (std::size_t k = 0; k < count; ++k) {
      const bn::VariableId v = rng.uniform_index(net.size());
      ev[v] = rng.uniform_index(net.variable(v).cardinality());
    }
    std::vector<bn::VariableId> free;
    for (bn::VariableId v = 0; v < net.size(); ++v)
      if (!ev.contains(v)) free.push_back(v);
    const double pe = bn::enumerate_evidence_probability(net, ev);
    if (!(pe > 0.0)) {
      ++impossible;
      const std::string msg = bn::impossible_evidence_message(net, ev);
      for (const bn::VariableId q : free) {
        try {
          (void)engine.query(q, ev);
          FAIL() << "expected std::domain_error, trial " << trial;
        } catch (const std::domain_error& e) {
          EXPECT_EQ(std::string(e.what()), msg);
        }
      }
      EXPECT_NEAR(engine.evidence_probability(ev), 0.0, tol::kTiny);
      EXPECT_EQ(engine.log_evidence_probability(ev),
                -std::numeric_limits<double>::infinity());
      continue;
    }
    ++possible;
    EXPECT_NEAR(engine.evidence_probability(ev), pe, tol::kTiny) << trial;
    EXPECT_NEAR(engine.log_evidence_probability(ev), std::log(pe), tol::kTiny)
        << trial;
    for (const bn::VariableId q : free) {
      const auto want = bn::enumerate_posterior(net, q, ev);
      const auto got = engine.query(q, ev);
      for (std::size_t st = 0; st < want.size(); ++st)
        ASSERT_NEAR(got.p(st), want.p(st), tol::kTiny) << trial << " q " << q;
    }
    const bn::VariableId x = free[rng.uniform_index(free.size())];
    bn::VariableId y = free[rng.uniform_index(free.size())];
    if (y == x) y = free[(std::find(free.begin(), free.end(), x) - free.begin() + 1) % free.size()];
    const auto joint = engine.joint(x, y, ev);
    for (std::size_t i = 0; i < net.variable(x).cardinality(); ++i) {
      for (std::size_t j = 0; j < net.variable(y).cardinality(); ++j) {
        bn::Evidence cell = ev;
        cell[x] = i;
        cell[y] = j;
        ASSERT_NEAR(joint.p(i, j), bn::enumerate_evidence_probability(net, cell) / pe,
                    tol::kTiny)
            << trial << " joint " << x << "," << y;
      }
    }
  }
  EXPECT_GE(possible, 100u);
  EXPECT_GE(impossible, 10u);

  // r = r0 rules out a = a2: impossible inside b's ancestral set, while
  // the barren subtree's zeros stay out of the product.
  const bn::Evidence ruled_out{{0, 0}, {2, 2}};
  EXPECT_THROW((void)engine.query(3, ruled_out), std::domain_error);
  EXPECT_THROW((void)engine.joint(1, 3, ruled_out), std::domain_error);

  // P(b | s = s1) runs on {r, s, a, b}: s is observed and b kept, so r
  // and a are the only steps, and no barren z variable gets one.
  const auto profile = engine.explain(3, {{1, 1}});
  std::vector<std::string> steps;
  for (const auto& step : profile.steps) steps.push_back(step.name);
  std::sort(steps.begin(), steps.end());
  EXPECT_EQ(steps, (std::vector<std::string>{"a", "r"}));
  const auto want = bn::enumerate_posterior(net, 3, {{1, 1}});
  for (std::size_t st = 0; st < want.size(); ++st)
    EXPECT_NEAR(profile.posterior[st], want.p(st), tol::kTiny);
}

TEST(Engine, RequisiteSetRunsOnlyTheStagesBetween) {
  // Table I refined by five noisy 4-state relay stages. Observing stage k
  // cuts everything above it off a query at stage j > k: Bayes-ball marks
  // stages k+1..j only, so VE eliminates the j - k - 1 stages between
  // them and never multiplies Table I's CPTs or their exact zeros.
  const auto net = relay::network(5);
  std::vector<bn::VariableId> stage;
  for (std::size_t s = 0; s < 5; ++s) stage.push_back(net.id_of("stage" + std::to_string(s)));
  const bn::InferenceEngine engine(net, kExact);
  for (std::size_t k = 0; k < stage.size(); ++k) {
    for (std::size_t j = k + 1; j < stage.size(); ++j) {
      const bn::Evidence ev{{stage[k], (k + j) % 4}};
      const auto profile = engine.explain(stage[j], ev);
      std::vector<bn::VariableId> got;
      for (const auto& step : profile.steps) got.push_back(step.variable);
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, std::vector<bn::VariableId>(stage.begin() + k + 1, stage.begin() + j))
          << "k " << k << " j " << j;
      const auto want = bn::enumerate_posterior(net, stage[j], ev);
      for (std::size_t s = 0; s < want.size(); ++s)
        EXPECT_NEAR(profile.posterior[s], want.p(s), tol::kTiny) << "k " << k << " j " << j;
    }
  }
}

TEST(Engine, RequisiteSetFallsBackOnAnImpossiblePrunedObservation) {
  // a -> b -> c -> d with b = 1 unreachable. Observed c blocks every ball
  // from d, so P(d | b, c) needs only d's CPT, yet b = 1 makes P(e) = 0:
  // the run falls back to the ancestral set, and every entry throws the
  // unified error.
  bn::BayesianNetwork net;
  const auto a = net.add_variable("a", {"0", "1"});
  const auto b = net.add_variable("b", {"0", "1"});
  const auto c = net.add_variable("c", {"0", "1"});
  const auto d = net.add_variable("d", {"0", "1"});
  net.set_cpt(a, {}, {pr::Categorical({0.5, 0.5})});
  net.set_cpt(b, {a}, {pr::Categorical({1.0, 0.0}), pr::Categorical({1.0, 0.0})});
  net.set_cpt(c, {b}, {pr::Categorical({0.75, 0.25}), pr::Categorical({0.25, 0.75})});
  net.set_cpt(d, {c}, {pr::Categorical({0.5, 0.5}), pr::Categorical({0.25, 0.75})});
  const bn::Evidence impossible{{b, 1}, {c, 0}};
  const std::string msg = bn::impossible_evidence_message(net, impossible);
  for (const auto backend : {bn::Backend::kVariableElimination, bn::Backend::kAuto}) {
    const bn::InferenceEngine engine(net, {.threads = 1, .backend = backend});
    for (const auto& call : std::vector<std::function<void()>>{
             [&] { (void)engine.query(d, impossible); },
             [&] { (void)engine.explain(d, impossible); },
             [&] { (void)engine.query_batch({{d, impossible}}); }}) {
      try {
        call();
        ADD_FAILURE() << "impossible evidence did not throw";
      } catch (const std::domain_error& e) {
        EXPECT_EQ(std::string(e.what()), msg);
      }
    }
  }

  // With b's observed state possible under every row, b's CPT stays out:
  // d's posterior is its c = 0 row, and no step runs.
  const bn::InferenceEngine engine(net, kExact);
  const auto profile = engine.explain(d, {{b, 0}, {c, 0}});
  EXPECT_TRUE(profile.steps.empty());
  EXPECT_EQ(profile.posterior, (std::vector<double>{0.5, 0.5}));
}

// ---- junction-tree backend ----

TEST(EngineBackends, JunctionTreeStructureOnChain) {
  // A pure chain triangulates into n-1 pairwise cliques of size two.
  bn::BayesianNetwork net;
  const std::size_t n = 6;
  for (std::size_t i = 0; i < n; ++i)
    net.add_variable("c" + std::to_string(i), {"0", "1"});
  net.set_cpt(0, {}, {pr::Categorical({0.4, 0.6})});
  for (std::size_t i = 1; i < n; ++i)
    net.set_cpt(i, {i - 1},
                {pr::Categorical({0.8, 0.2}), pr::Categorical({0.3, 0.7})});

  const bn::JunctionTree jt(net);
  EXPECT_EQ(jt.clique_count(), n - 1);
  EXPECT_EQ(jt.max_clique_size(), 2u);
  // Deterministic: a rebuild yields the identical clique list.
  const bn::JunctionTree again(net);
  EXPECT_EQ(jt.cliques(), again.cliques());

  // A structure compiled from the signature's ordering and its evidence
  // calibrates to the tree the two-argument constructor builds. The
  // compile rejects an omitted variable the evidence leaves unobserved;
  // the calibration rejects evidence that leaves an omitted variable
  // unobserved or observes it at another state.
  const bn::Evidence ev{{2, 1}};
  const bn::JunctionTree computed(net, ev);
  const bn::JunctionTreeStructure structure(net, bn::compute_elimination_order(net, {}, {2}), ev);
  const bn::JunctionTree given(structure, ev);
  EXPECT_EQ(given.cliques(), computed.cliques());
  for (bn::VariableId v = 0; v < n; ++v)
    EXPECT_EQ(given.query(v).probs(), computed.query(v).probs()) << v;
  EXPECT_THROW(
      (void)bn::JunctionTreeStructure(net, bn::compute_elimination_order(net, {}, {2, 4}), ev),
      std::invalid_argument);
  EXPECT_THROW((void)bn::JunctionTree(structure, {{2, 0}}), std::invalid_argument);
  EXPECT_THROW((void)bn::JunctionTree(structure, {}), std::invalid_argument);
}

TEST(EngineBackends, JunctionTreeBackendMatchesDefaultEngine) {
  pr::Rng rng(41);
  for (int trial = 0; trial < 4; ++trial) {
    const auto net = random_network(rng, 6);
    bn::InferenceEngine ve_engine(
        net, {.threads = 1, .backend = bn::Backend::kVariableElimination});
    bn::InferenceEngine jt_engine(
        net, {.threads = 1, .backend = bn::Backend::kJunctionTree});
    const bn::Evidence ev{{0, 0}};
    for (bn::VariableId q = 1; q < net.size(); ++q) {
      const auto a = ve_engine.query(q, ev);
      const auto b = jt_engine.query(q, ev);
      for (std::size_t s = 0; s < a.size(); ++s)
        ASSERT_NEAR(a.p(s), b.p(s), tol::kTiny) << "trial " << trial;
    }
    ASSERT_NEAR(ve_engine.evidence_probability(ev),
                jt_engine.evidence_probability(ev), tol::kTiny);
  }
}

TEST(EngineBackends, AllMarginalsMatchesPerQueryLoop) {
  const auto net = paper_network();
  for (const auto backend :
       {bn::Backend::kVariableElimination, bn::Backend::kJunctionTree,
        bn::Backend::kAuto}) {
    bn::InferenceEngine engine(net, {.threads = 1, .backend = backend});
    const bn::Evidence ev{{1, 3}};
    const auto all = engine.all_marginals(ev);
    // No signature plan is looked up: VE runs the network plan, and
    // kJunctionTree and kAuto calibrate the tree compiled from it.
    EXPECT_EQ(engine.cache_stats().misses, 0u);
    EXPECT_EQ(engine.cache_stats().hits, 0u);
    EXPECT_EQ(engine.cache_stats().entries, 0u);
    ASSERT_EQ(all.size(), net.size());
    EXPECT_EQ(all[1].p(3), 1.0);  // observed variable holds its delta
    const auto direct = engine.query(0, ev);
    for (std::size_t s = 0; s < direct.size(); ++s)
      EXPECT_NEAR(all[0].p(s), direct.p(s), tol::kTiny);
  }
}

TEST(EngineBackends, LogEvidenceProbabilityAcrossBackends) {
  const auto net = paper_network();
  const bn::Evidence possible{{1, 0}};
  const bn::Evidence impossible{{0, 2}, {1, 0}};
  for (const auto backend :
       {bn::Backend::kVariableElimination, bn::Backend::kJunctionTree}) {
    bn::InferenceEngine engine(net, {.threads = 1, .backend = backend});
    EXPECT_NEAR(engine.log_evidence_probability(possible),
                std::log(engine.evidence_probability(possible)), tol::kTiny);
    // Impossible evidence reports -inf without throwing.
    EXPECT_EQ(engine.log_evidence_probability(impossible),
              -std::numeric_limits<double>::infinity());
  }
}

TEST(EngineBackends, AutoSwitchesToJunctionTreeAtBatchThreshold) {
  // Build a network wide enough that a batch can hold many distinct
  // query variables under one evidence assignment.
  pr::Rng rng(43);
  const auto net = random_network(rng, 12);
  const bn::Evidence ev{{0, 0}};
  std::vector<bn::QuerySpec> wide;
  for (bn::VariableId q = 1; q < net.size(); ++q) wide.push_back({q, ev});

  // Below the threshold the Auto engine stays on VE: no tree is built.
  bn::InferenceEngine small_auto(
      net, {.threads = 2, .backend = bn::Backend::kAuto,
            .jt_batch_threshold = 64});
  (void)small_auto.query_batch(wide);
  EXPECT_EQ(small_auto.jt_cache_stats().entries, 0u);
  EXPECT_EQ(small_auto.jt_cache_stats().misses, 0u);

  // At the threshold it calibrates exactly one tree for the signature,
  // and a repeat batch is a pure cache hit.
  bn::InferenceEngine big_auto(
      net, {.threads = 2, .backend = bn::Backend::kAuto,
            .jt_batch_threshold = 4});
  const auto a = big_auto.query_batch(wide);
  EXPECT_EQ(big_auto.jt_cache_stats().entries, 1u);
  EXPECT_EQ(big_auto.jt_cache_stats().misses, 1u);
  const auto b = big_auto.query_batch(wide);
  EXPECT_EQ(big_auto.jt_cache_stats().entries, 1u);
  EXPECT_EQ(big_auto.jt_cache_stats().hits, 1u);

  // Both paths agree with the sequential VE engine, byte-identically
  // across the repeat (same tree, same reads).
  bn::InferenceEngine ve_engine(
      net, {.threads = 1, .backend = bn::Backend::kVariableElimination});
  for (std::size_t i = 0; i < wide.size(); ++i) {
    const auto ref = ve_engine.query(wide[i].query, wide[i].evidence);
    for (std::size_t s = 0; s < ref.size(); ++s) {
      ASSERT_NEAR(a[i].p(s), ref.p(s), tol::kTiny) << i;
      ASSERT_EQ(a[i].p(s), b[i].p(s)) << i;
    }
  }
}

TEST(EngineBackends, TreeCacheKeyedByFullAssignmentNotSignature) {
  // Cache-collision stress: evidence maps engineered to look alike —
  // identical key sets and identical value *multisets*, differing only
  // in which value sits on which key. The ordering cache may (and
  // should) share one plan across them; the calibrated-tree cache must
  // not, or one evidence's posteriors would answer the other's queries.
  const auto net = paper_network();
  auto wide = net;  // add a child so there is something to query
  const auto monitor = wide.add_variable("monitor", {"quiet", "alarm"});
  wide.set_cpt(monitor, {0},
               {pr::Categorical({0.9, 0.1}), pr::Categorical({0.5, 0.5}),
                pr::Categorical({0.1, 0.9})});

  const bn::Evidence e1{{0, 0}, {1, 1}};
  const bn::Evidence e2{{0, 1}, {1, 0}};  // same keys, swapped values

  bn::InferenceEngine engine(
      wide, {.threads = 1, .backend = bn::Backend::kJunctionTree});
  const auto m1 = engine.query(monitor, e1);
  const auto m2 = engine.query(monitor, e2);

  // Two distinct calibrated trees of the network's one compiled tree; no
  // signature plan is looked up.
  EXPECT_EQ(engine.jt_cache_stats().entries, 2u);
  EXPECT_EQ(engine.jt_cache_stats().misses, 2u);
  EXPECT_EQ(engine.cache_stats().entries, 0u);

  // Each answer matches its own evidence's exact posterior - and the
  // two posteriors genuinely differ, so sharing would have been caught.
  const bn::InferenceEngine ve(wide, kExact);
  const auto x1 = ve.query(monitor, e1);
  const auto x2 = ve.query(monitor, e2);
  for (std::size_t s = 0; s < 2; ++s) {
    EXPECT_NEAR(m1.p(s), x1.p(s), tol::kTiny);
    EXPECT_NEAR(m2.p(s), x2.p(s), tol::kTiny);
  }
  EXPECT_GT(std::fabs(x1.p(0) - x2.p(0)), 0.05);

  // Re-query both: pure hits, no new calibration.
  (void)engine.query(monitor, e1);
  (void)engine.query(monitor, e2);
  EXPECT_EQ(engine.jt_cache_stats().entries, 2u);
  EXPECT_EQ(engine.jt_cache_stats().hits, 2u);

  // clear_cache drops calibrated trees too.
  engine.clear_cache();
  EXPECT_EQ(engine.jt_cache_stats().entries, 0u);
  EXPECT_EQ(engine.jt_cache_stats().hits, 0u);
  EXPECT_EQ(engine.jt_cache_stats().misses, 0u);
}

// ---- unified impossible-evidence error semantics ----

// ---- EXPLAIN / QueryProfile ----

namespace {

// Pinned three-node chain a -> b -> c with dyadic CPTs, so the explain
// goldens are byte-exact (every posterior value formats finitely).
bn::BayesianNetwork explain_network() {
  bn::BayesianNetwork net;
  const auto a = net.add_variable("a", {"a0", "a1"});
  const auto b = net.add_variable("b", {"b0", "b1"});
  const auto c = net.add_variable("c", {"c0", "c1"});
  net.set_cpt(a, {}, {pr::Categorical({0.5, 0.5})});
  net.set_cpt(b, {a},
              {pr::Categorical({0.75, 0.25}), pr::Categorical({0.25, 0.75})});
  net.set_cpt(c, {b},
              {pr::Categorical({1.0, 0.0}), pr::Categorical({0.0, 1.0})});
  return net;
}

}  // namespace

TEST(EngineExplain, MatchesQueryAndAttributesCaches) {
  const auto net = explain_network();
  const bn::InferenceEngine engine(net, {.threads = 1});
  const bn::Evidence ev{{0, 0}};

  auto profile = engine.explain(2, ev);
  EXPECT_EQ(profile.backend, "variable_elimination");
  EXPECT_FALSE(profile.ordering_cache_hit);  // nothing warmed it yet
  const auto posterior = engine.query(2, ev);
  ASSERT_EQ(profile.posterior.size(), posterior.size());
  for (std::size_t s = 0; s < posterior.size(); ++s)
    EXPECT_DOUBLE_EQ(profile.posterior[s], posterior.p(s));

  // The explain itself answered the query, so the plan is now cached.
  EXPECT_TRUE(engine.explain(2, ev).ordering_cache_hit);
}

TEST(EngineExplain, VariableEliminationJsonGolden) {
  const auto net = explain_network();
  const bn::InferenceEngine engine(
      net, {.threads = 1, .backend = bn::Backend::kVariableElimination});
  auto profile = engine.explain(2, {{0, 0}});
  profile.zero_costs();  // structure stays; measured figures blank out
  EXPECT_EQ(profile.to_json(),
            "{\"query\":\"c\",\"evidence\":[{\"variable\":\"a\","
            "\"state\":\"a0\"}],\"backend\":\"variable_elimination\","
            "\"reason\":\"Backend::kVariableElimination runs one elimination "
            "per query\",\"plan\":{\"ordering_cache_hit\":false,"
            "\"induced_width\":1,\"fill_edges\":0,\"steps\":["
            "{\"eliminate\":\"b\",\"width\":1,\"table_cells\":4}]},"
            "\"cost\":{\"arena_high_water_bytes\":0,\"stages\":["
            "{\"stage\":\"plan\",\"seconds\":0},"
            "{\"stage\":\"analyze\",\"seconds\":0},"
            "{\"stage\":\"execute\",\"seconds\":0}],\"total_seconds\":0},"
            "\"posterior\":[{\"state\":\"c0\",\"p\":0.75},"
            "{\"state\":\"c1\",\"p\":0.25}]}");
}

TEST(EngineExplain, JunctionTreeJsonGolden) {
  const auto net = explain_network();
  const bn::InferenceEngine engine(
      net, {.threads = 1, .backend = bn::Backend::kJunctionTree});
  auto profile = engine.explain(2, {{0, 0}});
  profile.zero_costs();
  EXPECT_EQ(profile.to_json(),
            "{\"query\":\"c\",\"evidence\":[{\"variable\":\"a\","
            "\"state\":\"a0\"}],\"backend\":\"junction_tree\","
            "\"reason\":\"Backend::kJunctionTree routes every query through "
            "the calibrated clique tree\",\"plan\":{\"jt_cache_hit\":false,"
            "\"cliques\":[2,2],\"max_clique_size\":2,\"cells\":8,\"live_cells\":6,"
            "\"calibration_seconds\":0},"
            "\"cost\":{\"arena_high_water_bytes\":0,\"stages\":["
            "{\"stage\":\"calibrate\",\"seconds\":0},"
            "{\"stage\":\"read_marginal\",\"seconds\":0}],"
            "\"total_seconds\":0},"
            "\"posterior\":[{\"state\":\"c0\",\"p\":0.75},"
            "{\"state\":\"c1\",\"p\":0.25}]}");
}

TEST(EngineExplain, HumanPlanGolden) {
  const auto net = explain_network();
  const bn::InferenceEngine engine(
      net, {.threads = 1, .backend = bn::Backend::kVariableElimination});
  auto profile = engine.explain(2, {{0, 0}});
  profile.zero_costs();
  EXPECT_EQ(profile.to_plan(),
            "EXPLAIN P(c | a=a0)\n"
            "backend: variable_elimination \xE2\x80\x94 "
            "Backend::kVariableElimination runs one elimination per query\n"
            "plan: induced width 1, 0 fill edges, ordering cache MISS\n"
            "  step 1: eliminate b  width 1  4 cells\n"
            "cost: arena high-water 0 bytes\n"
            "  plan        0 s\n"
            "  analyze     0 s\n"
            "  execute     0 s\n"
            "  total       0 s\n"
            "posterior: c0=0.75 c1=0.25\n");
}

TEST(EngineExplain, ObservedQueryIsEvidenceDelta) {
  const auto net = explain_network();
  const bn::InferenceEngine engine(net, {.threads = 1});
  const auto profile = engine.explain(0, {{0, 1}});
  EXPECT_EQ(profile.backend, "evidence_delta");
  ASSERT_EQ(profile.posterior.size(), 2u);
  EXPECT_DOUBLE_EQ(profile.posterior[0], 0.0);
  EXPECT_DOUBLE_EQ(profile.posterior[1], 1.0);
}

TEST(EngineExplain, ThrowsLikeQuery) {
  const auto net = explain_network();
  const bn::InferenceEngine engine(net, {.threads = 1});
  EXPECT_THROW((void)engine.explain(99), std::out_of_range);
  EXPECT_THROW((void)engine.explain(0, {{99, 0}}), std::out_of_range);
}

TEST(EngineErrors, OutOfRangeEvidenceThrowsOutOfRangeOnEveryBackend) {
  // a -> b -> c with a 3-state b: state 7 of b and variable 9 do not
  // exist. Every backend rejects them with std::out_of_range before any
  // CPT is read, and joint() before any ordering lookup, whether or not
  // contracts are enforced.
  bn::BayesianNetwork net;
  const auto a = net.add_variable("a", {"0", "1"});
  const auto b = net.add_variable("b", {"0", "1", "2"});
  const auto c = net.add_variable("c", {"0", "1"});
  net.set_cpt(a, {}, {pr::Categorical({0.5, 0.5})});
  net.set_cpt(b, {a},
              {pr::Categorical({0.5, 0.25, 0.25}),
               pr::Categorical({0.25, 0.25, 0.5})});
  net.set_cpt(c, {b},
              {pr::Categorical({0.5, 0.5}), pr::Categorical({0.75, 0.25}),
               pr::Categorical({0.25, 0.75})});
  const bn::Evidence bad_state{{b, 7}};
  const bn::Evidence bad_id{{9, 0}};
  const auto saved = sysuq::contracts::mode();
  for (const auto mode :
       {sysuq::contracts::Mode::kThrow, sysuq::contracts::Mode::kOff}) {
    sysuq::contracts::set_mode(mode);
    for (const auto backend :
         {bn::Backend::kVariableElimination, bn::Backend::kJunctionTree,
          bn::Backend::kAuto, bn::Backend::kLoopyBP}) {
      SCOPED_TRACE(static_cast<int>(mode) * 10 + static_cast<int>(backend));
      const bn::InferenceEngine engine(net,
                                       {.threads = 1, .backend = backend});
      // joint() rejects an unknown variable before any lookup or work.
      EXPECT_THROW((void)engine.joint(9, c), std::out_of_range);
      EXPECT_THROW((void)engine.joint(a, 9), std::out_of_range);
      EXPECT_EQ(engine.cache_stats().hits + engine.cache_stats().misses, 0u);
      for (const bn::Evidence& ev : {bad_state, bad_id}) {
        EXPECT_THROW((void)engine.query(a, ev), std::out_of_range);
        EXPECT_THROW((void)engine.query(b, ev), std::out_of_range);
        EXPECT_THROW((void)engine.explain(a, ev), std::out_of_range);
        EXPECT_THROW((void)engine.all_marginals(ev), std::out_of_range);
        // Mid-batch, among groups that answer.
        EXPECT_THROW((void)engine.query_batch({{a, {}},
                                               {c, {{a, 1}}},
                                               {b, {{c, 0}}},
                                               {a, ev},
                                               {c, {}},
                                               {b, {{a, 0}}}}),
                     std::out_of_range);
        EXPECT_THROW((void)engine.evidence_probability(ev), std::out_of_range);
        EXPECT_THROW((void)engine.log_evidence_probability(ev),
                     std::out_of_range);
        EXPECT_THROW((void)engine.joint(a, c, ev), std::out_of_range);
      }
    }
  }
  sysuq::contracts::set_mode(saved);
}

TEST(EngineErrors, OutOfRangeEvidenceThrowsOutOfRangeInOracleAndSamplers) {
  // The enumeration oracle, both samplers and sample_batch validate
  // evidence like the engine's queries: an id past the network and a
  // state past the variable's cardinality throw std::out_of_range before
  // any joint state or CPT row is read.
  const auto net = paper_network();  // ground_truth: 3 states, perception: 4
  const bn::InferenceEngine engine(net, {.threads = 1});
  pr::Rng rng(3);
  for (const bn::Evidence& ev : {bn::Evidence{{7, 0}}, bn::Evidence{{1, 4}}}) {
    EXPECT_THROW((void)bn::enumerate_posterior(net, 0, ev), std::out_of_range);
    EXPECT_THROW((void)bn::enumerate_evidence_probability(net, ev),
                 std::out_of_range);
    EXPECT_THROW((void)bn::enumerate_mpe(net, ev), std::out_of_range);
    EXPECT_THROW((void)bn::likelihood_weighting(net, 0, ev, 100, rng),
                 std::out_of_range);
    EXPECT_THROW((void)bn::rejection_sampling(net, 0, ev, 100, rng),
                 std::out_of_range);
    EXPECT_THROW((void)engine.sample_batch({{0, ev}}, 100, /*seed=*/1),
                 std::out_of_range);
  }
}

TEST(EngineErrors, UnifiedImpossibleEvidenceMessage) {
  const auto net = paper_network();
  // gt = unknown AND perception = car has probability zero under Table I.
  const bn::Evidence impossible{{0, 2}, {1, 0}};
  const std::string expected =
      bn::impossible_evidence_message(net, impossible);
  EXPECT_EQ(expected,
            "bayesnet: impossible evidence (P(e) = 0): "
            "ground_truth=unknown, perception=car");
  pr::Rng rng(5);

  const auto check = [](const std::string& want, auto&& fn) {
    try {
      fn();
      FAIL() << "expected std::domain_error";
    } catch (const std::domain_error& e) {
      EXPECT_EQ(std::string(e.what()), want);
    }
  };

  // Query a third variable so the evidence itself is what fails. The
  // Table I net has only two nodes, so extend it with a child of gt and
  // an independent fourth variable (for the joint check, which needs two
  // unobserved variables).
  auto net3 = paper_network();
  const auto extra =
      net3.add_variable("monitor", {"quiet", "alarm"});
  net3.set_cpt(extra, {0},
               {pr::Categorical({0.9, 0.1}), pr::Categorical({0.5, 0.5}),
                pr::Categorical({0.1, 0.9})});
  const auto extra2 = net3.add_variable("watchdog", {"ok", "tripped"});
  net3.set_cpt(extra2, {}, {pr::Categorical({0.95, 0.05})});
  bn::InferenceEngine engine3(net3, {.threads = 1});
  const std::string expected3 =
      bn::impossible_evidence_message(net3, impossible);

  // Every entry point throws the one documented error.
  check(expected3, [&] { (void)engine3.query(extra, impossible); });
  check(expected3, [&] { (void)engine3.query_batch({{extra, impossible}}); });
  check(expected3, [&] { (void)engine3.joint(extra, extra2, impossible); });
  check(expected3, [&] { (void)bn::enumerate_posterior(net3, extra, impossible); });
  check(expected3, [&] { (void)bn::enumerate_mpe(net3, impossible); });
  check(expected, [&] { (void)bn::rejection_sampling(net, 0, impossible, 500, rng); });
}

TEST(EngineErrors, LikelihoodWeightingAllZeroWeightsThrows) {
  // Regression: evidence landing on an unreachable state gives every
  // sample weight zero; the seed code forwarded the all-zero vector into
  // Categorical::normalized (invalid_argument). It must name the evidence
  // in a domain_error, like rejection sampling's zero-accept path — and,
  // so the caller can judge the sampling effort, the attempted sample
  // count.
  const auto net = unreachable_state_network();
  const bn::Evidence impossible{{1, 1}};
  pr::Rng rng(17);
  try {
    (void)bn::likelihood_weighting(net, 0, impossible, 1000, rng);
    FAIL() << "expected std::domain_error";
  } catch (const std::domain_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "bayesnet: impossible evidence (P(e) = 0): b=1 "
              "(likelihood weighting: all 1000 samples had weight zero)");
  }
  // The exact engine agrees on the semantics for the same evidence.
  bn::InferenceEngine engine(net);
  EXPECT_THROW((void)engine.query(0, impossible), std::domain_error);
  EXPECT_NEAR(engine.evidence_probability(impossible), 0.0, tol::kSeries);
}

// ---- ordering quality ----

TEST(Ordering, MinFillOnChainIsWidthOne) {
  // A pure chain has induced width 1 under any sane heuristic.
  bn::BayesianNetwork net;
  const std::size_t n = 8;
  for (std::size_t i = 0; i < n; ++i)
    net.add_variable("c" + std::to_string(i), {"0", "1"});
  net.set_cpt(0, {}, {pr::Categorical({0.4, 0.6})});
  for (std::size_t i = 1; i < n; ++i)
    net.set_cpt(i, {i - 1},
                {pr::Categorical({0.8, 0.2}), pr::Categorical({0.3, 0.7})});

  const auto ord = bn::compute_elimination_order(net, {0}, {});
  EXPECT_EQ(ord.order.size(), n - 1);
  EXPECT_EQ(ord.induced_width, 1u);
  EXPECT_EQ(ord.fill_edges, 0u);

  // Deterministic: recomputation yields the identical order.
  const auto again = bn::compute_elimination_order(net, {0}, {});
  EXPECT_EQ(ord.order, again.order);
}

TEST(Ordering, EvidenceKeysLeaveTheInteractionGraph) {
  // Observing the middle of a chain splits the elimination problem.
  bn::BayesianNetwork net;
  for (std::size_t i = 0; i < 5; ++i)
    net.add_variable("c" + std::to_string(i), {"0", "1"});
  net.set_cpt(0, {}, {pr::Categorical({0.4, 0.6})});
  for (std::size_t i = 1; i < 5; ++i)
    net.set_cpt(i, {i - 1},
                {pr::Categorical({0.8, 0.2}), pr::Categorical({0.3, 0.7})});
  const auto ord = bn::compute_elimination_order(net, {0}, {2});
  // Variable 2 is evidence: it is neither eliminated nor kept.
  EXPECT_EQ(ord.order.size(), 3u);
  for (const auto v : ord.order) EXPECT_NE(v, 2u);
}

namespace {

// Each replayed step as (variable, scope, table cells).
std::vector<std::tuple<bn::VariableId, std::vector<bn::VariableId>, std::size_t>>
step_list(const std::vector<bn::EliminationStepProfile>& steps) {
  std::vector<std::tuple<bn::VariableId, std::vector<bn::VariableId>, std::size_t>> out;
  for (const auto& s : steps) out.emplace_back(s.variable, s.scope, s.table_cells);
  return out;
}

}  // namespace

TEST(Ordering, ReplaySkipsEntriesWithNothingToMerge) {
  // Chain a -> b -> c. An order entry with nothing to merge — an observed
  // or a repeated variable — must not drop the steps after it.
  bn::BayesianNetwork net;
  for (const char* name : {"a", "b", "c"}) net.add_variable(name, {"0", "1"});
  net.set_cpt(0, {}, {pr::Categorical({0.4, 0.6})});
  for (bn::VariableId v = 1; v < 3; ++v)
    net.set_cpt(v, {v - 1},
                {pr::Categorical({0.8, 0.2}), pr::Categorical({0.3, 0.7})});

  const bn::Evidence b_seen{{1, 0}};
  const auto clean = step_list(bn::simulate_elimination(net, b_seen, {0, 2}, {}));
  ASSERT_EQ(clean.size(), 2u);
  EXPECT_EQ(step_list(bn::simulate_elimination(net, b_seen, {0, 1, 2}, {})), clean);

  const auto free_clean = step_list(bn::simulate_elimination(net, {}, {0, 1, 2}, {}));
  ASSERT_EQ(free_clean.size(), 3u);
  EXPECT_EQ(step_list(bn::simulate_elimination(net, {}, {0, 0, 1, 2}, {})),
            free_clean);
}

TEST(Ordering, ReplayCellsSaturateLikeTheOrdering) {
  // 17 roots of 16 states and one binary child per pair of roots: the
  // roots' elimination clique needs 16^17 = 2^68 cells, past SIZE_MAX.
  bn::BayesianNetwork net;
  std::vector<std::string> states;
  for (std::size_t s = 0; s < 16; ++s) states.push_back("s" + std::to_string(s));
  for (bn::VariableId r = 0; r < 17; ++r) {
    net.add_variable("r" + std::to_string(r), states);
    net.set_cpt(r, {}, {pr::Categorical::uniform(16)});
  }
  for (bn::VariableId i = 0; i < 17; ++i) {
    for (bn::VariableId j = i + 1; j < 17; ++j) {
      const auto c = net.add_variable(
          "c" + std::to_string(i) + "_" + std::to_string(j), {"0", "1"});
      net.set_cpt(c, {i, j},
                  std::vector<pr::Categorical>(256, pr::Categorical::uniform(2)));
    }
  }
  ASSERT_EQ(net.size(), 153u);

  const auto ordering = bn::compute_elimination_order(net, {}, {});
  std::size_t largest = 0;
  for (const auto& step : bn::simulate_elimination(net, {}, ordering.order, {}))
    largest = std::max(largest, step.table_cells);
  EXPECT_EQ(ordering.max_table_cells, SIZE_MAX);
  EXPECT_EQ(largest, ordering.max_table_cells);
}

// ---- the network's compiled junction tree ----

namespace {

// Six basic events under AND / OR / 2-of-3 gates (e3 shared), OR top:
// every gate CPT is a 0/1 table.
sysuq::fta::CompiledNetwork small_fault_tree() {
  namespace ft = sysuq::fta;
  ft::FaultTree tree;
  std::vector<ft::NodeId> e;
  for (int i = 0; i < 6; ++i)
    e.push_back(tree.add_basic_event("e" + std::to_string(i), 0.05 + 0.03 * i));
  const auto both = tree.add_gate("both", ft::GateType::kAnd, {e[0], e[1]});
  const auto either = tree.add_gate("either", ft::GateType::kOr, {e[2], e[3]});
  const auto vote = tree.add_gate("vote", ft::GateType::kKooN, {e[3], e[4], e[5]}, 2);
  tree.set_top(tree.add_gate("top", ft::GateType::kOr, {both, either, vote}));
  return ft::compile_to_bayesnet(tree);
}

}  // namespace

TEST(EngineCompiledTree, FaultTreeWithZeroOneGatesIsExact) {
  const auto compiled = small_fault_tree();
  const auto& net = compiled.network;
  const bn::InferenceEngine engine(net, {.threads = 1});
  const bn::InferenceEngine jt(net, {.threads = 1, .backend = bn::Backend::kJunctionTree});
  const auto id = [&](const char* name) { return net.id_of(name); };

  // Consistent evidence: all_marginals runs on the compiled tree and
  // equals enumeration.
  const std::vector<bn::Evidence> consistent = {
      {},
      {{compiled.top, 1}},
      {{compiled.top, 1}, {id("e3"), 1}},
      {{compiled.top, 1}, {id("either"), 0}, {id("e0"), 1}},
      {{id("vote"), 1}, {id("e4"), 0}},
  };
  for (const auto& ev : consistent) {
    const auto all = engine.all_marginals(ev);
    for (bn::VariableId v = 0; v < net.size(); ++v) {
      if (ev.contains(v)) continue;
      const auto want = bn::enumerate_posterior(net, v, ev);
      for (std::size_t s = 0; s < want.size(); ++s)
        EXPECT_NEAR(all[v].p(s), want.p(s), tol::kTiny) << net.variable(v).name();
    }
    EXPECT_NEAR(jt.evidence_probability(ev),
                bn::enumerate_evidence_probability(net, ev), tol::kTiny);
  }

  // Evidence contradicting a gate: the unified error, and log P(e) = -inf
  // on the compiled tree and on VE.
  const bn::Evidence contradiction{{id("both"), 1}, {id("e0"), 0}};
  try {
    (void)engine.all_marginals(contradiction);
    ADD_FAILURE() << "impossible evidence did not throw";
  } catch (const std::domain_error& e) {
    EXPECT_EQ(std::string(e.what()), bn::impossible_evidence_message(net, contradiction));
  }
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(jt.log_evidence_probability(contradiction), -inf);
  EXPECT_EQ(engine.log_evidence_probability(contradiction), -inf);

  // Every variable observed: P(e) is the product of the CPT entries the
  // assignment selects.
  pr::Rng rng(53);
  for (int round = 0; round < 8; ++round) {
    const auto states = net.sample(rng);
    bn::Evidence ev;
    double want = 1.0;
    for (bn::VariableId v = 0; v < net.size(); ++v) {
      ev[v] = states[v];
      std::vector<std::size_t> parent_states;
      for (const bn::VariableId p : net.parents(v)) parent_states.push_back(states[p]);
      want *= net.cpt_row(v, parent_states).p(states[v]);
    }
    EXPECT_NEAR(jt.evidence_probability(ev), want, tol::kTiny * want);
    EXPECT_NEAR(engine.evidence_probability(ev), want, tol::kTiny * want);
    const auto all = engine.all_marginals(ev);
    for (bn::VariableId v = 0; v < net.size(); ++v) EXPECT_EQ(all[v].p(states[v]), 1.0);
  }
}

TEST(EngineCompiledTree, ZeroOneGatesLeaveDeadCells) {
  // The gates' 0/1 CPTs leave clique cells that are zero under every
  // evidence, which the calibration skips; the tree and explain() report
  // the structure's counts. A per-signature tree compiles its observed
  // states in, so the zeros of the CPTs they reduce kill cells too. A
  // strictly positive network has none.
  const auto compiled = small_fault_tree();
  const auto& net = compiled.network;
  const bn::JunctionTreeStructure structure(net, bn::compute_elimination_order(net, {}, {}));
  std::size_t cells = 0;
  for (const auto& clique : structure.cliques()) cells += std::size_t{1} << clique.size();
  EXPECT_EQ(structure.cells(), cells);
  EXPECT_EQ(structure.cells(), 56u);
  EXPECT_EQ(structure.live_cells(), 30u);
  const bn::Evidence top_failed{{compiled.top, 1}};
  const bn::JunctionTree tree(structure, top_failed);
  EXPECT_EQ(tree.cells(), structure.cells());
  EXPECT_EQ(tree.live_cells(), structure.live_cells());
  const bn::InferenceEngine jt(net, {.threads = 1, .backend = bn::Backend::kJunctionTree});
  const auto profile = jt.explain(net.id_of("e0"), top_failed);
  EXPECT_EQ(profile.cells, structure.cells());
  EXPECT_EQ(profile.live_cells, structure.live_cells());
  EXPECT_NE(profile.to_plan().find(", 30 of 56 cells live,"), std::string::npos) << profile.to_plan();

  // Under {top = 0} the reduced top gate admits only all-zero inputs: 18
  // of 48 cells stay live, and log P(e) is that of a pass over every
  // cell, bit for bit.
  const bn::JunctionTree per_signature(net, {{compiled.top, 0}});
  EXPECT_EQ(per_signature.cells(), 48u);
  EXPECT_EQ(per_signature.live_cells(), 18u);
  EXPECT_EQ(per_signature.log_evidence_probability(), -0.30595617215769311);

  pr::Rng rng(67);
  const auto positive = random_network(rng, 9);
  const bn::JunctionTreeStructure dense(positive,
                                        bn::compute_elimination_order(positive, {}, {}));
  EXPECT_GT(dense.cells(), 0u);
  EXPECT_EQ(dense.live_cells(), dense.cells());
}

TEST(EngineCompiledTree, JointlyImpossibleOmittedStatesMakeEveryCalibrationImpossible) {
  // A structure whose omitted states are impossible together, though no
  // family is impossible on its own: the compile's evidence-free collect
  // is the first to meet a zero total. Every calibration of the
  // structure, whatever spanned evidence it adds, reports log P(e) = -inf
  // and throws the impossible-evidence message from every read.
  const auto check = [](const bn::BayesianNetwork& net, const bn::Evidence& omitted,
                        const std::vector<bn::Evidence>& spanned) {
    EXPECT_EQ(bn::enumerate_evidence_probability(net, omitted), 0.0);
    const bn::JunctionTreeStructure structure(
        net, bn::compute_elimination_order(net, {}, bn::evidence_keys(omitted)), omitted);
    for (bn::Evidence ev : spanned) {
      ev.insert(omitted.begin(), omitted.end());
      const std::string msg = bn::impossible_evidence_message(net, ev);
      const auto expect_impossible = [&](const bn::JunctionTree& tree) {
        EXPECT_EQ(tree.log_evidence_probability(), -std::numeric_limits<double>::infinity());
        EXPECT_EQ(tree.evidence_probability(), 0.0);
        const auto throws_msg = [&](const std::function<void()>& read) {
          try {
            read();
            ADD_FAILURE() << "impossible evidence did not throw";
          } catch (const std::domain_error& e) {
            EXPECT_EQ(std::string(e.what()), msg);
          }
        };
        throws_msg([&] { (void)tree.all_marginals(); });
        for (bn::VariableId v = 0; v < net.size(); ++v) throws_msg([&] { (void)tree.query(v); });
      };
      expect_impossible(bn::JunctionTree(structure, ev));
      expect_impossible(bn::JunctionTree(net, ev));
    }
  };

  // b = 1 needs a = 1 and c = 1 needs a = 0; the structure spans a alone,
  // in one clique, whose compiled potential is all zero.
  bn::BayesianNetwork fork;
  const auto a = fork.add_variable("a", {"0", "1"});
  const auto b = fork.add_variable("b", {"0", "1"});
  const auto c = fork.add_variable("c", {"0", "1"});
  fork.set_cpt(a, {}, {pr::Categorical({0.5, 0.5})});
  fork.set_cpt(b, {a}, {pr::Categorical({1.0, 0.0}), pr::Categorical({0.3, 0.7})});
  fork.set_cpt(c, {a}, {pr::Categorical({0.4, 0.6}), pr::Categorical({1.0, 0.0})});
  check(fork, {{b, 1}, {c, 1}}, {{}, {{a, 1}}});

  // On the fault tree, either = 0 needs e3 = 0, and vote = 1 with e4 = 0
  // needs e3 = 1.
  const auto compiled = small_fault_tree();
  const auto& net = compiled.network;
  const auto id = [&](const char* name) { return net.id_of(name); };
  check(net, {{id("either"), 0}, {id("e4"), 0}, {id("vote"), 1}},
        {{}, {{id("e0"), 1}}, {{compiled.top, 1}, {id("e3"), 1}}});
}

TEST(EngineCompiledTree, FaultTreeSignaturesFilterTheNetworkPlan) {
  // The plan rule when the network-wide plan fits the ceiling: every
  // signature runs that plan, its observed variables get no step, and
  // explain() reports the plan's own width and fill.
  const auto compiled = small_fault_tree();
  const auto& net = compiled.network;
  const auto network = bn::compute_elimination_order(net, {}, {});
  const bn::InferenceEngine engine(net, {.threads = 1});
  const auto id = [&](const char* name) { return net.id_of(name); };
  const std::vector<bn::Evidence> signatures = {
      {{compiled.top, 1}},
      {{compiled.top, 1}, {id("e3"), 0}},
      {{compiled.top, 1}, {id("vote"), 1}, {id("e1"), 1}},
      {{compiled.top, 0}, {id("either"), 0}, {id("e5"), 0}},
  };
  for (const auto& ev : signatures) {
    std::vector<bn::VariableId> filtered;
    for (const bn::VariableId v : network.order)
      if (!ev.contains(v)) filtered.push_back(v);
    for (const bn::VariableId q : {id("both"), id("e2")}) {
      const auto profile = engine.explain(q, ev);
      ASSERT_EQ(profile.backend, "variable_elimination");
      EXPECT_EQ(profile.induced_width, network.induced_width);
      EXPECT_EQ(profile.fill_edges, network.fill_edges);
      // The top is observed, so every CPT is ancestral: VE runs the
      // filtered order minus the query.
      std::vector<bn::VariableId> want, got;
      for (const bn::VariableId v : filtered)
        if (v != q) want.push_back(v);
      for (const auto& step : profile.steps) got.push_back(step.variable);
      EXPECT_EQ(got, want);
    }
  }
}

TEST(EngineCompiledTree, AutoAllMarginalsLooksNoSignatureUp) {
  // Every assignment of {top = failed} plus one to three observed basic
  // events. Under kAuto, all_marginals calibrates the network's compiled
  // tree with no signature lookup, exactly as kJunctionTree does.
  const auto compiled = small_fault_tree();
  const auto& net = compiled.network;
  std::vector<bn::VariableId> basic;
  for (int i = 0; i < 6; ++i) basic.push_back(net.id_of("e" + std::to_string(i)));
  std::vector<bn::Evidence> assignments;
  for (unsigned observed = 1; observed < 64; ++observed) {
    if (std::popcount(observed) > 3) continue;
    for (unsigned failed = observed;; failed = (failed - 1) & observed) {
      bn::Evidence ev{{compiled.top, 1}};
      for (std::size_t i = 0; i < basic.size(); ++i)
        if ((observed >> i) & 1u) ev[basic[i]] = (failed >> i) & 1u;
      assignments.push_back(std::move(ev));
      if (failed == 0) break;
    }
  }
  ASSERT_EQ(assignments.size(), 232u);

  const bn::InferenceEngine engine(net, {.threads = 1});
  const bn::InferenceEngine jt(net, {.threads = 1, .backend = bn::Backend::kJunctionTree});
  for (const auto& ev : assignments) {
    const auto got = engine.all_marginals(ev);
    const auto want = jt.all_marginals(ev);
    for (bn::VariableId v = 0; v < net.size(); ++v)
      ASSERT_EQ(probs_of(got[v]), probs_of(want[v])) << net.variable(v).name();
  }
  EXPECT_EQ(engine.cache_stats().hits, 0u);
  EXPECT_EQ(engine.cache_stats().misses, 0u);
  EXPECT_EQ(engine.cache_stats().entries, 0u);
  EXPECT_EQ(engine.jt_cache_stats().entries, assignments.size());

  // A ceiling below the network plan's largest clique leaves no network
  // plan: kAuto looks each signature up again, runs the signatures whose
  // min-fill plans fit on trees compiled from them, and escalates the
  // rest to BP, or throws with the escalation disabled.
  const std::size_t ceiling = bn::compute_elimination_order(net, {}, {}).max_table_cells - 1;
  const bn::InferenceEngine capped(net, {.threads = 1, .max_exact_table_cells = ceiling});
  const bn::InferenceEngine strict(
      net, {.threads = 1, .max_exact_table_cells = ceiling, .enable_bp = false});
  const bn::InferenceEngine bp(net, {.threads = 1, .backend = bn::Backend::kLoopyBP});
  std::set<std::vector<bn::VariableId>> signatures;
  std::size_t escalated = 0;
  for (const auto& ev : assignments) {
    const auto keys = bn::evidence_keys(ev);
    signatures.insert(keys);
    const auto got = capped.all_marginals(ev);
    if (bn::compute_elimination_order(net, {}, keys).max_table_cells > ceiling) {
      ++escalated;
      const auto want = bp.all_marginals(ev);
      for (bn::VariableId v = 0; v < net.size(); ++v)
        ASSERT_EQ(probs_of(got[v]), probs_of(want[v])) << net.variable(v).name();
      EXPECT_THROW((void)strict.all_marginals(ev), sysuq::contracts::ContractViolation);
      continue;
    }
    const auto want = jt.all_marginals(ev);
    for (bn::VariableId v = 0; v < net.size(); ++v)
      for (std::size_t s = 0; s < want[v].size(); ++s)
        ASSERT_NEAR(got[v].p(s), want[v].p(s), tol::kTiny) << net.variable(v).name();
    EXPECT_NO_THROW((void)strict.all_marginals(ev));
  }
  EXPECT_GT(escalated, 0u);
  EXPECT_LT(escalated, assignments.size());
  EXPECT_EQ(capped.cache_stats().misses, signatures.size());
  EXPECT_EQ(capped.cache_stats().hits, assignments.size() - signatures.size());
  EXPECT_EQ(capped.cache_stats().entries, signatures.size());
}

TEST(EngineCompiledTree, HotAllMarginalsReadIsTheCalibrationBitForBit) {
  // A hot all_marginals read copies the memoized tree's marginals: 2- to
  // 4-state variables (stored inline) and 5- and 6-state ones (on the
  // heap) equal the fresh calibration's, and a JunctionTree calibrated on
  // the network plan's structure, bit for bit.
  pr::Rng rng(71);
  bn::BayesianNetwork net;
  const std::vector<std::size_t> cards{2, 5, 3, 6, 4, 2};
  for (std::size_t i = 0; i < cards.size(); ++i) {
    std::vector<std::string> states;
    for (std::size_t s = 0; s < cards[i]; ++s) states.push_back("s" + std::to_string(s));
    net.add_variable("v" + std::to_string(i), std::move(states));
  }
  for (bn::VariableId v = 0; v < cards.size(); ++v) {
    std::vector<bn::VariableId> parents;
    if (v > 0) parents.push_back(v - 1);
    if (v > 1) parents.push_back(v / 2 - 1);
    std::size_t rows = 1;
    for (const auto p : parents) rows *= cards[p];
    std::vector<pr::Categorical> cpt;
    for (std::size_t r = 0; r < rows; ++r) {
      std::vector<double> w(cards[v]);
      for (double& x : w) x = rng.uniform() + 0.05;
      cpt.push_back(pr::Categorical::normalized(w));
    }
    net.set_cpt(v, std::move(parents), std::move(cpt));
  }
  const bn::JunctionTreeStructure structure(net, bn::compute_elimination_order(net, {}, {}));
  const bn::InferenceEngine engine(net, {.threads = 1});
  for (const bn::Evidence& ev : {bn::Evidence{}, bn::Evidence{{0, 1}},
                                 bn::Evidence{{1, 4}, {5, 0}}, bn::Evidence{{3, 5}}}) {
    const auto fresh = engine.all_marginals(ev);
    const auto hits = engine.jt_cache_stats().hits;
    const auto hot = engine.all_marginals(ev);
    EXPECT_EQ(engine.jt_cache_stats().hits, hits + 1);
    const bn::JunctionTree tree(structure, ev);
    const auto& want = tree.all_marginals();
    ASSERT_EQ(fresh.size(), net.size());
    ASSERT_EQ(hot.size(), net.size());
    for (bn::VariableId v = 0; v < net.size(); ++v) {
      EXPECT_EQ(hot[v].size(), cards[v]);
      EXPECT_EQ(probs_of(hot[v]), probs_of(fresh[v])) << v;
      EXPECT_EQ(probs_of(hot[v]), probs_of(want[v])) << v;
    }
  }
}

TEST(EngineCompiledTree, RecollectedPathsKeepEveryAnswerBitForBit) {
  // A calibration recollects only the cliques on the paths from its
  // evidence's reader cliques to the root and takes every other clique's
  // message from the structure's evidence-free collect. log P(e) and
  // every marginal (flattened by variable) are pinned, bit for bit, at
  // the values a collect over every clique gives (%.17g), with the count
  // of messages taken. A strictly positive network has no impossible
  // evidence, so only the fault tree has that case.
  struct Case {
    bn::Evidence evidence;
    std::uint64_t reused;
    double log_p;
    std::vector<double> marginals;  // empty: impossible evidence
  };
  auto& reused = sysuq::obs::Registry::global().counter("bayesnet.jt.collects_reused");
  const auto check = [&](const bn::BayesianNetwork& net, const std::vector<Case>& cases) {
    const bn::JunctionTreeStructure structure(net, bn::compute_elimination_order(net, {}, {}));
    ASSERT_EQ(structure.cliques().size(), 5u);
    for (const auto& c : cases) {
      const std::uint64_t before = reused.value();
      const bn::JunctionTree tree(structure, c.evidence);
      EXPECT_EQ(reused.value() - before, sysuq::obs::metrics_enabled() ? c.reused : 0u);
      EXPECT_EQ(tree.log_evidence_probability(), c.log_p);
      if (c.marginals.empty()) {
        EXPECT_THROW((void)tree.all_marginals(), std::domain_error);
        continue;
      }
      std::vector<double> got;
      for (const auto& marginal : tree.all_marginals())
        for (const double p : marginal.probs()) got.push_back(p);
      EXPECT_EQ(got, c.marginals);
    }
  };

  // Cliques: {e0 e1 both} and {e3 either vote} under the root {both
  // either vote top}; {e2 e3 either} and {e3 e4 e5 vote} under
  // {e3 either vote}.
  const auto compiled = small_fault_tree();
  const auto& net = compiled.network;
  const auto id = [&](const char* name) { return net.id_of(name); };
  const double inf = std::numeric_limits<double>::infinity();
  check(net, {
      {{}, 4, 0,
       {0.94999999999999996, 0.050000000000000003, 0.92000000000000004, 0.080000000000000002,
        0.89000000000000001, 0.10999999999999999, 0.85999999999999999, 0.14000000000000001,
        0.83000000000000007, 0.16999999999999996, 0.79999999999999993, 0.19999999999999998,
        0.996, 0.0039999999999999992, 0.76539999999999997, 0.2346, 0.9237200000000001,
        0.076279999999999973, 0.73641889440000008, 0.26358110560000003}},
      // A leaf clique: {e3 e4 e5 vote} and its two ancestors recollect.
      {{{id("e4"), 1}}, 2, -1.7719568419318752,
       {0.94999999999999996, 0.050000000000000003, 0.92000000000000004, 0.080000000000000002,
        0.89000000000000001, 0.10999999999999999, 0.85999999999999999, 0.14000000000000001,
        0, 1, 0.80000000000000004, 0.20000000000000001, 0.996, 0.0040000000000000001,
        0.76539999999999997, 0.2346, 0.68799999999999994, 0.312, 0.60987071999999998,
        0.39012928000000002}},
      // The root clique alone.
      {{{compiled.top, 1}}, 4, -1.3333941572232522,
       {0.93934054732942895, 0.060659452670571094, 0.90967716162428902, 0.090322838375710937,
        0.58267114879269255, 0.41732885120730751, 0.46885418937251772, 0.53114581062748234,
        0.7483811388945022, 0.25161886110549786, 0.72133121821156831, 0.2786687817884318,
        0.98482440541064331, 0.015175594589356634, 0.10995137733423328, 0.89004862266576668,
        0.71060141118096909, 0.28939858881903097, 0, 1}},
      // Two leaves whose paths merge at {e3 either vote}.
      {{{id("e2"), 1}, {id("e5"), 0}}, 1, -2.4304184645039304,
       {0.94999999999999996, 0.05000000000000001, 0.92000000000000004, 0.080000000000000002,
        0, 1, 0.85999999999999999, 0.14000000000000001, 0.83000000000000007,
        0.16999999999999996, 1, 0, 0.996, 0.004000000000000001, 0, 1, 0.97619999999999996,
        0.023799999999999995, 0, 1}},
      // Each pair is possible; the zero first appears at {e3 either
      // vote}, rebuilt from its potential: either = 0 forces e3 = 0, and
      // vote = 1 then needs e4 = 1.
      {{{id("either"), 0}, {id("e4"), 0}, {id("vote"), 1}}, 1, -inf, {}},
  });
  // A structure compiled for one calibration spans no observed variable:
  // that calibration takes every message.
  const std::uint64_t before = reused.value();
  const bn::JunctionTree per_signature(net, {{compiled.top, 1}, {id("e4"), 1}});
  EXPECT_EQ(reused.value() - before,
            sysuq::obs::metrics_enabled() ? per_signature.clique_count() - 1 : 0u);

  // Cliques: the root {v4 v5 v9} has one child, {v0 v2 v4 v5 v7}, whose
  // children are {v0 v5 v7 v8} (v8 reads here) and {v0 v1 v2 v4 v5 v6},
  // whose child {v0 v1 v2 v3 v5} reads v1.
  pr::Rng rng(97);
  check(random_network(rng, 10), {
      // sysuq-lint-allow(magic-epsilon): a pinned log P(e), not a tolerance
      {{}, 4, -8.8817841970012523e-16,
       {0.076184229975947176, 0.73087085831367438, 0.19294491171037839, 0.48240666606949528,
        0.51759333393050477, 0.14283802286640473, 0.46741961980787056, 0.38974235732572465,
        0.31747568906412305, 0.39912906439216733, 0.28339524654370973, 0.50552102408268906,
        0.49447897591731094, 0.55094781502843126, 0.44905218497156874, 0.54049720823395908,
        0.45950279176604103, 0.58856078171676329, 0.41143921828323671, 0.27016403410676021,
        0.42833267025151706, 0.30150329564172262, 0.71008263944337491, 0.28991736055662509}},
      // The deepest leaf: three ancestors recollect.
      {{{1, 1}}, 1, -0.65856541468343166,
       {0.076184229975947176, 0.73087085831367438, 0.19294491171037845, 0, 1,
        0.14283802286640473, 0.46741961980787067, 0.3897423573257246, 0.3174756890641231,
        0.39912906439216722, 0.28339524654370973, 0.50552102408268917, 0.49447897591731094,
        0.52149809418224458, 0.47850190581775554, 0.49894495075164524, 0.50105504924835464,
        0.58856078171676329, 0.41143921828323676, 0.27265246413630295, 0.43195557987778371,
        0.29539195598591333, 0.71014930153906319, 0.28985069846093692}},
      {{{9, 0}}, 4, -0.34237392213776607,
       {0.071437748991004066, 0.73712070926959794, 0.19144154173939792, 0.48235807474443326,
        0.51764192525556685, 0.14337058858087298, 0.50031802556573945, 0.35631138585338762,
        0.31586686487876042, 0.40432538312967953, 0.27980775199156011, 0.5734160842133742,
        0.42658391578662569, 0.55421839185603805, 0.44578160814396189, 0.55702183145328754,
        0.4429781685467124, 0.5912569599921097, 0.40874304000789025, 0.26976836411857863,
        0.42864096870462487, 0.30159066717679656, 1, 0}},
      // The two paths merge at {v0 v2 v4 v5 v7}: every clique recollects.
      {{{1, 0}, {8, 1}}, 0, -1.5859394684198191,
       {0.061618554611239655, 0.75679882793526376, 0.18158261745349666, 1, 0,
        0.1505394991727414, 0.44802560633395383, 0.40143489449330477, 0.33731900631563783,
        0.36897667757478408, 0.29370431610957809, 0.5053754992323044, 0.49462450076769571,
        0.43900000365129266, 0.56099999634870745, 0.53774403445135255, 0.46225596554864745,
        0.60397233445109344, 0.39602766554890662, 0, 1, 0, 0.71027464881227331,
        0.28972535118772669}},
  });
}

TEST(EngineCompiledTree, ConcurrentFirstUseCompilesOnce) {
  // A fresh 4-thread engine whose first call is a batch of six groups
  // that each run on the junction tree: the workers race to the network
  // tree, which is compiled exactly once, and the answers are the
  // 1-thread engine's, byte for byte.
  pr::Rng rng(47);
  const auto net = random_network(rng, 12);
  std::vector<bn::QuerySpec> batch;
  for (std::size_t g = 0; g < 6; ++g) {
    const bn::Evidence ev{{0, g % 2}, {1 + g / 2, 0}};
    for (bn::VariableId q = 4; q < net.size(); ++q) batch.push_back({q, ev});
  }
  const auto& compiles = sysuq::obs::Registry::global().counter("bayesnet.jt.compiles");
  const std::uint64_t before = compiles.value();
  const bn::InferenceEngine pooled(net, {.threads = 4, .jt_batch_threshold = 4});
  const auto got = pooled.query_batch(batch);
  EXPECT_EQ(compiles.value() - before, sysuq::obs::metrics_enabled() ? 1u : 0u);
  EXPECT_EQ(pooled.jt_cache_stats().entries, 6u);

  const bn::InferenceEngine single(net, {.threads = 1, .jt_batch_threshold = 4});
  const auto want = single.query_batch(batch);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(probs_of(got[i]), probs_of(want[i])) << i;
}

// ---- module wiring ----

TEST(EngineWiring, FtaDiagnosisMatchesExactAnalysis) {
  sysuq::fta::FaultTree tree;
  const auto a = tree.add_basic_event("a", 0.02);
  const auto b = tree.add_basic_event("b", 0.05);
  const auto c = tree.add_basic_event("c", 0.01);
  const auto g1 =
      tree.add_gate("g1", sysuq::fta::GateType::kAnd, {a, b});
  const auto top =
      tree.add_gate("top", sysuq::fta::GateType::kOr, {g1, c});
  tree.set_top(top);

  const auto compiled = sysuq::fta::compile_to_bayesnet(tree);
  bn::InferenceEngine engine(compiled.network, {.threads = 2});
  const auto diag = sysuq::fta::diagnose_top_event(compiled, engine);

  EXPECT_NEAR(diag.top_probability, sysuq::fta::exact_top_probability(tree),
              tol::kTiny);
  // The top node, conditioned on itself failing, has posterior 1.
  EXPECT_NEAR(diag.posterior_given_top[top], 1.0, tol::kTiny);
  // Diagnosis agrees with the enumeration oracle per node.
  const bn::Evidence ev{{compiled.top, 1}};
  for (sysuq::fta::NodeId i = 0; i < tree.size(); ++i) {
    const auto oracle =
        bn::enumerate_posterior(compiled.network, compiled.node_map[i], ev);
    EXPECT_NEAR(diag.posterior_given_top[i], oracle.p(1), tol::kProbSum) << i;
  }
  // {} and {top}, and the batch's four unobserved queries on whichever
  // thread answers them, all run the network plan: no signature lookup.
  EXPECT_EQ(engine.cache_stats().misses, 0u);
  EXPECT_EQ(engine.cache_stats().hits, 0u);
  EXPECT_EQ(engine.cache_stats().entries, 0u);

  bn::BayesianNetwork other;
  other.add_variable("x", {"0", "1"});
  other.set_cpt(0, {}, {pr::Categorical({0.5, 0.5})});
  bn::InferenceEngine wrong(other);
  EXPECT_THROW((void)sysuq::fta::diagnose_top_event(compiled, wrong),
               std::invalid_argument);
}

TEST(EngineWiring, EvidentialQueriesThroughEngine) {
  namespace ev = sysuq::evidence;
  const ev::Frame frame({"safe", "unsafe"});

  // One powerset root with a mass prior; engine vs direct conversion.
  bn::BayesianNetwork net;
  const auto node = net.add_variable(ev::powerset_variable("risk", frame));
  const auto prior = ev::MassFunction(
      frame, {{frame.singleton(0), 0.6}, {frame.singleton(1), 0.3},
              {ev::FocalSet(3), 0.1}});
  net.set_cpt(node, {}, {ev::mass_to_categorical(prior)});

  bn::InferenceEngine engine(net);
  const auto interval = ev::engine_belief_plausibility(
      engine, frame, node, frame.singleton(1));
  const auto direct = prior.belief_interval(frame.singleton(1));
  EXPECT_NEAR(interval.lo(), direct.lo(), tol::kTiny);
  EXPECT_NEAR(interval.hi(), direct.hi(), tol::kTiny);

  const auto mass = ev::engine_posterior_mass(engine, frame, node);
  EXPECT_NEAR(mass.mass(ev::FocalSet(3)), 0.1, tol::kTiny);
}

TEST(EngineWiring, BnFusionMatchesNaiveBayesRule) {
  using namespace sysuq::perception;
  WorldModel model({"car", "pedestrian"}, {0.7, 0.3});
  TrueWorld world(model, {"deer"}, 0.05);
  RedundantArchitecture arch;
  arch.rule = FusionRule::kNaiveBayes;
  for (int s = 0; s < 3; ++s)
    arch.sensors.push_back(ConfusionSensor::make_default(
        /*modeled_classes=*/2, /*novel_classes=*/1, /*acc=*/0.85 + 0.03 * s,
        /*novel_none=*/0.6));

  BnFusion bn_fusion(arch, world);
  pr::Rng rng(123);
  // Compare the BN-backed decision with the closed-form naive-Bayes rule
  // across sampled encounters.
  for (int trial = 0; trial < 200; ++trial) {
    const auto enc = world.sample(rng);
    std::vector<std::size_t> labels(arch.sensors.size());
    for (std::size_t s = 0; s < arch.sensors.size(); ++s)
      labels[s] = arch.sensors[s].classify(enc.true_class, rng).label;

    const std::size_t via_bn = bn_fusion.fuse(labels);

    // Closed-form rule (mirrors fuse_bayes).
    std::vector<double> post(2);
    for (std::size_t c = 0; c < 2; ++c) {
      double v = model.priors().p(c);
      for (std::size_t s = 0; s < arch.sensors.size(); ++s)
        v *= arch.sensors[s].row(c).p(labels[s]);
      post[c] = v;
    }
    const double total = post[0] + post[1];
    std::size_t expected = 2;
    if (total > 0.0) {
      const std::size_t best = post[0] >= post[1] ? 0 : 1;
      expected = post[best] / total >= 0.5 ? best : 2;
    }
    ASSERT_EQ(via_bn, expected) << "trial " << trial;
  }
  // The fusion campaign runs the engine's one network plan and memoizes
  // no signature plan.
  const auto stats = bn_fusion.engine().cache_stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits + stats.misses, 0u);
}
