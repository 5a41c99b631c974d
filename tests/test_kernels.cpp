// Kernel differential tests (label: kernels): the flat strided kernels
// (bayesnet/kernels) and the arena they allocate from are pinned against
// an in-test copy of the legacy mixed-radix factor algebra over
// randomized scopes (cardinalities 2-6), evidence reductions (one
// variable and whole assignments) and scaled elimination, and the
// bucketed elimination executor against an in-test copy of the
// live-scan core it replaced, bit for bit, and kernels::walk's merged
// runs against the odometer they replaced. Also carries the hard throws
// that guard an index (checked with contracts off) and the
// factor-algebra bug-sweep regressions: checked table-size overflow in
// the Factor constructor and pairwise (cascade) summation in
// Factor::total().
//
// Seeded via SYSUQ_DIFFERENTIAL_SEED like the differential suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bayesnet/arena.hpp"
#include "bayesnet/factor.hpp"
#include "bayesnet/kernels.hpp"
#include "core/contracts.hpp"
#include "prob/rng.hpp"
#include "core/tolerance.hpp"
#include "tests/legacy_elimination.hpp"

namespace tol = sysuq::tolerance;

namespace bn = sysuq::bayesnet;
namespace kn = sysuq::bayesnet::kernels;
namespace pr = sysuq::prob;

namespace {

std::uint64_t differential_seed() {
  if (const char* env = std::getenv("SYSUQ_DIFFERENTIAL_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20260805ULL;
}

// ---- legacy mixed-radix reference algebra ----
//
// A faithful copy of the pre-kernel Factor implementation: per-cell
// mixed-radix counters and bounds-checked at() lookups. The kernels
// must reproduce it exactly (product/reduce) or to summation-order
// tolerance (multi-variable marginalize).

bn::Factor ref_product(const bn::Factor& a, const bn::Factor& b) {
  std::vector<bn::VariableId> merged;
  std::vector<std::size_t> merged_cards;
  {
    std::size_t i = 0, j = 0;
    while (i < a.scope().size() || j < b.scope().size()) {
      if (j == b.scope().size() ||
          (i < a.scope().size() && a.scope()[i] < b.scope()[j])) {
        merged.push_back(a.scope()[i]);
        merged_cards.push_back(a.cardinalities()[i]);
        ++i;
      } else if (i == a.scope().size() || b.scope()[j] < a.scope()[i]) {
        merged.push_back(b.scope()[j]);
        merged_cards.push_back(b.cardinalities()[j]);
        ++j;
      } else {
        merged.push_back(a.scope()[i]);
        merged_cards.push_back(a.cardinalities()[i]);
        ++i;
        ++j;
      }
    }
  }
  std::vector<std::size_t> map_a(merged.size(), SIZE_MAX),
      map_b(merged.size(), SIZE_MAX);
  for (std::size_t k = 0; k < merged.size(); ++k) {
    const auto ia =
        std::lower_bound(a.scope().begin(), a.scope().end(), merged[k]);
    if (ia != a.scope().end() && *ia == merged[k])
      map_a[k] = static_cast<std::size_t>(ia - a.scope().begin());
    const auto ib =
        std::lower_bound(b.scope().begin(), b.scope().end(), merged[k]);
    if (ib != b.scope().end() && *ib == merged[k])
      map_b[k] = static_cast<std::size_t>(ib - b.scope().begin());
  }
  std::size_t total_size = 1;
  for (std::size_t c : merged_cards) total_size *= c;
  std::vector<double> out(total_size);
  std::vector<std::size_t> assign(merged.size(), 0);
  std::vector<std::size_t> sa(a.scope().size(), 0), sb(b.scope().size(), 0);
  for (std::size_t flat = 0; flat < total_size; ++flat) {
    for (std::size_t k = 0; k < merged.size(); ++k) {
      if (map_a[k] != SIZE_MAX) sa[map_a[k]] = assign[k];
      if (map_b[k] != SIZE_MAX) sb[map_b[k]] = assign[k];
    }
    out[flat] = a.at(sa) * b.at(sb);
    for (std::size_t k = merged.size(); k-- > 0;) {
      if (++assign[k] < merged_cards[k]) break;
      assign[k] = 0;
    }
  }
  return bn::Factor(std::move(merged), std::move(merged_cards), std::move(out));
}

bn::Factor ref_marginalize(const bn::Factor& f, bn::VariableId v) {
  const auto it = std::lower_bound(f.scope().begin(), f.scope().end(), v);
  const auto pos = static_cast<std::size_t>(it - f.scope().begin());
  std::vector<bn::VariableId> new_scope;
  std::vector<std::size_t> new_cards;
  for (std::size_t i = 0; i < f.scope().size(); ++i) {
    if (i == pos) continue;
    new_scope.push_back(f.scope()[i]);
    new_cards.push_back(f.cardinalities()[i]);
  }
  std::size_t new_size = 1;
  for (std::size_t c : new_cards) new_size *= c;
  std::vector<double> out(new_size, 0.0);
  std::vector<std::size_t> assign(f.scope().size(), 0);
  for (std::size_t flat = 0; flat < f.size(); ++flat) {
    std::size_t nidx = 0;
    for (std::size_t i = 0; i < f.scope().size(); ++i) {
      if (i == pos) continue;
      nidx = nidx * f.cardinalities()[i] + assign[i];
    }
    out[nidx] += f.values()[flat];
    for (std::size_t k = f.scope().size(); k-- > 0;) {
      if (++assign[k] < f.cardinalities()[k]) break;
      assign[k] = 0;
    }
  }
  return bn::Factor(std::move(new_scope), std::move(new_cards), std::move(out));
}

bn::Factor ref_reduce(const bn::Factor& f, bn::VariableId v, std::size_t state) {
  const auto it = std::lower_bound(f.scope().begin(), f.scope().end(), v);
  const auto pos = static_cast<std::size_t>(it - f.scope().begin());
  std::vector<bn::VariableId> new_scope;
  std::vector<std::size_t> new_cards;
  for (std::size_t i = 0; i < f.scope().size(); ++i) {
    if (i == pos) continue;
    new_scope.push_back(f.scope()[i]);
    new_cards.push_back(f.cardinalities()[i]);
  }
  std::size_t new_size = 1;
  for (std::size_t c : new_cards) new_size *= c;
  std::vector<double> out(new_size, 0.0);
  std::vector<std::size_t> assign(f.scope().size(), 0);
  for (std::size_t flat = 0; flat < f.size(); ++flat) {
    if (assign[pos] == state) {
      std::size_t nidx = 0;
      for (std::size_t i = 0; i < f.scope().size(); ++i) {
        if (i == pos) continue;
        nidx = nidx * f.cardinalities()[i] + assign[i];
      }
      out[nidx] = f.values()[flat];
    }
    for (std::size_t k = f.scope().size(); k-- > 0;) {
      if (++assign[k] < f.cardinalities()[k]) break;
      assign[k] = 0;
    }
  }
  return bn::Factor(std::move(new_scope), std::move(new_cards), std::move(out));
}

// ---- random factor generation ----
//
// One shared cardinality table per test run keeps shared variables
// consistent across factors, as the kernels' merge contract requires.

struct Universe {
  std::vector<std::size_t> cards;  // per VariableId, 2..6 states
};

Universe random_universe(pr::Rng& rng, std::size_t nvars) {
  Universe u;
  u.cards.reserve(nvars);
  for (std::size_t i = 0; i < nvars; ++i)
    u.cards.push_back(2 + rng.uniform_index(5));
  return u;
}

bn::Factor random_factor(pr::Rng& rng, const Universe& u, std::size_t rank,
                         bool with_zeros = false) {
  std::vector<bn::VariableId> ids(u.cards.size());
  std::iota(ids.begin(), ids.end(), 0);
  for (std::size_t i = 0; i < rank; ++i) {
    const std::size_t j = i + rng.uniform_index(ids.size() - i);
    std::swap(ids[i], ids[j]);
  }
  ids.resize(rank);
  std::sort(ids.begin(), ids.end());
  std::vector<std::size_t> cards;
  cards.reserve(rank);
  std::size_t size = 1;
  for (const bn::VariableId v : ids) {
    cards.push_back(u.cards[v]);
    size *= u.cards[v];
  }
  std::vector<double> values(size);
  for (double& x : values) {
    x = (with_zeros && rng.bernoulli(0.15)) ? 0.0 : rng.uniform() + 0.05;
  }
  return bn::Factor(std::move(ids), std::move(cards), std::move(values));
}

void expect_factors_equal(const bn::Factor& got, const bn::Factor& want,
                          double tol = 0.0) {
  ASSERT_EQ(got.scope(), want.scope());
  ASSERT_EQ(got.cardinalities(), want.cardinalities());
  ASSERT_EQ(got.values().size(), want.values().size());
  for (std::size_t i = 0; i < got.values().size(); ++i) {
    if (tol == 0.0) {
      EXPECT_DOUBLE_EQ(got.values()[i], want.values()[i]) << "cell " << i;
    } else {
      EXPECT_NEAR(got.values()[i], want.values()[i],
                  tol * std::max(1.0, std::abs(want.values()[i])))
          << "cell " << i;
    }
  }
}

}  // namespace

// ---- strided kernels vs the legacy mixed-radix algebra ----

TEST(Kernels, WalkVisitsLikeTheOneDimensionOdometer) {
  // kernels::walk merges the dimensions a source stores contiguously
  // into plain inner loops; it must visit the same (x, j) pairs in the
  // same order as the former odometer, which moved one dimension at a
  // time. Sources: sub-tables of a random table (contiguous runs, the
  // others strided), with some dimensions missing (stride 0) and some
  // transposed, so every merge case and its breaks occur.
  pr::Rng rng(differential_seed());
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t rank = rng.uniform_index(7);
    std::vector<std::size_t> cards(rank), strides(rank);
    for (auto& c : cards) c = 1 + rng.uniform_index(4);
    // The source: the walked dimensions in a random order, plus extra
    // dimensions around them, last fastest.
    std::vector<std::size_t> layout(rank);
    std::iota(layout.begin(), layout.end(), std::size_t{0});
    if (rank > 1 && rng.bernoulli(0.3)) std::swap(layout[0], layout[rng.uniform_index(rank)]);
    std::size_t stride = 1 + rng.uniform_index(2);
    for (std::size_t k = rank; k-- > 0;) {
      const std::size_t d = layout[k];
      if (rng.bernoulli(0.2)) {
        strides[d] = 0;
        continue;
      }
      strides[d] = stride;
      stride *= cards[d] * (rng.bernoulli(0.2) ? 2 : 1);
    }
    const std::size_t base = rng.uniform_index(5);
    std::vector<std::pair<std::size_t, std::size_t>> got, want;
    kn::walk(cards.data(), strides.data(), rank, base,
             [&](std::size_t x, std::size_t j) { got.emplace_back(x, j); });
    std::vector<std::size_t> idx(rank, 0);
    std::size_t size = 1;
    for (const std::size_t c : cards) size *= c;
    for (std::size_t x = 0, j = base; x < size; ++x) {
      want.emplace_back(x, j);
      for (std::size_t d = rank; d-- > 0;) {
        j += strides[d];
        if (++idx[d] < cards[d]) break;
        j -= strides[d] * cards[d];
        idx[d] = 0;
      }
    }
    ASSERT_EQ(got, want) << "trial " << trial << " rank " << rank;
  }
}

TEST(Kernels, ProductMatchesLegacyOverRandomScopes) {
  pr::Rng rng(differential_seed());
  for (int round = 0; round < 200; ++round) {
    const Universe u = random_universe(rng, 6);
    const bn::Factor a =
        random_factor(rng, u, rng.uniform_index(4), /*with_zeros=*/true);
    const bn::Factor b =
        random_factor(rng, u, 1 + rng.uniform_index(3), /*with_zeros=*/true);
    expect_factors_equal(a.product(b), ref_product(a, b));
  }
}

TEST(Kernels, ProductIsExactWithContractsOff) {
  // Mode::kOff skips every contract condition; the product's stride
  // tables must still be built.
  const auto saved = sysuq::contracts::mode();
  sysuq::contracts::set_mode(sysuq::contracts::Mode::kOff);
  pr::Rng rng(differential_seed() + 8);
  for (int round = 0; round < 50; ++round) {
    const Universe u = random_universe(rng, 6);
    const bn::Factor a = random_factor(rng, u, rng.uniform_index(4));
    const bn::Factor b = random_factor(rng, u, 1 + rng.uniform_index(3));
    expect_factors_equal(a.product(b), ref_product(a, b));
  }
  sysuq::contracts::set_mode(saved);
}

TEST(Kernels, MarginalizeMatchesLegacyOverRandomScopes) {
  pr::Rng rng(differential_seed() + 1);
  for (int round = 0; round < 200; ++round) {
    const Universe u = random_universe(rng, 6);
    const std::size_t rank = 1 + rng.uniform_index(4);
    const bn::Factor f = random_factor(rng, u, rank);
    const bn::VariableId v = f.scope()[rng.uniform_index(rank)];
    expect_factors_equal(f.marginalize(v), ref_marginalize(f, v));
  }
}

TEST(Kernels, ReduceMatchesLegacyOverRandomEvidence) {
  pr::Rng rng(differential_seed() + 2);
  for (int round = 0; round < 200; ++round) {
    const Universe u = random_universe(rng, 6);
    const std::size_t rank = 1 + rng.uniform_index(4);
    const bn::Factor f = random_factor(rng, u, rank, /*with_zeros=*/true);
    const std::size_t pos = rng.uniform_index(rank);
    const bn::VariableId v = f.scope()[pos];
    const std::size_t state = rng.uniform_index(f.cardinalities()[pos]);
    expect_factors_equal(f.reduce(v, state), ref_reduce(f, v, state));
  }

  // The assignment form, in an arena and owning, against ref_reduce one
  // variable at a time: factors of rank 0-5 over 2-4 states, and
  // assignments that observe members of the scope, variables off it, or
  // every member (a rank-0 table), value for value.
  std::size_t off_scope = 0, whole = 0;
  for (int round = 0; round < 400; ++round) {
    bn::Arena arena(1024);
    Universe u;
    for (int i = 0; i < 7; ++i) u.cards.push_back(2 + rng.uniform_index(3));
    const bn::Factor f = random_factor(rng, u, rng.uniform_index(6), /*with_zeros=*/true);
    const double p = round % 5 == 0 ? 1.0 : 0.4;
    bn::Evidence ev;
    for (bn::VariableId v = 0; v < u.cards.size(); ++v)
      if (rng.bernoulli(p)) ev[v] = rng.uniform_index(u.cards[v]);
    bn::Factor want = f;
    for (const auto& [v, state] : ev) {
      if (want.contains(v)) want = ref_reduce(want, v, state);
      else if (!f.contains(v)) ++off_scope;
    }
    if (!f.scope().empty() && want.scope().empty()) ++whole;
    expect_factors_equal(f.reduce(ev), want);
    const kn::View got = kn::reduce(kn::view_of(f), ev, arena);
    ASSERT_EQ(std::vector<bn::VariableId>(got.scope, got.scope + got.rank), want.scope());
    ASSERT_EQ(std::vector<std::size_t>(got.cards, got.cards + got.rank), want.cardinalities());
    ASSERT_EQ(std::vector<double>(got.values, got.values + got.size), want.values())
        << "round " << round;
  }
  EXPECT_GT(off_scope, 0u);
  EXPECT_GT(whole, 0u);
}

TEST(Kernels, ReduceWithNoMemberObservedReturnsTheInputView) {
  // Evidence that observes no member of the scope (none at all, or only
  // variables off it) leaves the table as it is: the call returns the
  // view it was given and allocates nothing.
  const bn::Factor f({1, 3}, {2, 3}, {0.1, 0.2, 0.3, 0.4, 0.5, 0.6});
  const kn::View in = kn::view_of(f);
  bn::Arena arena;
  for (const bn::Evidence& ev : {bn::Evidence{}, bn::Evidence{{0, 1}, {2, 0}, {4, 5}}}) {
    const kn::View got = kn::reduce(in, ev, arena);
    EXPECT_EQ(got.values, in.values);
    EXPECT_EQ(got.scope, in.scope);
    EXPECT_EQ(got.rank, in.rank);
    EXPECT_EQ(arena.bytes_used(), 0u);
    EXPECT_EQ(f.reduce(ev).values(), f.values());
  }
  // A rank-0 table is never reduced.
  const bn::Factor scalar = bn::Factor::unit();
  EXPECT_EQ(kn::reduce(kn::view_of(scalar), {{0, 0}}, arena).values, scalar.values().data());
  EXPECT_EQ(arena.bytes_used(), 0u);
}

TEST(Kernels, ReduceRejectsAStatePastItsCardinalityInEveryBuildMode) {
  // A hard throw, not a contract: with contracts off the reduction would
  // otherwise read past the table.
  const auto saved = sysuq::contracts::mode();
  sysuq::contracts::set_mode(sysuq::contracts::Mode::kOff);
  const bn::Factor f({1, 3}, {2, 3}, {0.1, 0.2, 0.3, 0.4, 0.5, 0.6});
  const kn::View view = kn::view_of(f);
  bn::Arena arena;
  EXPECT_THROW((void)kn::reduce(view, {{3, 3}}, arena), std::out_of_range);
  EXPECT_THROW((void)kn::reduce(view, {{1, 0}, {3, 7}}, arena), std::out_of_range);
  EXPECT_THROW((void)kn::reduce(view, 1, 2, arena), std::out_of_range);
  EXPECT_THROW((void)f.reduce(bn::Evidence{{1, 2}}), std::out_of_range);
  EXPECT_THROW((void)f.reduce(3, 3), std::out_of_range);
  // The one-observation forms reject a variable off the scope.
  EXPECT_THROW((void)kn::reduce(view, 2, 0, arena), std::invalid_argument);
  EXPECT_THROW((void)f.reduce(2, 0), std::invalid_argument);
  sysuq::contracts::set_mode(saved);
}

TEST(Kernels, ProductRejectsACardinalityMismatchInEveryBuildMode) {
  // merge_scopes' check is a hard throw: with contracts off the product
  // would otherwise size its table by one operand and index past the
  // other.
  const auto saved = sysuq::contracts::mode();
  sysuq::contracts::set_mode(sysuq::contracts::Mode::kOff);
  const bn::Factor a({0, 1}, {2, 2}, {0.1, 0.2, 0.3, 0.4});
  const bn::Factor b({1, 2}, {3, 2}, {0.1, 0.2, 0.3, 0.4, 0.5, 0.6});
  bn::Arena arena;
  EXPECT_THROW((void)kn::product(kn::view_of(a), kn::view_of(b), arena), std::invalid_argument);
  EXPECT_THROW((void)a.product(b), std::invalid_argument);
  sysuq::contracts::set_mode(saved);
}

TEST(Kernels, MultiVariableMarginalizeMatchesRepeatedSingle) {
  pr::Rng rng(differential_seed() + 3);
  bn::Arena arena;
  for (int round = 0; round < 100; ++round) {
    arena.reset();
    const Universe u = random_universe(rng, 6);
    const std::size_t rank = 2 + rng.uniform_index(3);
    const bn::Factor f = random_factor(rng, u, rank);
    // Keep a random (possibly empty) subset of the scope.
    std::vector<bn::VariableId> keep, drop;
    for (const bn::VariableId v : f.scope()) {
      (rng.bernoulli(0.5) ? keep : drop).push_back(v);
    }
    bn::Factor want = f;
    for (const bn::VariableId v : drop) want = ref_marginalize(want, v);

    const kn::Table got =
        legacy::marginalize_keep(kn::view_of(f), keep.data(), keep.size(), arena);
    ASSERT_EQ(got.size, want.size());
    for (std::size_t i = 0; i < got.size; ++i) {
      EXPECT_NEAR(got.values[i], want.values()[i],
                  tol::kTiny * std::max(1.0, want.values()[i]));
    }
  }
}

TEST(Kernels, ProductIsCommutativeAndUnitIsIdentity) {
  pr::Rng rng(differential_seed() + 4);
  bn::Arena arena;
  for (int round = 0; round < 50; ++round) {
    arena.reset();
    const Universe u = random_universe(rng, 5);
    const bn::Factor a = random_factor(rng, u, 1 + rng.uniform_index(3));
    const bn::Factor b = random_factor(rng, u, 1 + rng.uniform_index(3));
    expect_factors_equal(a.product(b), b.product(a));

    const kn::Table viaUnit =
        kn::product(kn::view_of(a), kn::unit_view(), arena);
    ASSERT_EQ(viaUnit.size, a.size());
    for (std::size_t i = 0; i < viaUnit.size; ++i)
      EXPECT_DOUBLE_EQ(viaUnit.values[i], a.values()[i]);
  }
}

// ---- scaled elimination ----

TEST(Kernels, EliminateLinearMatchesLegacyEliminateWithOrder) {
  pr::Rng rng(differential_seed() + 7);
  bn::Arena arena;
  for (int round = 0; round < 50; ++round) {
    arena.reset();
    const Universe u = random_universe(rng, 6);
    std::vector<bn::Factor> factors;
    const std::size_t nf = 2 + rng.uniform_index(4);
    for (std::size_t i = 0; i < nf; ++i)
      factors.push_back(random_factor(rng, u, 1 + rng.uniform_index(3)));
    // Eliminate a random subset of the union scope.
    std::vector<bn::VariableId> order;
    for (bn::VariableId v = 0; v < u.cards.size(); ++v) {
      if (rng.bernoulli(0.6)) order.push_back(v);
    }

    // Reference: legacy optional-slot fold over the same order.
    bn::Factor want = bn::Factor::unit();
    {
      std::vector<bn::Factor> live = factors;
      for (const bn::VariableId v : order) {
        std::vector<bn::Factor> next;
        bn::Factor acc = bn::Factor::unit();
        bool have = false;
        for (const bn::Factor& f : live) {
          if (f.contains(v)) {
            acc = have ? ref_product(acc, f) : f;
            have = true;
          } else {
            next.push_back(f);
          }
        }
        if (have) next.push_back(ref_marginalize(acc, v));
        live = std::move(next);
      }
      for (const bn::Factor& f : live) want = ref_product(want, f);
    }

    std::vector<kn::View> views;
    for (const bn::Factor& f : factors) views.push_back(kn::view_of(f));
    const kn::ScaledFactor scaled =
        kn::eliminate_scaled(std::move(views), order, arena);
    // Ordinary magnitudes: no rescale may fire, so the scaled result is
    // the plain linear elimination.
    EXPECT_EQ(scaled.log_scale, 0.0);
    const bn::Factor& got = scaled.factor;
    ASSERT_EQ(got.scope(), want.scope());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got.values()[i], want.values()[i],
                  tol::kTiny * std::max(1.0, want.values()[i]));
    }
  }
}

TEST(Kernels, EliminateScaledMatchesLegacyScanBitForBit) {
  // The bucketed, fused executor against the live-scan core it replaced
  // (legacy_elimination.hpp), bit for bit: the inputs of the test above,
  // plus order entries that repeat or name no factor, scalar inputs,
  // orders that eliminate a whole scope (rank-0 messages) and buckets
  // past the fused step's operand array.
  pr::Rng rng(differential_seed() + 8);
  bn::Arena arena;
  for (int round = 0; round < 200; ++round) {
    arena.reset();
    const bool crowded = round % 4 == 3;  // many factors over few variables
    const Universe u = random_universe(rng, crowded ? 3 : 6);
    std::vector<bn::Factor> factors;
    const std::size_t nf = crowded ? 9 + rng.uniform_index(6) : 2 + rng.uniform_index(4);
    for (std::size_t i = 0; i < nf; ++i) {
      const std::size_t rank = rng.bernoulli(0.1) ? 0 : 1 + rng.uniform_index(3);
      factors.push_back(random_factor(rng, u, rank, /*with_zeros=*/round % 2 == 1));
    }
    std::vector<bn::VariableId> order;
    const bool whole = round % 3 == 0;
    for (bn::VariableId v = 0; v < u.cards.size(); ++v) {
      if (whole || rng.bernoulli(0.6)) order.push_back(v);
    }
    for (std::size_t i = 0; i < order.size(); ++i) {
      const std::size_t j = i + rng.uniform_index(order.size() - i);
      std::swap(order[i], order[j]);
    }
    if (!order.empty() && rng.bernoulli(0.5))  // a repeated entry
      order.insert(order.begin() + static_cast<std::ptrdiff_t>(rng.uniform_index(order.size() + 1)),
                   order[rng.uniform_index(order.size())]);
    if (rng.bernoulli(0.5))  // an entry no factor holds
      order.insert(order.begin() + static_cast<std::ptrdiff_t>(rng.uniform_index(order.size() + 1)),
                   u.cards.size() + rng.uniform_index(3));

    std::vector<kn::View> views;
    for (const bn::Factor& f : factors) views.push_back(kn::view_of(f));
    const kn::ScaledFactor want = legacy::eliminate_scaled(views, order, arena);
    const kn::ScaledFactor got = kn::eliminate_scaled(std::move(views), order, arena);
    ASSERT_TRUE(legacy::bit_identical(got, want)) << "round " << round;
  }
}

TEST(Kernels, EliminateScaledSurvivesDeepUnderflow) {
  // 250 chained binary factors with constant mass 1e-2 per cell: the
  // linear total is 2^251 * 1e-500, far below the smallest double. The
  // scaled path must keep log P finite and match the analytic value.
  const std::size_t n = 250;
  std::vector<bn::Factor> factors;
  factors.emplace_back(std::vector<bn::VariableId>{0},
                       std::vector<std::size_t>{2},
                       std::vector<double>{1e-2, 1e-2});
  for (bn::VariableId v = 0; v + 1 < n; ++v) {
    factors.emplace_back(std::vector<bn::VariableId>{v, v + 1},
                         std::vector<std::size_t>{2, 2},
                         std::vector<double>(4, 1e-2));
  }
  std::vector<bn::VariableId> order(n);
  std::iota(order.begin(), order.end(), 0);

  bn::Arena arena;
  std::vector<kn::View> views;
  for (const bn::Factor& f : factors) views.push_back(kn::view_of(f));
  const kn::ScaledFactor want = legacy::eliminate_scaled(views, order, arena);
  const kn::ScaledFactor scaled =
      kn::eliminate_scaled(std::move(views), order, arena);
  ASSERT_FALSE(scaled.impossible());
  // log P = sum over 2^n assignments: n factors of 1e-2 per assignment.
  const double expected =
      static_cast<double>(n) * std::log(2.0) + static_cast<double>(n) * std::log(1e-2);
  EXPECT_NEAR(scaled.log_total(), expected, 1e-6 * std::abs(expected));
  // A rescale fired, and the bucketed executor fires it identically.
  EXPECT_LT(scaled.log_scale, 0.0);
  EXPECT_TRUE(legacy::bit_identical(scaled, want));
}

TEST(Kernels, EliminateScaledShortCircuitsGenuineZeroMass) {
  // P(v0) = {1, 0} times an indicator on v0 = 1: genuinely impossible.
  std::vector<bn::Factor> factors;
  factors.emplace_back(std::vector<bn::VariableId>{0},
                       std::vector<std::size_t>{2},
                       std::vector<double>{1.0, 0.0});
  factors.emplace_back(std::vector<bn::VariableId>{0},
                       std::vector<std::size_t>{2},
                       std::vector<double>{0.0, 1.0});
  bn::Arena arena;
  std::vector<kn::View> views;
  for (const bn::Factor& f : factors) views.push_back(kn::view_of(f));
  const kn::ScaledFactor want = legacy::eliminate_scaled(views, {0}, arena);
  const kn::ScaledFactor scaled =
      kn::eliminate_scaled(std::move(views), {0}, arena);
  EXPECT_TRUE(scaled.impossible());
  EXPECT_EQ(scaled.log_total(), -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(legacy::bit_identical(scaled, want));
}

// ---- arena ----

TEST(Arena, AllocationsAreAlignedAndDisjoint) {
  bn::Arena arena(128);
  char* c = arena.alloc<char>(3);
  double* d = arena.alloc<double>(4);
  std::int32_t* i = arena.alloc<std::int32_t>(2);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d) % alignof(double), 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(i) % alignof(std::int32_t), 0u);
  // Writes through one pointer must not alias another allocation.
  std::fill(c, c + 3, 'x');
  std::fill(d, d + 4, 1.5);
  std::fill(i, i + 2, 7);
  EXPECT_EQ(c[2], 'x');
  EXPECT_EQ(d[3], 1.5);
  EXPECT_EQ(i[1], 7);
  EXPECT_GE(arena.bytes_used(), 3 + 4 * sizeof(double) + 2 * sizeof(std::int32_t));
}

TEST(Arena, GrowsAcrossChunksAndResetKeepsLargest) {
  bn::Arena arena(64);
  // Force several chunk additions.
  for (int round = 0; round < 6; ++round) {
    double* p = arena.alloc<double>(100);
    std::fill(p, p + 100, static_cast<double>(round));
    EXPECT_EQ(p[99], static_cast<double>(round));
  }
  const std::size_t grown_capacity = arena.bytes_capacity();
  EXPECT_GE(grown_capacity, 6 * 100 * sizeof(double));
  arena.reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  EXPECT_LE(arena.bytes_capacity(), grown_capacity);
  EXPECT_GT(arena.bytes_capacity(), 0u);
  // Steady state: after at most one more growth rep (reset keeps only
  // the single largest chunk, which may be smaller than the workload's
  // total), the retained chunk absorbs the whole workload and the
  // capacity stops changing.
  for (int rep = 0; rep < 2; ++rep) {
    arena.reset();
    for (int round = 0; round < 6; ++round) (void)arena.alloc<double>(100);
  }
  const std::size_t steady = arena.bytes_capacity();
  for (int rep = 0; rep < 3; ++rep) {
    arena.reset();
    for (int round = 0; round < 6; ++round) (void)arena.alloc<double>(100);
  }
  EXPECT_EQ(arena.bytes_capacity(), steady);
}

TEST(Arena, OverflowingElementCountViolatesContract) {
  // A hard throw in every build mode, not a ContractViolation.
  bn::Arena arena;
  EXPECT_THROW((void)arena.alloc<double>(SIZE_MAX / 2), std::invalid_argument);
}

// ---- bug-sweep regressions ----

TEST(KernelsRegression, CheckedMultiplyDetectsOverflow) {
  EXPECT_FALSE(kn::mul_overflows(0, SIZE_MAX));
  EXPECT_FALSE(kn::mul_overflows(SIZE_MAX, 1));
  EXPECT_TRUE(kn::mul_overflows(SIZE_MAX, 2));
  EXPECT_TRUE(kn::mul_overflows(SIZE_MAX / 2 + 1, 2));
  const std::size_t huge[] = {std::size_t{1} << 32, std::size_t{1} << 32};
  EXPECT_THROW((void)kn::checked_table_size(huge, 2, "test"), std::invalid_argument);
}

TEST(KernelsRegression, FactorConstructorRejectsOverflowingCardinalities) {
  // Pre-fix, 2^32 * 2^32 wrapped std::size_t to 0 and the constructor
  // accepted an empty value vector for an impossibly large table.
  EXPECT_THROW(bn::Factor({0, 1},
                          {std::size_t{1} << 32, std::size_t{1} << 32}, {}),
               std::invalid_argument);
}

TEST(KernelsRegression, PairwiseTotalRecoversMassANaiveFoldLoses) {
  // One huge cell followed by 65535 units: a naive left fold adds each
  // 1.0 into 1e16 and rounds it away entirely; pairwise summation sums
  // the units first.
  std::vector<double> values(65536, 1.0);
  values[0] = 1e16;
  const double naive = std::accumulate(values.begin(), values.end(), 0.0);
  EXPECT_EQ(naive, 1e16);  // the legacy accumulation bug
  const bn::Factor f({0}, {65536}, std::move(values));
  // The pairwise base case (32 naive adds) still loses the ~31 units
  // sharing a block with the huge cell; everything else is recovered.
  EXPECT_NEAR(f.total(), 1e16 + 65535.0, 64.0);
}

TEST(KernelsRegression, PairwiseTotalMatchesExactSumOnSmallFactors) {
  pr::Rng rng(differential_seed() + 8);
  for (int round = 0; round < 50; ++round) {
    const Universe u = random_universe(rng, 5);
    const bn::Factor f = random_factor(rng, u, 1 + rng.uniform_index(4));
    long double exact = 0.0L;
    for (const double v : f.values()) exact += v;
    EXPECT_NEAR(f.total(), static_cast<double>(exact), tol::kFixpoint);
  }
}
