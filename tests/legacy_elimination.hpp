// In-test copy of the elimination core that kernels::eliminate_scaled
// ran before bucket elimination: every step scans all live views with
// `contains`, multiplies the matches pairwise with kernels::product,
// sums the variable out with `marginalize_keep` (below), and applies the
// same rescale and zero-mass short circuit. The bucketed, fused
// executor must reproduce it bit for bit (`bit_identical`).
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "bayesnet/arena.hpp"
#include "bayesnet/factor.hpp"
#include "bayesnet/kernels.hpp"
#include "core/contracts.hpp"
#include "core/tolerance.hpp"

namespace legacy {

/// Sums out every scope variable of `f` not in `keep` (sorted, a subset
/// of the scope) into a fresh arena table, through
/// kernels::marginalize_keep_into.
inline sysuq::bayesnet::kernels::Table marginalize_keep(
    const sysuq::bayesnet::kernels::View& f, const sysuq::bayesnet::VariableId* keep,
    std::size_t nkeep, sysuq::bayesnet::Arena& arena) {
  namespace kn = sysuq::bayesnet::kernels;
  std::size_t kcards[kn::kMaxRank];
  std::size_t pos = 0;
  for (std::size_t i = 0; i < f.rank && pos < nkeep; ++i) {
    if (f.scope[i] == keep[pos]) kcards[pos++] = f.cards[i];
  }
  SYSUQ_EXPECT(pos == nkeep,
               "legacy::marginalize_keep: keep must be a sorted subset of the scope");
  kn::Table t = kn::make_table(keep, kcards, nkeep, arena);
  kn::marginalize_keep_into(f, keep, nkeep, t.values);
  return t;
}

inline sysuq::bayesnet::kernels::ScaledFactor eliminate_scaled(
    std::vector<sysuq::bayesnet::kernels::View> live,
    const std::vector<sysuq::bayesnet::VariableId>& order,
    sysuq::bayesnet::Arena& arena) {
  namespace bn = sysuq::bayesnet;
  namespace kn = sysuq::bayesnet::kernels;
  constexpr double kFloor = sysuq::tolerance::kRescaleFloor;
  double log_scale = 0.0;
  const auto rescale = [&](kn::Table& t) {
    const double mass = kn::total(t.values, t.size);
    if (!(mass > 0.0)) return false;
    if (mass < kFloor || mass > 1.0 / kFloor) {
      kn::scale(t.values, t.size, 1.0 / mass);
      log_scale += std::log(mass);
    }
    return true;
  };
  const kn::ScaledFactor impossible{bn::Factor({}, {}, {0.0}),
                                    -std::numeric_limits<double>::infinity()};

  for (const bn::VariableId v : order) {
    kn::View acc;
    bool have = false;
    std::size_t w = 0;
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (live[i].contains(v)) {
        acc = have ? kn::product(acc, live[i], arena).view() : live[i];
        have = true;
      } else {
        live[w++] = live[i];
      }
    }
    if (!have) continue;
    live.resize(w);
    std::vector<bn::VariableId> keep;
    for (std::size_t i = 0; i < acc.rank; ++i) {
      if (acc.scope[i] != v) keep.push_back(acc.scope[i]);
    }
    kn::Table m = marginalize_keep(acc, keep.data(), keep.size(), arena);
    if (!rescale(m)) return impossible;
    live.push_back(m.view());
  }

  kn::View acc = live.empty() ? kn::unit_view() : live.front();
  for (std::size_t i = 1; i < live.size(); ++i) {
    kn::Table t = kn::product(acc, live[i], arena);
    if (!rescale(t)) return impossible;
    acc = t.view();
  }
  return {bn::Factor(std::vector<bn::VariableId>(acc.scope, acc.scope + acc.rank),
                     std::vector<std::size_t>(acc.cards, acc.cards + acc.rank),
                     std::vector<double>(acc.values, acc.values + acc.size)),
          log_scale};
}

/// Equal scope, cardinalities, value bits, log_scale bits and
/// impossible() flag.
inline ::testing::AssertionResult bit_identical(
    const sysuq::bayesnet::kernels::ScaledFactor& got,
    const sysuq::bayesnet::kernels::ScaledFactor& want) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  if (got.factor.scope() != want.factor.scope() ||
      got.factor.cardinalities() != want.factor.cardinalities())
    return ::testing::AssertionFailure() << "scopes differ";
  for (std::size_t i = 0; i < got.factor.size(); ++i) {
    if (bits(got.factor.values()[i]) != bits(want.factor.values()[i]))
      return ::testing::AssertionFailure()
             << "cell " << i << ": " << got.factor.values()[i] << " vs "
             << want.factor.values()[i];
  }
  if (bits(got.log_scale) != bits(want.log_scale))
    return ::testing::AssertionFailure()
           << "log_scale " << got.log_scale << " vs " << want.log_scale;
  if (got.impossible() != want.impossible())
    return ::testing::AssertionFailure() << "impossible() differs";
  return ::testing::AssertionSuccess();
}

}  // namespace legacy
