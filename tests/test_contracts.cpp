// Tests for the contracts layer (src/core/contracts.hpp): violation
// reporting in kThrow mode, silence in kOff mode, and the probability
// predicates shared by every module's entry-point checks.

#include "core/contracts.hpp"

#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "bayesnet/network.hpp"
#include "core/tolerance.hpp"
#include "evidence/frame.hpp"
#include "evidence/mass.hpp"
#include "prob/discrete.hpp"

namespace tol = sysuq::tolerance;

namespace sysuq {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

using Probs = std::vector<double>;

// Restores the enforcement mode even when an assertion fails mid-test.
class ModeGuard {
 public:
  explicit ModeGuard(contracts::Mode m) : saved_(contracts::mode()) {
    contracts::set_mode(m);
  }
  ~ModeGuard() { contracts::set_mode(saved_); }

 private:
  contracts::Mode saved_;
};

TEST(Contracts, DefaultModeIsThrowAndEnforced) {
  EXPECT_EQ(contracts::mode(), contracts::Mode::kThrow);
  EXPECT_TRUE(contracts::enforced());
}

TEST(Contracts, ViolationIsInvalidArgumentAndLogicError) {
  // Callers that documented std::invalid_argument / std::logic_error
  // before the contracts refactor must keep catching violations.
  try {
    contracts::fail("precondition", "p >= 0", "test: negative mass");
    FAIL() << "fail() must throw in kThrow mode";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("test: negative mass"), std::string::npos);
    EXPECT_NE(what.find("precondition"), std::string::npos);
    EXPECT_NE(what.find("p >= 0"), std::string::npos);
  }
  EXPECT_THROW(
      contracts::fail("precondition", "x", "m"), std::logic_error);
  EXPECT_THROW(
      contracts::fail("precondition", "x", "m"), contracts::ContractViolation);
}

TEST(Contracts, OffModeSilencesFailAndMacros) {
  ModeGuard guard(contracts::Mode::kOff);
  EXPECT_FALSE(contracts::enforced());
  EXPECT_NO_THROW(contracts::fail("precondition", "x", "m"));
  EXPECT_NO_THROW(SYSUQ_EXPECT(false, "never reported"));
  EXPECT_NO_THROW(SYSUQ_ENSURE(false, "never reported"));
  EXPECT_NO_THROW(SYSUQ_ASSERT_PROB(-1.0, "never reported"));
}

TEST(Contracts, OffModeDoesNotEvaluateTheCondition) {
  ModeGuard guard(contracts::Mode::kOff);
  int evaluations = 0;
  SYSUQ_EXPECT((++evaluations, false), "side effect");
  EXPECT_EQ(evaluations, 0);
}

TEST(Contracts, ProbabilityPredicate) {
  EXPECT_TRUE(contracts::is_probability(0.0));
  EXPECT_TRUE(contracts::is_probability(1.0));
  EXPECT_TRUE(contracts::is_probability(0.5));
  EXPECT_FALSE(contracts::is_probability(-0.1));
  EXPECT_FALSE(contracts::is_probability(1.1));
  EXPECT_FALSE(contracts::is_probability(kNaN));
  EXPECT_FALSE(contracts::is_probability(kInf));
}

TEST(Contracts, FiniteNonnegPredicate) {
  EXPECT_TRUE(contracts::is_finite_nonneg(Probs{0.0, 2.5, 1e6}));
  EXPECT_FALSE(contracts::is_finite_nonneg(Probs{0.5, -tol::kTiny}));
  EXPECT_FALSE(contracts::is_finite_nonneg(Probs{0.5, kNaN}));
  EXPECT_FALSE(contracts::is_finite_nonneg(Probs{0.5, kInf}));
}

TEST(Contracts, NormalizedPredicateUsesSharedEpsilon) {
  EXPECT_TRUE(contracts::is_normalized(Probs{0.25, 0.75}));
  EXPECT_TRUE(contracts::is_normalized(Probs{0.25 + 0.5 * tolerance::kProbSum, 0.75}));
  EXPECT_FALSE(contracts::is_normalized(Probs{0.25 + 10.0 * tolerance::kProbSum, 0.75}));
  EXPECT_FALSE(contracts::is_normalized({}));
  EXPECT_FALSE(contracts::is_normalized(Probs{0.5, 0.6}));
}

// --- Violations through real entry points -----------------------------

TEST(Contracts, CategoricalRejectsBadProbabilitiesThroughSpanAndVector) {
  // Inline (2 states) and heap (5 states) sizes, through both the span
  // and the vector entry points of the constructor and `normalized`.
  ModeGuard guard(contracts::Mode::kThrow);
  const std::vector<Probs> bad{{},
                               {-0.25, 1.25},
                               {kNaN, 1.0},
                               {kInf, 1.0},
                               {0.5, 0.6},
                               {-0.2, 0.3, 0.3, 0.3, 0.3},
                               {kNaN, 0.25, 0.25, 0.25, 0.25},
                               {kInf, 0.0, 0.0, 0.0, 0.0},
                               {0.3, 0.3, 0.3, 0.3, 0.3}};
  for (const auto& p : bad) {
    EXPECT_THROW((void)prob::Categorical(p), contracts::ContractViolation) << p.size();
    EXPECT_THROW((void)prob::Categorical(std::span<const double>(p)),
                 contracts::ContractViolation)
        << p.size();
  }
  // `normalized` takes unnormalized weights; it rejects the other four
  // kinds, and all-zero weights.
  const std::vector<Probs> bad_weights{{},
                                       {-0.25, 1.25},
                                       {kNaN, 1.0},
                                       {kInf, 1.0},
                                       {0.0, 0.0},
                                       {-0.2, 0.3, 0.3, 0.3, 0.3},
                                       {kNaN, 1.0, 1.0, 1.0, 1.0},
                                       {kInf, 0.0, 0.0, 0.0, 0.0},
                                       {0.0, 0.0, 0.0, 0.0, 0.0}};
  for (const auto& w : bad_weights) {
    EXPECT_THROW((void)prob::Categorical::normalized(w), contracts::ContractViolation)
        << w.size();
    EXPECT_THROW((void)prob::Categorical::normalized(std::span<const double>(w)),
                 contracts::ContractViolation)
        << w.size();
  }
  EXPECT_NO_THROW((void)prob::Categorical::normalized(Probs{0.3, 0.3, 0.3, 0.3, 0.3}));
  EXPECT_NO_THROW((void)prob::Categorical(std::span<const double>(Probs{0.2, 0.2, 0.2, 0.2, 0.2})));
}

TEST(Contracts, NaNPriorThrows) {
  EXPECT_THROW(prob::Categorical({kNaN, 1.0}), contracts::ContractViolation);
}

TEST(Contracts, NegativeMassThrows) {
  EXPECT_THROW(prob::Categorical({-0.25, 1.25}), contracts::ContractViolation);
  evidence::Frame frame({"a", "b"});
  EXPECT_THROW(
      evidence::MassFunction(frame, {{frame.singleton(0), -0.1},
                                     {frame.theta(), 1.1}}),
      contracts::ContractViolation);
}

TEST(Contracts, DenormalizedCptRowThrows) {
  bayesnet::BayesianNetwork net;
  const auto x = net.add_variable("x", {"t", "f"});
  EXPECT_THROW(
      net.set_cpt(x, {}, {prob::Categorical({0.7, 0.7})}),
      contracts::ContractViolation);
}

TEST(Contracts, ViolatingInputsPassInOffMode) {
  ModeGuard guard(contracts::Mode::kOff);
  // With checks off the library trusts the caller; construction succeeds.
  EXPECT_NO_THROW(prob::Categorical({0.5, 0.6}));
}

TEST(Contracts, WeightSumOverflowRejected) {
  // Latent bug fixed by the sweep: two finite weights whose sum
  // overflows to +inf used to produce a NaN/zero distribution.
  const double huge = std::numeric_limits<double>::max();
  EXPECT_THROW(prob::Categorical::normalized({huge, huge}),
               contracts::ContractViolation);
}

TEST(Contracts, AllZeroWeightsRejected) {
  EXPECT_THROW(prob::Categorical::normalized({0.0, 0.0}),
               contracts::ContractViolation);
}

}  // namespace
}  // namespace sysuq
