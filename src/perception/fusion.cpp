#include "perception/fusion.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

// sysuq-lint-allow(layering): Dempster-Shafer fusion deliberately maps
// sensor reports onto evidence-theory mass functions; this is the one
// sanctioned perception -> evidence edge (both sit on layer 3).
#include "evidence/mass.hpp"
#include "core/contracts.hpp"
#include "obs/registry.hpp"

namespace sysuq::perception {

namespace {

struct FusionMetricsInstruments {
  obs::Counter& posterior_queries;
  obs::Counter& abstentions;

  static FusionMetricsInstruments& instance() {
    auto& registry = obs::Registry::global();
    static FusionMetricsInstruments m{
        registry.counter("perception.fusion.posterior_queries"),
        registry.counter("perception.fusion.abstentions")};
    return m;
  }
};

std::size_t fuse_majority(const std::vector<std::size_t>& labels,
                          std::size_t none_label) {
  std::map<std::size_t, std::size_t> votes;
  for (std::size_t l : labels) ++votes[l];
  std::size_t best = none_label, best_count = 0;
  bool tie = false;
  for (const auto& [label, count] : votes) {
    if (count > best_count) {
      best = label;
      best_count = count;
      tie = false;
    } else if (count == best_count) {
      tie = true;
    }
  }
  return tie ? none_label : best;
}

std::size_t fuse_bayes(const RedundantArchitecture& arch,
                       const TrueWorld& world,
                       const std::vector<std::size_t>& labels) {
  // Posterior over the developer's modeled classes given each sensor's
  // hard output, assuming conditional independence (naive Bayes).
  const auto& priors = world.modeled().priors();
  const std::size_t k = arch.sensors[0].modeled_classes();
  std::vector<double> post(k);
  for (std::size_t c = 0; c < k; ++c) {
    double v = priors.p(c);
    for (std::size_t s = 0; s < arch.sensors.size(); ++s)
      v *= arch.sensors[s].row(c).p(labels[s]);
    post[c] = v;
  }
  double total = 0.0;
  for (double v : post) total += v;
  if (!(total > 0.0)) return k;  // outputs jointly impossible -> none
  const auto best = static_cast<std::size_t>(
      std::max_element(post.begin(), post.end()) - post.begin());
  // Require a decisive posterior; otherwise abstain (none).
  return post[best] / total >= 0.5 ? best : k;
}

std::size_t fuse_dempster(const RedundantArchitecture& arch,
                          const std::vector<std::size_t>& labels) {
  const std::size_t k = arch.sensors[0].modeled_classes();
  // Frame = modeled classes plus an explicit "nothing" hypothesis.
  std::vector<std::string> names;
  for (std::size_t c = 0; c < k; ++c) names.push_back("c" + std::to_string(c));
  names.push_back("none");
  const evidence::Frame frame(names);

  evidence::MassFunction fused = evidence::MassFunction::vacuous(frame);
  for (std::size_t s = 0; s < arch.sensors.size(); ++s) {
    const std::size_t label = labels[s];
    const std::size_t hyp = label;  // label k maps to the "none" hypothesis
    auto m = evidence::MassFunction::simple_support(frame, frame.singleton(hyp),
                                                    1.0 - arch.discount);
    fused = evidence::dempster_combine(fused, m);
  }
  // Decide by maximum pignistic probability; abstain if "none" wins or
  // the winner is not decisive.
  const auto pig = fused.pignistic();
  const std::size_t best = pig.argmax();
  if (best == k) return k;
  return pig.p(best) >= 0.5 ? best : k;
}

}  // namespace

FusionOutcome fuse_once(const RedundantArchitecture& arch,
                        const TrueWorld& world, const Encounter& encounter,
                        prob::Rng& rng) {
  // A hard throw, not a contract: compiled out, sensors[0] would read
  // past the end.
  if (arch.sensors.empty()) throw std::invalid_argument("fuse_once: no sensors");
  const std::size_t k = arch.sensors[0].modeled_classes();
  for (const auto& s : arch.sensors) {
    SYSUQ_EXPECT(s.modeled_classes() == k, "fuse_once: sensor shape mismatch");
  }
  SYSUQ_ASSERT_PROB(arch.common_cause_rate, "fuse_once: common_cause_rate");

  std::vector<std::size_t> labels(arch.sensors.size());
  if (arch.common_cause_rate > 0.0 && rng.bernoulli(arch.common_cause_rate)) {
    // Common cause: every channel replays the same draw from sensor 0 —
    // diversity is defeated (shared-parent node in the paper's BN terms).
    const std::size_t shared =
        arch.sensors[0].classify(encounter.true_class, rng).label;
    std::fill(labels.begin(), labels.end(), shared);
  } else {
    for (std::size_t s = 0; s < arch.sensors.size(); ++s)
      labels[s] = arch.sensors[s].classify(encounter.true_class, rng).label;
  }

  std::size_t fused = k;
  switch (arch.rule) {
    case FusionRule::kMajorityVote: fused = fuse_majority(labels, k); break;
    case FusionRule::kNaiveBayes: fused = fuse_bayes(arch, world, labels); break;
    case FusionRule::kDempster: fused = fuse_dempster(arch, labels); break;
  }

  FusionOutcome out{};
  out.fused_label = fused;
  if (encounter.modeled) {
    out.correct = fused == encounter.true_class;
    out.hazardous = fused != encounter.true_class && fused != k;
  } else {
    out.correct = false;  // no correct label exists for a novel object
    out.hazardous = fused != k;  // claiming to know an unknown object
  }
  return out;
}

BnFusion::BnFusion(const RedundantArchitecture& arch, const TrueWorld& world) {
  if (arch.sensors.empty()) throw std::invalid_argument("BnFusion: no sensors");
  classes_ = arch.sensors[0].modeled_classes();
  sensors_ = arch.sensors.size();
  for (const auto& s : arch.sensors) {
    SYSUQ_EXPECT(s.modeled_classes() == classes_,
                 "BnFusion: sensor shape mismatch");
  }
  const WorldModel& model = world.modeled();
  SYSUQ_EXPECT(model.class_count() == classes_,
               "BnFusion: world/sensor class mismatch");

  std::vector<std::string> truth_states;
  for (std::size_t c = 0; c < classes_; ++c)
    truth_states.push_back(model.class_name(c));
  truth_ = net_.add_variable("ground_truth", truth_states);

  std::vector<std::string> output_states = truth_states;
  output_states.push_back("none");
  for (std::size_t s = 0; s < sensors_; ++s) {
    const auto id = net_.add_variable("sensor" + std::to_string(s),
                                      output_states);
    std::vector<prob::Categorical> rows;
    rows.reserve(classes_);
    for (std::size_t c = 0; c < classes_; ++c)
      rows.push_back(arch.sensors[s].row(c));
    net_.set_cpt(id, {truth_}, std::move(rows));
    sensor_nodes_.push_back(id);
  }
  net_.set_cpt(truth_, {}, {model.priors()});
  engine_ = std::make_unique<bayesnet::InferenceEngine>(net_);
}

prob::Categorical BnFusion::posterior(
    const std::vector<std::size_t>& labels) const {
  FusionMetricsInstruments::instance().posterior_queries.inc();
  if (labels.size() != sensors_)
    throw contracts::ContractViolation(
        "BnFusion::posterior: label count mismatch");
  bayesnet::Evidence evidence;
  for (std::size_t s = 0; s < sensors_; ++s) {
    if (labels[s] > classes_)  // 0..k-1 class, k = none
      throw std::out_of_range("BnFusion::posterior: label out of range");
    evidence[sensor_nodes_[s]] = labels[s];
  }
  return engine_->query(truth_, evidence);
}

std::size_t BnFusion::fuse(const std::vector<std::size_t>& labels) const {
  auto& metrics = FusionMetricsInstruments::instance();
  try {
    const auto post = posterior(labels);
    const std::size_t best = post.argmax();
    if (post.p(best) >= 0.5) return best;
    metrics.abstentions.inc();
    return classes_;
  } catch (const std::domain_error&) {
    metrics.abstentions.inc();
    return classes_;  // jointly impossible outputs -> abstain
  }
}

FusionMetrics simulate_fusion(const RedundantArchitecture& arch,
                              const TrueWorld& world, std::size_t n,
                              prob::Rng& rng) {
  SYSUQ_EXPECT(n != 0, "simulate_fusion: n == 0");
  FusionMetrics m{};
  m.encounters = n;
  std::size_t modeled = 0, correct = 0, hazard = 0, none = 0;
  std::size_t novel = 0, caught = 0;
  const std::size_t k = arch.sensors.at(0).modeled_classes();
  for (std::size_t i = 0; i < n; ++i) {
    const auto enc = world.sample(rng);
    const auto out = fuse_once(arch, world, enc, rng);
    if (enc.modeled) {
      ++modeled;
      correct += out.correct ? 1 : 0;
    } else {
      ++novel;
      caught += (out.fused_label == k) ? 1 : 0;
    }
    hazard += out.hazardous ? 1 : 0;
    none += (out.fused_label == k) ? 1 : 0;
  }
  m.accuracy = modeled > 0 ? static_cast<double>(correct) / modeled : 0.0;
  m.hazard_rate = static_cast<double>(hazard) / n;
  m.none_rate = static_cast<double>(none) / n;
  m.novel_caught = novel > 0 ? static_cast<double>(caught) / novel : 1.0;
  return m;
}

}  // namespace sysuq::perception
