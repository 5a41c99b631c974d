// Quickstart: the paper's Table I example in ~40 lines.
//
// Builds the Fig. 4 perception Bayesian network, queries it exactly, and
// decomposes the uncertainty a safety engineer faces into the paper's
// three types.
#include <cstdio>

#include "bayesnet/engine.hpp"
#include "bayesnet/io.hpp"
#include "sys/decomposition.hpp"
#include "perception/table1.hpp"

int main() {
  using namespace sysuq;

  // 1. The paper's network: ground_truth -> perception, Sec. V priors
  //    (0.6 / 0.3 / 0.1) and the Table I CPT.
  const auto net = perception::table1_network();
  std::puts(bayesnet::describe(net).c_str());
  std::puts(bayesnet::cpt_table(net, 1).c_str());

  // 2. Exact inference: what does the chain output, marginally?
  const bayesnet::InferenceEngine engine(net);
  const auto output = engine.query(net.id_of("perception"));
  std::printf("P(perception): car=%.4f ped=%.4f car/ped=%.4f none=%.4f\n\n",
              output.p(0), output.p(1), output.p(2), output.p(3));

  // 3. Diagnosis: the chain reported nothing — what is out there?
  const bayesnet::Evidence none{{net.id_of("perception"), perception::kPercNone}};
  const auto posterior = engine.query(net.id_of("ground_truth"), none);
  std::printf("P(ground_truth | none): car=%.3f ped=%.3f unknown=%.3f\n",
              posterior.p(0), posterior.p(1), posterior.p(2));
  std::printf("-> most likely explanation: %s (ontological state surfaced)\n\n",
              net.variable(0).state_name(posterior.argmax()).c_str());

  // 4. The surprise factor (Sec. III.C): conditional entropy between the
  //    model's prediction and the system.
  const auto joint = engine.joint(1, 0);
  std::printf("surprise factor H(truth | perception) = %.4f nats "
              "(normalized %.3f)\n\n",
              sys::surprise_factor(joint), sys::normalized_surprise(joint));

  // 5. Uncertainty budget for the ambiguous car/pedestrian output state.
  const bayesnet::Evidence cp{{net.id_of("perception"),
                               perception::kPercCarPedestrian}};
  const auto amb = engine.query(net.id_of("ground_truth"), cp);
  const auto budget = sys::decompose({amb}, /*ontological_mass=*/amb.p(2));
  std::printf("given 'car/pedestrian': aleatory=%.3f nats, ontological "
              "mass=%.3f -> dominant: %s\n",
              budget.aleatory, budget.ontological, budget.dominant().c_str());
  return 0;
}
