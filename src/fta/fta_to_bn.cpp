#include "fta/fta_to_bn.hpp"

#include <stdexcept>

#include "bayesnet/kernels.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace sysuq::fta {

CompiledNetwork compile_to_bayesnet(const FaultTree& tree) {
  tree.validate();
  CompiledNetwork out;
  out.node_map.resize(tree.size());

  for (NodeId i = 0; i < tree.size(); ++i) {
    out.node_map[i] =
        out.network.add_variable(tree.name(i), {"ok", "failed"});
  }

  for (NodeId i = 0; i < tree.size(); ++i) {
    const auto bn_id = out.node_map[i];
    if (tree.is_basic_event(i)) {
      const double p = tree.probability(i);
      out.network.set_cpt(bn_id, {},
                          {prob::Categorical({1.0 - p, p})});
      continue;
    }
    const auto& ch = tree.children(i);
    std::vector<bayesnet::VariableId> parents;
    parents.reserve(ch.size());
    for (NodeId c : ch) parents.push_back(out.node_map[c]);

    const std::vector<std::size_t> cards(ch.size(), 2);
    const std::size_t rows = bayesnet::kernels::checked_table_size(
        cards.data(), cards.size(),
        "compile_to_bayesnet: gate row count overflows size_t");
    std::vector<prob::Categorical> cpt;
    cpt.reserve(rows);
    for (std::size_t cfg = 0; cfg < rows; ++cfg) {
      // Bit b of cfg is child b's state with the LAST parent varying
      // fastest: child j corresponds to bit (n - 1 - j); state 1 = failed.
      std::size_t failed = 0;
      for (std::size_t j = 0; j < ch.size(); ++j) {
        failed += (cfg >> (ch.size() - 1 - j)) & 1u;
      }
      bool fires = false;
      switch (tree.gate_type(i)) {
        case GateType::kAnd: fires = failed == ch.size(); break;
        case GateType::kOr: fires = failed >= 1; break;
        case GateType::kKooN: fires = failed >= tree.koon_k(i); break;
        case GateType::kNot: fires = failed == 0; break;
      }
      cpt.push_back(prob::Categorical::delta(fires ? 1 : 0, 2));
    }
    out.network.set_cpt(bn_id, std::move(parents), std::move(cpt));
  }

  out.top = out.node_map[tree.top()];
  return out;
}

TopEventDiagnosis diagnose_top_event(const CompiledNetwork& compiled,
                                     bayesnet::InferenceEngine& engine) {
  if (&engine.network() != &compiled.network)
    throw std::invalid_argument(
        "diagnose_top_event: engine not built over compiled.network");

  auto& registry = obs::Registry::global();
  const obs::Span span("fta.diagnose_top_event");
  const obs::HistogramTimer timer(
      registry.histogram("fta.diagnosis.seconds", obs::seconds_buckets()));
  registry.counter("fta.diagnosis.runs").inc();

  TopEventDiagnosis out;
  out.top_probability = engine.query(compiled.top).p(1);

  const bayesnet::Evidence top_failed{{compiled.top, 1}};
  std::vector<bayesnet::QuerySpec> batch;
  batch.reserve(compiled.node_map.size());
  for (bayesnet::VariableId id : compiled.node_map)
    batch.push_back({id, top_failed});

  const auto posteriors = engine.query_batch(batch);
  out.posterior_given_top.reserve(posteriors.size());
  for (const auto& p : posteriors) out.posterior_given_top.push_back(p.p(1));
  return out;
}

}  // namespace sysuq::fta
