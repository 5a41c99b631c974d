// Table I refined by a chain of noisy 4-state relay stages, the network
// of perfbench's relay_chain_ve at any length. Stage s (variable id
// 2 + s) reads the stage before it, stage 0 reads Table I's perception,
// and each copies its input's state with probability 0.91 (0.03 for
// each other state).
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "bayesnet/network.hpp"
#include "perception/table1.hpp"
#include "prob/discrete.hpp"

namespace relay {

inline sysuq::bayesnet::BayesianNetwork network(std::size_t stages) {
  auto net = sysuq::perception::table1_network();
  sysuq::bayesnet::VariableId prev = net.id_of("perception");
  for (std::size_t s = 0; s < stages; ++s) {
    const auto id = net.add_variable("stage" + std::to_string(s),
                                     {"car", "pedestrian", "ambiguous", "none"});
    std::vector<sysuq::prob::Categorical> rows;
    for (std::size_t in = 0; in < 4; ++in) {
      std::vector<double> row(4, 0.03);
      row[in] = 0.91;
      rows.push_back(sysuq::prob::Categorical::normalized(std::move(row)));
    }
    net.set_cpt(id, {prev}, std::move(rows));
    prev = id;
  }
  return net;
}

}  // namespace relay
