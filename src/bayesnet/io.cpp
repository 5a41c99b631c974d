#include "bayesnet/io.hpp"

#include <cstdio>
#include <sstream>

namespace sysuq::bayesnet {

std::string to_dot(const BayesianNetwork& net) {
  std::ostringstream os;
  os << "digraph bn {\n  rankdir=TB;\n  node [shape=ellipse];\n";
  for (VariableId v = 0; v < net.size(); ++v) {
    os << "  n" << v << " [label=\"" << net.variable(v).name() << "\"];\n";
  }
  for (VariableId v = 0; v < net.size(); ++v) {
    for (VariableId p : net.parents(v)) {
      os << "  n" << p << " -> n" << v << ";\n";
    }
  }
  os << "}\n";
  return os.str();
}

std::string cpt_table(const BayesianNetwork& net, VariableId child) {
  std::ostringstream os;
  const auto& var = net.variable(child);
  const auto& parents = net.parents(child);

  // Header.
  for (VariableId p : parents) os << net.variable(p).name() << " | ";
  for (std::size_t s = 0; s < var.cardinality(); ++s) {
    os << var.state_name(s) << (s + 1 < var.cardinality() ? " " : "");
  }
  os << "\n";

  const auto rows = net.cpt_rows(child);
  std::vector<std::size_t> pstate(parents.size(), 0);
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < parents.size(); ++i) {
      os << net.variable(parents[i]).state_name(pstate[i]) << " | ";
    }
    for (std::size_t s = 0; s < row.size(); ++s) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.4g", row.p(s));
      os << buf << (s + 1 < row.size() ? " " : "");
    }
    os << "\n";
    for (std::size_t k = parents.size(); k-- > 0;) {
      if (++pstate[k] < net.variable(parents[k]).cardinality()) break;
      pstate[k] = 0;
    }
  }
  return os.str();
}

std::string describe(const BayesianNetwork& net) {
  std::ostringstream os;
  std::size_t edges = 0;
  for (VariableId v = 0; v < net.size(); ++v) edges += net.parents(v).size();
  os << "BayesianNetwork: " << net.size() << " nodes, " << edges << " edges, "
     << net.parameter_count() << " free parameters\n";
  for (VariableId v = 0; v < net.size(); ++v) {
    os << "  " << net.variable(v).name() << " (" << net.variable(v).cardinality()
       << " states)";
    const auto& ps = net.parents(v);
    if (!ps.empty()) {
      os << " <-";
      for (VariableId p : ps) os << " " << net.variable(p).name();
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace sysuq::bayesnet
