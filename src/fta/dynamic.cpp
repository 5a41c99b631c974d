#include "fta/dynamic.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>
#include "core/contracts.hpp"
#include "core/tolerance.hpp"

namespace sysuq::fta {

// ------------------------------------------------------------------ Ctmc

Ctmc::Ctmc(std::vector<std::vector<double>> rates) : q_(std::move(rates)) {
  if (q_.empty()) throw std::invalid_argument("Ctmc: empty");
  for (std::size_t i = 0; i < q_.size(); ++i) {
    if (q_[i].size() != q_.size())
      throw std::invalid_argument("Ctmc: non-square rate matrix");
    for (std::size_t j = 0; j < q_.size(); ++j) {
      if (i != j && q_[i][j] < 0.0)
        throw std::invalid_argument("Ctmc: negative rate");
    }
  }
}

double Ctmc::rate(std::size_t from, std::size_t to) const {
  if (from >= size() || to >= size()) throw std::out_of_range("Ctmc::rate");
  return from == to ? 0.0 : q_[from][to];
}

double Ctmc::exit_rate(std::size_t s) const {
  if (s >= size()) throw std::out_of_range("Ctmc::exit_rate");
  double total = 0.0;
  for (std::size_t j = 0; j < size(); ++j) {
    // sysuq-lint-allow(log-domain): q_ holds transition rates, not probabilities; the row sum is the exit rate
    if (j != s) total += q_[s][j];
  }
  return total;
}

std::vector<double> Ctmc::transient(const std::vector<double>& initial,
                                    double t, double tol) const {
  SYSUQ_EXPECT(initial.size() == size(), "Ctmc::transient: initial size");
  SYSUQ_EXPECT(t >= 0.0, "Ctmc::transient: negative time");
  SYSUQ_EXPECT(contracts::is_finite_nonneg(initial),
               "Ctmc::transient: negative prob");
  double isum = 0.0;
  for (double v : initial) isum += v;
  SYSUQ_EXPECT(std::fabs(isum - 1.0) <= tolerance::kProbSum,
               "Ctmc::transient: initial not normalized");
  if (t == 0.0) return initial;  // sysuq-lint-allow(float-eq): exact t = 0 fast path

  // Uniformization rate (strictly positive; add epsilon for pure-absorbing
  // chains so the DTMC is well formed).
  double q = tolerance::kTiny;
  for (std::size_t s = 0; s < size(); ++s) q = std::max(q, exit_rate(s));
  q *= 1.05;

  // Keep q*t per segment bounded so exp(-qt) stays representable.
  const double max_qt = 200.0;
  const auto segments = static_cast<std::size_t>(std::ceil(q * t / max_qt));
  if (segments > 1) {
    std::vector<double> dist = initial;
    const double seg_t = t / static_cast<double>(segments);
    for (std::size_t s = 0; s < segments; ++s) dist = transient(dist, seg_t, tol);
    return dist;
  }

  // DTMC step of the uniformized chain: v' = v * (I + Q/q).
  const auto step = [&](const std::vector<double>& v) {
    std::vector<double> out(size(), 0.0);
    for (std::size_t s = 0; s < size(); ++s) {
      if (v[s] == 0.0) continue;  // sysuq-lint-allow(float-eq): skip zero mass
      double stay = 1.0 - exit_rate(s) / q;
      out[s] += v[s] * stay;
      for (std::size_t j = 0; j < size(); ++j) {
        if (j != s && q_[s][j] > 0.0) out[j] += v[s] * q_[s][j] / q;
      }
    }
    return out;
  };

  const double qt = q * t;
  std::vector<double> v = initial;
  std::vector<double> result(size(), 0.0);
  double poisson = std::exp(-qt);  // weight of k = 0
  double cumulative = poisson;
  for (std::size_t s = 0; s < size(); ++s) result[s] += poisson * v[s];
  for (std::size_t k = 1; cumulative < 1.0 - tol; ++k) {
    v = step(v);
    poisson *= qt / static_cast<double>(k);
    cumulative += poisson;
    for (std::size_t s = 0; s < size(); ++s) result[s] += poisson * v[s];
    if (k > 100000)
      throw std::runtime_error("Ctmc::transient: uniformization overrun");
  }
  // Assign truncation remainder to the final iterate (keeps sum at 1).
  const double rem = std::max(0.0, 1.0 - cumulative);
  for (std::size_t s = 0; s < size(); ++s) result[s] += rem * v[s];
  return result;
}

// ------------------------------------------------------- DynamicFaultTree

void DynamicFaultTree::check_id(NodeId id) const {
  if (id >= nodes_.size()) throw std::out_of_range("DynamicFaultTree: node id");
}

DynamicFaultTree::NodeId DynamicFaultTree::add_basic_event(
    const std::string& name, double lambda) {
  SYSUQ_EXPECT(!name.empty(), "DynamicFaultTree: empty name");
  SYSUQ_EXPECT(lambda > 0.0, "DynamicFaultTree: rate must be > 0");
  for (const auto& n : nodes_) {
    if (n.name == name)
      throw std::invalid_argument("DynamicFaultTree: duplicate '" + name + "'");
  }
  Node n;
  n.name = name;
  n.is_basic = true;
  n.lambda = lambda;
  nodes_.push_back(std::move(n));
  return nodes_.size() - 1;
}

DynamicFaultTree::NodeId DynamicFaultTree::add_gate(
    const std::string& name, DynGateType type, std::vector<NodeId> children,
    std::size_t k, double dormancy) {
  SYSUQ_EXPECT(!name.empty(), "DynamicFaultTree: empty name");
  for (const auto& n : nodes_) {
    if (n.name == name)
      throw std::invalid_argument("DynamicFaultTree: duplicate '" + name + "'");
  }
  SYSUQ_EXPECT(!children.empty(), "DynamicFaultTree: gate with no children");
  for (NodeId c : children) check_id(c);
  SYSUQ_EXPECT(type != DynGateType::kKooN || (k >= 1 && k <= children.size()),
               "DynamicFaultTree: bad KooN k");
  if (type == DynGateType::kPand || type == DynGateType::kSpare) {
    if (children.size() < 2)
      throw std::invalid_argument("DynamicFaultTree: PAND/SPARE need >= 2 inputs");
    for (NodeId c : children) {
      if (!nodes_[c].is_basic)
        throw std::invalid_argument(
            "DynamicFaultTree: PAND/SPARE inputs must be basic events");
    }
  }
  if (type == DynGateType::kSpare) {
    SYSUQ_EXPECT(contracts::is_probability(dormancy),
                 "DynamicFaultTree: dormancy outside [0, 1]");
    // An event may belong to at most one spare gate.
    for (const auto& n : nodes_) {
      if (n.is_basic || n.type != DynGateType::kSpare) continue;
      for (NodeId c : children) {
        if (std::find(n.children.begin(), n.children.end(), c) !=
            n.children.end())
          throw std::invalid_argument(
              "DynamicFaultTree: event in multiple SPARE gates");
      }
    }
  }
  Node n;
  n.name = name;
  n.is_basic = false;
  n.type = type;
  n.children = std::move(children);
  n.k = k;
  n.dormancy = dormancy;
  nodes_.push_back(std::move(n));
  return nodes_.size() - 1;
}

void DynamicFaultTree::set_top(NodeId id) {
  check_id(id);
  top_ = id;
}

std::size_t DynamicFaultTree::basic_event_count() const {
  std::size_t n = 0;
  for (const auto& node : nodes_) n += node.is_basic ? 1 : 0;
  return n;
}

DynamicFaultTree::NodeId DynamicFaultTree::id_of(const std::string& name) const {
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].name == name) return i;
  }
  throw std::invalid_argument("DynamicFaultTree: no node '" + name + "'");
}

std::vector<DynamicFaultTree::NodeId> DynamicFaultTree::basic_events() const {
  std::vector<NodeId> out;
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].is_basic) out.push_back(i);
  }
  return out;
}

bool DynamicFaultTree::evaluate(std::uint32_t failed_mask,
                                std::uint32_t pand_violated,
                                const std::vector<NodeId>& events) const {
  // Position of each basic event in the mask.
  std::unordered_map<NodeId, std::size_t> pos;
  for (std::size_t i = 0; i < events.size(); ++i) pos[events[i]] = i;
  const auto event_failed = [&](NodeId e) {
    return ((failed_mask >> pos.at(e)) & 1u) != 0;
  };

  std::vector<bool> value(nodes_.size(), false);
  std::size_t pand_index = 0;
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    const auto& n = nodes_[i];
    if (n.is_basic) {
      value[i] = event_failed(i);
      continue;
    }
    std::size_t failed = 0;
    for (NodeId c : n.children) failed += value[c] ? 1 : 0;
    switch (n.type) {
      case DynGateType::kAnd:
        value[i] = failed == n.children.size();
        break;
      case DynGateType::kOr:
        value[i] = failed >= 1;
        break;
      case DynGateType::kKooN:
        value[i] = failed >= n.k;
        break;
      case DynGateType::kPand: {
        const bool violated = ((pand_violated >> pand_index) & 1u) != 0;
        value[i] = failed == n.children.size() && !violated;
        ++pand_index;
        break;
      }
      case DynGateType::kSpare:
        value[i] = failed == n.children.size();
        break;
    }
  }
  return value[top_];
}

DynamicFaultTree::Compiled DynamicFaultTree::compile() const {
  if (top_ == SIZE_MAX)
    throw std::logic_error("DynamicFaultTree: top event not set");
  const auto events = basic_events();
  if (events.empty() || events.size() > 20)
    throw std::logic_error("DynamicFaultTree: need 1..20 basic events");

  std::unordered_map<NodeId, std::size_t> pos;
  for (std::size_t i = 0; i < events.size(); ++i) pos[events[i]] = i;

  // PAND gates in evaluation order; SPARE membership per event.
  std::vector<const Node*> pands;
  struct SpareInfo {
    const Node* gate;
    std::size_t position;  // index within the gate's child chain
  };
  std::unordered_map<NodeId, SpareInfo> spare_of;
  for (const auto& n : nodes_) {
    if (n.is_basic) continue;
    if (n.type == DynGateType::kPand) pands.push_back(&n);
    if (n.type == DynGateType::kSpare) {
      for (std::size_t j = 0; j < n.children.size(); ++j)
        spare_of[n.children[j]] = SpareInfo{&n, j};
    }
  }
  if (pands.size() > 12)
    throw std::logic_error("DynamicFaultTree: too many PAND gates");

  // State key: failed_mask | (pand_violated << n_events).
  const std::size_t n = events.size();
  const auto key_of = [n](std::uint32_t failed, std::uint32_t violated) {
    return (static_cast<std::uint64_t>(violated) << n) | failed;
  };

  std::unordered_map<std::uint64_t, std::size_t> index;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> states;  // (failed, viol)
  std::vector<std::vector<std::pair<std::size_t, double>>> transitions;

  const auto intern = [&](std::uint32_t failed, std::uint32_t violated) {
    const auto key = key_of(failed, violated);
    const auto it = index.find(key);
    if (it != index.end()) return it->second;
    const std::size_t id = states.size();
    index.emplace(key, id);
    states.emplace_back(failed, violated);
    transitions.emplace_back();
    return id;
  };

  // Failure rate of event e in a given macro state (0 = cannot fail now).
  const auto rate_of = [&](NodeId e, std::uint32_t failed) {
    const double lambda = nodes_[e].lambda;
    const auto it = spare_of.find(e);
    if (it == spare_of.end()) return lambda;
    // Within a SPARE chain: units before the active one are failed; the
    // active unit runs at full rate; later spares are dormant.
    const auto& chain = it->second.gate->children;
    std::size_t active = chain.size();
    for (std::size_t j = 0; j < chain.size(); ++j) {
      if (((failed >> pos.at(chain[j])) & 1u) == 0) {
        active = j;
        break;
      }
    }
    if (it->second.position == active) return lambda;
    if (it->second.position > active) return it->second.gate->dormancy * lambda;
    return 0.0;  // already failed; unreachable here
  };

  (void)intern(0, 0);
  for (std::size_t s = 0; s < states.size(); ++s) {
    const auto [failed, violated] = states[s];
    for (std::size_t i = 0; i < n; ++i) {
      if ((failed >> i) & 1u) continue;
      const NodeId e = events[i];
      const double rate = rate_of(e, failed);
      if (!(rate > 0.0)) continue;
      const std::uint32_t nfailed = failed | (1u << i);
      std::uint32_t nviol = violated;
      for (std::size_t g = 0; g < pands.size(); ++g) {
        const auto& ch = pands[g]->children;
        const auto at = std::find(ch.begin(), ch.end(), e);
        if (at == ch.end()) continue;
        // Order violated if any left sibling is still operational.
        for (auto left = ch.begin(); left != at; ++left) {
          if (((failed >> pos.at(*left)) & 1u) == 0) {
            nviol |= (1u << g);
            break;
          }
        }
      }
      const std::size_t target = intern(nfailed, nviol);
      transitions[s].emplace_back(target, rate);
    }
  }

  std::vector<std::vector<double>> q(states.size(),
                                     std::vector<double>(states.size(), 0.0));
  for (std::size_t s = 0; s < states.size(); ++s) {
    for (const auto& [t, r] : transitions[s]) q[s][t] += r;
  }

  Compiled out{Ctmc(std::move(q)), std::vector<double>(states.size(), 0.0), {}};
  out.initial[0] = 1.0;
  out.failed_state.reserve(states.size());
  for (const auto& [failed, violated] : states)
    out.failed_state.push_back(evaluate(failed, violated, events));
  return out;
}

double DynamicFaultTree::unreliability(double t) const {
  return unreliability_curve({t})[0];
}

std::vector<double> DynamicFaultTree::unreliability_curve(
    const std::vector<double>& times) const {
  const auto compiled = compile();
  std::vector<double> out;
  out.reserve(times.size());
  for (const double t : times) {
    const auto dist = compiled.chain.transient(compiled.initial, t);
    double p = 0.0;
    for (std::size_t s = 0; s < dist.size(); ++s) {
      // sysuq-lint-allow(log-domain): a masked sum over the failed states of a transient that is itself accurate only to its truncation tolerance
      if (compiled.failed_state[s]) p += dist[s];
    }
    out.push_back(p);
  }
  return out;
}

std::size_t DynamicFaultTree::compiled_state_count() const {
  return compile().chain.size();
}

}  // namespace sysuq::fta
