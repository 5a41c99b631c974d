#include "fta/fault_tree.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>
#include "core/contracts.hpp"

namespace sysuq::fta {

const char* gate_type_name(GateType t) {
  switch (t) {
    case GateType::kAnd: return "AND";
    case GateType::kOr: return "OR";
    case GateType::kKooN: return "KooN";
    case GateType::kNot: return "NOT";
  }
  return "?";
}

void FaultTree::check_id(NodeId id) const {
  if (id >= nodes_.size()) throw std::out_of_range("FaultTree: bad node id");
}

NodeId FaultTree::add_basic_event(const std::string& name, double probability) {
  SYSUQ_EXPECT(!name.empty(), "FaultTree: empty name");
  SYSUQ_EXPECT(contracts::is_probability(probability),
               "FaultTree: probability outside [0, 1]");
  for (const auto& n : nodes_) {
    if (n.name == name)
      throw std::invalid_argument("FaultTree: duplicate name '" + name + "'");
  }
  Node n;
  n.name = name;
  n.is_basic = true;
  n.probability = probability;
  nodes_.push_back(std::move(n));
  return nodes_.size() - 1;
}

NodeId FaultTree::add_gate(const std::string& name, GateType type,
                           std::vector<NodeId> children, std::size_t k) {
  SYSUQ_EXPECT(!name.empty(), "FaultTree: empty name");
  for (const auto& n : nodes_) {
    if (n.name == name)
      throw std::invalid_argument("FaultTree: duplicate name '" + name + "'");
  }
  // The gate's shape is checked in every build mode: evaluation reads a
  // NOT gate's first child, and the cut-set expansion indexes k of the
  // children and would never finish at k = 0.
  if (children.empty())
    throw std::invalid_argument("FaultTree: gate with no children");
  for (NodeId c : children) check_id(c);  // children precede gate: acyclic
  if (type == GateType::kNot && children.size() != 1)
    throw std::invalid_argument("FaultTree: NOT gate needs exactly one child");
  if (type == GateType::kKooN && (k < 1 || k > children.size()))
    throw std::invalid_argument("FaultTree: KooN needs 1 <= k <= n");
  Node n;
  n.name = name;
  n.is_basic = false;
  n.type = type;
  n.children = std::move(children);
  n.k = k;
  nodes_.push_back(std::move(n));
  return nodes_.size() - 1;
}

void FaultTree::set_top(NodeId id) {
  check_id(id);
  top_ = id;
}

NodeId FaultTree::top() const {
  if (!top_) throw std::logic_error("FaultTree: top event not set");
  return *top_;
}

std::size_t FaultTree::basic_event_count() const {
  std::size_t n = 0;
  for (const auto& node : nodes_) n += node.is_basic ? 1 : 0;
  return n;
}

bool FaultTree::is_basic_event(NodeId id) const {
  check_id(id);
  return nodes_[id].is_basic;
}

bool FaultTree::is_gate(NodeId id) const { return !is_basic_event(id); }

const std::string& FaultTree::name(NodeId id) const {
  check_id(id);
  return nodes_[id].name;
}

NodeId FaultTree::id_of(const std::string& name) const {
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].name == name) return i;
  }
  throw std::invalid_argument("FaultTree: no node '" + name + "'");
}

double FaultTree::probability(NodeId basic_event) const {
  check_id(basic_event);
  if (!nodes_[basic_event].is_basic)
    throw std::invalid_argument("FaultTree::probability: not a basic event");
  return nodes_[basic_event].probability;
}

GateType FaultTree::gate_type(NodeId gate) const {
  check_id(gate);
  if (nodes_[gate].is_basic)
    throw std::invalid_argument("FaultTree::gate_type: not a gate");
  return nodes_[gate].type;
}

const std::vector<NodeId>& FaultTree::children(NodeId gate) const {
  check_id(gate);
  if (nodes_[gate].is_basic)
    throw std::invalid_argument("FaultTree::children: not a gate");
  return nodes_[gate].children;
}

std::size_t FaultTree::koon_k(NodeId gate) const {
  if (gate_type(gate) != GateType::kKooN)
    throw std::invalid_argument("FaultTree::koon_k: not a KooN gate");
  return nodes_[gate].k;
}

void FaultTree::set_probability(NodeId basic_event, double p) {
  check_id(basic_event);
  if (!nodes_[basic_event].is_basic)
    throw std::invalid_argument("FaultTree::set_probability: not a basic event");
  SYSUQ_EXPECT(contracts::is_probability(p),
               "FaultTree::set_probability: outside [0, 1]");
  nodes_[basic_event].probability = p;
}

std::vector<NodeId> FaultTree::basic_events() const {
  std::vector<NodeId> out;
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].is_basic) out.push_back(i);
  }
  return out;
}

bool FaultTree::is_coherent() const {
  for (const auto& n : nodes_) {
    if (!n.is_basic && n.type == GateType::kNot) return false;
  }
  return true;
}

void FaultTree::validate() const {
  (void)top();
  if (basic_event_count() == 0)
    throw std::logic_error("FaultTree: no basic events");
}

bool FaultTree::evaluate_structure(const std::vector<bool>& basic_state) const {
  validate();
  const auto events = basic_events();
  if (basic_state.size() != events.size())
    throw std::invalid_argument("FaultTree::evaluate_structure: state size");
  std::unordered_map<NodeId, bool> state;
  for (std::size_t i = 0; i < events.size(); ++i) state[events[i]] = basic_state[i];

  // Nodes are topologically ordered by construction (children first).
  std::vector<bool> value(nodes_.size(), false);
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    const auto& n = nodes_[i];
    if (n.is_basic) {
      value[i] = state.at(i);
      continue;
    }
    switch (n.type) {
      case GateType::kAnd: {
        bool v = true;
        for (NodeId c : n.children) v = v && value[c];
        value[i] = v;
        break;
      }
      case GateType::kOr: {
        bool v = false;
        for (NodeId c : n.children) v = v || value[c];
        value[i] = v;
        break;
      }
      case GateType::kKooN: {
        std::size_t count = 0;
        for (NodeId c : n.children) count += value[c] ? 1 : 0;
        value[i] = count >= n.k;
        break;
      }
      case GateType::kNot:
        value[i] = !value[n.children[0]];
        break;
    }
  }
  return value[top()];
}

}  // namespace sysuq::fta
