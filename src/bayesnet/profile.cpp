#include "bayesnet/profile.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>

#include "bayesnet/kernels.hpp"
#include "core/contracts.hpp"
#include "core/json.hpp"

namespace sysuq::bayesnet {

namespace {

using json::append_escaped;
using json::fmt_double;

std::string quoted(const std::string& s) {
  std::string out = "\"";
  append_escaped(out, s);
  out += "\"";
  return out;
}

}  // namespace

std::vector<EliminationStepProfile> simulate_elimination(
    const BayesianNetwork& net, const Evidence& evidence,
    const std::vector<VariableId>& order, const std::vector<VariableId>& keep) {
  std::vector<VariableId> cpts(net.size());
  std::iota(cpts.begin(), cpts.end(), VariableId{0});
  return simulate_elimination(net, evidence, order, keep, cpts);
}

std::vector<EliminationStepProfile> simulate_elimination(
    const BayesianNetwork& net, const Evidence& evidence,
    const std::vector<VariableId>& order, const std::vector<VariableId>& keep,
    const std::vector<VariableId>& cpts) {
  const std::size_t n = net.size();
  // The step that eliminates each variable: its first entry in `order`.
  // Kept variables, and variables the order never names, get none.
  constexpr std::size_t kNever = SIZE_MAX;
  std::vector<std::size_t> step_of(n, kNever);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const VariableId v = order[i];
    SYSUQ_EXPECT(v < n, "simulate_elimination: order names an unknown variable");
    if (step_of[v] == kNever && std::find(keep.begin(), keep.end(), v) == keep.end())
      step_of[v] = i;
  }
  // Each live scope is a run of `pool` and waits in the bucket of its
  // earliest-eliminated variable, so step i merges exactly bucket i:
  // every earlier variable is already summed out of every live scope. A
  // bucket is a linked list of runs; a scope with no variable left to
  // eliminate is dropped.
  struct Run {
    std::size_t begin, end, next;
  };
  std::vector<VariableId> pool;
  std::vector<Run> runs;
  std::vector<std::size_t> head(order.size(), kNever);
  const auto file = [&](std::size_t begin) {  // the run pool[begin, end)
    std::size_t first = kNever;
    for (std::size_t j = begin; j < pool.size(); ++j)
      first = std::min(first, step_of[pool[j]]);
    if (first == kNever) {
      pool.resize(begin);
      return;
    }
    runs.push_back({begin, pool.size(), head[first]});
    head[first] = runs.size() - 1;
  };
  // One live scope per CPT, with evidence variables reduced away.
  for (const VariableId v : cpts) {
    const std::size_t begin = pool.size();
    for (const VariableId p : net.parents(v)) {
      if (!evidence.contains(p)) pool.push_back(p);
    }
    if (!evidence.contains(v)) pool.push_back(v);
    file(begin);
  }

  std::vector<EliminationStepProfile> steps;
  std::vector<std::size_t> merged_at(n, kNever);  // the step that merged a variable last
  std::vector<VariableId> product;
  for (std::size_t i = 0; i < order.size(); ++i) {
    // Empty for a kept, observed or repeated entry: nothing to merge.
    if (head[i] == kNever) continue;
    product.clear();
    for (std::size_t r = head[i]; r != kNever; r = runs[r].next) {
      for (std::size_t j = runs[r].begin; j < runs[r].end; ++j) {
        if (std::exchange(merged_at[pool[j]], i) != i) product.push_back(pool[j]);
      }
    }
    std::sort(product.begin(), product.end());

    std::size_t cells = 1;
    for (const VariableId s : product) {
      const std::size_t card = net.variable(s).cardinality();
      cells = kernels::mul_overflows(cells, card) ? SIZE_MAX : cells * card;
    }
    const VariableId v = order[i];
    steps.push_back({v, net.variable(v).name(), product, cells});

    const std::size_t begin = pool.size();
    for (const VariableId s : product) {
      if (s != v) pool.push_back(s);
    }
    file(begin);
  }
  return steps;
}

void QueryProfile::zero_costs() {
  calibration_seconds = 0.0;
  propagation_seconds = 0.0;
  arena_high_water_bytes = 0;
  for (auto& s : stages) s.seconds = 0.0;
  total_seconds = 0.0;
}

std::string QueryProfile::to_json() const {
  std::string out = "{\"query\":" + quoted(query) + ",\"evidence\":[";
  bool first = true;
  for (const auto& [var, state] : evidence) {
    if (!first) out += ",";
    first = false;
    out += "{\"variable\":" + quoted(var) + ",\"state\":" + quoted(state) + "}";
  }
  out += "],\"backend\":" + quoted(backend) +
         ",\"reason\":" + quoted(backend_reason) + ",\"plan\":{";
  if (backend == "variable_elimination") {
    out += "\"ordering_cache_hit\":";
    out += ordering_cache_hit ? "true" : "false";
    out += ",\"induced_width\":" + std::to_string(induced_width) +
           ",\"fill_edges\":" + std::to_string(fill_edges) + ",\"steps\":[";
    first = true;
    for (const auto& s : steps) {
      if (!first) out += ",";
      first = false;
      out += "{\"eliminate\":" + quoted(s.name) +
             ",\"width\":" + std::to_string(s.scope.size() - 1) +
             ",\"table_cells\":" + std::to_string(s.table_cells) + "}";
    }
    out += "]";
  } else if (backend == "junction_tree") {
    out += "\"jt_cache_hit\":";
    out += jt_cache_hit ? "true" : "false";
    out += ",\"cliques\":[";
    first = true;
    for (const std::size_t c : clique_sizes) {
      if (!first) out += ",";
      first = false;
      out += std::to_string(c);
    }
    out += "],\"max_clique_size\":" + std::to_string(max_clique_size) +
           ",\"cells\":" + std::to_string(cells) +
           ",\"live_cells\":" + std::to_string(live_cells) +
           ",\"calibration_seconds\":" + fmt_double(calibration_seconds);
  } else if (backend == "loopy_bp") {
    out += "\"bp_cache_hit\":";
    out += bp_cache_hit ? "true" : "false";
    out += ",\"schedule\":" + quoted(schedule) +
           ",\"iterations\":" + std::to_string(bp_iterations) +
           ",\"converged\":";
    out += bp_converged ? "true" : "false";
    out += ",\"damping\":" + fmt_double(bp_damping) +
           ",\"final_residual\":" + fmt_double(final_residual) +
           ",\"bound_width\":" + fmt_double(bound_width) +
           ",\"propagation_seconds\":" + fmt_double(propagation_seconds);
  }
  out += "},\"cost\":{\"arena_high_water_bytes\":" +
         std::to_string(arena_high_water_bytes) + ",\"stages\":[";
  first = true;
  for (const auto& s : stages) {
    if (!first) out += ",";
    first = false;
    out += "{\"stage\":" + quoted(s.stage) +
           ",\"seconds\":" + fmt_double(s.seconds) + "}";
  }
  out += "],\"total_seconds\":" + fmt_double(total_seconds) +
         "},\"posterior\":[";
  first = true;
  for (std::size_t i = 0; i < posterior.size(); ++i) {
    if (!first) out += ",";
    first = false;
    out += "{\"state\":" + quoted(i < states.size() ? states[i] : "") +
           ",\"p\":" + fmt_double(posterior[i]) + "}";
  }
  out += "]}";
  return out;
}

std::string QueryProfile::to_plan() const {
  std::string out = "EXPLAIN P(" + query;
  if (!evidence.empty()) {
    out += " | ";
    bool first = true;
    for (const auto& [var, state] : evidence) {
      if (!first) out += ", ";
      first = false;
      out += var + "=" + state;
    }
  }
  out += ")\nbackend: " + backend + " — " + backend_reason + "\n";
  if (backend == "variable_elimination") {
    out += "plan: induced width " + std::to_string(induced_width) + ", " +
           std::to_string(fill_edges) + " fill edges, ordering cache " +
           (ordering_cache_hit ? "HIT" : "MISS") + "\n";
    std::size_t n = 0;
    for (const auto& s : steps) {
      out += "  step " + std::to_string(++n) + ": eliminate " + s.name +
             "  width " + std::to_string(s.scope.size() - 1) + "  " +
             std::to_string(s.table_cells) + " cells\n";
    }
  } else if (backend == "junction_tree") {
    out += "plan: " + std::to_string(clique_sizes.size()) +
           " cliques (max size " + std::to_string(max_clique_size) + "), " +
           std::to_string(live_cells) + " of " + std::to_string(cells) +
           " cells live, tree cache " + (jt_cache_hit ? "HIT" : "MISS") +
           ", calibration " + fmt_double(calibration_seconds) + " s\n";
    out += "  clique sizes:";
    for (const std::size_t c : clique_sizes) out += " " + std::to_string(c);
    out += "\n";
  } else if (backend == "loopy_bp") {
    out += "plan: " + schedule + " schedule, " +
           std::to_string(bp_iterations) + " iterations (" +
           (bp_converged ? "converged" : "iteration cap") + "), damping " +
           fmt_double(bp_damping) + ", run cache " +
           (bp_cache_hit ? "HIT" : "MISS") + "\n";
    out += "  final residual " + fmt_double(final_residual) +
           ", certified bound width " + fmt_double(bound_width) +
           ", propagation " + fmt_double(propagation_seconds) + " s\n";
  }
  out += "cost: arena high-water " + std::to_string(arena_high_water_bytes) +
         " bytes\n";
  for (const auto& s : stages) {
    out += "  " + s.stage;
    out.append(s.stage.size() < 12 ? 12 - s.stage.size() : 1, ' ');
    out += fmt_double(s.seconds) + " s\n";
  }
  out += "  total";
  out.append(7, ' ');
  out += fmt_double(total_seconds) + " s\n";
  out += "posterior:";
  for (std::size_t i = 0; i < posterior.size(); ++i) {
    out += " " + (i < states.size() ? states[i] : std::to_string(i)) + "=" +
           fmt_double(posterior[i]);
  }
  out += "\n";
  return out;
}

}  // namespace sysuq::bayesnet
