#include "bayesnet/serialize.hpp"

#include <sstream>
#include <stdexcept>

#include "bayesnet/kernels.hpp"

namespace sysuq::bayesnet {

namespace {

bool has_whitespace(const std::string& s) {
  return s.find_first_of(" \t\n\r") != std::string::npos;
}

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::invalid_argument("bayesnet::from_text: line " +
                              std::to_string(line) + ": " + what);
}

}  // namespace

std::string to_text(const BayesianNetwork& net) {
  net.validate();
  std::ostringstream os;
  os << "sysuq-bayesnet 1\n";
  for (VariableId v = 0; v < net.size(); ++v) {
    const auto& var = net.variable(v);
    if (has_whitespace(var.name()))
      throw std::invalid_argument("bayesnet::to_text: name with whitespace: '" +
                                  var.name() + "'");
    os << "variable " << var.name();
    for (const auto& s : var.states()) {
      if (has_whitespace(s))
        throw std::invalid_argument(
            "bayesnet::to_text: state with whitespace: '" + s + "'");
      os << ' ' << s;
    }
    os << '\n';
  }
  os.precision(17);
  for (VariableId v = 0; v < net.size(); ++v) {
    os << "cpt " << net.variable(v).name() << " |";
    for (VariableId p : net.parents(v)) os << ' ' << net.variable(p).name();
    os << '\n';
    for (const auto& row : net.cpt_rows(v)) {
      for (std::size_t s = 0; s < row.size(); ++s)
        os << (s == 0 ? "" : " ") << row.p(s);
      os << '\n';
    }
  }
  return os.str();
}

BayesianNetwork from_text(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  std::size_t lineno = 0;

  const auto next_tokens = [&](std::vector<std::string>& tokens) {
    tokens.clear();
    while (std::getline(is, line)) {
      ++lineno;
      const auto hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      std::istringstream ls(line);
      std::string tok;
      while (ls >> tok) tokens.push_back(tok);
      if (!tokens.empty()) return true;
    }
    return false;
  };

  std::vector<std::string> tokens;
  if (!next_tokens(tokens) || tokens.size() != 2 ||
      tokens[0] != "sysuq-bayesnet" || tokens[1] != "1")
    fail(lineno, "expected header 'sysuq-bayesnet 1'");

  BayesianNetwork net;
  bool in_cpts = false;
  while (next_tokens(tokens)) {
    if (tokens[0] == "variable") {
      if (in_cpts) fail(lineno, "variable after cpt section");
      if (tokens.size() < 4)
        fail(lineno, "variable needs a name and >= 2 states");
      try {
        net.add_variable(tokens[1],
                         {tokens.begin() + 2, tokens.end()});
      } catch (const std::exception& e) {
        fail(lineno, e.what());
      }
    } else if (tokens[0] == "cpt") {
      in_cpts = true;
      if (tokens.size() < 3 || tokens[2] != "|")
        fail(lineno, "expected 'cpt <child> | <parents...>'");
      VariableId child;
      std::vector<VariableId> parents;
      try {
        child = net.id_of(tokens[1]);
        for (std::size_t i = 3; i < tokens.size(); ++i)
          parents.push_back(net.id_of(tokens[i]));
      } catch (const std::exception& e) {
        fail(lineno, e.what());
      }
      // Checked in every contracts mode: a wrapped count accepts too few rows.
      const std::size_t card = net.variable(child).cardinality();
      std::size_t rows = 1;
      for (VariableId p : parents) {
        if (kernels::mul_overflows(rows * card, net.variable(p).cardinality()))
          fail(lineno, "CPT table size overflows size_t");
        rows *= net.variable(p).cardinality();
      }
      std::vector<prob::Categorical> cpt;
      for (std::size_t r = 0; r < rows; ++r) {
        if (!next_tokens(tokens)) fail(lineno, "unexpected end of CPT rows");
        if (tokens.size() != card)
          fail(lineno, "expected " + std::to_string(card) + " probabilities");
        std::vector<double> p(card);
        try {
          for (std::size_t s = 0; s < card; ++s) p[s] = std::stod(tokens[s]);
          cpt.emplace_back(std::move(p));
        } catch (const std::exception& e) {
          fail(lineno, e.what());
        }
      }
      try {
        net.set_cpt(child, std::move(parents), std::move(cpt));
      } catch (const std::exception& e) {
        fail(lineno, e.what());
      }
    } else {
      fail(lineno, "unknown directive '" + tokens[0] + "'");
    }
  }
  net.validate();
  return net;
}

}  // namespace sysuq::bayesnet
