#include "sysuq_analyze/sarif.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <tuple>

namespace sysuq_analyze {

namespace {

// The full catalog, in catalog order (docs/analyzer_rules.md mirrors
// this). Every rule appears in tool.driver.rules even when it produced
// no results, so SARIF consumers can show what was checked.
constexpr std::array<RuleDoc, 15> kRules = {{
    {"layering",
     "Includes must respect the module DAG core -> prob -> bayesnet -> "
     "{evidence, perception, fta, markov, orbit} -> sys; obs is includable "
     "by all modules but itself includes only core."},
    {"contract-coverage",
     "Every non-inline public function declared in a module header must "
     "execute SYSUQ_EXPECT / SYSUQ_ASSERT_PROB* / SYSUQ_ENSURE in its "
     "definition."},
    {"lock-discipline",
     "In classes owning a std::mutex: no .load()/.store() on an atomic "
     "member with a memory order stricter than the member's declared "
     "ceiling (relaxed unless raised with // sysuq-atomic-order(...)); "
     "guard-consistency owns unlocked writes to non-atomic members."},
    {"validate-before-mutate",
     "No member mutation may precede the function's last precondition "
     "check; a throwing contract must not leave the object half-mutated."},
    {"rng-discipline",
     "No raw rand()/srand()/std::mt19937 outside prob/rng.*; use "
     "prob::Rng."},
    {"float-eq",
     "No ==/!= against floating-point literals; compare against a "
     "tolerance."},
    {"magic-epsilon",
     "No inline tolerance-sized literals (decimal exponent <= -8); use a "
     "named constant from core/tolerance.hpp."},
    {"include-hygiene",
     "Project includes must be module-qualified, never relative (../), "
     "and a .cpp's first include must be its own header."},
    {"obs-naming",
     "Metric and span names must be dot-separated snake_case "
     "(module.subsystem.name)."},
    {"arena-escape",
     "Values backed by the per-thread bump arena (kernels::"
     "thread_scratch() / Arena::alloc) must not be used after a reset(), "
     "stored into class members, or captured by thread-pool callbacks."},
    {"lock-order",
     "Mutexes must be acquired in one global order (no cycles in the "
     "acquisition graph), and no mutex may be held across a "
     "condition_variable wait on another lock, a thread-pool dispatch, "
     "or a thread spawn/join."},
    {"log-domain",
     "Log-domain values (log_total, to_log, std::log, log_* names) must "
     "not reach SYSUQ_ASSERT_PROB* or linear `*`/`/` arithmetic without "
     "an explicit exp()/from_log() conversion; prefer kernels::total(), "
     "a pairwise sum (a plain left fold up to 32 terms), over naive `+=` "
     "loops."},
    {"obs-context",
     "A function that opens an obs::Span and dispatches work onto a "
     "thread pool must hand the TraceContext to the tasks: capture "
     "obs::current_context() before the dispatch and install it in each "
     "task with obs::ContextScope, so worker spans parent into the "
     "query's trace."},
    {"thread-escape",
     "State shared across thread roles (inferred from pool-dispatch and "
     "std::thread sites) must be written with its declared guard held; "
     "sysuq-requires contracts must hold at every call site, "
     "sysuq-thread-confined state must stay on its declared role, and "
     "worker lambdas that outlive the enclosing scope must not capture "
     "stack state by reference."},
    {"guard-consistency",
     "Members annotated // sysuq-guarded-by(mu) may only be touched with "
     "mu on the lexical lock-scope stack; functions annotated "
     "// sysuq-excludes(mu) must not be called while mu is held; every "
     "non-atomic member of a mutex-owning class must carry a "
     "thread-safety annotation."},
}};

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

const std::vector<RuleDoc>& rule_catalog() {
  static const std::vector<RuleDoc> kCatalog(kRules.begin(), kRules.end());
  return kCatalog;
}

std::ostream& write_sarif(std::ostream& os,
                          std::vector<Violation> violations) {
  std::sort(violations.begin(), violations.end(),
            [](const Violation& a, const Violation& b) {
              return std::tie(a.path, a.line, a.rule, a.message) <
                     std::tie(b.path, b.line, b.rule, b.message);
            });

  os << "{\n"
     << "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
     << "  \"version\": \"2.1.0\",\n"
     << "  \"runs\": [\n"
     << "    {\n"
     << "      \"tool\": {\n"
     << "        \"driver\": {\n"
     << "          \"name\": \"sysuq_analyze\",\n"
     << "          \"informationUri\": "
        "\"https://example.invalid/sysuq/docs/analyzer_rules.md\",\n"
     << "          \"rules\": [\n";
  for (std::size_t i = 0; i < kRules.size(); ++i) {
    os << "            {\n"
       << "              \"id\": \"" << kRules[i].id << "\",\n"
       << "              \"shortDescription\": { \"text\": \""
       << json_escape(kRules[i].description) << "\" }\n"
       << "            }" << (i + 1 < kRules.size() ? "," : "") << "\n";
  }
  os << "          ]\n"
     << "        }\n"
     << "      },\n"
     << "      \"results\": [\n";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    const Violation& v = violations[i];
    os << "        {\n"
       << "          \"ruleId\": \"" << json_escape(v.rule) << "\",\n"
       << "          \"level\": \"error\",\n"
       << "          \"message\": { \"text\": \"" << json_escape(v.message)
       << "\" },\n"
       << "          \"locations\": [\n"
       << "            {\n"
       << "              \"physicalLocation\": {\n"
       << "                \"artifactLocation\": { \"uri\": \""
       << json_escape(v.path) << "\" },\n"
       << "                \"region\": { \"startLine\": " << v.line << " }\n"
       << "              }\n"
       << "            }\n"
       << "          ]\n"
       << "        }" << (i + 1 < violations.size() ? "," : "") << "\n";
  }
  os << "      ]\n"
     << "    }\n"
     << "  ]\n"
     << "}\n";
  return os;
}

}  // namespace sysuq_analyze
