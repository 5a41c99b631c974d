// The five PR-4 line-lint rules, re-homed onto the lexer. Running on
// tokens (not regex over blanked lines) means string literals and
// comments can mention rand() or 1e-12 freely, and the digit-separator
// and include-path workarounds of the old stripper are gone.
#include "sysuq_analyze/passes.hpp"

#include <filesystem>
#include <string>

namespace sysuq_analyze {

namespace {

namespace fs = std::filesystem;

// Mirror of obs::valid_metric_name (the analyzer links no sysuq
// libraries): two or more dot-separated segments, each [a-z][a-z0-9_]*.
bool valid_obs_name(const std::string& name) {
  bool seen_dot = false;
  bool segment_start = true;
  for (const char c : name) {
    if (segment_start) {
      if (c < 'a' || c > 'z') return false;
      segment_start = false;
      continue;
    }
    if (c == '.') {
      seen_dot = true;
      segment_start = true;
      continue;
    }
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
    if (!ok) return false;
  }
  return seen_dot && !segment_start && !name.empty();
}

void check_includes(const LexedFile& f, Reporter& rep) {
  // Own header: foo.cpp must include "mod/foo.hpp" first.
  std::string own_header;
  if (f.is_source) {
    for (const char* hdr_ext : {".hpp", ".h", ".hxx"}) {
      fs::path hpp = f.abs_path;
      hpp.replace_extension(hdr_ext);
      if (fs::exists(hpp)) {
        fs::path rel = f.rel;
        rel.replace_extension(hdr_ext);
        own_header = rel.generic_string();
        break;
      }
    }
  }
  bool saw_first = false;
  for (const auto& inc : f.includes) {
    if (inc.angled) continue;
    if (inc.path.find("../") != std::string::npos) {
      rep.report(f, inc.line, "include-hygiene",
                 "relative include \"" + inc.path +
                     "\"; use the module-qualified path");
    } else if (inc.path.find('/') == std::string::npos) {
      rep.report(f, inc.line, "include-hygiene",
                 "unqualified include \"" + inc.path + "\"; write \"<module>/" +
                     inc.path + "\"");
    }
    if (!saw_first && !own_header.empty() && inc.path != own_header) {
      rep.report(f, inc.line, "include-hygiene",
                 "first include must be the file's own header \"" +
                     own_header + "\"");
    }
    saw_first = true;
  }
}

void check_tokens(const LexedFile& f, Reporter& rep) {
  const bool is_rng = f.module_name == "prob" && f.rel.rfind("prob/rng", 0) == 0;
  const bool is_tolerance = f.rel == "core/tolerance.hpp";
  const auto& t = f.tokens;

  for (std::size_t i = 0; i < t.size(); ++i) {
    const Token& tok = t[i];

    // rng-discipline: raw rand()/srand()/mt19937 outside prob/rng.*.
    if (!is_rng && tok.kind == TokKind::kIdent) {
      const bool is_rand =
          (tok.text == "rand" || tok.text == "srand") && i + 1 < t.size() &&
          is_punct(t[i + 1], "(");
      const bool is_mt =
          tok.text == "mt19937" || tok.text == "mt19937_64";
      // Exclude member access: foo.rand(), foo->srand().
      const bool member_access =
          i > 0 && t[i - 1].kind == TokKind::kPunct &&
          (t[i - 1].text == "." || t[i - 1].text == "->");
      if ((is_rand || is_mt) && !member_access) {
        rep.report(f, tok.line, "rng-discipline",
                   "raw rand()/mt19937; use prob::Rng (src/prob/rng.hpp)");
      }
    }

    // float-eq: ==/!= against a floating-point literal.
    if (tok.kind == TokKind::kPunct &&
        (tok.text == "==" || tok.text == "!=")) {
      const bool lhs_float = i > 0 && is_float_literal(t[i - 1]);
      std::size_t rhs = i + 1;
      if (rhs < t.size() && is_punct(t[rhs], "-"))
        ++rhs;  // == -1.0
      const bool rhs_float = rhs < t.size() && is_float_literal(t[rhs]);
      if (lhs_float || rhs_float) {
        rep.report(f, tok.line, "float-eq",
                   "floating-point ==/!=; compare against a tolerance or "
                   "annotate");
      }
    }

    // magic-epsilon: tolerance-sized literals outside core/tolerance.hpp.
    if (!is_tolerance && negative_exponent_of(tok) >= 8) {
      rep.report(f, tok.line, "magic-epsilon",
                 "tolerance-sized literal " + tok.text +
                     "; use a named constant from core/tolerance.hpp");
    }

    // obs-naming: instrument/span name literals must be
    // module.subsystem.name.
    if (tok.kind == TokKind::kIdent) {
      std::string name;
      std::size_t name_line = 0;
      const bool instrument =
          (tok.text == "counter" || tok.text == "gauge" ||
           tok.text == "histogram") &&
          i > 0 && t[i - 1].kind == TokKind::kPunct &&
          (t[i - 1].text == "." || t[i - 1].text == "->");
      if (instrument && i + 2 < t.size() && t[i + 1].text == "(" &&
          t[i + 2].kind == TokKind::kString) {
        name = t[i + 2].text;
        name_line = t[i + 2].line;
      }
      if (tok.text == "Span") {
        // obs::Span span("name", ...) or Span("name", ...): allow up to
        // one variable name between Span and the '('.
        std::size_t j = i + 1;
        if (j < t.size() && t[j].kind == TokKind::kIdent) ++j;
        if (j + 1 < t.size() && is_punct(t[j], "(") &&
            t[j + 1].kind == TokKind::kString) {
          name = t[j + 1].text;
          name_line = t[j + 1].line;
        }
      }
      if (name_line != 0 && !valid_obs_name(name)) {
        rep.report(f, name_line, "obs-naming",
                   "obs name \"" + name +
                       "\" must be dot-separated snake_case "
                       "(module.subsystem.name)");
      }
    }
  }
}

}  // namespace

void pass_legacy(const Project& project, Reporter& rep) {
  for (const auto& af : project.files) {
    check_includes(af.lex, rep);
    check_tokens(af.lex, rep);
  }
}

}  // namespace sysuq_analyze
