#include "sysuq_analyze/model.hpp"

#include <array>
#include <cstddef>
#include <string>
#include <vector>

namespace sysuq_analyze {

namespace {

constexpr std::array<const char*, 4> kMutexTypes = {
    "mutex", "shared_mutex", "recursive_mutex", "timed_mutex"};

// Lines a declaration at `line` may carry a marker on: the line itself
// plus the contiguous block of // comment lines directly above it (the
// same window the allow-marker suppression uses), so annotations can
// ride a doc comment instead of stretching the declaration line.
std::vector<std::size_t> marker_lines(const LexedFile& f, std::size_t line) {
  std::vector<std::size_t> out{line};
  for (std::size_t l = line; l > 1;) {
    --l;
    const std::string& text = l - 1 < f.lines.size() ? f.lines[l - 1] : "";
    const std::size_t first = text.find_first_not_of(" \t");
    if (first == std::string::npos || text.compare(first, 2, "//") != 0) break;
    out.push_back(l);
  }
  return out;
}

// First marker value found for the declaration at `line` in `map`
// (declaration line first, then the comment block above, nearest line
// winning); nullptr when absent.
template <class Map>
const typename Map::mapped_type* find_marker(const LexedFile& f,
                                             const Map& map,
                                             std::size_t line) {
  for (const std::size_t l : marker_lines(f, line)) {
    const auto it = map.find(l);
    if (it != map.end()) return &it->second;
  }
  return nullptr;
}

struct Scope {
  enum class Kind { kNamespace, kClass };
  Kind kind = Kind::kNamespace;
  bool public_access = true;
  std::size_t class_index = static_cast<std::size_t>(-1);  // into classes
  std::string class_name;
};

class Parser {
 public:
  Parser(const LexedFile& file, FileModel& out) : f_(file), out_(out) {}

  void run() {
    const auto& t = f_.tokens;
    while (i_ < t.size()) {
      if (!step()) ++i_;  // never stall on unrecognized input
    }
  }

 private:
  const LexedFile& f_;
  FileModel& out_;
  std::size_t i_ = 0;
  std::vector<Scope> scopes_;
  bool pending_template_ = false;

  [[nodiscard]] const std::vector<Token>& toks() const { return f_.tokens; }

  [[nodiscard]] Scope* current_class() {
    if (!scopes_.empty() && scopes_.back().kind == Scope::Kind::kClass)
      return &scopes_.back();
    return nullptr;
  }

  // Skips to one past the next ';' at brace/paren/bracket depth 0 —
  // lambda bodies and brace initializers do not terminate the statement.
  [[nodiscard]] std::size_t skip_to_semi(std::size_t j) const {
    const auto& t = toks();
    int depth = 0;
    for (; j < t.size(); ++j) {
      const std::string& p = t[j].text;
      if (t[j].kind != TokKind::kPunct) continue;
      if (p == "(" || p == "{" || p == "[") ++depth;
      else if (p == ")" || p == "}" || p == "]") --depth;
      else if (p == ";" && depth <= 0) return j + 1;
    }
    return j;
  }

  // Skips a template parameter/argument list starting at a '<'.
  [[nodiscard]] std::size_t skip_angles(std::size_t j) const {
    const auto& t = toks();
    int depth = 0;
    for (; j < t.size(); ++j) {
      if (t[j].kind != TokKind::kPunct) continue;
      if (t[j].text == "<") ++depth;
      else if (t[j].text == ">") {
        if (--depth == 0) return j + 1;
      } else if (t[j].text == ">>") {
        depth -= 2;
        if (depth <= 0) return j + 1;
      } else if (t[j].text == ";" || t[j].text == "{")
        return j;  // malformed; bail
    }
    return j;
  }

  bool step() {
    const auto& t = toks();
    const Token& tok = t[i_];

    if (is_punct(tok, "}")) {
      if (!scopes_.empty()) scopes_.pop_back();
      ++i_;
      return true;
    }
    if (is_punct(tok, ";")) {
      ++i_;
      return true;
    }
    if (is_ident(tok, "template")) {
      pending_template_ = true;
      if (i_ + 1 < t.size() && is_punct(t[i_ + 1], "<"))
        i_ = skip_angles(i_ + 1);
      else
        ++i_;
      return true;
    }
    if (is_ident(tok, "namespace")) {
      std::size_t j = i_ + 1;
      while (j < t.size() && !is_punct(t[j], "{") && !is_punct(t[j], ";") &&
             !is_punct(t[j], "="))
        ++j;
      if (j < t.size() && is_punct(t[j], "{")) {
        scopes_.push_back({Scope::Kind::kNamespace, true, {}, {}});
        i_ = j + 1;
      } else {
        i_ = skip_to_semi(j);
      }
      return true;
    }
    if (is_ident(tok, "enum")) {
      std::size_t j = i_ + 1;
      while (j < t.size() && !is_punct(t[j], "{") && !is_punct(t[j], ";")) ++j;
      if (j < t.size() && is_punct(t[j], "{"))
        j = match_bracket(t, j, t.size(), "{", "}");
      i_ = skip_to_semi(j);
      return true;
    }
    if ((is_ident(tok, "class") || is_ident(tok, "struct")) &&
        (i_ == 0 || !is_ident(t[i_ - 1], "enum"))) {
      return parse_class(is_ident(tok, "struct"));
    }
    if ((is_ident(tok, "public") || is_ident(tok, "private") ||
         is_ident(tok, "protected")) &&
        i_ + 1 < t.size() && is_punct(t[i_ + 1], ":")) {
      if (Scope* cs = current_class()) cs->public_access = tok.text == "public";
      i_ += 2;
      return true;
    }
    if (is_ident(tok, "using") || is_ident(tok, "typedef") ||
        is_ident(tok, "friend") || is_ident(tok, "extern")) {
      pending_template_ = false;
      i_ = skip_to_semi(i_);
      return true;
    }
    return parse_declaration();
  }

  bool parse_class(bool is_struct) {
    const auto& t = toks();
    std::size_t j = i_ + 1;
    while (j < t.size() && is_punct(t[j], "["))
      j = match_bracket(t, j, t.size(), "[", "]");
    std::string name;
    if (j < t.size() && t[j].kind == TokKind::kIdent) {
      name = t[j].text;
      ++j;
      // Out-of-line nested class: `class Outer::Inner { ... }` — the
      // class being defined is the last qualified component.
      while (j + 1 < t.size() && is_punct(t[j], "::") &&
             t[j + 1].kind == TokKind::kIdent) {
        name = t[j + 1].text;
        j += 2;
      }
      if (j < t.size() && is_ident(t[j], "final")) ++j;
    }
    // Forward declaration, definition, or something else entirely.
    while (j < t.size() && !is_punct(t[j], "{") && !is_punct(t[j], ";") &&
           !is_punct(t[j], "(")) {
      if (is_punct(t[j], "<")) {
        j = skip_angles(j);
        continue;
      }
      ++j;
    }
    if (j >= t.size() || !is_punct(t[j], "{")) {
      pending_template_ = false;
      i_ = skip_to_semi(j);
      return true;
    }
    ClassInfo ci;
    ci.module_name = f_.module_name;
    ci.name = name;
    ci.file_rel = f_.rel;
    if (const auto* c = find_marker(f_, f_.confined, t[i_].line))
      ci.confined = *c;
    out_.classes.push_back(ci);
    scopes_.push_back(
        {Scope::Kind::kClass, is_struct, out_.classes.size() - 1, name});
    pending_template_ = false;
    i_ = j + 1;
    return true;
  }

  // Parses one declaration statement at namespace/class scope: either a
  // data member / variable, a function declaration, or a definition.
  bool parse_declaration() {
    const auto& t = toks();
    const std::size_t start = i_;
    const bool was_template = pending_template_;
    pending_template_ = false;

    bool saw_inline = false, saw_static = false, saw_operator = false;
    std::size_t j = start;
    int angle_depth = 0;
    std::size_t paren = t.size();  // first '(' at angle depth 0
    std::size_t terminator = t.size();
    char term = 0;
    for (; j < t.size(); ++j) {
      const Token& tk = t[j];
      if (tk.kind == TokKind::kIdent) {
        if (tk.text == "inline" || tk.text == "constexpr" ||
            tk.text == "consteval")
          saw_inline = true;
        else if (tk.text == "static")
          saw_static = true;
        else if (tk.text == "operator")
          saw_operator = true;
        continue;
      }
      if (tk.kind != TokKind::kPunct) continue;
      const std::string& p = tk.text;
      if (p == "[") {
        j = match_bracket(t, j, t.size(), "[", "]") - 1;
        continue;
      }
      if (p == "<") {
        ++angle_depth;
        continue;
      }
      if (p == ">") {
        if (angle_depth > 0) --angle_depth;
        continue;
      }
      if (p == ">>") {
        angle_depth = angle_depth >= 2 ? angle_depth - 2 : 0;
        continue;
      }
      if (angle_depth > 0) continue;
      if (p == "(") {
        paren = j;
        break;
      }
      if (p == ";" || p == "{" || p == "=") {
        terminator = j;
        term = p[0];
        break;
      }
    }

    if (paren == t.size()) {
      // No parens: data member / variable / stray tokens.
      handle_data_member(start, terminator, term, saw_static);
      return true;
    }
    return handle_functionish(start, paren, was_template, saw_inline,
                              saw_static, saw_operator);
  }

  void handle_data_member(std::size_t start, std::size_t terminator,
                          char term, bool saw_static) {
    const auto& t = toks();
    if (terminator >= t.size()) {
      i_ = t.size();
      return;
    }
    Scope* cs = current_class();
    if (cs != nullptr && !saw_static && terminator > start) {
      // Name: last identifier before the terminator (arrays: before '[').
      std::size_t name_idx = t.size();
      for (std::size_t k = terminator; k-- > start;) {
        if (t[k].kind == TokKind::kIdent) {
          name_idx = k;
          break;
        }
        if (!is_punct(t[k], "]") && !is_punct(t[k], "[") &&
            t[k].kind != TokKind::kNumber)
          break;
      }
      if (name_idx != t.size()) {
        MemberVar m;
        m.name = t[name_idx].text;
        m.line = t[name_idx].line;
        for (std::size_t k = start; k < name_idx; ++k) {
          if (!m.type_text.empty()) m.type_text += ' ';
          m.type_text += t[k].text;
          if (t[k].kind == TokKind::kIdent) {
            if (t[k].text == "atomic") m.is_atomic = true;
            for (const char* mt : kMutexTypes)
              if (t[k].text == mt) m.is_mutex = true;
          }
        }
        if (const auto it = f_.atomic_orders.find(m.line);
            it != f_.atomic_orders.end())
          m.declared_order = it->second;
        if (const auto* g = find_marker(f_, f_.guarded_by, m.line))
          m.guarded_by = *g;
        if (const auto* c = find_marker(f_, f_.confined, m.line))
          m.confined = *c;
        if (!m.type_text.empty()) {
          auto& ci = out_.classes[cs->class_index];
          ci.members.push_back(m);
          if (m.is_mutex) ci.owns_mutex = true;
        }
      }
    }
    if (term == '{') {
      std::size_t j = match_bracket(t, terminator, t.size(), "{", "}");
      i_ = skip_to_semi(j);
    } else {
      i_ = skip_to_semi(terminator);
    }
  }

  // From the '(' of a declarator: classify declaration vs definition,
  // record it, and advance past it.
  bool handle_functionish(std::size_t start, std::size_t paren,
                          bool was_template, bool saw_inline, bool saw_static,
                          bool saw_operator) {
    const auto& t = toks();
    // Qualified name chain ending just before '('.
    std::string name, class_qual;
    std::size_t name_line = t[paren].line;
    bool is_dtor = false;
    if (paren > start && t[paren - 1].kind == TokKind::kIdent) {
      std::size_t k = paren - 1;
      name = t[k].text;
      name_line = t[k].line;
      if (k > start && is_punct(t[k - 1], "~")) is_dtor = true;
      // Walk back over Foo::Bar:: qualifiers (skipping ~ for dtors).
      std::size_t q = is_dtor ? k - 1 : k;
      while (q >= start + 2 && is_punct(t[q - 1], "::") &&
             t[q - 2].kind == TokKind::kIdent) {
        class_qual = t[q - 2].text;
        q -= 2;
        break;  // nearest qualifier is the class
      }
    }

    std::size_t j = match_bracket(t, paren, t.size(), "(", ")");
    // Trailer: cv, ref-qualifiers, noexcept(...), attributes, trailing
    // return; ends at '{' (definition), ';' (declaration) or '='
    // (default/delete/pure).
    bool found_body = false, found_decl = false, found_eq = false;
    while (j < toks().size()) {
      const Token& tk = toks()[j];
      if (is_punct(tk, "{")) {
        found_body = true;
        break;
      }
      if (is_punct(tk, ";")) {
        found_decl = true;
        break;
      }
      if (is_punct(tk, "=")) {
        found_eq = true;
        break;
      }
      if (is_punct(tk, ":")) {  // ctor-init list
        j = skip_ctor_init(j + 1);
        continue;
      }
      if (is_punct(tk, "(")) {
        j = match_bracket(t, j, t.size(), "(", ")");
        continue;
      }
      if (is_punct(tk, "[")) {
        j = match_bracket(t, j, t.size(), "[", "]");
        continue;
      }
      if (is_punct(tk, "<")) {
        j = skip_angles(j);
        continue;
      }
      if (is_punct(tk, ",")) {
        // `int a(1), b(2);` — variable list, not a function.
        i_ = skip_to_semi(j);
        return true;
      }
      ++j;
    }

    Scope* cs = current_class();
    const std::string enclosing_class =
        cs != nullptr ? cs->class_name : std::string();
    const std::string cls =
        !class_qual.empty() ? class_qual : enclosing_class;
    const bool is_ctor =
        !is_dtor && !name.empty() && !cls.empty() && name == cls;

    if (found_body) {
      FunctionDef def;
      def.class_name = cls;
      def.name = name;
      def.line = name_line;
      def.body_begin = j;
      def.body_end = match_bracket(t, j, t.size(), "{", "}");
      def.params_begin = paren;
      def.params_end = match_bracket(t, paren, t.size(), "(", ")");
      def.is_ctor = is_ctor;
      def.is_dtor = is_dtor;
      def.in_header = f_.is_header;
      def.has_params =
          !(paren + 1 < t.size() &&
            (is_punct(t[paren + 1], ")") ||
             (is_ident(t[paren + 1], "void") && paren + 2 < t.size() &&
              is_punct(t[paren + 2], ")"))));
      if (const auto* r = find_marker(f_, f_.requires_locks, name_line))
        def.requires_locks = *r;
      if (const auto* e = find_marker(f_, f_.excludes_locks, name_line))
        def.excludes_locks = *e;
      if (!was_template && !name.empty() && !saw_operator)
        out_.defs.push_back(def);
      i_ = def.body_end;
      return true;
    }
    if (found_decl || found_eq) {
      const bool defaultish = found_eq;  // = default / = delete / = 0
      const bool eligible = !defaultish && !was_template && !saw_inline &&
                            !saw_operator && !is_dtor && !name.empty() &&
                            name != "static_assert" && f_.is_header;
      if (eligible) {
        if (cs != nullptr && cs->public_access) {
          FunctionDecl d{name, name_line, true, {}, {}};
          out_.classes[cs->class_index].public_decls.push_back(d);
        } else if (cs == nullptr && !saw_static) {
          out_.free_decls.push_back({name, name_line, true, {}, {}});
        }
      }
      // Lock contracts attach to any member declaration, even ones that
      // are not contract-coverage-eligible (inline, private, templated):
      // the thread-safety passes union them with the definition's.
      if (cs != nullptr && !name.empty()) {
        FunctionDecl d{name, name_line, cs->public_access, {}, {}};
        if (const auto* r = find_marker(f_, f_.requires_locks, name_line))
          d.requires_locks = *r;
        if (const auto* e = find_marker(f_, f_.excludes_locks, name_line))
          d.excludes_locks = *e;
        if (!d.requires_locks.empty() || !d.excludes_locks.empty())
          out_.classes[cs->class_index].lock_contract_decls.push_back(d);
      }
      i_ = skip_to_semi(j);
      return true;
    }
    i_ = j;  // ran off the file
    return true;
  }

  // Skips a ctor-init list: `name(...)` / `name{...}` items separated by
  // commas; returns the index of the body '{'.
  [[nodiscard]] std::size_t skip_ctor_init(std::size_t j) const {
    const auto& t = toks();
    while (j < t.size()) {
      // Initializer item: qualified/templated name then (..) or {..}.
      while (j < t.size() && !is_punct(t[j], "(") && !is_punct(t[j], "{"))
        ++j;
      if (j >= t.size()) return j;
      if (is_punct(t[j], "(")) j = match_bracket(t, j, t.size(), "(", ")");
      else j = match_bracket(t, j, t.size(), "{", "}");
      if (j < t.size() && is_punct(t[j], ",")) {
        ++j;
        continue;
      }
      return j;  // next token should be the body '{'
    }
    return j;
  }
};

}  // namespace

FileModel build_model(const LexedFile& file) {
  FileModel out;
  Parser(file, out).run();
  return out;
}

}  // namespace sysuq_analyze
