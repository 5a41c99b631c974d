// Shared C++ lexer for sysuq_analyze.
//
// The PR-4 line-lint stripped comments and strings with a per-line state
// machine and had to be bugfixed twice (digit separators, include paths
// inside blanked strings). This lexer replaces it with a real tokenizer:
// comments vanish, string/char literals (including raw strings) become
// single tokens that keep their body, preprocessor directives are parsed
// for includes and otherwise skipped, and every token carries its line
// so passes report precise locations.
#pragma once

#include <cstddef>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace sysuq_analyze {

enum class TokKind {
  kIdent,   ///< identifier or keyword
  kNumber,  ///< pp-number (integer or floating literal, with suffixes)
  kString,  ///< string literal; text holds the body without quotes
  kChar,    ///< character literal; text holds the body without quotes
  kPunct,   ///< operator or punctuator (maximal munch)
};

struct Token {
  TokKind kind = TokKind::kPunct;
  std::string text;
  std::size_t line = 0;  ///< 1-based
  std::size_t col = 0;   ///< 0-based byte offset within the line
};

/// True when `t` is the punctuator `s`.
[[nodiscard]] inline bool is_punct(const Token& t, const char* s) {
  return t.kind == TokKind::kPunct && t.text == s;
}

/// True when `t` is the identifier (or keyword) `s`.
[[nodiscard]] inline bool is_ident(const Token& t, const char* s) {
  return t.kind == TokKind::kIdent && t.text == s;
}

/// One past the `close` that balances the `open` at token `i`, or
/// `limit` when the pair does not close before `limit`. Only the named
/// pair is counted; other brackets inside are transparent.
[[nodiscard]] std::size_t match_bracket(const std::vector<Token>& t,
                                        std::size_t i, std::size_t limit,
                                        const char* open, const char* close);

/// One #include directive.
struct IncludeDirective {
  std::string path;
  std::size_t line = 0;
  bool angled = false;  ///< <...> instead of "..."
};

/// A lexed source file plus the metadata every pass needs.
struct LexedFile {
  std::filesystem::path abs_path;
  std::string rel;     ///< path relative to its scan root (generic form)
  std::string root;    ///< the scan root as given on the command line
  std::string module_name;  ///< first rel component when it names a module
  bool is_header = false;
  bool is_source = false;  ///< .cpp/.cc/.cxx

  std::vector<std::string> lines;  ///< raw text, for marker scanning
  std::vector<Token> tokens;
  std::vector<IncludeDirective> includes;

  /// line -> rules suppressed by `// sysuq-lint-allow(<rule>): reason`.
  std::map<std::size_t, std::set<std::string>> allows;
  /// line -> declared order from `// sysuq-atomic-order(<order>)`.
  std::map<std::size_t, std::string> atomic_orders;
  /// line -> mutex named by `// sysuq-guarded-by(<mutex>)` on a member.
  std::map<std::size_t, std::string> guarded_by;
  /// line -> locks from `// sysuq-requires(<mu>[, <mu>...])` on a function.
  std::map<std::size_t, std::set<std::string>> requires_locks;
  /// line -> locks from `// sysuq-excludes(<mu>[, <mu>...])` on a function.
  std::map<std::size_t, std::set<std::string>> excludes_locks;
  /// line -> role from `// sysuq-thread-confined(owner|worker|init)` on a
  /// member or type.
  std::map<std::size_t, std::string> confined;

  /// True when `rule` is suppressed on `line` (1-based).
  [[nodiscard]] bool allowed(std::size_t line, const std::string& rule) const;
};

/// Tokenizes `text` into `out` (tokens/includes/allows/lines). Never
/// throws on malformed input: unterminated constructs consume the rest
/// of the file, which is the useful behaviour for a linter.
void lex(const std::string& text, LexedFile& out);

/// Reads and lexes `path`. Returns false (and reports to stderr) when
/// the file cannot be read.
bool lex_file(const std::filesystem::path& path, LexedFile& out);

/// True for a floating-point literal token ("1.0", ".5", "2e-12", not
/// "0x1f", not "42").
[[nodiscard]] bool is_float_literal(const Token& t);

/// For a literal like "3e-12" or "1.5E-9" returns the (positive) decimal
/// exponent; 0 when the token has no negative decimal exponent.
[[nodiscard]] int negative_exponent_of(const Token& t);

}  // namespace sysuq_analyze
