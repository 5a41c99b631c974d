#include "sysuq_analyze/lexer.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <fstream>
#include <iostream>
#include <sstream>

namespace sysuq_analyze {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
bool digit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

// Longest-first list of multi-character punctuators we must not split
// (the passes care about ==, !=, compound assignments and ++/--).
constexpr std::array<const char*, 24> kPuncts = {
    "<<=", ">>=", "->*", "...", "<=>", "::", "->", "++", "--", "<<", ">>",
    "<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=",
    "&=", "|="};

// The parenthesized operand of `marker(` on `line`, or "" when absent.
std::string marker_operand(const std::string& line, const std::string& marker) {
  const std::size_t pos = line.find(marker);
  if (pos == std::string::npos) return "";
  const std::size_t start = pos + marker.size();
  const std::size_t close = line.find(')', start);
  if (close == std::string::npos) return "";
  return line.substr(start, close - start);
}

// Splits a comma-separated operand list, trimming blanks.
std::set<std::string> split_operands(const std::string& body) {
  std::set<std::string> out;
  std::size_t pos = 0;
  while (pos <= body.size()) {
    std::size_t comma = body.find(',', pos);
    if (comma == std::string::npos) comma = body.size();
    std::size_t b = pos, e = comma;
    while (b < e && (body[b] == ' ' || body[b] == '\t')) ++b;
    while (e > b && (body[e - 1] == ' ' || body[e - 1] == '\t')) --e;
    if (e > b) out.insert(body.substr(b, e - b));
    pos = comma + 1;
  }
  return out;
}

// Scans the sysuq-* markers on one raw line: lint-allow(rule),
// atomic-order(order), guarded-by(mutex), requires(mu, ...),
// excludes(mu, ...) and thread-confined(role).
void scan_markers(const std::string& line, std::size_t lineno, LexedFile& out) {
  static const std::string kAllow = "sysuq-lint-allow(";
  for (std::size_t pos = line.find(kAllow); pos != std::string::npos;
       pos = line.find(kAllow, pos + 1)) {
    const std::size_t start = pos + kAllow.size();
    const std::size_t close = line.find(')', start);
    if (close != std::string::npos)
      out.allows[lineno].insert(line.substr(start, close - start));
  }
  if (const std::string v = marker_operand(line, "sysuq-atomic-order(");
      !v.empty())
    out.atomic_orders[lineno] = v;
  if (const std::string v = marker_operand(line, "sysuq-guarded-by(");
      !v.empty())
    out.guarded_by[lineno] = v;
  if (const std::string v = marker_operand(line, "sysuq-requires(");
      !v.empty())
    out.requires_locks[lineno] = split_operands(v);
  if (const std::string v = marker_operand(line, "sysuq-excludes(");
      !v.empty())
    out.excludes_locks[lineno] = split_operands(v);
  if (const std::string v = marker_operand(line, "sysuq-thread-confined(");
      !v.empty())
    out.confined[lineno] = v;
}

struct Scanner {
  const std::string& s;
  std::size_t i = 0;
  std::size_t line = 1;
  std::size_t line_start = 0;

  [[nodiscard]] bool eof() const { return i >= s.size(); }
  [[nodiscard]] char cur() const { return s[i]; }
  [[nodiscard]] char peek(std::size_t k = 1) const {
    return i + k < s.size() ? s[i + k] : '\0';
  }
  void advance() {
    if (s[i] == '\n') {
      ++line;
      line_start = i + 1;
    }
    ++i;
  }
  [[nodiscard]] std::size_t col() const { return i - line_start; }
};

// Consumes a quoted or angled include path from a directive body.
void parse_include(const std::string& body, std::size_t lineno,
                   LexedFile& out) {
  std::size_t j = 0;
  while (j < body.size() && (body[j] == ' ' || body[j] == '\t')) ++j;
  if (j >= body.size()) return;
  const char open = body[j];
  char close = 0;
  if (open == '"') close = '"';
  if (open == '<') close = '>';
  if (close == 0) return;
  const std::size_t end = body.find(close, j + 1);
  if (end == std::string::npos) return;
  out.includes.push_back(
      {body.substr(j + 1, end - j - 1), lineno, open == '<'});
}

}  // namespace

bool LexedFile::allowed(std::size_t line, const std::string& rule) const {
  const auto it = allows.find(line);
  return it != allows.end() && it->second.count(rule) > 0;
}

void lex(const std::string& text, LexedFile& out) {
  // Raw lines for marker scanning and reporting context.
  {
    std::istringstream in(text);
    std::string l;
    std::size_t n = 1;
    while (std::getline(in, l)) {
      scan_markers(l, n, out);
      out.lines.push_back(std::move(l));
      ++n;
    }
  }

  Scanner sc{text};
  bool at_line_start = true;  // only whitespace seen so far on this line
  while (!sc.eof()) {
    const char c = sc.cur();

    if (c == '\n') {
      at_line_start = true;
      sc.advance();
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
      sc.advance();
      continue;
    }

    // Comments.
    if (c == '/' && sc.peek() == '/') {
      while (!sc.eof() && sc.cur() != '\n') sc.advance();
      continue;
    }
    if (c == '/' && sc.peek() == '*') {
      sc.advance();
      sc.advance();
      while (!sc.eof() && !(sc.cur() == '*' && sc.peek() == '/')) sc.advance();
      if (!sc.eof()) {
        sc.advance();
        sc.advance();
      }
      continue;
    }

    // Preprocessor directive: consume the logical line (with \-splices),
    // recording #include paths. Directive tokens never reach the stream.
    if (c == '#' && at_line_start) {
      const std::size_t dir_line = sc.line;
      std::string body;
      sc.advance();  // '#'
      while (!sc.eof()) {
        if (sc.cur() == '\\' && sc.peek() == '\n') {
          sc.advance();
          sc.advance();
          continue;
        }
        if (sc.cur() == '\n') break;
        // A // comment ends the directive body.
        if (sc.cur() == '/' && sc.peek() == '/') break;
        body += sc.cur();
        sc.advance();
      }
      std::size_t j = 0;
      while (j < body.size() && (body[j] == ' ' || body[j] == '\t')) ++j;
      if (body.compare(j, 7, "include") == 0)
        parse_include(body.substr(j + 7), dir_line, out);
      continue;
    }
    at_line_start = false;

    // Identifier (or raw-string prefix).
    if (ident_start(c)) {
      const std::size_t line0 = sc.line, col0 = sc.col();
      std::string id;
      while (!sc.eof() && ident_char(sc.cur())) {
        id += sc.cur();
        sc.advance();
      }
      // Raw string literal: prefix immediately followed by '"'.
      const bool raw_prefix = id == "R" || id == "u8R" || id == "uR" ||
                              id == "LR" || id == "UR";
      if (raw_prefix && !sc.eof() && sc.cur() == '"') {
        sc.advance();  // '"'
        std::string delim;
        while (!sc.eof() && sc.cur() != '(') {
          delim += sc.cur();
          sc.advance();
        }
        if (!sc.eof()) sc.advance();  // '('
        const std::string closer = ")" + delim + "\"";
        std::string body;
        while (!sc.eof()) {
          if (sc.s.compare(sc.i, closer.size(), closer) == 0) {
            for (std::size_t k = 0; k < closer.size(); ++k) sc.advance();
            break;
          }
          body += sc.cur();
          sc.advance();
        }
        out.tokens.push_back({TokKind::kString, body, line0, col0});
        continue;
      }
      // Ordinary string/char prefix (u8"...", L'x', ...): fold the
      // prefix into the literal that follows.
      const bool lit_prefix =
          (id == "u8" || id == "u" || id == "U" || id == "L") && !sc.eof() &&
          (sc.cur() == '"' || sc.cur() == '\'');
      if (!lit_prefix) {
        out.tokens.push_back({TokKind::kIdent, id, line0, col0});
        continue;
      }
      // fall through to the literal scanners below with the prefix eaten
    }

    // String literal.
    if (sc.cur() == '"') {
      const std::size_t line0 = sc.line, col0 = sc.col();
      sc.advance();
      std::string body;
      while (!sc.eof() && sc.cur() != '"' && sc.cur() != '\n') {
        if (sc.cur() == '\\') {
          body += sc.cur();
          sc.advance();
          if (sc.eof()) break;
        }
        body += sc.cur();
        sc.advance();
      }
      if (!sc.eof() && sc.cur() == '"') sc.advance();
      out.tokens.push_back({TokKind::kString, body, line0, col0});
      continue;
    }

    // Character literal.
    if (sc.cur() == '\'') {
      const std::size_t line0 = sc.line, col0 = sc.col();
      sc.advance();
      std::string body;
      while (!sc.eof() && sc.cur() != '\'' && sc.cur() != '\n') {
        if (sc.cur() == '\\') {
          body += sc.cur();
          sc.advance();
          if (sc.eof()) break;
        }
        body += sc.cur();
        sc.advance();
      }
      if (!sc.eof() && sc.cur() == '\'') sc.advance();
      out.tokens.push_back({TokKind::kChar, body, line0, col0});
      continue;
    }

    // pp-number: digits, '.', exponent signs, suffix letters, and digit
    // separators (1'000'000 — the separator that broke the old stripper).
    if (digit(sc.cur()) || (sc.cur() == '.' && digit(sc.peek()))) {
      const std::size_t line0 = sc.line, col0 = sc.col();
      std::string num;
      while (!sc.eof()) {
        const char d = sc.cur();
        if (ident_char(d) || d == '.') {
          num += d;
          sc.advance();
          if ((d == 'e' || d == 'E' || d == 'p' || d == 'P') && !sc.eof() &&
              (sc.cur() == '+' || sc.cur() == '-') &&
              num.find('x') == std::string::npos &&
              num.find('X') == std::string::npos) {
            num += sc.cur();
            sc.advance();
          }
          continue;
        }
        // Digit separator. Hex/binary groups can start with a letter
        // (0xDEAD'BEEF), so any identifier character continues the
        // number — requiring a decimal digit here used to end the token
        // at the separator and mis-lex the rest as a char literal that
        // swallowed everything to the end of the line.
        if (d == '\'' && ident_char(sc.peek())) {
          sc.advance();
          continue;
        }
        break;
      }
      out.tokens.push_back({TokKind::kNumber, num, line0, col0});
      continue;
    }

    // Punctuator, maximal munch.
    {
      const std::size_t line0 = sc.line, col0 = sc.col();
      std::string p;
      for (const char* multi : kPuncts) {
        const std::size_t len = std::string(multi).size();
        if (sc.s.compare(sc.i, len, multi) == 0) {
          p = multi;
          break;
        }
      }
      if (p.empty()) p = std::string(1, sc.cur());
      for (std::size_t k = 0; k < p.size(); ++k) sc.advance();
      out.tokens.push_back({TokKind::kPunct, p, line0, col0});
    }
  }
}

bool lex_file(const std::filesystem::path& path, LexedFile& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "sysuq_analyze: cannot read " << path << "\n";
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  out.abs_path = path;
  lex(buf.str(), out);
  return true;
}

std::size_t match_bracket(const std::vector<Token>& t, std::size_t i,
                          std::size_t limit, const char* open,
                          const char* close) {
  int depth = 0;
  for (; i < limit; ++i) {
    if (is_punct(t[i], open)) ++depth;
    else if (is_punct(t[i], close) && --depth == 0) return i + 1;
  }
  return limit;
}

bool is_float_literal(const Token& t) {
  if (t.kind != TokKind::kNumber) return false;
  const std::string& s = t.text;
  if (s.size() > 1 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X'))
    return false;  // hex; 0x1p3 hex floats are not worth flagging
  if (s.find('.') != std::string::npos) return true;
  return s.find('e') != std::string::npos || s.find('E') != std::string::npos;
}

int negative_exponent_of(const Token& t) {
  if (t.kind != TokKind::kNumber) return 0;
  const std::string& s = t.text;
  if (s.size() > 1 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) return 0;
  std::size_t e = s.find_first_of("eE");
  if (e == std::string::npos || e + 2 >= s.size() + 1) return 0;
  if (s[e + 1] != '-') return 0;
  int exp = 0;
  for (std::size_t j = e + 2; j < s.size() && digit(s[j]); ++j)
    exp = exp * 10 + (s[j] - '0');
  return exp;
}

}  // namespace sysuq_analyze
