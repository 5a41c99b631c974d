// sysuq_analyze — project-aware static analyzer for the sysuq codebase.
//
//   sysuq_analyze [--sarif FILE] [--only rule1,rule2] [--jobs N] [root...]
//
// Each root is scanned recursively for C++ sources/headers; the default
// root is `src`. Paths are reported relative to the invocation, so run
// it from the repository root (CI does). Exit codes: 0 clean,
// 1 violations, 2 usage/IO error — same protocol as the old sysuq_lint.
//
// Lexing and model building fan out over a worker pool (the engine's
// fixed-slot pattern: an atomic cursor over a pre-sorted work list,
// results landing in index-addressed slots), so output stays
// byte-identical to a serial run. A cross-root cache keyed by canonical
// absolute path tokenizes each file once even when scan roots overlap.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "sysuq_analyze/dataflow.hpp"
#include "sysuq_analyze/lexer.hpp"
#include "sysuq_analyze/model.hpp"
#include "sysuq_analyze/passes.hpp"
#include "sysuq_analyze/sarif.hpp"

namespace {

namespace fs = std::filesystem;
using namespace sysuq_analyze;

// Modules whose first path component makes a file part of the layered
// tree; anything else (tests/, bench/, tools/...) is linted but takes
// no part in layering/contract bookkeeping.
const std::set<std::string>& known_modules() {
  static const std::set<std::string> kModules = {
      "core", "prob",   "bayesnet", "evidence", "perception",
      "fta",  "markov", "obs",      "orbit",    "sys"};
  return kModules;
}

bool has_cpp_ext(const fs::path& p, bool& is_header, bool& is_source) {
  const std::string ext = p.extension().string();
  is_header = ext == ".hpp" || ext == ".h" || ext == ".hxx";
  is_source = ext == ".cpp" || ext == ".cc" || ext == ".cxx";
  return is_header || is_source;
}

// Fixture trees are full of deliberate violations: skip them during
// recursion unless the scan root itself points inside one (which is how
// the fixture ctests invoke us).
bool skip_dir(const fs::path& dir) {
  const std::string name = dir.filename().string();
  if (name.empty()) return false;
  if (name[0] == '.') return true;
  if (name.rfind("build", 0) == 0) return true;
  if (name == "lint_fixture") return true;
  return false;
}

bool root_inside_fixture(const fs::path& root) {
  for (const auto& part : root) {
    if (part.string() == "lint_fixture") return true;
  }
  return false;
}

/// One file waiting to be lexed: where it is and which scan root claims
/// it (a file can be queued once per root that reaches it; the lex
/// cache makes the second tokenization free).
struct PendingFile {
  fs::path path;
  std::string root_arg;
  bool file_root = false;  ///< the root itself was a regular file
};

int collect_paths(const std::string& root_arg, std::vector<PendingFile>& out) {
  const fs::path root(root_arg);
  std::error_code ec;
  if (!fs::exists(root, ec) || ec) {
    std::cerr << "sysuq_analyze: no such path: " << root_arg << "\n";
    return 2;
  }
  const bool in_fixture = root_inside_fixture(fs::absolute(root));

  std::vector<fs::path> paths;
  if (fs::is_regular_file(root)) {
    out.push_back({root, root_arg, /*file_root=*/true});
    return 0;
  }
  fs::recursive_directory_iterator it(
      root, fs::directory_options::skip_permission_denied, ec);
  const fs::recursive_directory_iterator end;
  for (; it != end; it.increment(ec)) {
    if (ec) {
      std::cerr << "sysuq_analyze: walk error under " << root_arg << ": "
                << ec.message() << "\n";
      return 2;
    }
    if (it->is_directory() && !in_fixture && skip_dir(it->path())) {
      it.disable_recursion_pending();
      continue;
    }
    bool h = false, s = false;
    if (it->is_regular_file() && has_cpp_ext(it->path(), h, s))
      paths.push_back(it->path());
  }
  std::sort(paths.begin(), paths.end());
  for (const auto& p : paths) out.push_back({p, root_arg, false});
  return 0;
}

/// Tokenized-file cache shared by the workers: key is the canonical
/// absolute path, value the root-independent lex result. Headers
/// reached through several scan roots (or listed twice on the command
/// line) tokenize exactly once.
class LexCache {
 public:
  /// Returns the cached lex of `abs`, tokenizing on miss. Null when the
  /// file cannot be read.
  std::shared_ptr<const LexedFile> get(const fs::path& abs) {
    const std::string key = abs.string();
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = by_path_.find(key);
      if (it != by_path_.end()) return it->second;
    }
    auto fresh = std::make_shared<LexedFile>();
    fresh->abs_path = abs;
    const bool ok = lex_file(abs, *fresh);
    std::shared_ptr<const LexedFile> stored = ok ? fresh : nullptr;
    std::lock_guard<std::mutex> lock(mu_);
    by_path_.emplace(key, stored);
    return stored;
  }

 private:
  std::mutex mu_;
  // sysuq-guarded-by(mu_)
  std::map<std::string, std::shared_ptr<const LexedFile>> by_path_;
};

/// Lexes and models `pending[i]` into `slots[i]`. Returns false on
/// read failure (already reported by lex_file).
bool analyze_one(const PendingFile& pf, LexCache& cache, AnalyzedFile& slot) {
  const fs::path abs = fs::absolute(pf.path);
  const std::shared_ptr<const LexedFile> lexed = cache.get(abs);
  if (lexed == nullptr) return false;
  LexedFile f = *lexed;  // per-root fields differ; tokens are shared work
  f.root = pf.file_root ? std::string() : pf.root_arg;
  const fs::path rel = pf.file_root
                           ? pf.path.filename()
                           : pf.path.lexically_relative(pf.root_arg);
  f.rel = rel.generic_string();
  has_cpp_ext(pf.path, f.is_header, f.is_source);
  f.module_name.clear();
  const auto first = rel.begin();
  if (first != rel.end() && known_modules().count(first->string()) > 0)
    f.module_name = first->string();
  slot.lex = std::move(f);
  slot.model = build_model(slot.lex);
  return true;
}

int usage() {
  std::cerr << "usage: sysuq_analyze [--sarif FILE] [--only rule1,rule2] "
               "[--jobs N] [root...]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> roots;
  std::string sarif_path;
  unsigned jobs = std::max(1u, std::min(8u, std::thread::hardware_concurrency()));
  Reporter rep;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--sarif") {
      if (++a >= argc) return usage();
      sarif_path = argv[a];
    } else if (arg == "--only") {
      if (++a >= argc) return usage();
      std::string rules = argv[a];
      std::size_t pos = 0;
      while (pos <= rules.size()) {
        const std::size_t comma = rules.find(',', pos);
        const std::string rule =
            rules.substr(pos, comma == std::string::npos ? comma : comma - pos);
        if (!rule.empty()) rep.only.insert(rule);
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (arg == "--jobs") {
      if (++a >= argc) return usage();
      try {
        jobs = static_cast<unsigned>(std::stoul(argv[a]));
      } catch (...) {
        return usage();
      }
      if (jobs == 0) jobs = 1;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) roots.emplace_back("src");

  // Unknown rule names in --only are a usage error: a typo would
  // otherwise silently disable the filter's target and pass CI.
  {
    std::set<std::string> known;
    for (const RuleDoc& r : rule_catalog()) known.insert(r.id);
    std::vector<std::string> bad;
    for (const std::string& r : rep.only)
      if (known.count(r) == 0) bad.push_back(r);
    if (!bad.empty()) {
      std::cerr << "sysuq_analyze: unknown rule(s) in --only:";
      for (const std::string& r : bad) std::cerr << " " << r;
      std::cerr << "\nvalid rules:";
      for (const RuleDoc& r : rule_catalog()) std::cerr << " " << r.id;
      std::cerr << "\n";
      return 2;
    }
  }

  std::vector<PendingFile> pending;
  for (const auto& root : roots) {
    if (const int rc = collect_paths(root, pending); rc != 0) return rc;
  }

  // Fan out: fixed result slots, atomic cursor, byte-identical to the
  // serial order because slot i always holds pending[i]'s result.
  Project project;
  project.files.resize(pending.size());
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};
  LexCache cache;
  const unsigned nthreads =
      static_cast<unsigned>(std::min<std::size_t>(jobs, pending.size()));
  const auto worker = [&] {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1);
      if (i >= pending.size()) return;
      if (!analyze_one(pending[i], cache, project.files[i]))
        failed.store(true);
    }
  };
  if (nthreads <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(nthreads);
    for (unsigned i = 0; i < nthreads; ++i) threads.emplace_back(worker);
    for (auto& th : threads) th.join();
  }
  if (failed.load()) return 2;
  project.index();
  const CallGraph calls = build_call_graph(project);

  pass_layering(project, rep);
  pass_contracts(project, calls, rep);
  pass_mutate(project, rep);
  pass_legacy(project, rep);
  pass_arena(project, rep);
  pass_lockorder(project, calls, rep);
  pass_logdomain(project, rep);
  pass_obscontext(project, rep);
  pass_threadescape(project, calls, rep);
  pass_guards(project, rep);

  std::sort(rep.violations.begin(), rep.violations.end(),
            [](const Violation& a, const Violation& b) {
              return std::tie(a.path, a.line, a.rule, a.message) <
                     std::tie(b.path, b.line, b.rule, b.message);
            });
  std::set<std::string> files_hit;
  for (const auto& v : rep.violations) {
    std::cout << v.path << ":" << v.line << ": [" << v.rule << "] "
              << v.message << "\n";
    files_hit.insert(v.path);
  }

  if (!sarif_path.empty()) {
    std::ofstream os(sarif_path);
    if (!os || !write_sarif(os, rep.violations)) {
      std::cerr << "sysuq_analyze: cannot write SARIF to " << sarif_path
                << "\n";
      return 2;
    }
  }

  if (rep.violations.empty()) {
    std::cout << "sysuq_analyze: OK (" << project.files.size() << " files)\n";
    return 0;
  }
  std::cout << "sysuq_analyze: " << rep.violations.size()
            << " violation(s) in " << files_hit.size() << " file(s)\n";
  return 1;
}
