// obs-context: trace-context propagation across pooled dispatches.
//
// A function that opens an obs::Span and then fans work onto a thread
// pool must hand the span's TraceContext to the tasks — capture
// obs::current_context() before the dispatch and install it inside
// each task with obs::ContextScope. Without the handoff, worker-side
// spans root fresh traces and a query's profile fragments into
// disconnected per-worker traces (the bug class the engine's
// query_batch/sample_batch pattern exists to prevent).
//
// Heuristic, like the rest of the analyzer: a "pooled dispatch" is an
// identifier containing "pool" followed by `->run(` or `.run(`; the
// function is exempt the moment its body mentions current_context or
// ContextScope.
#include "sysuq_analyze/passes.hpp"

#include <string>

namespace sysuq_analyze {

void pass_obscontext(const Project& project, Reporter& rep) {
  for (const auto& af : project.files) {
    const auto& toks = af.lex.tokens;
    for (const auto& def : af.model.defs) {
      if (def.body_begin >= def.body_end || def.body_end > toks.size())
        continue;
      bool has_span = false;
      bool has_handoff = false;
      std::size_t dispatch_line = 0;
      for (std::size_t i = def.body_begin; i < def.body_end; ++i) {
        const Token& t = toks[i];
        if (t.kind != TokKind::kIdent) continue;
        if (t.text == "Span") has_span = true;
        if (t.text == "current_context" || t.text == "ContextScope")
          has_handoff = true;
        if (dispatch_line == 0 &&
            t.text.find("pool") != std::string::npos &&
            i + 3 < def.body_end &&
            (is_punct(toks[i + 1], "->") || is_punct(toks[i + 1], ".")) &&
            is_ident(toks[i + 2], "run") &&
            is_punct(toks[i + 3], "(")) {
          dispatch_line = toks[i + 2].line;
        }
      }
      if (has_span && dispatch_line != 0 && !has_handoff) {
        rep.report(af.lex, dispatch_line, "obs-context",
                   "pooled dispatch inside an obs::Span without trace-context "
                   "handoff; capture obs::current_context() before the "
                   "dispatch and install it in each task with "
                   "obs::ContextScope");
      }
    }
  }
}

}  // namespace sysuq_analyze
