// validate-before-mutate — a member mutation that precedes the last
// precondition check (SYSUQ_EXPECT / SYSUQ_ASSERT_PROB*) in a function
// leaves the object half-mutated when the check throws: the set_cpt
// bug class. Validate everything, then mutate.
#include "sysuq_analyze/passes.hpp"

#include <cstddef>
#include <string>

#include "sysuq_analyze/lockscope.hpp"

namespace sysuq_analyze {

namespace {

void check_validate_before_mutate(const LexedFile& f, const FunctionDef& def,
                                  const ClassInfo* ci, Reporter& rep) {
  const auto& t = f.tokens;
  // Last precondition check in the body. SYSUQ_ENSURE is a
  // postcondition: mutations naturally precede it, so it does not count.
  std::size_t last_check = 0;
  bool has_check = false;
  for (std::size_t i = def.body_begin; i < def.body_end; ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    if (t[i].text == "SYSUQ_EXPECT" || t[i].text == "SYSUQ_ASSERT_PROB" ||
        t[i].text == "SYSUQ_ASSERT_PROB_VEC") {
      last_check = i;
      has_check = true;
    }
  }
  if (!has_check) return;

  for (std::size_t i = def.body_begin; i < last_check; ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    const std::string& name = t[i].text;
    const bool member_name =
        ci != nullptr
            ? ci->member(name) != nullptr
            : name.size() > 1 && name.back() == '_';  // repo style: foo_
    if (!member_name) continue;
    if (ci != nullptr && ci->member(name)->is_mutex) continue;
    if (plain_member_access(f, i) && member_write_at(f, i)) {
      rep.report(f, t[i].line, "validate-before-mutate",
                 "member '" + name +
                     "' is mutated before the function's last precondition "
                     "check; a throwing contract would leave the object "
                     "half-mutated (validate everything, then mutate)");
    }
  }
}

}  // namespace

void pass_mutate(const Project& project, Reporter& rep) {
  if (!rep.enabled("validate-before-mutate")) return;
  for (const auto& af : project.files) {
    for (const auto& def : af.model.defs) {
      if (def.is_ctor || def.is_dtor) continue;
      const ClassInfo* ci = def.class_name.empty()
                                ? nullptr
                                : project.find_class(af, def.class_name);
      check_validate_before_mutate(af.lex, def, ci, rep);
    }
  }
}

}  // namespace sysuq_analyze
