// fta_diagnosis_jt: top-event diagnosis on a compiled fault tree.
//
// One op is one all_marginals call on a 1-thread kAuto engine, under
// {top = failed} plus 1-3 observed basic events. Three in four ops reuse
// an assignment from a hot set calibrated during set-up (junction-tree
// cache reads); one in four uses a fresh assignment (a new calibration and
// a cache insert), so both cache paths run.
//
// The tree's shape is generated from a fixed structure seed, so every run
// seed sees the same cliques and a comparable cost; the run seed draws the
// basic-event probabilities and all evidence. Basic events are shared
// only with the two preceding modules: globally random sharing grows the
// elimination plan past the exact backends' ceiling.
#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>

#include "bayesnet/junction_tree.hpp"
#include "bayesnet/ordering.hpp"
#include "bayesnet/profile.hpp"
#include "core/tolerance.hpp"
#include "fta/fta_to_bn.hpp"
#include "rng.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

namespace bn = sysuq::bayesnet;
namespace ft = sysuq::fta;
namespace pr = sysuq::prob;

constexpr std::uint64_t kStructureSeed = 0x0F7A5EEDULL;
constexpr std::size_t kModules = 30;
constexpr std::size_t kEventsPerModule = 8;
constexpr std::size_t kModulesPerSubsystem = 6;
constexpr std::size_t kHotSet = 8;
constexpr std::size_t kKeepEvery = 8;  // verify every 8th op
constexpr std::size_t kMaxKept = 32;
constexpr std::size_t kVerifyVars = 6;

// 30 modules of 8 basic events (240 events) under AND / OR / k-of-n
// gates, grouped into 5 subsystems under an OR top event.
ft::FaultTree make_tree(std::uint64_t seed) {
  Rng shape(kStructureSeed);
  Rng probs = Rng(seed).split(3);
  ft::FaultTree tree;
  std::vector<std::vector<ft::NodeId>> events(kModules);
  std::vector<ft::NodeId> module_gates;
  for (std::size_t m = 0; m < kModules; ++m) {
    const std::string p = "m" + std::to_string(m);
    for (std::size_t e = 0; e < kEventsPerModule; ++e)
      events[m].push_back(tree.add_basic_event(p + "_e" + std::to_string(e),
                                               probs.uniform(0.01, 0.2)));
    const auto& ev = events[m];
    std::vector<ft::NodeId> g2{ev[4], ev[5]};
    std::vector<ft::NodeId> g3{ev[6], ev[7]};
    if (m >= 1) g2.push_back(events[m - 1][shape.index(kEventsPerModule)]);
    if (m >= 2) g3.push_back(events[m - 2][shape.index(kEventsPerModule)]);
    const auto a = tree.add_gate(p + "_vote", ft::GateType::kKooN,
                                 {ev[0], ev[1], ev[2], ev[3]}, 2);
    const auto b = tree.add_gate(p + "_and", ft::GateType::kAnd, g2);
    const auto c = tree.add_gate(p + "_or", ft::GateType::kOr, g3);
    module_gates.push_back(shape.index(2) == 0
                               ? tree.add_gate(p, ft::GateType::kOr, {a, b, c})
                               : tree.add_gate(p, ft::GateType::kKooN, {a, b, c}, 2));
  }
  std::vector<ft::NodeId> subsystems;
  for (std::size_t s = 0; s * kModulesPerSubsystem < kModules; ++s) {
    std::vector<ft::NodeId> kids(module_gates.begin() + s * kModulesPerSubsystem,
                                 module_gates.begin() + (s + 1) * kModulesPerSubsystem);
    subsystems.push_back(tree.add_gate("sub" + std::to_string(s),
                                       ft::GateType::kKooN, kids,
                                       1 + shape.index(2)));
  }
  tree.set_top(tree.add_gate("top", ft::GateType::kOr, subsystems));
  return tree;
}

// The seeded inputs: the compiled tree, the hot set and the op stream.
struct FtaInputs {
  explicit FtaInputs(std::uint64_t seed)
      : tree(make_tree(seed)), ops(Rng(seed).split(4)) {
    {
      const Span span("fta.compile_to_bayesnet");
      compiled = ft::compile_to_bayesnet(tree);
    }
    basic = tree.basic_events();
    while (hot.size() < kHotSet) hot.push_back(fresh());
  }

  // {top = failed} plus 1-3 observed basic events, never drawn before.
  bn::Evidence fresh() {
    for (;;) {
      bn::Evidence ev{{compiled.top, 1}};
      const std::size_t observed = 1 + ops.index(3);
      while (ev.size() < observed + 1)
        ev[compiled.node_map[basic[ops.index(basic.size())]]] = ops.index(2);
      if (seen.insert(ev).second) return ev;
    }
  }

  // Op i: the fresh slot of each block of four is drawn at the block's
  // start, so the mix is exactly 3:1 and seed-determined.
  bn::Evidence next(std::size_t i) {
    if (i % 4 == 0) fresh_slot = ops.index(4);
    if (i % 4 == fresh_slot) return fresh();
    return hot[ops.index(hot.size())];
  }

  ft::FaultTree tree;
  ft::CompiledNetwork compiled;
  std::vector<ft::NodeId> basic;
  std::vector<bn::Evidence> hot;
  std::set<bn::Evidence> seen;
  Rng ops;
  std::size_t fresh_slot = 0;
};

class FtaDiagnosisJt final : public Workload {
 public:
  explicit FtaDiagnosisJt(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    inputs_ = std::make_unique<FtaInputs>(seed_);
    {
      const Span span("engine.construct");
      engine_ = std::make_unique<bn::InferenceEngine>(
          inputs_->compiled.network, bn::InferenceEngine::Options{.threads = 1});
    }
    for (const auto& ev : inputs_->hot) {
      const Span span("engine.all_marginals");
      (void)engine_->all_marginals(ev);
    }
  }

  void prepare(std::size_t i) override { evidence_ = inputs_->next(i); }
  void run() override { out_ = engine_->all_marginals(evidence_); }

  bool accept(std::size_t i) override {
    const auto& net = inputs_->compiled.network;
    if (out_.size() != net.size()) return false;
    // The diagnosis condition: the top marginal is the delta on failed.
    if (out_[inputs_->compiled.top].p(1) != 1.0) return false;
    if (i % kKeepEvery == 0 && kept_.size() < kMaxKept)
      kept_.push_back({evidence_, out_});
    return true;
  }

  std::size_t verify(std::vector<std::string>& why) override {
    const auto& net = inputs_->compiled.network;
    const bn::InferenceEngine ve(
        net, {.threads = 1, .backend = bn::Backend::kVariableElimination});
    Rng pick = Rng(seed_).split(5);
    std::size_t failed = 0;
    for (const auto& [ev, got] : kept_) {
      bool ok = true;
      for (std::size_t k = 0; k < kVerifyVars && ok; ++k) {
        bn::VariableId v = 0;
        do {
          v = pick.index(net.size());
        } while (ev.contains(v));
        const auto exact = ve.query(v, ev);
        for (std::size_t s = 0; s < exact.size(); ++s)
          if (!(std::fabs(got[v].p(s) - exact.p(s)) < sysuq::tolerance::kProbSum))
            ok = false;
      }
      if (!ok) {
        ++failed;
        why.push_back("fta marginals disagree with variable elimination");
      }
    }
    return failed;
  }

  [[nodiscard]] std::size_t verified() const override { return kept_.size(); }
  [[nodiscard]] const bn::InferenceEngine& engine() const override { return *engine_; }

 private:
  std::uint64_t seed_;
  std::unique_ptr<FtaInputs> inputs_;
  std::unique_ptr<bn::InferenceEngine> engine_;
  bn::Evidence evidence_;
  std::vector<pr::Categorical> out_;
  std::vector<std::pair<bn::Evidence, std::vector<pr::Categorical>>> kept_;
};

}  // namespace

std::unique_ptr<Workload> make_fta_diagnosis_jt(std::uint64_t seed) {
  return std::make_unique<FtaDiagnosisJt>(seed);
}

void probe_fta(std::uint64_t seed, Metrics& out) {
  constexpr std::size_t kCompiles = 5;
  constexpr std::size_t kFresh = 6;
  constexpr std::size_t kReads = 50;
  auto& tracer = Tracer::global();

  const ft::FaultTree tree = make_tree(seed);
  double compile_ms = 0.0;
  for (std::size_t r = 0; r < kCompiles; ++r) {
    const auto t0 = Clock::now();
    const Span span("fta.compile_to_bayesnet");
    (void)ft::compile_to_bayesnet(tree);
    compile_ms += ms_since(t0);
  }
  put(out, "fta.compile_ms", compile_ms / kCompiles, "ms");

  // The workload's first fresh assignments, replayed layer by layer.
  FtaInputs in(seed);
  const auto& net = in.compiled.network;
  double order_ms = 0.0, guard_ms = 0.0, build_ms = 0.0, read_ms = 0.0;
  std::size_t width = 0, fill = 0, max_clique = 0, cliques = 0;
  for (std::size_t k = 0; k < kFresh; ++k) {
    tracer.set_op(k);
    const bn::Evidence ev = in.fresh();
    std::vector<bn::VariableId> keys;
    for (const auto& [v, _] : ev) keys.push_back(v);
    auto t0 = Clock::now();
    bn::EliminationOrdering ordering;
    {
      const Span span("ordering.compute_elimination_order");
      ordering = bn::compute_elimination_order(net, {}, keys);
    }
    order_ms += ms_since(t0);
    width = std::max(width, ordering.induced_width);
    fill = std::max(fill, ordering.fill_edges);
    t0 = Clock::now();
    {
      const Span span("engine.guard");
      (void)bn::simulate_elimination(net, ev, ordering.order, {});
    }
    guard_ms += ms_since(t0);
    t0 = Clock::now();
    std::unique_ptr<bn::JunctionTree> jt;
    {
      const Span span("junction_tree.build");
      jt = std::make_unique<bn::JunctionTree>(net, ev);
    }
    build_ms += ms_since(t0);
    max_clique = std::max(max_clique, jt->max_clique_size());
    cliques = std::max(cliques, jt->clique_count());
    put_max(out, "arena.high_water_bytes",
            static_cast<double>(jt->arena_high_water_bytes()), "bytes");
    // A cache hit's read: the engine copies the calibrated marginals out.
    t0 = Clock::now();
    for (std::size_t r = 0; r < kReads; ++r) {
      const Span span("junction_tree.read");
      std::vector<pr::Categorical> copy = jt->all_marginals();
      if (copy.size() != net.size()) throw std::logic_error("fta probe: marginals");
    }
    read_ms += ms_since(t0);
  }
  put(out, "ordering.order_ms.fta", order_ms / kFresh, "ms");
  put(out, "ordering.induced_width.fta", static_cast<double>(width), "count");
  put(out, "ordering.fill_edges.fta", static_cast<double>(fill), "count");
  put(out, "engine.guard_ms.fta", guard_ms / kFresh, "ms");
  put(out, "junction_tree.build_ms", build_ms / kFresh, "ms");
  put(out, "junction_tree.max_clique_size", static_cast<double>(max_clique), "count");
  put(out, "junction_tree.cliques", static_cast<double>(cliques), "count");
  put(out, "junction_tree.read_us", read_ms * 1e3 / (kFresh * kReads), "us");
}

}  // namespace perfbench
