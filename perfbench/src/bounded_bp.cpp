// bounded_bp_fanin, and the loopy-BP layer replays of the traced run.
//
//  * fanin: a noisy-OR child of 14 binary parents, one factor of degree 15
//    (where BP's per-message cost grows with the square of the degree).
//    One op of the bounded_bp_fanin workload is one query_bounded(child,
//    e) on a 1-thread engine, e observing 2-4 parents; no assignment
//    repeats, so every op is a BP cache miss and a fresh BP run.
//  * grid: the 25x25 grid of the differential suite, factors of degree
//    <= 3, with evidence on 3 seeded signatures of 14 cells; kAuto's guard
//    escalates every such query to BP under default options. Measured per
//    layer only: each of its set-ups computes three ~450 ms orderings,
//    which the benchmark's time budget cannot repeat per run.
#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>

#include <cmath>

#include "bayesnet/builders.hpp"
#include "bayesnet/loopy_bp.hpp"
#include "bayesnet/ordering.hpp"
#include "bayesnet/profile.hpp"
#include "rng.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

namespace bn = sysuq::bayesnet;
namespace pr = sysuq::prob;

constexpr std::size_t kParents = 14;
constexpr std::size_t kSide = 25;
constexpr std::size_t kSignatures = 3;
constexpr std::size_t kSignatureKeys = 14;
constexpr std::size_t kMinObserved = 2;
constexpr std::size_t kMaxObserved = 4;
constexpr std::size_t kKeepEvery = 16;  // verify every 16th op
constexpr std::size_t kMaxKept = 64;

// ---- fanin ------------------------------------------------------------

// Every parent subset of kMinObserved..kMaxObserved parents, each with
// every assignment of its values: 19292 evidence assignments, visited in
// a seeded order, so a run meets each at most once at up to ~4x today's
// op rate.
struct FaninInputs {
  explicit FaninInputs(std::uint64_t seed) {
    Rng params = Rng(seed).split(6);
    std::vector<bn::VariableId> parents;
    std::vector<double> links;
    for (std::size_t i = 0; i < kParents; ++i) {
      const auto id = net.add_variable("cause" + std::to_string(i), {"off", "on"});
      const double p = params.uniform(0.05, 0.5);
      net.set_cpt(id, {}, {pr::Categorical({1.0 - p, p})});
      parents.push_back(id);
      links.push_back(params.uniform(0.2, 0.9));
    }
    child = net.add_variable("effect", {"false", "true"});
    net.set_cpt(child, parents, bn::noisy_or_cpt(links, 0.01));

    for (std::uint32_t mask = 0; mask < (1u << kParents); ++mask) {
      const auto observed = static_cast<std::size_t>(__builtin_popcount(mask));
      if (observed < kMinObserved || observed > kMaxObserved) continue;
      for (std::uint32_t values = 0; values < (1u << observed); ++values)
        order.push_back({mask, values});
    }
    Rng shuffle = Rng(seed).split(7);
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[shuffle.index(i)]);
  }

  // Op i's evidence: the i-th assignment of the seeded order (they repeat
  // only after all have been used).
  [[nodiscard]] bn::Evidence next(std::size_t i) const {
    const auto [mask, values] = order[i % order.size()];
    bn::Evidence ev;
    std::size_t bit = 0;
    for (bn::VariableId p = 0; p < kParents; ++p)
      if ((mask >> p) & 1u) ev[p] = (values >> bit++) & 1u;
    return ev;
  }

  bn::BayesianNetwork net;
  bn::VariableId child = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> order;  // (parents, values)
};

class BoundedBpFanin final : public Workload {
 public:
  explicit BoundedBpFanin(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    inputs_ = std::make_unique<FaninInputs>(seed_);
    const Span span("engine.construct");
    engine_ = std::make_unique<bn::InferenceEngine>(
        inputs_->net, bn::InferenceEngine::Options{.threads = 1});
  }

  void prepare(std::size_t i) override { evidence_ = inputs_->next(i); }
  void run() override { out_ = engine_->query_bounded(inputs_->child, evidence_); }

  bool accept(std::size_t i) override {
    // The interval is a proper one around the point.
    if (out_.point.size() != 2 || !out_.contains(out_.point.probs())) return false;
    for (std::size_t s = 0; s < 2; ++s)
      if (!std::isfinite(out_.lo[s]) || !std::isfinite(out_.hi[s])) return false;
    if (i % kKeepEvery == 0 && kept_.size() < kMaxKept) kept_.push_back({evidence_, out_});
    return true;
  }

  std::size_t verify(std::vector<std::string>& why) override {
    // The certified interval must contain the exact posterior.
    const bn::InferenceEngine exact(
        inputs_->net, {.threads = 1, .backend = bn::Backend::kVariableElimination});
    std::size_t failed = 0;
    for (const auto& [ev, got] : kept_) {
      if (!got.contains(exact.query(inputs_->child, ev).probs())) {
        ++failed;
        why.push_back("fanin BP interval misses the exact posterior");
      }
    }
    return failed;
  }

  [[nodiscard]] std::size_t verified() const override { return kept_.size(); }
  [[nodiscard]] const bn::InferenceEngine& engine() const override { return *engine_; }

 private:
  std::uint64_t seed_;
  std::unique_ptr<FaninInputs> inputs_;
  std::unique_ptr<bn::InferenceEngine> engine_;
  bn::Evidence evidence_;
  bn::BoundedPosterior out_;
  std::vector<std::pair<bn::Evidence, bn::BoundedPosterior>> kept_;
};

// ---- grid -------------------------------------------------------------

// w x h binary grid, parents = left and up neighbours, weakly coupled and
// strictly positive: the differential suite's treewidth-hostile network.
bn::BayesianNetwork grid_network(std::size_t w, std::size_t h) {
  bn::BayesianNetwork net;
  for (std::size_t r = 0; r < h; ++r)
    for (std::size_t c = 0; c < w; ++c)
      net.add_variable("g" + std::to_string(r) + "_" + std::to_string(c), {"0", "1"});
  for (std::size_t r = 0; r < h; ++r) {
    for (std::size_t c = 0; c < w; ++c) {
      const bn::VariableId v = r * w + c;
      std::vector<bn::VariableId> parents;
      if (c > 0) parents.push_back(v - 1);
      if (r > 0) parents.push_back(v - w);
      std::vector<pr::Categorical> cpt;
      const std::size_t rows = std::size_t{1} << parents.size();
      for (std::size_t row = 0; row < rows; ++row) {
        double p1 = 0.35;
        for (std::size_t k = 0; k < parents.size(); ++k)
          if ((row >> k) & 1u) p1 += 0.1;
        cpt.push_back(pr::Categorical({1.0 - p1, p1}));
      }
      net.set_cpt(v, std::move(parents), std::move(cpt));
    }
  }
  return net;
}

struct GridQuery {
  bn::VariableId query = 0;
  bn::Evidence evidence;
};

struct GridInputs {
  explicit GridInputs(std::uint64_t seed)
      : net(grid_network(kSide, kSide)), ops(Rng(seed).split(9)) {
    Rng pick = Rng(seed).split(8);
    std::set<bn::VariableId> used;
    signatures.resize(kSignatures);
    for (auto& keys : signatures) {
      while (keys.size() < kSignatureKeys) {
        const bn::VariableId v = pick.index(net.size());
        if (used.insert(v).second) keys.push_back(v);
      }
      std::sort(keys.begin(), keys.end());
    }
  }

  GridQuery fresh() {
    for (;;) {
      GridQuery q;
      const auto& keys = signatures[ops.index(kSignatures)];
      for (const auto v : keys) q.evidence[v] = ops.index(2);
      do {
        q.query = ops.index(net.size());
      } while (q.evidence.contains(q.query));
      if (seen.insert(q.evidence).second) return q;
    }
  }

  bn::BayesianNetwork net;
  std::vector<std::vector<bn::VariableId>> signatures;
  std::set<bn::Evidence> seen;
  Rng ops;
};

// LoopyBP runs as the engine makes them: default options, and one damped
// retry when flooding does not converge. run() returns the kept run.
struct BpTally {
  double ms = 0.0;
  double iterations = 0.0;
  std::size_t runs = 0;
  std::size_t converged = 0;
  double max_width = 0.0;
  std::size_t arena = 0;

  std::unique_ptr<bn::LoopyBP> run(const bn::BayesianNetwork& net,
                                   const bn::Evidence& ev) {
    const auto t0 = Clock::now();
    std::unique_ptr<bn::LoopyBP> bp;
    {
      const Span span("loopy_bp.run");
      bp = std::make_unique<bn::LoopyBP>(net, ev, bn::LoopyBP::Options{});
      if (!bp->converged()) {
        bn::LoopyBP::Options damped;
        damped.damping = 0.5;
        auto retry = std::make_unique<bn::LoopyBP>(net, ev, damped);
        if (retry->converged()) bp = std::move(retry);
      }
    }
    ms += ms_since(t0);
    iterations += static_cast<double>(bp->iterations());
    ++runs;
    converged += bp->converged() ? 1 : 0;
    max_width = std::max(max_width, bp->max_bound_width());
    arena = std::max(arena, bp->arena_high_water_bytes());
    return bp;
  }
};

}  // namespace

std::unique_ptr<Workload> make_bounded_bp_fanin(std::uint64_t seed) {
  return std::make_unique<BoundedBpFanin>(seed);
}

void probe_bp(std::uint64_t seed, Metrics& out) {
  constexpr std::size_t kFaninRuns = 16;
  constexpr std::size_t kGridRuns = 6;
  auto& tracer = Tracer::global();

  FaninInputs fanin(seed);
  const bn::InferenceEngine exact(
      fanin.net, {.threads = 1, .backend = bn::Backend::kVariableElimination});
  BpTally f;
  for (std::size_t k = 0; k < kFaninRuns; ++k) {
    tracer.set_op(k);
    const bn::Evidence ev = fanin.next(k);
    const auto bp = f.run(fanin.net, ev);
    // The certified interval must contain the exact posterior.
    if (!bp->query(fanin.child).contains(exact.query(fanin.child, ev).probs()))
      throw std::runtime_error("fanin BP interval misses the exact posterior");
  }

  GridInputs grid(seed);
  double order_ms = 0.0, guard_ms = 0.0;
  std::size_t width = 0, fill = 0;
  for (const auto& keys : grid.signatures) {
    bn::Evidence ev;
    for (const auto v : keys) ev[v] = 0;
    auto t0 = Clock::now();
    bn::EliminationOrdering ordering;
    {
      const Span span("ordering.compute_elimination_order");
      ordering = bn::compute_elimination_order(grid.net, {}, keys);
    }
    order_ms += ms_since(t0);
    width = std::max(width, ordering.induced_width);
    fill = std::max(fill, ordering.fill_edges);
    t0 = Clock::now();
    std::vector<bn::EliminationStepProfile> plan;
    {
      const Span span("engine.guard");
      plan = bn::simulate_elimination(grid.net, ev, ordering.order, {});
    }
    guard_ms += ms_since(t0);
    // Every grid query must escalate to BP under default options: its
    // exact plan's largest table is past the guard's ceiling.
    std::size_t largest = 0;
    for (const auto& step : plan) largest = std::max(largest, step.table_cells);
    if (largest <= bn::InferenceEngine::Options{}.max_exact_table_cells)
      throw std::runtime_error("grid signature would not escalate to BP");
  }
  put(out, "ordering.order_ms.grid", order_ms / kSignatures, "ms");
  put(out, "ordering.induced_width.grid", static_cast<double>(width), "count");
  put(out, "ordering.fill_edges.grid", static_cast<double>(fill), "count");
  put(out, "engine.guard_ms.grid", guard_ms / kSignatures, "ms");

  BpTally g;
  for (std::size_t k = 0; k < kGridRuns; ++k) {
    tracer.set_op(k);
    const GridQuery q = grid.fresh();
    const auto bp = g.run(grid.net, q.evidence);
    const auto& bounded = bp->query(q.query);
    if (!bp->converged() || !bounded.contains(bounded.point.probs()))
      throw std::runtime_error("grid BP run did not converge inside its bounds");
  }

  put(out, "loopy_bp.run_ms.fanin", f.ms / f.runs, "ms");
  put(out, "loopy_bp.run_ms.grid", g.ms / g.runs, "ms");
  put(out, "loopy_bp.iterations.fanin", f.iterations / f.runs, "count");
  put(out, "loopy_bp.iterations.grid", g.iterations / g.runs, "count");
  put(out, "loopy_bp.ms_per_iteration.fanin", f.ms / f.iterations, "ms");
  put(out, "loopy_bp.ms_per_iteration.grid", g.ms / g.iterations, "ms");
  put(out, "loopy_bp.max_bound_width", std::max(f.max_width, g.max_width), "ratio");
  put(out, "loopy_bp.converged_frac",
      static_cast<double>(f.converged + g.converged) / static_cast<double>(f.runs + g.runs),
      "ratio");
  put_max(out, "arena.high_water_bytes", static_cast<double>(std::max(f.arena, g.arena)),
          "bytes");
}

}  // namespace perfbench
