// relay_chain_ve: batched VE queries on Table I plus 50 relay stages.
//
// One op is one query_batch of 64 queries on a 1-thread engine. Evidence
// sits on 1-2 stages drawn from a small seeded set of 8, so the 36
// evidence signatures repeat (the ordering cache hits after set-up) while
// assignments rarely do; no batch group reaches the junction-tree
// threshold, so every query runs the VE step loop. The engine has one
// thread so the whole op runs on the client thread, where the host
// reference is timed (reference.hpp); a pool worker on another vCPU is
// slowed by other neighbours than the client's, which no reference on the
// client can see. Pool dispatch is measured in the traced run instead
// (engine.pool.scaling_eff).
#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include "bayesnet/arena.hpp"
#include "bayesnet/kernels.hpp"
#include "bayesnet/ordering.hpp"
#include "bayesnet/profile.hpp"
#include "core/tolerance.hpp"
#include "perception/table1.hpp"
#include "rng.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

namespace bn = sysuq::bayesnet;
namespace pr = sysuq::prob;

constexpr std::size_t kStages = 50;
constexpr std::size_t kBatch = 64;
constexpr std::size_t kStageSet = 8;
constexpr std::size_t kStates = 4;
// kAuto sends a batch group to the junction tree once one assignment has
// 8 distinct query variables; capping every assignment at 7 queries per
// batch keeps the workload on VE.
constexpr std::size_t kMaxPerAssignment = 7;
constexpr std::size_t kKeepEvery = 32;  // verify every 32nd op
constexpr std::size_t kMaxKept = 64;

// Table I refined by a chain of noisy 4-state relay stages.
bn::BayesianNetwork relay_network() {
  auto net = sysuq::perception::table1_network();
  bn::VariableId prev = 1;  // perception
  for (std::size_t s = 0; s < kStages; ++s) {
    const auto id = net.add_variable("stage" + std::to_string(s),
                                     {"car", "pedestrian", "ambiguous", "none"});
    std::vector<pr::Categorical> rows;
    for (std::size_t in = 0; in < kStates; ++in) {
      std::vector<double> row(kStates, 0.03);
      row[in] = 0.91;
      rows.push_back(pr::Categorical::normalized(std::move(row)));
    }
    net.set_cpt(id, {prev}, std::move(rows));
    prev = id;
  }
  return net;
}

// The seeded inputs: the network, the observed-stage set and the op
// stream. The same seed yields the same batches in the same order.
struct RelayInputs {
  explicit RelayInputs(std::uint64_t seed) : net(relay_network()), ops(Rng(seed).split(2)) {
    Rng pick = Rng(seed).split(1);
    while (stage_set.size() < kStageSet) {
      const bn::VariableId v = 2 + pick.index(kStages);
      if (std::find(stage_set.begin(), stage_set.end(), v) == stage_set.end())
        stage_set.push_back(v);
    }
    std::sort(stage_set.begin(), stage_set.end());
  }

  // Every evidence signature the op stream can produce, state 0 observed.
  [[nodiscard]] std::vector<bn::Evidence> signatures() const {
    std::vector<bn::Evidence> out;
    for (std::size_t a = 0; a < kStageSet; ++a) {
      out.push_back({{stage_set[a], 0}});
      for (std::size_t b = a + 1; b < kStageSet; ++b)
        out.push_back({{stage_set[a], 0}, {stage_set[b], 0}});
    }
    return out;
  }

  [[nodiscard]] std::vector<bn::QuerySpec> warm_batch() const {
    std::vector<bn::QuerySpec> batch;
    for (auto& ev : signatures()) batch.push_back({0, std::move(ev)});
    return batch;
  }

  std::vector<bn::QuerySpec> next_batch() {
    std::vector<bn::QuerySpec> batch(kBatch);
    std::map<bn::Evidence, std::size_t> per_assignment;
    for (auto& q : batch) {
      do {
        q.evidence.clear();
        const std::size_t observed = 1 + ops.index(2);
        while (q.evidence.size() < observed)
          q.evidence[stage_set[ops.index(kStageSet)]] = ops.index(kStates);
      } while (per_assignment[q.evidence] >= kMaxPerAssignment);
      ++per_assignment[q.evidence];
      do {
        q.query = ops.index(net.size());
      } while (q.evidence.contains(q.query));
    }
    return batch;
  }

  bn::BayesianNetwork net;
  std::vector<bn::VariableId> stage_set;
  Rng ops;
};

bool well_formed(const std::vector<bn::QuerySpec>& batch,
                 const std::vector<pr::Categorical>& out,
                 const bn::BayesianNetwork& net) {
  if (out.size() != batch.size()) return false;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i].size() != net.variable(batch[i].query).cardinality()) return false;
    double sum = 0.0;
    for (const double p : out[i].probs()) sum += p;
    if (!(std::fabs(sum - 1.0) < sysuq::tolerance::kProbSum)) return false;
  }
  return true;
}

class RelayChainVe final : public Workload {
 public:
  explicit RelayChainVe(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    inputs_ = std::make_unique<RelayInputs>(seed_);
    {
      const Span span("engine.construct");
      engine_ = std::make_unique<bn::InferenceEngine>(
          inputs_->net, bn::InferenceEngine::Options{.threads = 1});
    }
    const Span span("engine.query_batch");
    (void)engine_->query_batch(inputs_->warm_batch());
  }

  void prepare(std::size_t) override { batch_ = inputs_->next_batch(); }
  void run() override { out_ = engine_->query_batch(batch_); }

  bool accept(std::size_t i) override {
    if (!well_formed(batch_, out_, inputs_->net)) return false;
    if (i % kKeepEvery == 0 && kept_.size() < kMaxKept)
      kept_.push_back({batch_, out_});
    return true;
  }

  std::size_t verify(std::vector<std::string>& why) override {
    // References: an exact junction-tree engine (within kProbSum) and a
    // 1-thread kAuto engine (byte-identical: results must not depend on
    // the thread count).
    const bn::InferenceEngine jt(inputs_->net,
                                 {.threads = 1, .backend = bn::Backend::kJunctionTree});
    const bn::InferenceEngine one(inputs_->net, {.threads = 1});
    std::size_t failed = 0;
    for (const auto& [batch, got] : kept_) {
      const auto exact = jt.query_batch(batch);
      const auto serial = one.query_batch(batch);
      bool ok = true;
      for (std::size_t q = 0; q < batch.size() && ok; ++q) {
        for (std::size_t s = 0; s < got[q].size(); ++s) {
          if (!(std::fabs(got[q].p(s) - exact[q].p(s)) < sysuq::tolerance::kProbSum))
            ok = false;
          if (got[q].p(s) != serial[q].p(s)) ok = false;
        }
      }
      if (!ok) {
        ++failed;
        why.push_back("relay batch disagrees with the JT or 1-thread engine");
      }
    }
    return failed;
  }

  [[nodiscard]] std::size_t verified() const override { return kept_.size(); }
  [[nodiscard]] const bn::InferenceEngine& engine() const override { return *engine_; }

 private:
  std::uint64_t seed_;
  std::unique_ptr<RelayInputs> inputs_;
  std::unique_ptr<bn::InferenceEngine> engine_;
  std::vector<bn::QuerySpec> batch_;
  std::vector<pr::Categorical> out_;
  std::vector<std::pair<std::vector<bn::QuerySpec>, std::vector<pr::Categorical>>> kept_;
};

std::vector<bn::VariableId> keys_of(const bn::Evidence& ev) {
  std::vector<bn::VariableId> keys;
  for (const auto& [v, _] : ev) keys.push_back(v);
  return keys;
}

}  // namespace

std::unique_ptr<Workload> make_relay_chain_ve(std::uint64_t seed) {
  return std::make_unique<RelayChainVe>(seed);
}

void probe_relay(std::uint64_t seed, Metrics& out) {
  constexpr std::size_t kReplayBatches = 48;
  constexpr std::size_t kRounds = 3;
  RelayInputs in(seed);
  auto& tracer = Tracer::global();

  // ordering + guard, once per evidence signature (a chain: width 1, no
  // fill, so only the times are reported).
  std::map<std::vector<bn::VariableId>, bn::EliminationOrdering> orders;
  double order_ms = 0.0, guard_ms = 0.0;
  const auto sigs = in.signatures();
  for (const auto& ev : sigs) {
    const auto keys = keys_of(ev);
    auto t0 = Clock::now();
    {
      const Span span("ordering.compute_elimination_order");
      orders[keys] = bn::compute_elimination_order(in.net, {}, keys);
    }
    order_ms += ms_since(t0);
    t0 = Clock::now();
    {
      const Span span("engine.guard");
      (void)bn::simulate_elimination(in.net, ev, orders[keys].order, {});
    }
    guard_ms += ms_since(t0);
  }
  put(out, "ordering.order_ms.relay", order_ms / sigs.size(), "ms");
  put(out, "engine.guard_ms.relay", guard_ms / sigs.size(), "ms");

  // The workload's first batches, replayed.
  std::vector<std::vector<bn::QuerySpec>> batches;
  for (std::size_t b = 0; b < kReplayBatches; ++b) batches.push_back(in.next_batch());
  const double queries = static_cast<double>(kReplayBatches * kBatch * kRounds);

  // Each batch runs on a 1- and a 2-thread engine and then through the
  // kernels alone, so the three times of a batch see the same host speed
  // and engine.wrapper_us is not a difference of two far-apart samples.
  // kernels: evidence reduction + scaled elimination over CPT views with
  // the signature's order, per query, as the engine's VE path runs them.
  const bn::InferenceEngine e1(in.net, {.threads = 1});
  const bn::InferenceEngine e2(in.net, {.threads = 2});
  (void)e1.query_batch(in.warm_batch());
  (void)e2.query_batch(in.warm_batch());
  std::vector<bn::Factor> cpts;
  for (bn::VariableId v = 0; v < in.net.size(); ++v) cpts.push_back(in.net.cpt_factor(v));
  bn::Arena arena;
  double t1_ms = 0.0, t2_ms = 0.0, kernel_ms = 0.0, steps = 0.0, cells = 0.0;
  for (std::size_t r = 0; r < kRounds; ++r) {
    for (std::size_t b = 0; b < batches.size(); ++b) {
      tracer.set_op(b);
      auto t0 = Clock::now();
      {
        const Span span("engine.query_batch");
        (void)e1.query_batch(batches[b]);
      }
      t1_ms += ms_since(t0);
      t0 = Clock::now();
      {
        const Span span("engine.query_batch");
        (void)e2.query_batch(batches[b]);
      }
      t2_ms += ms_since(t0);
      for (const auto& q : batches[b]) {
        const auto& full = orders.at(keys_of(q.evidence)).order;
        std::vector<bn::VariableId> order;
        for (const auto v : full)
          if (v != q.query) order.push_back(v);
        arena.reset();
        const auto t0 = Clock::now();
        std::vector<bn::kernels::View> views;
        {
          const Span span("kernels.reduce");
          views.reserve(cpts.size());
          for (const auto& f : cpts) {
            auto view = bn::kernels::view_of(f);
            for (const auto& [ev, state] : q.evidence)
              if (view.contains(ev)) view = bn::kernels::reduce(view, ev, state, arena).view();
            views.push_back(view);
          }
        }
        {
          const Span span("kernels.eliminate_scaled");
          (void)bn::kernels::eliminate_scaled(std::move(views), order, arena);
        }
        kernel_ms += ms_since(t0);
        if (r == 0) {
          const auto plan = bn::simulate_elimination(in.net, q.evidence, full, {q.query});
          steps += static_cast<double>(plan.size());
          for (const auto& step : plan) cells += static_cast<double>(step.table_cells);
        }
      }
    }
  }
  const double per_round = static_cast<double>(kReplayBatches * kBatch);
  const double eliminate_us = kernel_ms * 1e3 / queries;
  put(out, "kernels.eliminate_us", eliminate_us, "us");
  put(out, "kernels.ns_per_step", eliminate_us * 1e3 / (steps / per_round), "ns");
  put(out, "kernels.steps", steps / per_round, "count");
  put(out, "kernels.cells", cells / per_round, "count");
  put(out, "engine.wrapper_us", t1_ms * 1e3 / queries - eliminate_us, "us");
  put(out, "engine.pool.scaling_eff", t1_ms / (2.0 * t2_ms), "ratio");

  const auto& q = batches.front().front();
  const auto profile = e1.explain(q.query, q.evidence);
  put_max(out, "arena.high_water_bytes",
      static_cast<double>(profile.arena_high_water_bytes), "bytes");
}

}  // namespace perfbench
