#include "bayesnet/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include "bayesnet/inference.hpp"
#include "core/contracts.hpp"
#include "obs/context.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "prob/rng.hpp"

namespace sysuq::bayesnet {

namespace {

// Engine instruments, registered once on first use. Counters aggregate
// across every engine in the process; the cache instruments belong to
// the engine's memos.
struct EngineMetrics {
  obs::Histogram& query_seconds;
  obs::Histogram& elimination_width;
  obs::Counter& queries;
  obs::Counter& batch_queries;
  obs::Counter& sampled_queries;
  obs::Counter& jt_queries;
  obs::Counter& bp_queries;
  obs::Counter& bp_escalations;

  static EngineMetrics& instance() {
    auto& reg = obs::Registry::global();
    static EngineMetrics m{
        reg.histogram("bayesnet.engine.query_seconds", obs::seconds_buckets()),
        reg.histogram("bayesnet.engine.elimination_width",
                      {1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0}),
        reg.counter("bayesnet.engine.queries"),
        reg.counter("bayesnet.engine.batch_queries"),
        reg.counter("bayesnet.engine.sampled_queries"),
        reg.counter("bayesnet.jt.queries"),
        reg.counter("bayesnet.bp.queries"),
        reg.counter("bayesnet.bp.escalations"),
    };
    return m;
  }
};

std::vector<std::pair<VariableId, std::size_t>> assignment(
    const Evidence& evidence) {
  return {evidence.begin(), evidence.end()};  // map: sorted pairs
}

}  // namespace

// A fixed pool of background workers plus the calling thread. `run` hands
// out task indices through an atomic counter, so work distribution adapts
// to scheduling while result slots stay fixed per index.
class InferenceEngine::Pool {
 public:
  explicit Pool(std::size_t workers) {
    threads_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      threads_.emplace_back([this] { worker(); });
    }
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_work_.notify_all();
    for (auto& t : threads_) t.join();
  }

  /// Runs fn(0), .., fn(total - 1) across the workers and the calling
  /// thread; blocks until every index has been processed AND every
  /// worker that entered the batch has dropped its reference to `fn`.
  /// `fn` must not throw. Concurrent `run` calls are serialized.
  void run(std::size_t total, const std::function<void(std::size_t)>& fn) {
    if (total == 0) return;
    std::lock_guard<std::mutex> serialize(run_mu_);
    {
      std::lock_guard<std::mutex> lk(mu_);
      fn_ = &fn;
      total_ = total;
      next_.store(0, std::memory_order_relaxed);
      completed_.store(0, std::memory_order_relaxed);
      ++generation_;
    }
    cv_work_.notify_all();
    work();  // the caller participates
    {
      // Waiting on completed_ alone is not enough: a worker that read
      // `fn_` but stalled before claiming an index still holds the
      // pointer after all indices finish. Returning then would let the
      // caller destroy `fn` (or start the next batch) while the stalled
      // worker can still dereference it — a use-after-free. active_
      // counts workers inside work(); drain them before returning.
      std::unique_lock<std::mutex> lk(mu_);
      cv_done_.wait(lk, [&] {  // sysuq-lint-allow(lock-order): run_mu_ only serializes run() callers; workers signalling cv_done_ never take it, so holding it across the wait cannot deadlock
        return completed_.load(std::memory_order_relaxed) == total_ &&
               active_ == 0;
      });
      fn_ = nullptr;
    }
  }

 private:
  // sysuq-excludes(mu_)
  void work() {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t total = 0;
    {
      std::lock_guard<std::mutex> lk(mu_);
      fn = fn_;
      total = total_;
      if (fn != nullptr) ++active_;
    }
    if (fn == nullptr) return;  // late wake-up after the batch finished
    for (;;) {
      const std::size_t i = next_.fetch_add(1);
      if (i >= total) break;
      (*fn)(i);
      completed_.fetch_add(1);
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      --active_;
      // Signal on both conditions from under the lock: all indices done
      // and this worker no longer references fn.
      if (completed_.load(std::memory_order_relaxed) == total_ &&
          active_ == 0) {
        cv_done_.notify_all();
      }
    }
  }

  void worker() {
    std::uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_work_.wait(lk, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
      }
      work();
    }
  }

  std::mutex run_mu_;  // serializes whole batches
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  const std::function<void(std::size_t)>* fn_ = nullptr;  // sysuq-guarded-by(mu_)
  std::size_t total_ = 0;                                 // sysuq-guarded-by(mu_)
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> completed_{0};
  std::uint64_t generation_ = 0;  // sysuq-guarded-by(mu_)
  // Workers inside work() holding fn_.  sysuq-guarded-by(mu_)
  std::size_t active_ = 0;
  bool stop_ = false;  // sysuq-guarded-by(mu_)
  // Joined in the destructor, never resized after construction.
  std::vector<std::thread> threads_;  // sysuq-thread-confined(init)
};

InferenceEngine::InferenceEngine(const BayesianNetwork& net)
    : InferenceEngine(net, Options{}) {}

InferenceEngine::InferenceEngine(const BayesianNetwork& net, Options options)
    : net_(net), options_(options) {
  net_.validate();
  threads_ = options_.threads != 0
                 ? options_.threads
                 : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  children_.resize(net_.size());
  for (VariableId v = 0; v < net_.size(); ++v) {
    for (const VariableId p : net_.parents(v)) children_[p].push_back(v);
  }
  if (threads_ > 1) pool_ = std::make_unique<Pool>(threads_ - 1);
}

InferenceEngine::~InferenceEngine() = default;

// One batch's answers, one slot per batch index, each filled by the unit
// that answers it.
struct InferenceEngine::Slots {
  std::vector<std::optional<prob::Categorical>> results;
  std::vector<std::exception_ptr> errors;

  explicit Slots(std::size_t n) : results(n), errors(n) {}

  /// Stores answer() in slot i, or the exception it throws.
  template <class Answer>
  void fill(std::size_t i, Answer&& answer) noexcept {
    try {
      results[i] = answer();
    } catch (...) {
      errors[i] = std::current_exception();
    }
  }
};

InferenceEngine::Plan InferenceEngine::route(const Ask& ask,
                                             const Evidence& evidence,
                                             std::string* reason) const {
  net_.check_evidence(evidence);
  const auto because = [reason](auto&& why) {
    if (reason != nullptr) *reason = why;
  };
  if (ask.kind == Ask::kQuery) {
    if (ask.query >= net_.size())
      throw std::out_of_range("InferenceEngine::query: variable id");
    if (evidence.contains(ask.query)) {
      because("query variable is observed; the posterior is its evidence delta");
      return {};
    }
  }
  const bool exact_only = ask.kind == Ask::kEvidence || ask.kind == Ask::kJoint;
  const auto ve = [&] {
    return Plan{Route::kVariableElimination, ordering_for(evidence)};
  };
  switch (options_.backend) {
    case Backend::kVariableElimination:
      because("Backend::kVariableElimination runs one elimination per query");
      return ve();
    case Backend::kJunctionTree:
      because("Backend::kJunctionTree routes every query through the "
              "calibrated clique tree");
      return ask.kind == Ask::kJoint ? ve() : Plan{Route::kJunctionTree, nullptr};
    case Backend::kLoopyBP:
      because("Backend::kLoopyBP routes every query through flooding belief "
              "propagation with certified bounds");
      return exact_only ? ve() : Plan{Route::kLoopyBP, nullptr};
    case Backend::kAuto:
      break;
  }
  // kAuto: the feasibility guard runs before any exact work, on the plan
  // that work then reuses. The network plan always passes it.
  const bool jt_bound =
      ask.kind == Ask::kAllMarginals ||
      (ask.kind == Ask::kBatchGroup && ask.distinct >= options_.jt_batch_threshold);
  Plan plan = ve();
  const std::size_t cells = plan.ordering->max_table_cells;
  if (cells > options_.max_exact_table_cells) {
    if (options_.enable_bp && !exact_only) {
      EngineMetrics::instance().bp_escalations.inc();
      because("Backend::kAuto escalated: the exact elimination plan exceeds "
              "Options::max_exact_table_cells (largest table " +
              std::to_string(cells) + " cells)");
      return {Route::kLoopyBP, nullptr};
    }
    contracts::fail(
        "precondition", "max_table_cells <= max_exact_table_cells",
        "InferenceEngine: exact inference is infeasible (largest elimination "
        "table needs " +
            std::to_string(cells) + " cells, ceiling " +
            std::to_string(options_.max_exact_table_cells) + ") and " +
            (exact_only ? "loopy BP cannot answer P(e) or joint — raise "
                          "max_exact_table_cells"
                        : "Options::enable_bp is false — raise "
                          "max_exact_table_cells or enable the loopy-BP "
                          "escalation"));
    // contracts::Mode::kOff: fall through to the exact path.
  }
  if (jt_bound)
    plan.route = Route::kJunctionTree;
  else
    because("Backend::kAuto keeps single queries on variable elimination "
            "(the junction tree amortizes only across batch groups)");
  return plan;
}

std::shared_ptr<const EliminationOrdering> InferenceEngine::network_plan() const {
  return network_plan_.get([&]() -> std::shared_ptr<const EliminationOrdering> {
    auto plan = std::make_shared<const EliminationOrdering>(
        compute_elimination_order(net_, /*keep=*/{}, /*evidence_keys=*/{}));
    if (plan->max_table_cells > options_.max_exact_table_cells) return nullptr;
    return plan;
  });
}

std::shared_ptr<const JunctionTreeStructure> InferenceEngine::network_tree() const {
  return network_tree_.get([&]() -> std::shared_ptr<const JunctionTreeStructure> {
    const auto plan = network_plan();
    if (!plan) return nullptr;
    return std::make_shared<const JunctionTreeStructure>(net_, *plan);
  });
}

std::shared_ptr<const EliminationOrdering> InferenceEngine::ordering_for(
    const Evidence& evidence) const {
  if (auto plan = network_plan()) return plan;
  const OrderingKey key = evidence_keys(evidence);
  return orderings_.get(key, [&] {
    return std::make_shared<const EliminationOrdering>(
        compute_elimination_order(net_, /*keep=*/{}, key));
  });
}

std::shared_ptr<const JunctionTree> InferenceEngine::calibrated_tree_for(
    const Evidence& evidence,
    const std::shared_ptr<const EliminationOrdering>& ordering) const {
  return trees_.get(assignment(evidence), [&] {
    if (const auto structure = network_tree())
      return std::make_shared<const JunctionTree>(*structure, evidence);
    return std::make_shared<const JunctionTree>(
        JunctionTreeStructure(net_, ordering ? *ordering : *ordering_for(evidence)),
        evidence);
  });
}

std::shared_ptr<const LoopyBP> InferenceEngine::bp_for(
    const Evidence& evidence, Certify need, VariableId v) const {
  const auto serves = [&](const std::shared_ptr<const LoopyBP>& bp) {
    return need == Certify::kNothing ||
           (need == Certify::kOne ? bp->certified(v) : !bp->certify_only());
  };
  return bp_runs_.get(assignment(evidence), serves, [&](bool stale) {
    const std::optional<VariableId> only =
        need == Certify::kOne && !stale ? std::optional(v) : std::nullopt;
    // A run that oscillates undamped gets one deterministic retry at
    // damping 0.5 — the standard fix for flooding-schedule limit cycles
    // — and the converged run is kept.
    auto bp = std::make_shared<const LoopyBP>(net_, evidence, LoopyBP::Options{}, only);
    if (!bp->converged()) {
      auto retry = std::make_shared<const LoopyBP>(
          net_, evidence, LoopyBP::Options{.damping = 0.5}, only);
      if (retry->converged()) bp = std::move(retry);
    }
    return bp;
  });
}

const std::vector<std::vector<char>>& InferenceEngine::always_possible() const {
  return always_possible_.get([&] {
    std::vector<std::vector<char>> table;
    table.reserve(net_.size());
    for (VariableId v = 0; v < net_.size(); ++v) {
      // Cell c holds v's state c / stride % card (last variable fastest).
      const Factor& f = net_.cpt_factor(v);
      const auto& scope = f.scope();
      const std::size_t at = static_cast<std::size_t>(
          std::find(scope.begin(), scope.end(), v) - scope.begin());
      const std::size_t card = f.cardinalities()[at];
      std::size_t stride = 1;
      for (std::size_t i = at + 1; i < scope.size(); ++i) stride *= f.cardinalities()[i];
      std::vector<char> possible(card, 1);
      for (std::size_t c = 0; c < f.size(); ++c) {
        if (!(f.values()[c] > 0.0)) possible[c / stride % card] = 0;
      }
      table.push_back(std::move(possible));
    }
    return table;
  });
}

bool InferenceEngine::mark_requisite(const std::vector<VariableId>& keep,
                                     const Evidence& evidence,
                                     std::vector<char>& in) const {
  // Bayes-ball: a ball enters each kept variable as if from a child. An
  // unobserved variable passes a ball from a child up to its parents
  // (marking its top) and down to its children (marking its bottom), and
  // one from a parent down only; an observed variable bounces a ball from
  // a parent up to its parents and blocks one from a child. Each mark is
  // set once, so each edge is walked at most twice.
  enum : char { kObserved = 1, kTop = 2, kBottom = 4 };
  std::vector<char> mark(net_.size(), 0);
  for (const auto& [v, _] : evidence) mark[v] = kObserved;
  std::vector<std::pair<VariableId, bool>> balls;  // (variable, from a child)
  for (const VariableId v : keep) balls.emplace_back(v, true);
  while (!balls.empty()) {
    const auto [v, from_child] = balls.back();
    balls.pop_back();
    char& m = mark[v];
    const bool observed = (m & kObserved) != 0;
    if (from_child != observed && (m & kTop) == 0) {
      m |= kTop;
      for (const VariableId p : net_.cpt_factor(v).scope()) {
        if (p != v) balls.emplace_back(p, true);
      }
    }
    if (!observed && (m & kBottom) == 0) {
      m |= kBottom;
      for (const VariableId c : children_[v]) balls.emplace_back(c, false);
    }
  }
  const std::vector<std::vector<char>>* possible = nullptr;
  for (const auto& [v, state] : evidence) {
    if ((mark[v] & kTop) != 0) continue;
    if (possible == nullptr) possible = &always_possible();
    if ((*possible)[v][state] == 0) return false;
  }
  for (VariableId v = 0; v < net_.size(); ++v) in[v] = (mark[v] & kTop) != 0;
  return true;
}

InferenceEngine::VeRun InferenceEngine::ve_run(
    const std::vector<VariableId>& keep, const Evidence& evidence,
    const EliminationOrdering& ordering) const {
  std::vector<char> in(net_.size(), 0);
  if (keep.empty() || !mark_requisite(keep, evidence, in)) {
    // The ancestral set, by a walk up the CPT scopes (a CPT's scope is
    // its variable and its parents).
    std::vector<VariableId> stack = keep;
    for (const auto& [v, _] : evidence) stack.push_back(v);
    for (const VariableId v : stack) in[v] = 1;
    while (!stack.empty()) {
      const VariableId v = stack.back();
      stack.pop_back();
      for (const VariableId p : net_.cpt_factor(v).scope()) {
        if (in[p] == 0) {
          in[p] = 1;
          stack.push_back(p);
        }
      }
    }
  }
  VeRun run;
  for (VariableId v = 0; v < net_.size(); ++v) {
    if (in[v] != 0) run.cpts.push_back(v);
  }
  // The plan names every unobserved variable, and the network plan the
  // observed ones too: evidence reduction empties their buckets, so the
  // run and its replay skip them. Skipping the kept ones and those
  // outside the set as well keeps the kept ones in the result scope (any
  // suffix-restricted order is still exact).
  run.order.reserve(run.cpts.size());
  for (const VariableId v : ordering.order) {
    if (in[v] != 0 && std::find(keep.begin(), keep.end(), v) == keep.end())
      run.order.push_back(v);
  }
  return run;
}

kernels::ScaledFactor InferenceEngine::eliminate_all_but(
    const std::vector<VariableId>& keep, const Evidence& evidence,
    const EliminationOrdering& ordering) const {
  EngineMetrics::instance().elimination_width.observe(
      static_cast<double>(ordering.induced_width));
  const VeRun run = ve_run(keep, evidence, ordering);
  // The network's CPT tables are viewed in place; only evidence-bearing
  // ones are reduced (into the arena). No per-query deep copies.
  Arena& arena = kernels::thread_scratch();
  arena.reset();
  std::vector<kernels::View> views;
  views.reserve(run.cpts.size());
  for (const VariableId v : run.cpts) {
    kernels::View view = kernels::view_of(net_.cpt_factor(v));
    for (const auto& [ev, state] : evidence) {
      if (view.contains(ev))
        view = kernels::reduce(view, ev, state, arena).view();
    }
    views.push_back(view);
  }
  kernels::ScaledFactor out =
      kernels::eliminate_scaled(std::move(views), run.order, arena);
  last_ve_arena_high_water_.store(arena.bytes_used(),
                                  std::memory_order_relaxed);
  arena.reset();
  return out;
}

prob::Categorical InferenceEngine::query_ve(VariableId query, const Evidence& evidence,
                                            const EliminationOrdering& ordering) const {
  const kernels::ScaledFactor sf = eliminate_all_but({query}, evidence, ordering);
  if (sf.impossible())
    throw std::domain_error(impossible_evidence_message(net_, evidence));
  const Factor& f = sf.factor;
  if (f.scope().size() != 1 || f.scope()[0] != query)
    throw std::logic_error("InferenceEngine: unexpected result scope");
  return prob::Categorical::normalized(f.values());
}

prob::Categorical InferenceEngine::query(VariableId query,
                                         const Evidence& evidence) const {
  auto& metrics = EngineMetrics::instance();
  const obs::Span span("bayesnet.engine.query");
  // Latency is sampled 1-in-8: a kernel-backed query runs in
  // single-digit microseconds, so timing every one (two clock reads +
  // an observe) would alone breach the documented 2% obs budget. The
  // `queries` counter stays exact; only the histogram is sampled.
  static std::atomic<std::uint64_t> sample_seq{0};
  std::optional<obs::HistogramTimer> timer;
  if ((sample_seq.fetch_add(1, std::memory_order_relaxed) & 7u) == 0)
    timer.emplace(metrics.query_seconds);
  metrics.queries.inc();
  const Plan plan = route({Ask::kQuery, query}, evidence);
  switch (plan.route) {
    case Route::kDelta:
      return prob::Categorical::delta(evidence.at(query),
                                      net_.variable(query).cardinality());
    case Route::kJunctionTree:
      metrics.jt_queries.inc();
      return calibrated_tree_for(evidence, plan.ordering)->query(query);
    case Route::kLoopyBP:
      metrics.bp_queries.inc();
      return bp_for(evidence)->query(query).point;
    case Route::kVariableElimination:
      break;
  }
  return query_ve(query, evidence, *plan.ordering);
}

BoundedPosterior InferenceEngine::query_bounded(VariableId query,
                                                const Evidence& evidence) const {
  const obs::Span span("bayesnet.engine.query_bounded");
  EngineMetrics::instance().bp_queries.inc();
  if (query >= net_.size())
    throw std::out_of_range("InferenceEngine::query: variable id");
  return bp_for(evidence, Certify::kOne, query)->query(query);
}

std::vector<BoundedPosterior> InferenceEngine::all_marginals_bounded(
    const Evidence& evidence) const {
  const obs::Span span("bayesnet.engine.all_marginals_bounded");
  EngineMetrics::instance().bp_queries.inc(net_.size());
  return bp_for(evidence, Certify::kAll)->all_marginals();
}

std::vector<prob::Categorical> InferenceEngine::all_marginals(
    const Evidence& evidence) const {
  const obs::Span span("bayesnet.engine.all_marginals");
  auto& metrics = EngineMetrics::instance();
  std::vector<prob::Categorical> out;
  const Plan plan = route({Ask::kAllMarginals}, evidence);
  switch (plan.route) {
    case Route::kJunctionTree:  // the tree's marginals, copied; `out` stays unallocated
      metrics.jt_queries.inc(net_.size());
      return calibrated_tree_for(evidence, plan.ordering)->all_marginals();
    case Route::kLoopyBP:
      metrics.bp_queries.inc(net_.size());
      out.reserve(net_.size());
      for (const auto& b : bp_for(evidence)->all_marginals())
        out.push_back(b.point);
      return out;
    default:  // one elimination per unobserved variable, one ordering
      out.reserve(net_.size());
      for (VariableId v = 0; v < net_.size(); ++v) {
        const std::size_t card = net_.variable(v).cardinality();
        out.push_back(evidence.contains(v)
                          ? prob::Categorical::delta(evidence.at(v), card)
                          : query_ve(v, evidence, *plan.ordering));
      }
      return out;
  }
}

double InferenceEngine::evidence_probability(const Evidence& evidence) const {
  const Plan plan = route({Ask::kEvidence}, evidence);
  if (plan.route == Route::kJunctionTree)
    return calibrated_tree_for(evidence, plan.ordering)->evidence_probability();
  const kernels::ScaledFactor sf = eliminate_all_but({}, evidence, *plan.ordering);
  // exp(log_scale) is exactly 1 unless a rescale fired, so the common
  // case returns the unscaled total bit for bit.
  return sf.factor.total() * std::exp(sf.log_scale);
}

double InferenceEngine::log_evidence_probability(
    const Evidence& evidence) const {
  const Plan plan = route({Ask::kEvidence}, evidence);
  if (plan.route == Route::kJunctionTree)
    return calibrated_tree_for(evidence, plan.ordering)->log_evidence_probability();
  // The scaled path keeps log P(e) finite even when the linear value
  // underflows a double (deep evidence chains).
  return eliminate_all_but({}, evidence, *plan.ordering).log_total();
}

prob::JointTable InferenceEngine::joint(VariableId a, VariableId b,
                                        const Evidence& evidence) const {
  if (a >= net_.size() || b >= net_.size())
    throw std::out_of_range("InferenceEngine::joint: variable id");
  if (a == b) throw std::invalid_argument("InferenceEngine::joint: a == b");
  if (evidence.contains(a) || evidence.contains(b))
    throw std::invalid_argument(
        "InferenceEngine::joint: query variable in evidence");
  // Always VE; routing still validates the evidence and runs the guard.
  const Plan plan = route({Ask::kJoint}, evidence);
  const kernels::ScaledFactor sf =
      eliminate_all_but({a, b}, evidence, *plan.ordering);
  if (sf.impossible())
    throw std::domain_error(impossible_evidence_message(net_, evidence));
  const Factor f = sf.factor.normalized();
  const std::size_t ca = net_.variable(a).cardinality();
  const std::size_t cb = net_.variable(b).cardinality();
  const bool a_first = a < b;
  std::vector<std::vector<double>> table(ca, std::vector<double>(cb, 0.0));
  for (std::size_t i = 0; i < ca; ++i) {
    for (std::size_t j = 0; j < cb; ++j) {
      table[i][j] = a_first ? f.at({i, j}) : f.at({j, i});
    }
  }
  return prob::JointTable(std::move(table));
}

std::vector<prob::Categorical> InferenceEngine::run_units(
    Slots& slots, std::size_t units,
    const std::function<void(std::size_t)>& unit) const {
  // Captured inside the caller's batch span, so every unit — on workers
  // and on this thread — parents into that batch's trace instead of
  // fragmenting into per-worker roots.
  const obs::TraceContext trace_ctx = obs::current_context();
  const std::function<void(std::size_t)> task = [&](std::size_t u) {
    const obs::ContextScope trace_scope(trace_ctx);
    unit(u);
  };
  if (pool_) {
    pool_->run(units, task);
  } else {
    for (std::size_t u = 0; u < units; ++u) task(u);
  }
  for (const auto& e : slots.errors) {
    if (e) std::rethrow_exception(e);
  }
  std::vector<prob::Categorical> out;
  out.reserve(slots.results.size());
  for (auto& r : slots.results) out.push_back(std::move(*r));
  return out;
}

std::vector<prob::Categorical> InferenceEngine::query_batch(
    const std::vector<QuerySpec>& batch) const {
  const obs::Span span("bayesnet.engine.query_batch");
  auto& metrics = EngineMetrics::instance();
  metrics.batch_queries.inc(batch.size());

  // Route once per evidence assignment, on this thread, so every group's
  // plan is built before any unit runs. A VE group splits into one
  // unit per query; a JT or BP group stays one unit, so one calibration
  // or BP run serves all of it. Slots stay fixed per batch index, so
  // scheduling cannot perturb the output.
  Slots slots(batch.size());
  std::map<TreeKey, std::vector<std::size_t>> by_evidence;
  for (std::size_t i = 0; i < batch.size(); ++i)
    by_evidence[assignment(batch[i].evidence)].push_back(i);
  std::vector<std::size_t> ve;
  std::vector<std::pair<Plan, std::vector<std::size_t>>> groups;
  for (auto& [key, indices] : by_evidence) {
    std::set<VariableId> distinct;
    for (const std::size_t i : indices) distinct.insert(batch[i].query);
    Plan plan;
    try {
      plan = route({Ask::kBatchGroup, 0, distinct.size()},
                   batch[indices.front()].evidence);
    } catch (...) {
      for (const std::size_t i : indices) slots.errors[i] = std::current_exception();
      continue;
    }
    if (plan.route == Route::kVariableElimination) {
      ve.insert(ve.end(), indices.begin(), indices.end());
    } else {
      groups.emplace_back(std::move(plan), std::move(indices));
    }
  }

  return run_units(slots, ve.size() + groups.size(), [&](std::size_t u) {
    if (u < ve.size()) {
      const QuerySpec& spec = batch[ve[u]];
      slots.fill(ve[u], [&] { return query(spec.query, spec.evidence); });
      return;
    }
    const auto& [plan, indices] = groups[u - ve.size()];
    const Evidence& evidence = batch[indices.front()].evidence;
    std::shared_ptr<const JunctionTree> tree;
    std::shared_ptr<const LoopyBP> bp;
    try {
      if (plan.route == Route::kJunctionTree) {
        tree = calibrated_tree_for(evidence, plan.ordering);
      } else {
        bp = bp_for(evidence);
      }
    } catch (...) {
      for (const std::size_t i : indices) slots.errors[i] = std::current_exception();
      return;
    }
    (tree ? metrics.jt_queries : metrics.bp_queries).inc(indices.size());
    for (const std::size_t i : indices) {
      slots.fill(i, [&] {
        const VariableId q = batch[i].query;
        if (q >= net_.size())
          throw std::out_of_range("InferenceEngine::query: variable id");
        return tree ? tree->query(q) : bp->query(q).point;
      });
    }
  });
}

std::vector<prob::Categorical> InferenceEngine::sample_batch(
    const std::vector<QuerySpec>& batch, std::size_t samples,
    std::uint64_t seed) const {
  const obs::Span span("bayesnet.engine.sample_batch");
  EngineMetrics::instance().sampled_queries.inc(batch.size());
  Slots slots(batch.size());
  return run_units(slots, batch.size(), [&](std::size_t i) {
    slots.fill(i, [&] {
      // Stream (seed, i) is independent of which thread runs the query.
      prob::Rng base(seed);
      prob::Rng rng = base.split(i);
      return likelihood_weighting(net_, batch[i].query, batch[i].evidence,
                                  samples, rng);
    });
  });
}

QueryProfile InferenceEngine::explain(VariableId query,
                                      const Evidence& evidence) const {
  using clock = std::chrono::steady_clock;
  const auto since = [](clock::time_point a, clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  const obs::Span span("bayesnet.engine.explain");
  QueryProfile p;
  // Peeked before routing, which builds the plan VE runs when it is new.
  const bool ordering_cached =
      network_plan_.ready() &&
      (network_plan() || orderings_.peek(evidence_keys(evidence)).has_value());
  const auto t0 = clock::now();
  const Plan plan = route({Ask::kQuery, query}, evidence, &p.backend_reason);
  const auto t_plan = clock::now();
  p.query = net_.variable(query).name();
  for (const auto& [v, state] : evidence) {
    p.evidence.emplace_back(net_.variable(v).name(),
                            net_.variable(v).state_name(state));
  }
  p.states = net_.variable(query).states();

  switch (plan.route) {
    case Route::kDelta:
      p.backend = "evidence_delta";
      p.posterior = prob::Categorical::delta(evidence.at(query),
                                             net_.variable(query).cardinality())
                        .probs();
      break;
    case Route::kLoopyBP: {
      p.backend = "loopy_bp";
      const auto cached = bp_runs_.peek(assignment(evidence));
      p.bp_cache_hit = cached && !(*cached)->certify_only();
      const auto t_prop0 = clock::now();
      const auto bp = bp_for(evidence, Certify::kAll);
      const auto t_prop1 = clock::now();
      p.schedule = LoopyBP::schedule();
      p.bp_iterations = bp->iterations();
      p.bp_converged = bp->converged();
      p.bp_damping = bp->damping();
      p.final_residual = bp->final_residual();
      p.bound_width = bp->max_bound_width();
      p.propagation_seconds = bp->build_seconds();
      p.arena_high_water_bytes = bp->arena_high_water_bytes();
      const auto& posterior = bp->query(query);  // throws when P(e) = 0
      const auto t_read = clock::now();
      p.stages.push_back({"propagate", since(t_prop0, t_prop1)});
      p.stages.push_back({"read_marginal", since(t_prop1, t_read)});
      const auto probs = posterior.point.probs();
      p.posterior.assign(probs.begin(), probs.end());
      break;
    }
    case Route::kJunctionTree: {
      p.backend = "junction_tree";
      p.jt_cache_hit = trees_.peek(assignment(evidence)).has_value();
      const auto t_cal0 = clock::now();
      const auto tree = calibrated_tree_for(evidence, plan.ordering);
      const auto t_cal1 = clock::now();
      for (const auto& clique : tree->cliques())
        p.clique_sizes.push_back(clique.size());
      p.max_clique_size = tree->max_clique_size();
      p.cells = tree->cells();
      p.live_cells = tree->live_cells();
      p.calibration_seconds = tree->calibration_seconds();
      p.arena_high_water_bytes = tree->arena_high_water_bytes();
      const auto posterior = tree->query(query);  // throws when P(e) = 0
      const auto t_read = clock::now();
      p.stages.push_back({"calibrate", since(t_cal0, t_cal1)});
      p.stages.push_back({"read_marginal", since(t_cal1, t_read)});
      const auto probs = posterior.probs();
      p.posterior.assign(probs.begin(), probs.end());
      break;
    }
    case Route::kVariableElimination: {
      p.backend = "variable_elimination";
      p.ordering_cache_hit = ordering_cached;
      const EliminationOrdering& ordering = *plan.ordering;
      p.induced_width = ordering.induced_width;
      p.fill_edges = ordering.fill_edges;
      // The plan that runs: ve_run's CPTs only, the order filtered to them.
      const VeRun run = ve_run({query}, evidence, ordering);
      p.steps = simulate_elimination(net_, evidence, run.order, {query}, run.cpts);
      const auto t_sim = clock::now();
      const auto posterior = query_ve(query, evidence, ordering);  // throws when P(e) = 0
      const auto t_exec = clock::now();
      p.arena_high_water_bytes =
          last_ve_arena_high_water_.load(std::memory_order_relaxed);
      p.stages.push_back({"plan", since(t0, t_plan)});  // routing's lookup
      p.stages.push_back({"analyze", since(t_plan, t_sim)});
      p.stages.push_back({"execute", since(t_sim, t_exec)});
      const auto probs = posterior.probs();
      p.posterior.assign(probs.begin(), probs.end());
      break;
    }
  }
  p.total_seconds = since(t0, clock::now());
  return p;
}

void InferenceEngine::reset_cache_stats() {
  orderings_.reset_stats();
  trees_.reset_stats();
  bp_runs_.reset_stats();
}

void InferenceEngine::clear_cache() {
  orderings_.clear();
  trees_.clear();
  bp_runs_.clear();
}

}  // namespace sysuq::bayesnet
