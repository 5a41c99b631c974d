// Observability overhead: the cost of the obs layer on the real
// inference workload must stay within the 2% budget documented in
// DESIGN.md.
//
// ON and OFF builds cannot coexist in one binary, so the A/B uses the
// runtime kill-switch instead: the same instrumented code runs with
// recording enabled vs suspended (`set_metrics_enabled(false)` plus the
// default-disabled trace sink), in alternating reps so both modes see
// the same thermal/scheduler conditions. The disabled path still pays
// one relaxed load + branch per instrument touch, so the measured delta
// is the cost of *recording*, which dominates the layer's overhead.
// Per-primitive nanosecond costs are reported alongside for the
// microscopic view. Under SYSUQ_OBS=OFF every instrument is an inline
// no-op and the A/B trivially measures ~0.
//
// Emits one machine-readable line:
//   BENCH {"bench":"obs_overhead","overhead_pct":...,...}
// and exits nonzero when the measured overhead exceeds 2%.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bayesnet/engine.hpp"
#include "obs/context.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "perception/table1.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Table I network extended with a few relay stages — the instrumented
// engine query path (span + timer + counters + cache mirror) end to end.
sysuq::bayesnet::BayesianNetwork make_workload_network() {
  using namespace sysuq;
  auto net = perception::table1_network();
  bayesnet::VariableId prev = 1;
  for (std::size_t s = 0; s < 8; ++s) {
    const auto id = net.add_variable("stage" + std::to_string(s),
                                     {"car", "pedestrian", "ambiguous", "none"});
    std::vector<prob::Categorical> rows;
    for (std::size_t in = 0; in < 4; ++in) {
      std::vector<double> row(4, 0.03);
      row[in] = 0.91;
      rows.push_back(prob::Categorical::normalized(std::move(row)));
    }
    net.set_cpt(id, {prev}, std::move(rows));
    prev = id;
  }
  return net;
}

double run_queries(const sysuq::bayesnet::InferenceEngine& engine,
                   sysuq::bayesnet::VariableId leaf, std::size_t n) {
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i)
    (void)engine.query(i % 2, {{leaf, i % 4}});
  return seconds_since(t0);
}

// The pooled batch path: every dispatch captures the caller's
// TraceContext and re-installs it on the worker (engine.cpp), so this
// also times the cross-thread context propagation added for query-level
// tracing.
double run_batches(const sysuq::bayesnet::InferenceEngine& engine,
                   const std::vector<sysuq::bayesnet::QuerySpec>& batch,
                   std::size_t reps) {
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < reps; ++i) (void)engine.query_batch(batch);
  return seconds_since(t0);
}

// ns/op for one obs primitive, amortized over `iters` calls.
template <typename Fn>
double ns_per_op(std::size_t iters, Fn&& fn) {
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) fn(i);
  return seconds_since(t0) * 1e9 / static_cast<double>(iters);
}

}  // namespace

int main() {
  using namespace sysuq;

  std::puts("==== obs overhead: instrumented engine, recording on vs "
            "suspended ====\n");

  const auto net = make_workload_network();
  const bayesnet::InferenceEngine engine(net, {.threads = 1});
  const bayesnet::VariableId leaf = net.size() - 1;

  // Kernel-backed queries run in single-digit microseconds, so the rep
  // has to be large enough that a scheduler blip cannot swing the A/B
  // by a percent on its own.
  // Kernel-backed queries run in single-digit microseconds, so the
  // recording delta (~tens of ns/query) is far below the multi-ms
  // scheduler/steal bursts of a shared box. The A/B therefore
  // interleaves the two modes in short slices (a burst lands on a few
  // slices, not on one whole mode) with the order flipped every pair,
  // and estimates the overhead as the *median* of the per-pair deltas —
  // the perturbed pairs become discarded outliers, where a best-of-N
  // across modes would compare timings taken seconds apart.
  constexpr std::size_t kQueriesPerSlice = 2000;
  constexpr int kPairs = 45;

  // Warm the engine's plan and the instrument registrations so neither
  // mode pays first-touch costs inside the timed region.
  (void)run_queries(engine, leaf, 16);

  std::vector<double> deltas;
  std::vector<double> off_times;
  deltas.reserve(kPairs);
  off_times.reserve(kPairs);
  for (int pair = 0; pair < kPairs; ++pair) {
    double on_slice;
    double off_slice;
    if (pair % 2 == 0) {
      obs::set_metrics_enabled(false);
      off_slice = run_queries(engine, leaf, kQueriesPerSlice);
      obs::set_metrics_enabled(true);
      on_slice = run_queries(engine, leaf, kQueriesPerSlice);
    } else {
      obs::set_metrics_enabled(true);
      on_slice = run_queries(engine, leaf, kQueriesPerSlice);
      obs::set_metrics_enabled(false);
      off_slice = run_queries(engine, leaf, kQueriesPerSlice);
      obs::set_metrics_enabled(true);
    }
    deltas.push_back(on_slice - off_slice);
    off_times.push_back(off_slice);
  }
  std::sort(deltas.begin(), deltas.end());
  std::sort(off_times.begin(), off_times.end());
  const double median_delta = deltas[deltas.size() / 2];
  const double median_off = off_times[off_times.size() / 2];
  const double off_s = median_off;
  const double on_s = median_off + median_delta;

  const double overhead_pct = std::max(0.0, 100.0 * median_delta / median_off);

  // Same A/B over the pooled batch path, which additionally pays the
  // TraceContext capture per dispatch and one ContextScope install per
  // worker task. The budget is shared: the whole obs layer — recording
  // plus propagation — must stay within 2% of the batch hot path too.
  const bayesnet::InferenceEngine batch_engine(net, {.threads = 4});
  std::vector<bayesnet::QuerySpec> batch;
  constexpr std::size_t kBatchQueries = 256;
  batch.reserve(kBatchQueries);
  for (std::size_t i = 0; i < kBatchQueries; ++i)
    batch.push_back({i % 2, {{leaf, i % 4}}});
  constexpr std::size_t kBatchReps = 6;
  constexpr int kBatchPairs = 31;
  (void)run_batches(batch_engine, batch, 2);  // warm caches + pool
  std::vector<double> batch_deltas;
  std::vector<double> batch_off_times;
  batch_deltas.reserve(kBatchPairs);
  batch_off_times.reserve(kBatchPairs);
  for (int pair = 0; pair < kBatchPairs; ++pair) {
    double on_slice;
    double off_slice;
    if (pair % 2 == 0) {
      obs::set_metrics_enabled(false);
      off_slice = run_batches(batch_engine, batch, kBatchReps);
      obs::set_metrics_enabled(true);
      on_slice = run_batches(batch_engine, batch, kBatchReps);
    } else {
      obs::set_metrics_enabled(true);
      on_slice = run_batches(batch_engine, batch, kBatchReps);
      obs::set_metrics_enabled(false);
      off_slice = run_batches(batch_engine, batch, kBatchReps);
      obs::set_metrics_enabled(true);
    }
    batch_deltas.push_back(on_slice - off_slice);
    batch_off_times.push_back(off_slice);
  }
  std::sort(batch_deltas.begin(), batch_deltas.end());
  std::sort(batch_off_times.begin(), batch_off_times.end());
  const double batch_median_delta = batch_deltas[batch_deltas.size() / 2];
  const double batch_median_off = batch_off_times[batch_off_times.size() / 2];
  const double batch_overhead_pct =
      std::max(0.0, 100.0 * batch_median_delta / batch_median_off);
  const double batch_qps =
      static_cast<double>(kBatchQueries) * kBatchReps / batch_median_off;

  const bool within_budget = overhead_pct <= 2.0 && batch_overhead_pct <= 2.0;

  // Per-primitive costs (recording enabled; the trace sink for the span
  // cost is disabled, which is the library default and the hot-path
  // configuration).
  obs::Registry bench_registry;
  obs::Counter& counter = bench_registry.counter("bench.obs.counter");
  obs::Gauge& gauge = bench_registry.gauge("bench.obs.gauge");
  obs::Histogram& histogram =
      bench_registry.histogram("bench.obs.histogram", obs::seconds_buckets());
  obs::TraceSink disabled_sink(64);

  constexpr std::size_t kOps = 2000000;
  const double counter_ns = ns_per_op(kOps, [&](std::size_t) { counter.inc(); });
  const double gauge_ns =
      ns_per_op(kOps, [&](std::size_t i) { gauge.set(static_cast<double>(i)); });
  const double histogram_ns = ns_per_op(
      kOps, [&](std::size_t i) { histogram.observe(1e-6 * static_cast<double>(i % 1000)); });
  const double span_ns = ns_per_op(kOps, [&](std::size_t) {
    const obs::Span span("bench.obs.span", disabled_sink);
  });
  // One cross-thread handoff's worth of context work: read the caller's
  // context, install it, restore on scope exit (two thread-local copies).
  const double context_ns = ns_per_op(kOps, [&](std::size_t) {
    const obs::TraceContext ctx = obs::current_context();
    const obs::ContextScope scope(ctx);
  });

  std::printf(
      "workload: %d interleaved pairs of %zu queries over %zu variables, "
      "median of per-pair deltas\n\n",
      kPairs, kQueriesPerSlice, net.size());
  std::printf("  %-32s %10.1f queries/s\n", "recording suspended",
              kQueriesPerSlice / off_s);
  std::printf("  %-32s %10.1f queries/s\n", "recording enabled",
              kQueriesPerSlice / on_s);
  std::printf("  overhead: %.2f%% (budget: 2%%)\n\n", overhead_pct);
  std::printf(
      "batch workload: %d interleaved pairs of %zu pooled query_batch "
      "dispatches (%zu queries each, 4 workers, context propagation)\n",
      kBatchPairs, kBatchReps, kBatchQueries);
  std::printf("  %-32s %10.1f queries/s\n", "recording suspended", batch_qps);
  std::printf("  overhead: %.2f%% (budget: 2%%)\n\n", batch_overhead_pct);
  std::printf("verdict: %s\n\n",
              within_budget ? "within budget" : "OVER BUDGET");
  std::printf("per-primitive costs (recording enabled):\n");
  std::printf("  %-32s %8.1f ns\n", "Counter::inc", counter_ns);
  std::printf("  %-32s %8.1f ns\n", "Gauge::set", gauge_ns);
  std::printf("  %-32s %8.1f ns\n", "Histogram::observe", histogram_ns);
  std::printf("  %-32s %8.1f ns\n", "Span (disabled sink)", span_ns);
  std::printf("  %-32s %8.1f ns\n", "ContextScope handoff", context_ns);

  std::printf(
      "BENCH {\"bench\":\"obs_overhead\",\"queries\":%zu,"
      "\"qps_recording_off\":%.1f,\"qps_recording_on\":%.1f,"
      "\"overhead_pct\":%.3f,"
      "\"batch_queries\":%zu,\"batch_qps_recording_off\":%.1f,"
      "\"batch_overhead_pct\":%.3f,\"budget_pct\":2.0,"
      "\"counter_inc_ns\":%.1f,\"gauge_set_ns\":%.1f,"
      "\"histogram_observe_ns\":%.1f,\"span_disabled_ns\":%.1f,"
      "\"context_scope_ns\":%.1f,"
      "\"within_budget\":%s}\n",
      static_cast<std::size_t>(kPairs) * kQueriesPerSlice,
      kQueriesPerSlice / off_s, kQueriesPerSlice / on_s, overhead_pct,
      static_cast<std::size_t>(kBatchPairs) * kBatchReps * kBatchQueries,
      batch_qps, batch_overhead_pct,
      counter_ns, gauge_ns, histogram_ns, span_ns, context_ns,
      within_budget ? "true" : "false");
  return within_budget ? 0 : 1;
}
