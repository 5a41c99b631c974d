// sysuq::obs — registry, instruments, exporters, and tracing.
//
// The same file carries two suites: the real one (default build) and a
// SYSUQ_OBS_OFF suite proving the no-op mode compiles against the same
// call sites and registers nothing. Golden-output tests use local
// Registry / TraceSink instances so they stay independent of whatever
// the instrumented library code has put on the global registry.
#include "obs/registry.hpp"

#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bayesnet/builders.hpp"
#include "bayesnet/engine.hpp"
#include "bayesnet/loopy_bp.hpp"
#include "bayesnet/network.hpp"
#include "bayesnet/ordering.hpp"
#include "core/contracts.hpp"
#include "obs/context.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "prob/discrete.hpp"
#include "core/tolerance.hpp"

namespace tol = sysuq::tolerance;

namespace obs = sysuq::obs;
namespace bn = sysuq::bayesnet;
namespace pr = sysuq::prob;

namespace {

// Two-node chain a -> b, enough to drive the instrumented engine.
bn::BayesianNetwork tiny_network() {
  bn::BayesianNetwork net;
  const auto a = net.add_variable("a", {"a0", "a1"});
  const auto b = net.add_variable("b", {"b0", "b1"});
  net.set_cpt(a, {}, {pr::Categorical({0.6, 0.4})});
  net.set_cpt(b, {a},
              {pr::Categorical({0.9, 0.1}), pr::Categorical({0.2, 0.8})});
  return net;
}

// A noisy-OR child of 6 binary causes, with causes 0 and 1 observed.
// The 4 unobserved causes each have a blanket of 3 causes + the child
// (16 configurations) and the child one of 4 causes (16): 80 in all.
bn::BayesianNetwork six_cause_noisy_or() {
  bn::BayesianNetwork net;
  std::vector<bn::VariableId> causes;
  for (std::size_t i = 0; i < 6; ++i) {
    const auto id = net.add_variable("cause" + std::to_string(i), {"off", "on"});
    net.set_cpt(id, {}, {pr::Categorical({0.8, 0.2})});
    causes.push_back(id);
  }
  const auto effect = net.add_variable("effect", {"false", "true"});
  net.set_cpt(effect, causes, bn::noisy_or_cpt({0.3, 0.4, 0.5, 0.6, 0.7, 0.8}, 0.01));
  return net;
}
const bn::Evidence kTwoCausesObserved{{0, 1}, {1, 0}};

}  // namespace

TEST(ObsNaming, ValidMetricNames) {
  EXPECT_TRUE(obs::valid_metric_name("bayesnet.engine.query_seconds"));
  EXPECT_TRUE(obs::valid_metric_name("a.b"));
  EXPECT_TRUE(obs::valid_metric_name("markov.dtmc.reachability_iterations"));
  EXPECT_TRUE(obs::valid_metric_name("prob.rng2.splits"));

  EXPECT_FALSE(obs::valid_metric_name(""));
  EXPECT_FALSE(obs::valid_metric_name("nodots"));
  EXPECT_FALSE(obs::valid_metric_name("Upper.case"));
  EXPECT_FALSE(obs::valid_metric_name("trailing.dot."));
  EXPECT_FALSE(obs::valid_metric_name(".leading.dot"));
  EXPECT_FALSE(obs::valid_metric_name("double..dot"));
  EXPECT_FALSE(obs::valid_metric_name("1starts.with_digit"));
  EXPECT_FALSE(obs::valid_metric_name("has.dash-es"));
  EXPECT_FALSE(obs::valid_metric_name("has.spa ce"));
}

#if !defined(SYSUQ_OBS_OFF)

TEST(ObsRegistry, SameNameReturnsSameInstrument) {
  obs::Registry reg;
  obs::Counter& c1 = reg.counter("test.registry.hits");
  obs::Counter& c2 = reg.counter("test.registry.hits");
  EXPECT_EQ(&c1, &c2);
  EXPECT_EQ(reg.size(), 1u);
  c1.inc(3);
  EXPECT_EQ(c2.value(), 3u);
}

TEST(ObsRegistry, RejectsInvalidNames) {
  obs::Registry reg;
  EXPECT_THROW((void)reg.counter("NoDots"),
               sysuq::contracts::ContractViolation);
  EXPECT_THROW((void)reg.gauge("Bad.Name"),
               sysuq::contracts::ContractViolation);
  EXPECT_THROW((void)reg.histogram("also_bad", {1.0}),
               sysuq::contracts::ContractViolation);
  EXPECT_EQ(reg.size(), 0u);
}

TEST(ObsRegistry, KindMismatchIsAContractViolation) {
  obs::Registry reg;
  (void)reg.counter("test.registry.mixed");
  EXPECT_THROW((void)reg.gauge("test.registry.mixed"),
               sysuq::contracts::ContractViolation);
  EXPECT_THROW((void)reg.histogram("test.registry.mixed", {1.0}),
               sysuq::contracts::ContractViolation);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(ObsRegistry, HistogramReRegistrationMustRepeatBounds) {
  obs::Registry reg;
  (void)reg.histogram("test.registry.h", {1.0, 2.0});
  EXPECT_NO_THROW((void)reg.histogram("test.registry.h", {1.0, 2.0}));
  EXPECT_THROW((void)reg.histogram("test.registry.h", {1.0, 3.0}),
               sysuq::contracts::ContractViolation);
}

TEST(ObsHistogram, RejectsBadBounds) {
  EXPECT_THROW(obs::Histogram({}), sysuq::contracts::ContractViolation);
  EXPECT_THROW(obs::Histogram({1.0, 1.0}),
               sysuq::contracts::ContractViolation);
  EXPECT_THROW(obs::Histogram({2.0, 1.0}),
               sysuq::contracts::ContractViolation);
}

TEST(ObsHistogram, BucketEdgesFollowLeSemantics) {
  obs::Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);  // <= 1         -> bucket 0
  h.observe(1.0);  // == bound     -> bucket 0 (le semantics: inclusive)
  h.observe(1.5);  //              -> bucket 1
  h.observe(4.0);  // == last bound-> bucket 2
  h.observe(9.0);  // above all    -> +Inf bucket
  const auto counts = h.counts();
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + +Inf
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 4.0 + 9.0);
}

TEST(ObsCounter, ConcurrentIncrementsAreLossFree) {
  obs::Counter c;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIncrements = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::size_t i = 0; i < kIncrements; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kIncrements);
}

TEST(ObsHistogram, ConcurrentObservationsAreLossFree) {
  obs::Histogram h({1.0, 10.0});
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kObservations = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (std::size_t i = 0; i < kObservations; ++i)
        h.observe(static_cast<double>(t));  // 0, 1 -> bucket 0; 2, 3 -> 1
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), kThreads * kObservations);
  const auto counts = h.counts();
  EXPECT_EQ(counts[0], 2 * kObservations);
  EXPECT_EQ(counts[1], 2 * kObservations);
  EXPECT_EQ(counts[2], 0u);
}

TEST(ObsGauge, SetAddReset) {
  obs::Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(ObsRuntime, KillSwitchSuspendsRecording) {
  ASSERT_TRUE(obs::metrics_enabled());  // library default
  obs::Counter c;
  obs::Histogram h({1.0});
  obs::set_metrics_enabled(false);
  c.inc();
  h.observe(0.5);
  {
    const obs::HistogramTimer timer(h);  // disabled at construction
  }
  obs::set_metrics_enabled(true);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  c.inc();
  EXPECT_EQ(c.value(), 1u);
}

TEST(ObsRuntime, HistogramTimerObservesElapsedSeconds) {
  obs::Histogram h(obs::seconds_buckets());
  {
    const obs::HistogramTimer timer(h);
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.sum(), 0.0);
  EXPECT_LT(h.sum(), 1.0);  // a scope exit takes well under a second
}

TEST(ObsTrace, SpanNestingRecordsDepthsInnerFirst) {
  obs::TraceSink sink(16);
  sink.set_enabled(true);
  {
    const obs::Span outer("test.outer", sink);
    {
      const obs::Span inner("test.inner", sink);
    }
  }
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Spans record at destruction: the inner span closes first.
  EXPECT_EQ(events[0].name, "test.inner");
  EXPECT_EQ(events[0].depth, 2u);
  EXPECT_EQ(events[1].name, "test.outer");
  EXPECT_EQ(events[1].depth, 1u);
  // The outer span covers the inner one.
  EXPECT_LE(events[1].start_us, events[0].start_us);
  EXPECT_GE(events[1].start_us + events[1].dur_us,
            events[0].start_us + events[0].dur_us);
}

TEST(ObsTrace, DisabledSinkRecordsNothingAndIsCheap) {
  obs::TraceSink sink(16);
  ASSERT_FALSE(sink.enabled());
  {
    const obs::Span span("test.ignored", sink);
  }
  sink.record(obs::TraceEvent{.name = "test.direct", .dur_us = 1, .depth = 1});
  EXPECT_EQ(sink.recorded(), 0u);
  EXPECT_TRUE(sink.snapshot().empty());
}

TEST(ObsTrace, RingBufferDropsOldestEvents) {
  obs::TraceSink sink(4);
  sink.set_enabled(true);
  for (std::uint64_t i = 0; i < 6; ++i)
    sink.record(obs::TraceEvent{
        .name = "test.event", .start_us = i * 10, .dur_us = 5, .depth = 1, .tid = 7});
  EXPECT_EQ(sink.recorded(), 6u);
  EXPECT_EQ(sink.dropped(), 2u);
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest surviving first: seq 2..5.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i + 2);
    EXPECT_EQ(events[i].start_us, (i + 2) * 10);
  }
  sink.clear();
  EXPECT_EQ(sink.recorded(), 0u);
  EXPECT_TRUE(sink.snapshot().empty());
}

TEST(ObsExport, PrometheusGolden) {
  obs::Registry reg;
  reg.counter("test.prom.hits").inc(7);
  reg.gauge("test.prom.level").set(2.5);
  obs::Histogram& h = reg.histogram("test.prom.latency", {1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(9.0);
  EXPECT_EQ(reg.to_prometheus(),
            "# TYPE test_prom_hits counter\n"
            "test_prom_hits 7\n"
            "# TYPE test_prom_latency histogram\n"
            "test_prom_latency_bucket{le=\"1\"} 1\n"
            "test_prom_latency_bucket{le=\"2\"} 2\n"
            "test_prom_latency_bucket{le=\"+Inf\"} 3\n"
            "test_prom_latency_sum 11\n"
            "test_prom_latency_count 3\n"
            "# TYPE test_prom_level gauge\n"
            "test_prom_level 2.5\n");
}

TEST(ObsExport, JsonGolden) {
  obs::Registry reg;
  reg.counter("test.json.hits").inc(7);
  reg.gauge("test.json.level").set(2.5);
  obs::Histogram& h = reg.histogram("test.json.latency", {1.0, 2.0});
  h.observe(0.5);
  h.observe(9.0);
  EXPECT_EQ(reg.to_json(),
            "{\"counters\":{\"test.json.hits\":7},"
            "\"gauges\":{\"test.json.level\":2.5},"
            "\"histograms\":{\"test.json.latency\":{\"bounds\":[1,2],"
            "\"counts\":[1,0,1],\"count\":2,\"sum\":9.5}}}");
}

TEST(ObsExport, ChromeTraceGolden) {
  obs::TraceSink sink(8);
  sink.set_enabled(true);
  sink.record(obs::TraceEvent{.name = "alpha", .start_us = 10, .dur_us = 5, .depth = 1, .tid = 1});
  sink.record(obs::TraceEvent{
      .name = "beta \"quoted\"", .start_us = 12, .dur_us = 2, .depth = 2, .tid = 1});
  // Replayed events carry no trace/span ids, so both slices land in the
  // pid-1 "untraced" group.
  EXPECT_EQ(sink.to_chrome_json(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
            "\"args\":{\"name\":\"untraced\"}},"
            "{\"name\":\"alpha\",\"cat\":\"sysuq\",\"ph\":\"X\",\"pid\":1,"
            "\"tid\":1,\"ts\":10,\"dur\":5,\"args\":{\"depth\":1,"
            "\"trace\":0,\"span\":0,\"parent\":0}},"
            "{\"name\":\"beta \\\"quoted\\\"\",\"cat\":\"sysuq\",\"ph\":\"X\","
            "\"pid\":1,\"tid\":1,\"ts\":12,\"dur\":2,\"args\":{\"depth\":2,"
            "\"trace\":0,\"span\":0,\"parent\":0}}"
            "]}");
}

TEST(ObsExport, ChromeTraceGroupsTracesAndEmitsFlowArrows) {
  obs::TraceSink sink(8);
  sink.set_enabled(true);
  obs::TraceEvent root;
  root.name = "root";
  root.start_us = 10;
  root.dur_us = 20;
  root.depth = 1;
  root.tid = 1;
  root.trace_id = 7;
  root.span_id = 100;
  obs::TraceEvent task;
  task.name = "task";
  task.start_us = 12;
  task.dur_us = 5;
  task.depth = 1;
  task.tid = 2;  // crossed a thread: the exporter draws a flow arrow
  task.trace_id = 7;
  task.span_id = 101;
  task.parent_span = 100;
  sink.record(root);
  sink.record(task);
  EXPECT_EQ(sink.to_chrome_json(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
            "\"args\":{\"name\":\"trace 7\"}},"
            "{\"name\":\"root\",\"cat\":\"sysuq\",\"ph\":\"X\",\"pid\":2,"
            "\"tid\":1,\"ts\":10,\"dur\":20,\"args\":{\"depth\":1,"
            "\"trace\":7,\"span\":100,\"parent\":0}},"
            "{\"name\":\"task\",\"cat\":\"sysuq\",\"ph\":\"X\",\"pid\":2,"
            "\"tid\":2,\"ts\":12,\"dur\":5,\"args\":{\"depth\":1,"
            "\"trace\":7,\"span\":101,\"parent\":100}},"
            "{\"name\":\"handoff\",\"cat\":\"sysuq\",\"ph\":\"s\",\"id\":101,"
            "\"pid\":2,\"tid\":1,\"ts\":10},"
            "{\"name\":\"handoff\",\"cat\":\"sysuq\",\"ph\":\"f\",\"bp\":\"e\","
            "\"id\":101,\"pid\":2,\"tid\":2,\"ts\":12}"
            "]}");
}

TEST(ObsContext, SpanAdoptsInstallsAndRestoresContext) {
  obs::TraceSink sink(8);
  sink.set_enabled(true);
  EXPECT_FALSE(obs::current_context().active());
  {
    const obs::Span outer("test.ctx.outer", sink);
    const obs::TraceContext outer_ctx = obs::current_context();
    EXPECT_TRUE(outer_ctx.active());
    {
      const obs::Span inner("test.ctx.inner", sink);
      const obs::TraceContext inner_ctx = obs::current_context();
      EXPECT_EQ(inner_ctx.trace_id, outer_ctx.trace_id);  // same trace
      EXPECT_NE(inner_ctx.parent_span, outer_ctx.parent_span);
    }
    // The inner span restored the outer context on destruction.
    EXPECT_EQ(obs::current_context().parent_span, outer_ctx.parent_span);
  }
  EXPECT_FALSE(obs::current_context().active());
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "test.ctx.inner");
  EXPECT_EQ(events[0].trace_id, events[1].trace_id);
  EXPECT_EQ(events[0].parent_span, events[1].span_id);
  EXPECT_EQ(events[1].name, "test.ctx.outer");
  EXPECT_EQ(events[1].parent_span, 0u);  // trace root
}

TEST(ObsContext, TopLevelSpansRootDistinctTraces) {
  obs::TraceSink sink(8);
  sink.set_enabled(true);
  {
    const obs::Span first("test.ctx.first", sink);
  }
  {
    const obs::Span second("test.ctx.second", sink);
  }
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].trace_id, 0u);
  EXPECT_NE(events[1].trace_id, 0u);
  EXPECT_NE(events[0].trace_id, events[1].trace_id);
  EXPECT_NE(events[0].span_id, events[1].span_id);
}

TEST(ObsContext, ContextScopeCarriesTraceAcrossThreads) {
  obs::TraceSink sink(8);
  sink.set_enabled(true);
  {
    const obs::Span root("test.ctx.root", sink);
    const obs::TraceContext ctx = obs::current_context();
    ASSERT_TRUE(ctx.active());
    std::thread worker([&sink, ctx] {
      const obs::ContextScope scope(ctx);  // the pool-task handoff
      const obs::Span child("test.ctx.child", sink);
    });
    worker.join();
  }
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "test.ctx.child");
  EXPECT_EQ(events[1].name, "test.ctx.root");
  EXPECT_EQ(events[0].trace_id, events[1].trace_id);
  EXPECT_EQ(events[0].parent_span, events[1].span_id);
}

TEST(ObsSlo, QuantileInterpolatesWithinBuckets) {
  obs::HistogramSnapshot h;
  h.bounds = {0.1, 0.5, 1.0};
  h.counts = {10, 80, 10, 0};
  h.count = 100;
  h.sum = 40.0;
  EXPECT_DOUBLE_EQ(obs::quantile(h, 0.50), 0.3);
  EXPECT_DOUBLE_EQ(obs::quantile(h, 0.95), 0.75);
  EXPECT_DOUBLE_EQ(obs::quantile(h, 0.99), 0.95);
  EXPECT_DOUBLE_EQ(obs::quantile(h, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(obs::quantile(h, 1.0), 1.0);
}

TEST(ObsSlo, QuantileEdgeCases) {
  const obs::HistogramSnapshot empty;
  EXPECT_DOUBLE_EQ(obs::quantile(empty, 0.5), 0.0);
  EXPECT_THROW((void)obs::quantile(empty, 1.5),
               sysuq::contracts::ContractViolation);
  // Every observation above the ladder: the rank lands in +Inf and the
  // estimate clamps to the largest finite bound.
  obs::HistogramSnapshot inf;
  inf.bounds = {1.0, 2.0};
  inf.counts = {0, 0, 5};
  inf.count = 5;
  inf.sum = 50.0;
  EXPECT_DOUBLE_EQ(obs::quantile(inf, 0.99), 2.0);
  // The live-histogram overload snapshots and agrees.
  obs::Histogram h({1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5);
  EXPECT_DOUBLE_EQ(obs::quantile(h, 0.5), 1.0);
}

TEST(ObsSlo, RegistrySnapshotCopiesEveryInstrument) {
  obs::Registry reg;
  reg.counter("test.slo.hits").inc(5);
  reg.gauge("test.slo.level").set(1.5);
  obs::Histogram& h = reg.histogram("test.slo.latency", {1.0, 2.0});
  h.observe(0.5);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("test.slo.hits"), 5u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("test.slo.level"), 1.5);
  const auto& hs = snap.histograms.at("test.slo.latency");
  EXPECT_EQ(hs.bounds, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(hs.counts, (std::vector<std::uint64_t>{1, 0, 0}));
  EXPECT_EQ(hs.count, 1u);
  EXPECT_DOUBLE_EQ(hs.sum, 0.5);
}

TEST(ObsSlo, SnapshotDeltaWindowsInstruments) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("test.slo.hits");
  obs::Gauge& g = reg.gauge("test.slo.level");
  obs::Histogram& h = reg.histogram("test.slo.latency", {1.0, 2.0});
  c.inc(5);
  g.set(1.0);
  h.observe(0.5);
  const auto before = reg.snapshot();
  c.inc(3);
  g.set(7.5);
  h.observe(1.5);
  h.observe(9.0);
  const auto window = obs::snapshot_delta(before, reg.snapshot());
  EXPECT_EQ(window.counters.at("test.slo.hits"), 3u);
  EXPECT_DOUBLE_EQ(window.gauges.at("test.slo.level"), 7.5);  // last value
  const auto& wh = window.histograms.at("test.slo.latency");
  EXPECT_EQ(wh.counts, (std::vector<std::uint64_t>{0, 1, 1}));
  EXPECT_EQ(wh.count, 2u);
  EXPECT_DOUBLE_EQ(wh.sum, 10.5);
  // A reset mid-window clamps to zero instead of underflowing.
  reg.reset();
  const auto clamped = obs::snapshot_delta(window, reg.snapshot());
  EXPECT_EQ(clamped.counters.at("test.slo.hits"), 0u);
  EXPECT_EQ(clamped.histograms.at("test.slo.latency").count, 0u);
}

TEST(ObsSlo, SloReportGolden) {
  obs::Registry reg;
  reg.counter("test.slo.ignored").inc(9);  // only histograms are reported
  obs::Histogram& h = reg.histogram("test.slo.latency", {1.0, 2.0});
  h.observe(0.5);
  h.observe(9.0);
  EXPECT_EQ(obs::slo_report(reg.snapshot()),
            "{\"test.slo.latency\":{\"count\":2,\"sum\":9.5,"
            "\"p50\":1,\"p95\":2,\"p99\":2}}");
  EXPECT_EQ(obs::slo_report(obs::RegistrySnapshot{}), "{}");
}

TEST(ObsExport, RegistryResetZeroesButKeepsRegistrations) {
  obs::Registry reg;
  reg.counter("test.reset.hits").inc(5);
  reg.gauge("test.reset.level").set(1.0);
  reg.histogram("test.reset.latency", {1.0}).observe(0.5);
  reg.reset();
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_EQ(reg.counter("test.reset.hits").value(), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge("test.reset.level").value(), 0.0);
  EXPECT_EQ(reg.histogram("test.reset.latency", {1.0}).count(), 0u);
}

// End-to-end: the instrumented engine populates the global registry with
// the manifest's required instruments (acceptance criterion).
TEST(ObsIntegration, EngineQueriesPopulateGlobalRegistry) {
  auto& reg = obs::Registry::global();
  const auto net = tiny_network();
  // A ceiling below the network plan's largest table leaves the engine
  // no network plan, so its queries look their signature's plan up.
  bn::InferenceEngine engine(
      net, {.threads = 1,
            .backend = bn::Backend::kVariableElimination,
            .max_exact_table_cells =
                bn::compute_elimination_order(net, {}, {}).max_table_cells - 1});
  for (std::size_t i = 0; i < 16; ++i) (void)engine.query(1, {{0, i % 2}});

  obs::Counter& hits = reg.counter("bayesnet.engine.ordering_cache.hits");
  obs::Counter& queries = reg.counter("bayesnet.engine.queries");
  obs::Histogram& latency =
      reg.histogram("bayesnet.engine.query_seconds", obs::seconds_buckets());
  EXPECT_GE(queries.value(), 16u);
  EXPECT_GE(hits.value(), 15u);  // one signature: 1 miss, then hits
  // Latency is sampled 1-in-8, so 16 queries guarantee >= 2 observations
  // regardless of where the process-wide sample sequence stands.
  EXPECT_GE(latency.count(), 2u);

  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"bayesnet.engine.query_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"bayesnet.engine.ordering_cache.hits\""),
            std::string::npos);
}

// The tentpole acceptance test: a pooled query_batch forms ONE trace —
// every worker-side query span carries the batch span's trace id and
// parents directly to it, because the dispatch hands the TraceContext
// across the pool. Runs under the tsan preset with the rest of `obs`.
TEST(ObsIntegration, QueryBatchFormsOneTraceAcrossWorkers) {
  const auto net = tiny_network();
  const bn::InferenceEngine engine(net, {.threads = 4});
  auto& sink = obs::TraceSink::global();
  sink.clear();
  sink.set_enabled(true);
  std::vector<bn::QuerySpec> batch;
  for (std::size_t i = 0; i < 64; ++i)
    batch.push_back({i % 2, {{(i + 1) % 2, (i / 2) % 2}}});
  (void)engine.query_batch(batch);
  sink.set_enabled(false);
  const auto events = sink.snapshot();
  sink.clear();

  const obs::TraceEvent* root = nullptr;
  for (const auto& e : events)
    if (e.name == "bayesnet.engine.query_batch") root = &e;
  ASSERT_NE(root, nullptr);
  EXPECT_NE(root->trace_id, 0u);
  EXPECT_EQ(root->parent_span, 0u);  // the batch roots the trace

  std::size_t query_spans = 0;
  for (const auto& e : events) {
    if (e.name != "bayesnet.engine.query") continue;
    ++query_spans;
    EXPECT_EQ(e.trace_id, root->trace_id);
    EXPECT_EQ(e.parent_span, root->span_id);
  }
  EXPECT_EQ(query_spans, batch.size());
}

// A cold all_marginals computes its signature's min-fill ordering once,
// inside the query's span; the repeat reads the cached ordering.
TEST(ObsIntegration, ColdAllMarginalsTracesOneMinFillOrdering) {
  const auto net = tiny_network();
  const bn::InferenceEngine engine(net, {.threads = 1});
  auto& sink = obs::TraceSink::global();
  const auto traced_all_marginals = [&] {
    sink.clear();
    sink.set_enabled(true);
    (void)engine.all_marginals({{1, 0}});
    sink.set_enabled(false);
    auto events = sink.snapshot();
    sink.clear();
    return events;
  };

  const auto cold = traced_all_marginals();
  const obs::TraceEvent* root = nullptr;
  for (const auto& e : cold)
    if (e.name == "bayesnet.engine.all_marginals") root = &e;
  ASSERT_NE(root, nullptr);
  std::size_t min_fill = 0;
  for (const auto& e : cold) {
    if (e.name != "bayesnet.ordering.min_fill") continue;
    ++min_fill;
    EXPECT_EQ(e.trace_id, root->trace_id);
    EXPECT_EQ(e.parent_span, root->span_id);
  }
  EXPECT_EQ(min_fill, 1u);

  for (const auto& e : traced_all_marginals())
    EXPECT_NE(e.name, "bayesnet.ordering.min_fill");
}

TEST(ObsIntegration, ColdQueryBoundedTracesOneBpCertifySpan) {
  const auto net = tiny_network();
  const bn::InferenceEngine engine(net, {.threads = 1});
  auto& sink = obs::TraceSink::global();
  const auto traced_query_bounded = [&] {
    sink.clear();
    sink.set_enabled(true);
    (void)engine.query_bounded(1, {{0, 1}});
    sink.set_enabled(false);
    auto events = sink.snapshot();
    sink.clear();
    return events;
  };

  const auto cold = traced_query_bounded();
  const obs::TraceEvent* run = nullptr;
  for (const auto& e : cold)
    if (e.name == "bayesnet.bp.run") run = &e;
  ASSERT_NE(run, nullptr);
  std::size_t certify = 0;
  for (const auto& e : cold) {
    if (e.name != "bayesnet.bp.certify") continue;
    ++certify;
    EXPECT_EQ(e.trace_id, run->trace_id);
    EXPECT_EQ(e.parent_span, run->span_id);
  }
  EXPECT_EQ(certify, 1u);

  // A cached run is not certified again.
  for (const auto& e : traced_query_bounded())
    EXPECT_NE(e.name, "bayesnet.bp.certify");
}

// The certificate's work counters move once per run, by the run's
// totals: configurations enumerated exactly, and variables relaxed.
TEST(ObsIntegration, BpCountsBlanketConfigurationsAndRelaxations) {
  auto& reg = obs::Registry::global();
  obs::Counter& configs = reg.counter("bayesnet.bp.blanket_configs");
  obs::Counter& relaxed = reg.counter("bayesnet.bp.relaxed_blankets");
  const auto net = six_cause_noisy_or();
  const auto deltas = [&](const bn::LoopyBP::Options& options) {
    const std::uint64_t c0 = configs.value(), r0 = relaxed.value();
    (void)bn::LoopyBP(net, kTwoCausesObserved, options);
    return std::pair{configs.value() - c0, relaxed.value() - r0};
  };
  EXPECT_EQ(deltas({}), (std::pair<std::uint64_t, std::uint64_t>{80, 0}));
  bn::LoopyBP::Options capped;
  capped.max_blanket_configs = 8;
  EXPECT_EQ(deltas(capped), (std::pair<std::uint64_t, std::uint64_t>{0, 5}));
  // Suspended recording leaves both counters where they were.
  obs::set_metrics_enabled(false);
  const auto off = deltas({});
  obs::set_metrics_enabled(true);
  EXPECT_EQ(off, (std::pair<std::uint64_t, std::uint64_t>{0, 0}));
}

#else  // SYSUQ_OBS_OFF — the no-op layer must compile and record nothing.

TEST(ObsOffMode, RegistryIsInertAndEmpty) {
  auto& reg = obs::Registry::global();
  obs::Counter& c = reg.counter("test.off.hits");
  obs::Gauge& g = reg.gauge("test.off.level");
  obs::Histogram& h = reg.histogram("test.off.latency", {1.0, 2.0});
  c.inc(10);
  g.set(3.0);
  h.observe(0.5);
  {
    const obs::HistogramTimer timer(h);
  }
  EXPECT_FALSE(obs::metrics_enabled());
  EXPECT_EQ(reg.size(), 0u);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(reg.to_prometheus(), "");
  EXPECT_EQ(reg.to_json(), "{}");
}

TEST(ObsOffMode, TracingIsInert) {
  auto& sink = obs::TraceSink::global();
  sink.set_enabled(true);  // ignored in no-op mode
  EXPECT_FALSE(sink.enabled());
  {
    const obs::Span span("test.off.span", sink);
  }
  sink.record(obs::TraceEvent{.name = "test.off.direct", .dur_us = 1, .depth = 1});
  EXPECT_EQ(sink.recorded(), 0u);
  EXPECT_TRUE(sink.snapshot().empty());
  EXPECT_EQ(sink.to_chrome_json(), "{}");
}

TEST(ObsOffMode, InstrumentedEngineStillAnswersQueries) {
  const auto net = tiny_network();
  bn::InferenceEngine engine(net, {.threads = 1});
  const auto posterior = engine.query(1, {{0, 0}});
  EXPECT_NEAR(posterior.p(0), 0.9, tol::kTiny);
  // The whole instrumentation sweep registered nothing.
  EXPECT_EQ(obs::Registry::global().size(), 0u);
}

TEST(ObsOffMode, BpWorkCountersReadZero) {
  const auto net = six_cause_noisy_or();
  const bn::LoopyBP bp(net, kTwoCausesObserved);
  EXPECT_TRUE(bp.converged());
  auto& reg = obs::Registry::global();
  EXPECT_EQ(reg.counter("bayesnet.bp.blanket_configs").value(), 0u);
  EXPECT_EQ(reg.counter("bayesnet.bp.relaxed_blankets").value(), 0u);
}

TEST(ObsOffMode, ContextIsInert) {
  EXPECT_FALSE(obs::current_context().active());
  EXPECT_EQ(obs::new_trace_id(), 0u);
  EXPECT_EQ(obs::new_span_id(), 0u);
  {
    const obs::ContextScope scope(obs::TraceContext{42, 7});
  }
  EXPECT_FALSE(obs::current_context().active());
}

TEST(ObsOffMode, SloLayerIsInert) {
  obs::HistogramSnapshot h;
  h.count = 100;  // ignored: the stub never reads it
  EXPECT_DOUBLE_EQ(obs::quantile(h, 0.99), 0.0);
  const obs::RegistrySnapshot snap = obs::Registry::global().snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.histograms.empty());
  EXPECT_TRUE(obs::snapshot_delta(snap, snap).histograms.empty());
  EXPECT_EQ(obs::slo_report(snap), "{}");
  EXPECT_EQ(obs::slo_report(), "{}");
}

TEST(ObsOffMode, ExplainStillProfilesQueries) {
  // QueryProfile is plain bayesnet data: EXPLAIN keeps working with the
  // obs layer compiled out (measured figures simply read as zero-ish).
  const auto net = tiny_network();
  bn::InferenceEngine engine(net, {.threads = 1});
  auto profile = engine.explain(1, {{0, 0}});
  EXPECT_EQ(profile.backend, "variable_elimination");
  profile.zero_costs();
  EXPECT_NE(profile.to_json().find("\"posterior\""), std::string::npos);
  EXPECT_NE(profile.to_plan().find("EXPLAIN"), std::string::npos);
}

#endif  // SYSUQ_OBS_OFF
