// The closed-loop runner: set-up, the timed loop, answer checks, and the
// end-to-end report (trace off) or the per-layer report (trace on).
#include "runner.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <exception>
#include <fstream>
#include <limits>
#include <string>
#include <tuple>

#include "reference.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {

void put(Metrics& out, const std::string& name, double value,
         const std::string& unit) {
  for (auto& m : out) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  out.push_back({name, value, unit});
}

void put_max(Metrics& out, const std::string& name, double value,
             const std::string& unit) {
  for (const auto& m : out)
    if (m.name == name) value = std::max(value, m.value);
  put(out, name, value, unit);
}

const std::vector<WorkloadSpec>& workload_specs() {
  static const std::vector<WorkloadSpec> specs{
      {"relay_chain_ve", 2000, make_relay_chain_ve, "engine.query_batch"},
      {"fta_diagnosis_jt", 200, make_fta_diagnosis_jt, "engine.all_marginals"},
      {"bounded_bp_fanin", 500, make_bounded_bp_fanin, "engine.query_bounded"},
  };
  return specs;
}

namespace {

namespace bn = sysuq::bayesnet;

// Set-up runs at least this often, and again while the set-ups so far
// took less than kSetupBudgetS, up to kMaxSetups; setup_s is the median.
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 101;
constexpr double kSetupBudgetS = 3.0;
// The tail latency percentile: each workload leaves well over 10 samples
// beyond it on this tree (stats.hpp tail_level falls back to a lower
// level when a run has too few).
constexpr double kTailPercentile = 90.0;
// The traced run alternates untraced and traced chunks of the loop.
constexpr std::size_t kTraceChunkPairs = 10;

// The per-layer metrics of the traced run, in report order.
const std::vector<std::pair<const char*, const char*>> kPerLayer{
    {"kernels.eliminate_us", "us"},
    {"kernels.ns_per_step", "ns"},
    {"kernels.steps", "count"},
    {"kernels.cells", "count"},
    {"engine.wrapper_us", "us"},
    {"engine.pool.scaling_eff", "ratio"},
    {"ordering.order_ms.relay", "ms"},
    {"ordering.order_ms.fta", "ms"},
    {"ordering.order_ms.grid", "ms"},
    {"ordering.induced_width.fta", "count"},
    {"ordering.induced_width.grid", "count"},
    {"ordering.fill_edges.fta", "count"},
    {"ordering.fill_edges.grid", "count"},
    {"engine.guard_ms.relay", "ms"},
    {"engine.guard_ms.fta", "ms"},
    {"engine.guard_ms.grid", "ms"},
    {"junction_tree.build_ms", "ms"},
    {"junction_tree.max_clique_size", "count"},
    {"junction_tree.cliques", "count"},
    {"junction_tree.read_us", "us"},
    {"engine.jt_cache.hit_rate", "ratio"},
    {"engine.jt_cache.entries", "count"},
    {"engine.ordering_cache.hit_rate", "ratio"},
    {"engine.bp_cache.misses", "count"},
    {"loopy_bp.run_ms.fanin", "ms"},
    {"loopy_bp.run_ms.grid", "ms"},
    {"loopy_bp.iterations.fanin", "count"},
    {"loopy_bp.iterations.grid", "count"},
    {"loopy_bp.ms_per_iteration.fanin", "ms"},
    {"loopy_bp.ms_per_iteration.grid", "ms"},
    {"loopy_bp.max_bound_width", "ratio"},
    {"loopy_bp.converged_frac", "ratio"},
    {"arena.high_water_bytes", "bytes"},
    {"fta.compile_ms", "ms"},
    {"engine.route.ve", "count"},
    {"engine.route.jt", "count"},
    {"engine.route.bp", "count"},
    {"trace.overhead_frac", "ratio"},
    {"self_ms.bench", "ms"},
    {"self_ms.engine", "ms"},
    {"self_ms.kernels", "ms"},
    {"self_ms.ordering", "ms"},
    {"self_ms.junction_tree", "ms"},
    {"self_ms.loopy_bp", "ms"},
    {"self_ms.fta", "ms"},
};

// Peak resident set of this process's own address space. VmHWM, not
// ru_maxrss: Linux carries ru_maxrss across exec, so it would report the
// launching Python's footprint whenever that is larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

// Cache lookups per backend over the timed loop: each VE query looks up
// one ordering, each JT or BP answer one calibrated tree or BP run.
struct Lookups {
  std::size_t hits = 0;
  std::size_t misses = 0;
  [[nodiscard]] std::size_t total() const { return hits + misses; }
  [[nodiscard]] double hit_rate() const {
    return total() == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total());
  }
};
struct Routes {
  Lookups ve, jt, bp;
  static Routes of(const bn::InferenceEngine& e) {
    const auto l = [](const bn::InferenceEngine::CacheStats& s) {
      return Lookups{s.hits, s.misses};
    };
    return {l(e.cache_stats()), l(e.jt_cache_stats()), l(e.bp_cache_stats())};
  }
  // Adds the lookups made between `from` and `to`.
  void add(const Routes& from, const Routes& to) {
    for (auto [sum, a, b] : {std::tuple{&ve, &from.ve, &to.ve},
                             std::tuple{&jt, &from.jt, &to.jt},
                             std::tuple{&bp, &from.bp, &to.bp}}) {
      sum->hits += b->hits - a->hits;
      sum->misses += b->misses - a->misses;
    }
  }
};

struct LoopResult {
  std::size_t ops = 0;
  std::size_t failed = 0;
  double seconds = 0.0;
  std::vector<double> latency_ms;  // wall
  std::vector<double> norm_ms;     // scaled to the reference's nominal speed
  std::vector<std::string> errors;
  Routes routes;

  void append(LoopResult&& part) {
    ops += part.ops;
    failed += part.failed;
    seconds += part.seconds;
    latency_ms.insert(latency_ms.end(), part.latency_ms.begin(), part.latency_ms.end());
    norm_ms.insert(norm_ms.end(), part.norm_ms.begin(), part.norm_ms.end());
    for (auto& e : part.errors) errors.push_back(std::move(e));
    routes.add(Routes{}, part.routes);
  }
};

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

// Runs ops until `seconds` elapse, continuing the op index from `next`.
// The host reference is timed between consecutive ops, so every op is
// bracketed by two reference times (stats.hpp normalized).
void run_ops(Workload& w, const WorkloadSpec& spec, double seconds, std::size_t& next,
             LoopResult& r, double* rss_at) {
  auto& tracer = Tracer::global();
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(seconds);
  const Routes before = Routes::of(w.engine());
  std::vector<double> ref_ns;
  std::vector<double> wall_ms;
  while (Clock::now() < deadline) {
    const std::size_t i = next++;
    tracer.set_op(i);
    const Span op_span("bench.op");
    w.prepare(i);
    ref_ns.push_back(reference_ns());
    bool ok = true;
    const auto t0 = Clock::now();
    try {
      const Span call_span(spec.call_span);
      w.run();
    } catch (const std::exception& e) {
      ok = false;
      if (r.errors.size() < 5) r.errors.push_back(e.what());
    }
    wall_ms.push_back(ms_since(t0));
    if (ok && !w.accept(i)) {
      ok = false;
      if (r.errors.size() < 5) r.errors.push_back("answer failed its shape check");
    }
    if (!ok) ++r.failed;
    ++r.ops;
    if (rss_at != nullptr && next == spec.rss_ops) *rss_at = peak_rss_mb();
  }
  ref_ns.push_back(reference_ns());
  r.seconds += std::chrono::duration<double>(Clock::now() - start).count();
  r.routes.add(before, Routes::of(w.engine()));
  const auto norm = normalized(wall_ms, ref_ns, kReferenceNominalNs);
  r.latency_ms.insert(r.latency_ms.end(), wall_ms.begin(), wall_ms.end());
  r.norm_ms.insert(r.norm_ms.end(), norm.begin(), norm.end());
}

void print_env(const RunConfig& cfg, const WorkloadSpec& spec, std::size_t threads) {
#if defined(__clang__)
  const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = "gcc " __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::printf(
      "ENV {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%s,\"trace\":%d,"
      "\"nproc\":%ld,\"engine_threads\":%zu,\"build_type\":\"%s\",\"compiler\":\"%s\","
      "\"git_commit\":\"%s\",\"source_digest\":\"%s\"}\n",
      spec.name, static_cast<unsigned long long>(cfg.seed), number(cfg.seconds).c_str(),
      cfg.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN), threads, PERFBENCH_BUILD_TYPE,
      json_escape(compiler).c_str(), json_escape(cfg.commit).c_str(),
      json_escape(cfg.digest).c_str());
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const Metrics& metrics) {
  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

// Expected routing on this tree; a deviation is reported, not failed.
void check_routes(const WorkloadSpec& spec, std::size_t ops, std::size_t ve,
                  std::size_t jt, std::size_t bp) {
  const std::string name = spec.name;
  std::string warn;
  if (name == "relay_chain_ve" && (jt != 0 || bp != 0))
    warn = "expected every query on VE";
  if (name == "fta_diagnosis_jt" && (bp != 0 || jt != ops))
    warn = "expected every op on the junction tree";
  if (name == "bounded_bp_fanin" && (jt != 0 || bp != ops))
    warn = "expected every op on a fresh BP run";
  std::printf("routes             ve=%zu jt=%zu bp=%zu lookups over %zu ops%s%s\n", ve, jt,
              bp, ops, warn.empty() ? "" : "  WARNING: ", warn.c_str());
}

void verify(Workload& w, LoopResult& r) {
  std::vector<std::string> why;
  r.failed += w.verify(why);
  for (std::size_t i = 0; i < why.size() && r.errors.size() < 10; ++i)
    r.errors.push_back(why[i]);
}

void print_errors(const LoopResult& r) {
  for (const auto& e : r.errors) std::printf("error              %s\n", e.c_str());
}

}  // namespace

int run_benchmark(const RunConfig& cfg) {
  const WorkloadSpec* spec = nullptr;
  for (const auto& s : workload_specs())
    if (cfg.workload == s.name) spec = &s;
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", cfg.workload.c_str());
    return 2;
  }
  auto& tracer = Tracer::global();

  // ---- set-up -----------------------------------------------------------
  std::unique_ptr<Workload> w;
  std::vector<double> setups, setups_wall;
  double setup_total = 0.0;
  tracer.set_enabled(cfg.trace);
  do {
    w.reset();
    const double ref_before = reference_ns();
    const auto t0 = Clock::now();
    auto fresh = spec->make(cfg.seed);
    fresh->setup();
    const double wall_s = ms_since(t0) / 1e3;
    setups_wall.push_back(wall_s);
    setups.push_back(
        normalized({wall_s}, {ref_before, reference_ns()}, kReferenceNominalNs).front());
    setup_total += wall_s;
    w = std::move(fresh);
    tracer.set_enabled(false);  // one traced set-up is enough
  } while (setups.size() < kMinSetups ||
           (setup_total < kSetupBudgetS && setups.size() < kMaxSetups));
  const double setup_s = median(setups);
  print_env(cfg, *spec, w->engine().threads());

  // ---- timed loop -------------------------------------------------------
  LoopResult loop;
  std::size_t next = 0;
  double rss_at = -1.0;
  // Traced and untraced ops, and their summed reference-scaled latency.
  double ops_untraced = 0.0, s_untraced = 0.0, ops_traced = 0.0, s_traced = 0.0;
  if (!cfg.trace) {
    run_ops(*w, *spec, cfg.seconds, next, loop, &rss_at);
  } else {
    const double chunk = cfg.seconds / (2.0 * kTraceChunkPairs);
    for (std::size_t c = 0; c < kTraceChunkPairs; ++c) {
      for (const bool on : {false, true}) {
        tracer.set_enabled(on);
        LoopResult part;
        run_ops(*w, *spec, chunk, next, part, nullptr);
        (on ? ops_traced : ops_untraced) += static_cast<double>(part.ops);
        (on ? s_traced : s_untraced) += sum(part.norm_ms) / 1e3;
        loop.append(std::move(part));
      }
    }
    tracer.set_enabled(false);
  }
  if (rss_at < 0.0) {
    rss_at = peak_rss_mb();
    if (!cfg.trace)
      std::printf("note               only %zu ops ran; peak_rss_mb read at the end\n",
                  loop.ops);
  }
  const Routes& routes = loop.routes;
  const std::size_t jt_entries = w->engine().jt_cache_stats().entries;

  // ---- answer checks, outside the timed region ---------------------------
  verify(*w, loop);
  const bool correct = loop.failed == 0 && w->verified() > 0 && loop.ops > 0;

  std::printf("perfbench          %s seed=%llu seconds=%s trace=%d, 1 closed-loop client\n",
              spec->name, static_cast<unsigned long long>(cfg.seed),
              number(cfg.seconds).c_str(), cfg.trace ? 1 : 0);
  check_routes(*spec, loop.ops, routes.ve.total(), routes.jt.total(), routes.bp.total());
  print_errors(loop);
  std::printf("failed_frac        %s (%zu of %zu ops; %zu ops verified against references)\n",
              number(loop.ops ? static_cast<double>(loop.failed) / loop.ops : 1.0).c_str(),
              loop.failed, loop.ops, w->verified());

  Metrics metrics;
  if (!cfg.trace) {
    // Times are scaled to the host reference's nominal speed; the wall
    // figures are printed beside them.
    auto& lat = loop.norm_ms;
    auto& wall = loop.latency_ms;
    const double tail = tail_level(lat.size(), kTailPercentile);
    const double ops_per_s = static_cast<double>(lat.size()) / (sum(lat) / 1e3);
    const double wall_ops_per_s = static_cast<double>(wall.size()) / (sum(wall) / 1e3);
    std::sort(lat.begin(), lat.end());
    std::sort(wall.begin(), wall.end());
    put(metrics, "setup_s", setup_s, "s");
    put(metrics, "ops_per_s", ops_per_s, "ops/s");
    put(metrics, "latency_p50_ms", percentile(lat, 50.0), "ms");
    put(metrics, "latency_tail_ms", percentile(lat, tail), "ms");
    put(metrics, "peak_rss_mb", rss_at, "MB");
    std::printf("host speed         reference timed before and after every op and set-up;"
                " figures scaled to its nominal %g us, wall figures beside them\n",
                kReferenceNominalNs / 1e3);
    std::printf("setup_s            %.6g s (median of %zu set-ups; wall %.6g s)\n", setup_s,
                setups.size(), median(setups_wall));
    std::printf("ops_per_s          %.6g ops/s (%zu ops over their summed latency; wall %.6g"
                " ops/s; %zu ops in a %.3f s loop)\n",
                ops_per_s, lat.size(), wall_ops_per_s, loop.ops, loop.seconds);
    std::printf("latency_p50_ms     %.6g ms (wall %.6g ms)\n", percentile(lat, 50.0),
                percentile(wall, 50.0));
    std::printf("latency_tail_ms    %.6g ms (p%g, %zu samples beyond it, %zu samples;"
                " wall %.6g ms)\n",
                percentile(lat, tail), tail, samples_beyond(lat.size(), tail), lat.size(),
                percentile(wall, tail));
    std::printf("peak_rss_mb        %.6g MB (VmHWM after op %zu)\n", rss_at,
                std::min(loop.ops, spec->rss_ops));
    print_result(correct, loop.ops, loop.failed, metrics);
    return 0;
  }

  // ---- traced run: per-layer metrics --------------------------------------
  put(metrics, "engine.jt_cache.hit_rate", routes.jt.hit_rate(), "ratio");
  put(metrics, "engine.jt_cache.entries", static_cast<double>(jt_entries), "count");
  put(metrics, "engine.ordering_cache.hit_rate", routes.ve.hit_rate(), "ratio");
  put(metrics, "engine.bp_cache.misses", static_cast<double>(routes.bp.misses), "count");
  put(metrics, "engine.route.ve", static_cast<double>(routes.ve.total()), "count");
  put(metrics, "engine.route.jt", static_cast<double>(routes.jt.total()), "count");
  put(metrics, "engine.route.bp", static_cast<double>(routes.bp.total()), "count");
  const double untraced_rate = ops_untraced / s_untraced;
  const double traced_rate = ops_traced / s_traced;
  put(metrics, "trace.overhead_frac", 1.0 - traced_rate / untraced_rate, "ratio");

  tracer.set_enabled(true);
  probe_relay(cfg.seed, metrics);
  probe_fta(cfg.seed, metrics);
  probe_bp(cfg.seed, metrics);
  tracer.set_enabled(false);

  const auto self = self_seconds_by_layer(tracer.records());
  std::printf("self time by layer (traced set-up, traced ops and layer replays):\n");
  for (const auto& [layer, s] : self) {
    std::printf("  %-16s %12.3f ms\n", layer.c_str(), s * 1e3);
    put(metrics, "self_ms." + layer, s * 1e3, "ms");
  }
  std::printf("traced ops/s %.6g vs untraced %.6g\n", traced_rate, untraced_rate);

  Metrics ordered;
  bool complete = true;
  for (const auto& [name, unit] : kPerLayer) {
    const auto it = std::find_if(metrics.begin(), metrics.end(),
                                 [&](const Metric& m) { return m.name == name; });
    if (it == metrics.end()) {
      std::fprintf(stderr, "perfbench: per-layer metric %s was not measured\n", name);
      complete = false;
      continue;
    }
    ordered.push_back({name, it->value, unit});
    std::printf("%-34s %.6g %s\n", name, it->value, unit);
  }
  if (!complete) return 1;

  if (!cfg.out_dir.empty()) {
    const std::string path = cfg.out_dir + "/spans-" + spec->name + "-seed" +
                             std::to_string(cfg.seed) + ".json";
    if (!tracer.write_json(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("spans              %zu written to %s\n", tracer.size(), path.c_str());
  }
  print_result(correct, loop.ops, loop.failed, ordered);
  return 0;
}

}  // namespace perfbench
