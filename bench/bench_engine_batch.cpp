// Batched inference throughput: the InferenceEngine (CPT tables viewed
// in place + one network-wide elimination plan + thread pool) against the
// seed baseline, a single-threaded loop over the seed repository's
// VariableElimination::query.
//
// Workload: the Table I perception network refined into a hierarchical
// chain (as in bench_fig4), queried for P(ground truth | leaf state)
// over a batch of mixed-evidence queries — the access pattern of the
// fusion / diagnosis campaigns in perception/ and fta/.
//
// Emits one machine-readable line:
//   BENCH {"bench":"engine_batch", ...}
// with queries/sec for the seed loop, the 1-thread engine and the
// 4-thread engine, the resulting speedups, the ordering-cache hit rate
// and entries (both 0: the network-wide plan fits, so the engine
// memoizes no per-signature ordering), and whether pooled results were
// byte-identical to sequential ones.
//
// With `--manifest out.json`, also writes a run manifest: the workload
// parameters plus a full snapshot of the obs metrics registry (so the
// run's bayesnet.engine.* instruments travel with the numbers).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <list>
#include <set>
#include <string>
#include <vector>

#include "bayesnet/engine.hpp"
#include "core/tolerance.hpp"
#include "obs/registry.hpp"
#include "perception/table1.hpp"

namespace {

using Clock = std::chrono::steady_clock;

// The seed repository's VariableElimination::query, reproduced verbatim
// as the benchmark baseline: per query it rebuilds every CPT factor and
// rescans all factor scopes per elimination round (O(V^2 * F) set
// unions over a std::list). The library's only VE is now the engine's,
// so the historical algorithm lives here to keep the comparison honest.
class SeedVariableElimination {
 public:
  explicit SeedVariableElimination(const sysuq::bayesnet::BayesianNetwork& net)
      : net_(net) {
    net_.validate();
  }

  sysuq::prob::Categorical query(
      sysuq::bayesnet::VariableId query,
      const sysuq::bayesnet::Evidence& evidence) const {
    using namespace sysuq::bayesnet;
    if (evidence.contains(query)) {
      return sysuq::prob::Categorical::delta(
          evidence.at(query), net_.variable(query).cardinality());
    }
    const Factor f = eliminate_all_but({query}, evidence).normalized();
    return sysuq::prob::Categorical(f.values());
  }

 private:
  sysuq::bayesnet::Factor eliminate_all_but(
      const std::vector<sysuq::bayesnet::VariableId>& keep,
      const sysuq::bayesnet::Evidence& evidence) const {
    using namespace sysuq::bayesnet;
    std::list<Factor> factors;
    for (VariableId v = 0; v < net_.size(); ++v) {
      Factor f = net_.cpt_factor(v);
      for (const auto& [ev, state] : evidence) {
        if (f.contains(ev)) f = f.reduce(ev, state);
      }
      factors.push_back(std::move(f));
    }

    std::set<VariableId> keep_set(keep.begin(), keep.end());
    for (const auto& [ev, _] : evidence) keep_set.insert(ev);

    std::set<VariableId> to_eliminate;
    for (VariableId v = 0; v < net_.size(); ++v) {
      if (!keep_set.contains(v)) to_eliminate.insert(v);
    }

    while (!to_eliminate.empty()) {
      VariableId best = *to_eliminate.begin();
      std::size_t best_size = SIZE_MAX;
      for (VariableId v : to_eliminate) {
        std::set<VariableId> scope;
        for (const auto& f : factors) {
          if (f.contains(v)) scope.insert(f.scope().begin(), f.scope().end());
        }
        if (scope.size() < best_size) {
          best_size = scope.size();
          best = v;
        }
      }

      Factor combined = Factor::unit();
      for (auto it = factors.begin(); it != factors.end();) {
        if (it->contains(best)) {
          combined = combined.product(*it);
          it = factors.erase(it);
        } else {
          ++it;
        }
      }
      if (combined.contains(best)) {
        factors.push_back(combined.marginalize(best));
      } else {
        factors.push_back(std::move(combined));
      }
      to_eliminate.erase(best);
    }

    Factor result = Factor::unit();
    for (const auto& f : factors) result = result.product(f);
    return result;
  }

  const sysuq::bayesnet::BayesianNetwork& net_;
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Table I network refined with a chain of noisy 4-state relay stages.
sysuq::bayesnet::BayesianNetwork make_chain(std::size_t stages) {
  using namespace sysuq;
  auto net = perception::table1_network();
  bayesnet::VariableId prev = 1;
  for (std::size_t s = 0; s < stages; ++s) {
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

}  // namespace

int main(int argc, char** argv) {
  using namespace sysuq;

  std::string manifest_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--manifest" && i + 1 < argc) {
      manifest_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_engine_batch [--manifest out.json]\n");
      return 2;
    }
  }

  std::puts("==== engine batch throughput: InferenceEngine vs seed "
            "VariableElimination loop ====\n");

  // 50 relay stages: large enough that the seed's per-round scope
  // rescans (quadratic in the variable count) dominate its query cost.
  constexpr std::size_t kStages = 50;
  constexpr std::size_t kBatch = 600;
  constexpr int kReps = 3;  // best-of to damp scheduler noise

  const auto net = make_chain(kStages);
  const bayesnet::VariableId leaf = net.size() - 1;

  // Mixed batch: alternate leaf evidence states and query variables, the
  // way a diagnosis sweep or fusion campaign does.
  std::vector<bayesnet::QuerySpec> batch;
  batch.reserve(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    bayesnet::QuerySpec q;
    q.query = (i % 2 == 0) ? 0 : 1;  // ground_truth / perception
    q.evidence = {{leaf, i % 4}};
    batch.push_back(q);
  }

  // --- seed baseline: single-threaded seed VE::query loop ---
  SeedVariableElimination seed_ve(net);
  std::vector<prob::Categorical> ref;
  double seed_s = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    std::vector<prob::Categorical> out;
    out.reserve(kBatch);
    const auto t0 = Clock::now();
    for (const auto& q : batch)
      out.push_back(seed_ve.query(q.query, q.evidence));
    seed_s = std::min(seed_s, seconds_since(t0));
    ref = std::move(out);
  }

  // --- engine, 1 thread ---
  bayesnet::InferenceEngine engine1(net, {.threads = 1});
  std::vector<prob::Categorical> r1;
  double eng1_s = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = Clock::now();
    r1 = engine1.query_batch(batch);
    eng1_s = std::min(eng1_s, seconds_since(t0));
  }

  // --- engine, 4 threads ---
  bayesnet::InferenceEngine engine4(net, {.threads = 4});
  std::vector<prob::Categorical> r4;
  double eng4_s = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = Clock::now();
    r4 = engine4.query_batch(batch);
    eng4_s = std::min(eng4_s, seconds_since(t0));
  }

  // --- all-marginals workload: VE backend vs calibrated junction tree ---
  // One evidence signature, every unobserved variable queried (well past
  // the >= 20-query bar). The VE backend pays one elimination per query;
  // the junction-tree backend pays one calibration and then reads every
  // marginal off the clique beliefs. Engines are rebuilt per rep so each
  // rep pays its own calibration (no cross-rep cache amortization).
  const bayesnet::Evidence am_evidence{{leaf, 2}};
  std::vector<bayesnet::QuerySpec> am_batch;
  for (bayesnet::VariableId q = 0; q < net.size(); ++q) {
    if (!am_evidence.contains(q)) am_batch.push_back({q, am_evidence});
  }
  std::vector<prob::Categorical> am_ve, am_jt;
  double am_ve_s = 1e300;
  double am_jt_s = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    bayesnet::InferenceEngine eng(
        net, {.threads = 1,
              .backend = bayesnet::Backend::kVariableElimination});
    const auto t0 = Clock::now();
    am_ve = eng.query_batch(am_batch);
    am_ve_s = std::min(am_ve_s, seconds_since(t0));
  }
  for (int rep = 0; rep < kReps; ++rep) {
    bayesnet::InferenceEngine eng(
        net, {.threads = 1, .backend = bayesnet::Backend::kJunctionTree});
    const auto t0 = Clock::now();
    am_jt = eng.query_batch(am_batch);
    am_jt_s = std::min(am_jt_s, seconds_since(t0));
  }
  double jt_max_abs = 0.0;
  for (std::size_t i = 0; i < am_batch.size(); ++i) {
    for (std::size_t s = 0; s < am_ve[i].size(); ++s)
      jt_max_abs = std::max(jt_max_abs, std::fabs(am_ve[i].p(s) - am_jt[i].p(s)));
  }
  const double jt_speedup = am_ve_s / am_jt_s;

  // --- correctness: byte-identical across thread counts, exact vs VE ---
  bool byte_identical = r1.size() == r4.size();
  double max_abs_vs_ve = 0.0;
  for (std::size_t i = 0; byte_identical && i < r1.size(); ++i) {
    for (std::size_t s = 0; s < r1[i].size(); ++s) {
      if (r1[i].p(s) != r4[i].p(s)) byte_identical = false;
      max_abs_vs_ve =
          std::max(max_abs_vs_ve, std::fabs(r1[i].p(s) - ref[i].p(s)));
    }
  }

  const double qps_seed = kBatch / seed_s;
  const double qps1 = kBatch / eng1_s;
  const double qps4 = kBatch / eng4_s;
  const auto stats = engine4.cache_stats();

  std::printf("network: Table I + %zu relay stages (%zu variables)\n",
              kStages, net.size());
  std::printf("batch:   %zu mixed queries, best of %d reps\n\n", kBatch, kReps);
  std::printf("  %-28s %10.0f queries/s\n", "seed VE::query loop", qps_seed);
  std::printf("  %-28s %10.0f queries/s  (%.2fx)\n", "engine, 1 thread", qps1,
              qps1 / qps_seed);
  std::printf("  %-28s %10.0f queries/s  (%.2fx)\n", "engine, 4 threads", qps4,
              qps4 / qps_seed);
  std::printf("\nordering cache: %zu entries, %.1f%% hit rate\n",
              stats.entries, 100.0 * stats.hit_rate());
  std::printf("pooled vs sequential posteriors byte-identical: %s\n",
              byte_identical ? "yes" : "NO");
  std::printf("max |engine - VE| over the batch: %.2e\n", max_abs_vs_ve);

  const double am_qps_ve = am_batch.size() / am_ve_s;
  const double am_qps_jt = am_batch.size() / am_jt_s;
  std::printf("\nall-marginals batch (%zu queries, one evidence signature):\n",
              am_batch.size());
  std::printf("  %-28s %10.0f queries/s\n", "VE backend (1 thread)", am_qps_ve);
  std::printf("  %-28s %10.0f queries/s  (%.2fx, needs >= 2x)\n",
              "junction-tree backend", am_qps_jt, jt_speedup);
  std::printf("  max |JT - VE| posterior gap: %.2e\n", jt_max_abs);

  std::printf(
      "BENCH {\"bench\":\"engine_batch\",\"variables\":%zu,\"batch\":%zu,"
      "\"qps_seed\":%.1f,\"qps_engine_1t\":%.1f,"
      "\"qps_engine_4t\":%.1f,\"speedup_1t\":%.2f,\"speedup_4t\":%.2f,"
      "\"cache_hit_rate\":%.4f,\"cache_entries\":%zu,\"byte_identical\":%s,"
      "\"max_abs_err\":%.3e,\"allmarg_queries\":%zu,\"qps_allmarg_ve\":%.1f,"
      "\"qps_allmarg_jt\":%.1f,\"jt_speedup\":%.2f,\"jt_max_abs_err\":%.3e}\n",
      net.size(), kBatch, qps_seed, qps1, qps4, qps1 / qps_seed,
      qps4 / qps_seed, stats.hit_rate(), stats.entries,
      byte_identical ? "true" : "false", max_abs_vs_ve, am_batch.size(),
      am_qps_ve, am_qps_jt, jt_speedup, jt_max_abs);

  if (!manifest_path.empty()) {
    // BENCH_engine_batch.json: the tracked perf-trajectory manifest
    // (docs/bench_trajectory.md). Raw qps numbers are machine-specific
    // and recorded for the trajectory; tools/bench_compare.py gates CI
    // on the machine-relative ratios (speedup_1t, speedup_4t,
    // jt_speedup) and the correctness figures only.
    std::ofstream out(manifest_path);
    if (!out) {
      std::fprintf(stderr, "bench_engine_batch: cannot write manifest '%s'\n",
                   manifest_path.c_str());
      return 2;
    }
    char results[1024];
    std::snprintf(
        results, sizeof(results),
        "{\"qps_seed\":%.1f,\"qps_engine_1t\":%.1f,"
        "\"qps_engine_4t\":%.1f,\"speedup_1t\":%.2f,\"speedup_4t\":%.2f,"
        "\"qps_allmarg_ve\":%.1f,\"qps_allmarg_jt\":%.1f,\"jt_speedup\":%.2f,"
        "\"byte_identical\":%s,\"max_abs_err\":%.3e,\"jt_max_abs_err\":%.3e,"
        "\"cache_hit_rate\":%.4f,\"cache_entries\":%zu}",
        qps_seed, qps1, qps4, qps1 / qps_seed, qps4 / qps_seed,
        am_qps_ve, am_qps_jt, jt_speedup, byte_identical ? "true" : "false",
        max_abs_vs_ve, jt_max_abs, stats.hit_rate(), stats.entries);
    out << "{\"bench\":\"engine_batch\",\"schema\":1"
        << ",\"workload\":{\"variables\":" << net.size()
        << ",\"batch\":" << kBatch
        << ",\"allmarg_queries\":" << am_batch.size() << ",\"reps\":" << kReps
        << "},\"results\":" << results
        << ",\"metrics\":" << obs::Registry::global().to_json() << "}\n";
    std::printf("manifest written to %s\n", manifest_path.c_str());
  }

  // The junction tree must beat per-query elimination by >= 2x on the
  // all-marginals workload while staying within exact-inference tolerance.
  return byte_identical && max_abs_vs_ve < sysuq::tolerance::kProbSum &&
                 jt_max_abs < sysuq::tolerance::kProbSum && jt_speedup >= 2.0
             ? 0
             : 1;
}
