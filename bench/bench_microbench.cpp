// Google-benchmark microbenchmarks of the library's hot paths: factor
// products (owning Factor API and the flat strided kernels underneath),
// variable elimination, Dempster combination, fault-tree evaluation and
// credal propagation. Complements the paper-shaped experiment benches
// (E1-E11) with per-operation cost curves.
//
// With `--manifest out.json`, writes BENCH_microbench.json — the
// tracked perf-trajectory manifest (docs/bench_trajectory.md): one
// entry per benchmark (adjusted cpu/real ns per iteration) plus a
// snapshot of the obs metrics registry.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bayesnet/inference.hpp"
#include "bayesnet/kernels.hpp"
#include "obs/registry.hpp"
#include "evidence/credal.hpp"
#include "evidence/mass.hpp"
#include "fta/analysis.hpp"
#include "orbit/nbody.hpp"
#include "markov/hmm.hpp"
#include "perception/table1.hpp"
#include "prob/polychaos.hpp"
#include "prob/rng.hpp"

namespace {

using namespace sysuq;

void BM_FactorProduct(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  prob::Rng rng(1);
  // Two factors sharing one variable, each over `n` binary variables.
  std::vector<bayesnet::VariableId> sa, sb;
  for (std::size_t i = 0; i < n; ++i) sa.push_back(i);
  for (std::size_t i = n - 1; i < 2 * n - 1; ++i) sb.push_back(i);
  std::vector<std::size_t> cards(n, 2);
  std::vector<double> va(std::size_t{1} << n), vb(std::size_t{1} << n);
  for (double& v : va) v = rng.uniform();
  for (double& v : vb) v = rng.uniform();
  const bayesnet::Factor a(sa, cards, va), b(sb, cards, vb);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.product(b));
  }
}
BENCHMARK(BM_FactorProduct)->Arg(4)->Arg(8)->Arg(12);

void BM_KernelProductArena(benchmark::State& state) {
  // The same two-factor product as BM_FactorProduct, but through the
  // strided kernel straight into the per-thread bump arena — the cost
  // the inference backends actually pay per elimination round, with no
  // owning-Factor allocation on the result.
  const auto n = static_cast<std::size_t>(state.range(0));
  prob::Rng rng(1);
  std::vector<bayesnet::VariableId> sa, sb;
  for (std::size_t i = 0; i < n; ++i) sa.push_back(i);
  for (std::size_t i = n - 1; i < 2 * n - 1; ++i) sb.push_back(i);
  std::vector<std::size_t> cards(n, 2);
  std::vector<double> va(std::size_t{1} << n), vb(std::size_t{1} << n);
  for (double& v : va) v = rng.uniform();
  for (double& v : vb) v = rng.uniform();
  const bayesnet::Factor a(sa, cards, va), b(sb, cards, vb);
  const auto av = bayesnet::kernels::view_of(a);
  const auto bv = bayesnet::kernels::view_of(b);
  auto& arena = bayesnet::kernels::thread_scratch();
  for (auto _ : state) {
    arena.reset();
    auto t = bayesnet::kernels::product(av, bv, arena);
    benchmark::DoNotOptimize(t.values);
  }
  arena.reset();
}
BENCHMARK(BM_KernelProductArena)->Arg(4)->Arg(8)->Arg(12);

void BM_EliminateScaledChain(benchmark::State& state) {
  // Scaled elimination over a binary chain: the underflow-proof VE path
  // end to end (stride tables, arena intermediates, rescale checks).
  const auto n = static_cast<std::size_t>(state.range(0));
  prob::Rng rng(2);
  std::vector<bayesnet::Factor> factors;
  factors.reserve(n);
  factors.emplace_back(std::vector<bayesnet::VariableId>{0},
                       std::vector<std::size_t>{2},
                       std::vector<double>{0.5, 0.5});
  for (bayesnet::VariableId v = 1; v < n; ++v) {
    std::vector<double> t(4);
    for (double& x : t) x = rng.uniform() + 0.05;
    factors.emplace_back(std::vector<bayesnet::VariableId>{v - 1, v},
                         std::vector<std::size_t>{2, 2}, t);
  }
  std::vector<bayesnet::VariableId> order;
  for (bayesnet::VariableId v = 0; v + 1 < n; ++v) order.push_back(v);
  auto& arena = bayesnet::kernels::thread_scratch();
  for (auto _ : state) {
    arena.reset();
    std::vector<bayesnet::kernels::View> views;
    views.reserve(factors.size());
    for (const auto& f : factors)
      views.push_back(bayesnet::kernels::view_of(f));
    auto sf = bayesnet::kernels::eliminate_scaled(std::move(views), order,
                                                  arena);
    benchmark::DoNotOptimize(sf.log_scale);
    arena.reset();
  }
}
BENCHMARK(BM_EliminateScaledChain)->Arg(32)->Arg(128);

void BM_LikelihoodWeighting(benchmark::State& state) {
  const auto net = perception::table1_network();
  prob::Rng rng(7);
  const auto samples = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bayesnet::likelihood_weighting(net, 0, {{1, 3}}, samples, rng));
  }
}
BENCHMARK(BM_LikelihoodWeighting)->Arg(1000)->Arg(10000);

void BM_DempsterCombine(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  std::vector<std::string> names;
  for (std::size_t i = 0; i < k; ++i) names.push_back("h" + std::to_string(i));
  const evidence::Frame frame(names);
  prob::Rng rng(3);
  std::map<evidence::FocalSet, double> ma, mb;
  for (int i = 0; i < 8; ++i) {
    ma[1 + rng.uniform_index(frame.theta())] += rng.uniform() + 0.01;
    mb[1 + rng.uniform_index(frame.theta())] += rng.uniform() + 0.01;
  }
  double ta = 0.0, tb = 0.0;
  for (auto& [s, v] : ma) ta += v;
  for (auto& [s, v] : mb) tb += v;
  for (auto& [s, v] : ma) v /= ta;
  for (auto& [s, v] : mb) v /= tb;
  const evidence::MassFunction a(frame, ma), b(frame, mb);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evidence::dempster_combine(a, b));
  }
}
BENCHMARK(BM_DempsterCombine)->Arg(4)->Arg(8)->Arg(16);

void BM_FtaExactProbability(benchmark::State& state) {
  const auto channels = static_cast<std::size_t>(state.range(0));
  fta::FaultTree t;
  const auto power = t.add_basic_event("power", 0.01);
  std::vector<fta::NodeId> chans;
  for (std::size_t c = 0; c < channels; ++c) {
    const auto cam = t.add_basic_event("cam" + std::to_string(c), 0.05);
    chans.push_back(
        t.add_gate("ch" + std::to_string(c), fta::GateType::kOr, {power, cam}));
  }
  t.set_top(t.add_gate("voter", fta::GateType::kKooN, chans, channels / 2 + 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fta::exact_top_probability(t));
  }
}
BENCHMARK(BM_FtaExactProbability)->Arg(3)->Arg(7)->Arg(11);

void BM_CredalPosterior(benchmark::State& state) {
  const auto net = perception::table1_network();
  const auto prior =
      evidence::IntervalDistribution::widened(net.cpt_rows(0)[0], 0.03);
  std::vector<evidence::IntervalDistribution> rows;
  for (const auto& r : net.cpt_rows(1))
    rows.push_back(evidence::IntervalDistribution::widened(r, 0.03));
  const evidence::IntervalCpt cpt(rows);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evidence::credal_chain_posterior(prior, cpt, 3));
  }
}
BENCHMARK(BM_CredalPosterior);

void BM_NBodyVerletStep(benchmark::State& state) {
  // Not strictly a UQ path, but the ground-truth generator's cost bounds
  // every orbit experiment.
  orbit::GravityParams g{};
  auto s = orbit::make_circular_binary(1.0, 0.5, 1.0, g);
  for (auto _ : state) {
    orbit::verlet_step(s, 1e-3, g);
    benchmark::DoNotOptimize(s.bodies[0].position);
  }
}
BENCHMARK(BM_NBodyVerletStep);

void BM_HmmFilter(benchmark::State& state) {
  const auto net = perception::table1_network();
  const auto prior = net.cpt_rows(0)[0];
  std::vector<prob::Categorical> trans(3, prior);
  const markov::Hmm hmm(prior, trans, net.cpt_rows(1));
  prob::Rng rng(5);
  const auto tr = hmm.sample(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmm.filter(tr.observations));
  }
}
BENCHMARK(BM_HmmFilter)->Arg(100)->Arg(1000);

void BM_HistogramObserve(benchmark::State& state) {
  // The bucket lookup in obs::Histogram::observe — a branchless binary
  // search over the bound ladder (registry.cpp). Arg = bucket count.
  // The observed values sweep the full ladder in a pseudo-random order
  // so every bucket is hit and the predictor cannot memorize one path,
  // which is exactly the regime the branchless form is for.
  const auto buckets = static_cast<std::size_t>(state.range(0));
  std::vector<double> bounds;
  bounds.reserve(buckets);
  double edge = 1e-6;
  for (std::size_t i = 0; i < buckets; ++i, edge *= 1.7) bounds.push_back(edge);
  obs::Registry registry;
  obs::Histogram& histogram = registry.histogram(
      "bench.microbench.histogram_observe", bounds);
  prob::Rng rng(13);
  std::vector<double> values(4096);
  for (double& v : values)
    v = bounds.back() * 1.1 * rng.uniform();  // ~9% land in the +Inf bucket
  std::size_t i = 0;
  for (auto _ : state) {
    histogram.observe(values[i++ & 4095]);
  }
}
BENCHMARK(BM_HistogramObserve)->Arg(8)->Arg(32)->Arg(128);

void BM_Pce1DProjection(benchmark::State& state) {
  const auto order = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(prob::PolynomialChaos1D(
        prob::PolyBasis::kHermite, order,
        [](double x) { return std::sin(x) + x * x; }, 4));
  }
}
BENCHMARK(BM_Pce1DProjection)->Arg(4)->Arg(8)->Arg(16);

// Console reporter that also records every run for the manifest.
class ManifestReporter : public benchmark::ConsoleReporter {
 public:
  struct Entry {
    std::string name;
    double cpu_ns = 0.0;
    double real_ns = 0.0;
    std::int64_t iterations = 0;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      if (run.error_occurred) continue;
      entries_.push_back({run.benchmark_name(), run.GetAdjustedCPUTime(),
                          run.GetAdjustedRealTime(), run.iterations});
    }
    ConsoleReporter::ReportRuns(runs);
  }

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

}  // namespace

int main(int argc, char** argv) {
  // Peel off --manifest before google-benchmark sees the arguments.
  std::string manifest_path;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--manifest" && i + 1 < argc) {
      manifest_path = argv[++i];
      continue;
    }
    args.push_back(argv[i]);
  }
  int bargc = static_cast<int>(args.size());
  benchmark::Initialize(&bargc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bargc, args.data())) return 1;

  ManifestReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!manifest_path.empty()) {
    std::ofstream out(manifest_path);
    if (!out) {
      std::fprintf(stderr, "bench_microbench: cannot write manifest '%s'\n",
                   manifest_path.c_str());
      return 2;
    }
    out << "{\"bench\":\"microbench\",\"schema\":1,\"results\":[";
    const char* sep = "";
    for (const auto& e : reporter.entries()) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"cpu_ns_per_iter\":%.1f,"
                    "\"real_ns_per_iter\":%.1f,\"iterations\":%lld}",
                    sep, e.name.c_str(), e.cpu_ns, e.real_ns,
                    static_cast<long long>(e.iterations));
      out << buf;
      sep = ",";
    }
    out << "],\"metrics\":" << sysuq::obs::Registry::global().to_json()
        << "}\n";
    std::printf("manifest written to %s\n", manifest_path.c_str());
  }
  return 0;
}
