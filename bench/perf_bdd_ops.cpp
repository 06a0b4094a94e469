// Microbenchmarks of the OBDD package: apply throughput, negation,
// counting and GC cost on representative function families, plus a
// deterministic difference-algebra kernel profile. Timings and kernel
// gauges (ops/sec, peak live nodes, computed-cache hit rate, wall clock)
// land in BENCH_bdd_ops.json through bench::Session, which is what the
// bench_smoke perf-regression guard compares against its checked-in
// baseline.
#include <benchmark/benchmark.h>

#include <chrono>
#include <random>

#include "bdd/bdd.hpp"
#include "common.hpp"
#include "dp/good_functions.hpp"
#include "netlist/generators.hpp"

using namespace dp::bdd;

namespace {

/// n-variable parity (linear-size BDD).
Bdd parity(Manager& mgr, std::size_t n) {
  Bdd f = mgr.zero();
  for (Var v = 0; v < n; ++v) f = f ^ mgr.var(v);
  return f;
}

/// Disjoint AND-pairs OR'd together (achilles-heel family, ~3n/2 nodes
/// under the good interleaved order used here).
Bdd and_or(Manager& mgr, std::size_t n) {
  Bdd f = mgr.zero();
  for (Var v = 0; v + 1 < n; v += 2) f = f | (mgr.var(v) & mgr.var(v + 1));
  return f;
}

void BM_ApplyAndParity(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Manager mgr(2 * n);
  Bdd a = parity(mgr, n);
  Bdd b = mgr.zero();
  for (Var v = 0; v < n; ++v) b = b ^ mgr.var(static_cast<Var>(2 * n - 1 - v));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a & b);
  }
  state.SetLabel("parity(" + std::to_string(n) + ") & parity'");
}

void BM_Negate(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Manager mgr(n);
  Bdd f = and_or(mgr, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(!f);
  }
}

void BM_NegateDistinct(benchmark::State& state) {
  // Negates a pool of distinct functions each iteration, so a recursive
  // kernel cannot amortize one hot computed-cache entry: every handle
  // costs at least a cache probe per pass, while complement edges pay a
  // single bit flip regardless of function size.
  const std::size_t count = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kVars = 16;
  Manager mgr(kVars);
  std::mt19937_64 rng(21);
  std::vector<Bdd> pool;
  for (std::size_t k = 1; k <= count; ++k) {
    Bdd f = parity(mgr, 1 + k % kVars);
    Bdd cube = mgr.one();
    for (int j = 0; j < 3; ++j) {
      const Var v = static_cast<Var>(rng() % kVars);
      cube = cube & ((rng() & 1) ? mgr.var(v) : mgr.nvar(v));
    }
    pool.push_back(f ^ cube);
  }
  for (auto _ : state) {
    for (const Bdd& f : pool) benchmark::DoNotOptimize(!f);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pool.size()));
}

void BM_SatCount(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Manager mgr(n);
  Bdd f = and_or(mgr, n) ^ parity(mgr, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.sat_count(n));
  }
}

void BM_BuildRandomDnf(benchmark::State& state) {
  const std::size_t terms = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Manager mgr(16);
    std::mt19937_64 rng(7);
    Bdd f = mgr.zero();
    for (std::size_t t = 0; t < terms; ++t) {
      Bdd cube = mgr.one();
      for (int k = 0; k < 4; ++k) {
        Var v = static_cast<Var>(rng() % 16);
        cube = cube & ((rng() & 1) ? mgr.var(v) : mgr.nvar(v));
      }
      f = f | cube;
    }
    benchmark::DoNotOptimize(f.index());
  }
}

void BM_GarbageCollection(benchmark::State& state) {
  const std::size_t n = 20;
  for (auto _ : state) {
    state.PauseTiming();
    Manager mgr(n);
    Bdd keep = and_or(mgr, n);
    for (int i = 0; i < 200; ++i) {
      (void)(parity(mgr, n) ^ mgr.var(static_cast<Var>(i % n)));
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(mgr.gc());
  }
}

/// Console reporter that additionally folds each benchmark's per-iteration
/// real time into the session registry as gauge
/// "gbench.<benchmark>.ns_per_op", so BENCH_bdd_ops.json carries the
/// numbers the regression guard diffs.
class MetricsReporter : public benchmark::ConsoleReporter {
 public:
  explicit MetricsReporter(dp::obs::MetricsRegistry& registry)
      : registry_(registry) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred ||
          run.iterations == 0) {
        continue;
      }
      const double ns_per_op = 1e9 * run.real_accumulated_time /
                               static_cast<double>(run.iterations);
      registry_.gauge("gbench." + run.benchmark_name() + ".ns_per_op")
          .set(ns_per_op);
    }
  }

 private:
  dp::obs::MetricsRegistry& registry_;
};

/// Deterministic difference-algebra workload: the paper's OR/NOR row
/// (f̄A·ΔfB ⊕ f̄B·ΔfA ⊕ ΔfA·ΔfB) over a rolling pool of functions.
/// Negation/XOR-heavy by construction -- the exact kernel path the DP
/// sweeps hammer -- and independent of any --benchmark_filter, so the
/// smoke runs still produce the bdd.* gauges the regression guard needs.
void run_kernel_profile(dp::bench::Session& session) {
  dp::obs::ScopedTimer timer = session.phase("kernel_profile");
  const auto start = std::chrono::steady_clock::now();

  constexpr std::size_t kVars = 16;
  // A bounded pool keeps maybe_gc() in the loop, so the gauges cover the
  // same alloc/collect rhythm as a real sweep.
  Manager mgr(kVars, /*max_nodes=*/1u << 20);
  std::mt19937_64 rng(0xD1FFu);
  std::vector<Bdd> pool;
  for (Var v = 0; v < kVars; ++v) pool.push_back(mgr.var(v));
  for (int step = 0; step < 800; ++step) {
    const Bdd fa = pool[rng() % pool.size()];
    const Bdd fb = pool[rng() % pool.size()];
    const Bdd da = pool[rng() % pool.size()];
    const Bdd db = pool[rng() % pool.size()];
    Bdd delta = ((!fa) & db) ^ ((!fb) & da) ^ (da & db);
    pool.push_back(std::move(delta));
    if (pool.size() > 3 * kVars) pool.erase(pool.begin() + kVars);
  }
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();

  const ManagerStats& st = mgr.stats();
  const double ops =
      static_cast<double>(st.apply_calls + st.negations_constant_time);
  mgr.export_metrics(session.metrics(), "bdd");
  session.metrics().gauge("bdd.ops_per_second").set(
      secs > 0.0 ? ops / secs : 0.0);
  session.metrics().gauge("bdd.kernel_wall_seconds").set(secs);
  std::cout << "kernel profile: "
            << dp::analysis::TextTable::num(ops / 1e6, 2) << "M ops in "
            << dp::analysis::TextTable::num(secs, 3) << " s ("
            << dp::analysis::TextTable::num(ops / secs / 1e6, 1)
            << "M ops/s, cache hit "
            << dp::analysis::TextTable::num(100.0 * st.cache_hit_rate(), 1)
            << "%, peak " << st.peak_live_nodes << " nodes, "
            << st.negations_constant_time << " O(1) negations)\n";
}

/// Good-function builds of the paper's XOR-heavy circuits: deterministic
/// node-count gauges for the structure the complement-edge kernel shares
/// across polarities (C1355's NAND tree keeps both phases of every parity
/// live). The full DP-sweep peak is clipped at the GC threshold floor on
/// these circuits, so this phase is where the node reduction is measured.
void run_good_function_profile(dp::bench::Session& session) {
  dp::obs::ScopedTimer timer = session.phase("good_functions");
  for (const char* name : {"c432", "c499", "c1355"}) {
    const auto start = std::chrono::steady_clock::now();
    const dp::netlist::Circuit circuit = dp::netlist::make_benchmark(name);
    Manager mgr;
    dp::core::GoodFunctions good(mgr, circuit);
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    const std::string prefix = std::string("bdd.good_") + name;
    session.metrics().gauge(prefix + ".total_nodes")
        .set(static_cast<double>(good.total_nodes()));
    session.metrics().gauge(prefix + ".peak_live_nodes")
        .set(static_cast<double>(mgr.stats().peak_live_nodes));
    session.metrics().gauge(prefix + ".build_seconds").set(secs);
    std::cout << "good functions " << name << ": " << good.total_nodes()
              << " dag nodes, peak " << mgr.stats().peak_live_nodes
              << " live, "
              << dp::analysis::TextTable::num(secs, 3) << " s\n";
  }
}

}  // namespace

BENCHMARK(BM_ApplyAndParity)->Arg(16)->Arg(24)->Arg(32);
BENCHMARK(BM_Negate)->Arg(16)->Arg(32)->Arg(64);
BENCHMARK(BM_NegateDistinct)->Arg(64);
BENCHMARK(BM_SatCount)->Arg(16)->Arg(32)->Arg(48);
BENCHMARK(BM_BuildRandomDnf)->Arg(64)->Arg(256)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_GarbageCollection)->Unit(benchmark::kMicrosecond);

// Hand-rolled BENCHMARK_MAIN so the common flags (--metrics-json,
// --trace-out, --jobs) work here too; everything unrecognized passes through to
// google-benchmark untouched. Document id "bdd_ops" -> BENCH_bdd_ops.json
// under DP_BENCH_METRICS_DIR.
int main(int argc, char** argv) {
  dp::bench::Session session("bdd_ops", argc, argv,
                             /*passthrough_unknown=*/true);
  std::vector<char*> args;
  char arg0_default[] = "perf_bdd_ops";
  args.push_back(argc > 0 ? argv[0] : arg0_default);
  for (char* a : session.passthrough_argv()) args.push_back(a);
  int bench_argc = static_cast<int>(args.size());
  ::benchmark::Initialize(&bench_argc, args.data());
  if (::benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  {
    dp::obs::ScopedTimer timer = session.phase("benchmarks");
    MetricsReporter reporter(session.metrics());
    const std::size_t run = ::benchmark::RunSpecifiedBenchmarks(&reporter);
    timer.stop();
    session.metrics().counter("benchmarks.run").add(run);
  }
  run_kernel_profile(session);
  run_good_function_profile(session);
  ::benchmark::Shutdown();
  return 0;
}
