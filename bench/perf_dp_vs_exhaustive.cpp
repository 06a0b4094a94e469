// Section 3 claim: exhaustive simulation "is limited to relatively small
// classes of circuits due to exorbitant computation time requirements",
// while the function-based approach stays tractable. This benchmark times
// exact per-fault analysis both ways as circuit size (input count) grows:
// the exhaustive baseline scales as 2^n, Difference Propagation does not.
#include <benchmark/benchmark.h>

#include "common.hpp"
#include "dp/engine.hpp"
#include "netlist/generators.hpp"
#include "netlist/structure.hpp"
#include "sim/fault_sim.hpp"

using namespace dp;

namespace {

netlist::Circuit circuit_for(int id) {
  switch (id) {
    case 0: return netlist::make_c17();
    case 1: return netlist::make_full_adder();
    case 2: return netlist::make_c95_analog();
    case 3: return netlist::make_alu181();
    case 4: return netlist::make_ripple_adder(8);   // 17 PIs
    case 5: return netlist::make_ripple_adder(10);  // 21 PIs
    default: return netlist::make_ripple_adder(11); // 23 PIs
  }
}

void BM_ExhaustiveSimulation(benchmark::State& state) {
  const netlist::Circuit c = circuit_for(static_cast<int>(state.range(0)));
  sim::FaultSimulator fs(c);
  const auto faults = fault::collapse_checkpoint_faults(c);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fs.exhaustive_detectability(faults[i++ % faults.size()]));
  }
  state.SetLabel(c.name() + " n=" + std::to_string(c.num_inputs()));
}

void BM_DifferencePropagation(benchmark::State& state) {
  const netlist::Circuit c = circuit_for(static_cast<int>(state.range(0)));
  netlist::Structure st(c);
  bdd::Manager mgr(0);
  core::GoodFunctions good(mgr, c);
  core::DifferencePropagator dp(good, st);
  const auto faults = fault::collapse_checkpoint_faults(c);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dp.analyze(faults[i++ % faults.size()]));
  }
  state.SetLabel(c.name() + " n=" + std::to_string(c.num_inputs()));
}

// DP also runs where the exhaustive sweep is out of reach entirely
// (the paper's larger circuits have 33-41 inputs).
void BM_DifferencePropagationLarge(benchmark::State& state) {
  const netlist::Circuit c =
      state.range(0) == 0 ? netlist::make_c432_analog()
                          : netlist::make_c499_analog();
  netlist::Structure st(c);
  bdd::Manager mgr(0);
  core::GoodFunctions good(mgr, c);
  core::DifferencePropagator dp(good, st);
  const auto faults = fault::collapse_checkpoint_faults(c);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dp.analyze(faults[i++ % faults.size()]));
  }
  state.SetLabel(c.name() + " n=" + std::to_string(c.num_inputs()) +
                 " (exhaustive would need 2^" +
                 std::to_string(c.num_inputs()) + ")");
}

}  // namespace

BENCHMARK(BM_ExhaustiveSimulation)->DenseRange(0, 6)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_DifferencePropagation)->DenseRange(0, 6)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_DifferencePropagationLarge)->DenseRange(0, 1)->Unit(benchmark::kMicrosecond);

// Hand-rolled BENCHMARK_MAIN so the common flags (--metrics-json,
// --trace-out, --jobs) work here too; everything unrecognized passes through to
// google-benchmark untouched.
int main(int argc, char** argv) {
  bench::Session session("perf_dp_vs_exhaustive", argc, argv,
                         /*passthrough_unknown=*/true);
  std::vector<char*> args;
  char arg0_default[] = "perf_dp_vs_exhaustive";
  args.push_back(argc > 0 ? argv[0] : arg0_default);
  for (char* a : session.passthrough_argv()) args.push_back(a);
  int bench_argc = static_cast<int>(args.size());
  ::benchmark::Initialize(&bench_argc, args.data());
  if (::benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  obs::ScopedTimer timer = session.phase("benchmarks");
  const std::size_t run = ::benchmark::RunSpecifiedBenchmarks();
  timer.stop();
  session.metrics().counter("benchmarks.run").add(run);
  ::benchmark::Shutdown();
  return 0;
}
