// Section 3 context: Difference Propagation was "developed primarily as an
// alternative for comparison to CATAPULT", and "can be seen to be similar
// in approach to the symbolic fault simulation system developed by Cho and
// Bryant". All three are implemented here; this bench runs them over the
// same collapsed stuck-at sets, confirms the results are bit-identical,
// and compares their costs.
#include <chrono>

#include "common.hpp"
#include "dp/boolean_difference.hpp"
#include "dp/engine.hpp"
#include "dp/symbolic_sim.hpp"
#include "netlist/structure.hpp"

using namespace dp;

int main(int argc, char** argv) {
  bench::Session session("obs_engine_comparison", argc, argv);
  bench::banner("Comparison -- DP vs Boolean difference vs symbolic fault "
                "simulation",
                "Identical exact results by three methods; DP avoids the "
                "explicit Boolean difference of the CATAPULT scheme.");

  analysis::TextTable table({"circuit", "faults", "identical", "DP ms",
                             "BoolDiff ms", "SymSim ms", "DP applies",
                             "BD applies", "SYM applies"});
  std::cout << "csv:circuit,dp_ms,bd_ms,sym_ms,dp_applies,bd_applies,sym_applies\n";

  bool all_identical = true;
  for (const char* name : {"c95", "alu181", "c432", "c499"}) {
    obs::ScopedTimer timer = session.phase(name);
    const netlist::Circuit c = netlist::make_benchmark(name);
    netlist::Structure st(c);
    bdd::Manager mgr(0);
    core::GoodFunctions good(mgr, c);
    core::DifferencePropagator dp(good, st);
    core::BooleanDifferenceEngine bd(good, st);
    core::SymbolicFaultSimulator sym(good, st);
    const auto faults = fault::collapse_checkpoint_faults(c);

    struct Cost {
      long long ms = 0;
      std::uint64_t applies = 0;
    };
    std::vector<bdd::Bdd> dp_sets, bd_sets, sym_sets;
    auto time_engine = [&](auto&& engine, std::vector<bdd::Bdd>& sets) {
      mgr.reset_stats();
      const auto t0 = std::chrono::steady_clock::now();
      for (const auto& f : faults) sets.push_back(engine.analyze(f).test_set);
      Cost cost;
      cost.ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
      cost.applies = mgr.stats().apply_calls;
      return cost;
    };
    const Cost dp_cost = time_engine(dp, dp_sets);
    const Cost bd_cost = time_engine(bd, bd_sets);
    const Cost sym_cost = time_engine(sym, sym_sets);

    bool identical = true;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      identical = identical && dp_sets[i] == bd_sets[i] &&
                  dp_sets[i] == sym_sets[i];
    }
    all_identical = all_identical && identical;

    table.add_row({name, std::to_string(faults.size()),
                   identical ? "yes" : "NO", std::to_string(dp_cost.ms),
                   std::to_string(bd_cost.ms), std::to_string(sym_cost.ms),
                   std::to_string(dp_cost.applies),
                   std::to_string(bd_cost.applies),
                   std::to_string(sym_cost.applies)});
    analysis::write_csv_row(
        std::cout,
        {name, std::to_string(dp_cost.ms), std::to_string(bd_cost.ms),
         std::to_string(sym_cost.ms), std::to_string(dp_cost.applies),
         std::to_string(bd_cost.applies), std::to_string(sym_cost.applies)});
    timer.stop();
    session.metrics().counter("cmp.faults").add(faults.size());
    session.metrics().gauge("cmp.dp_applies").add(
        static_cast<double>(dp_cost.applies));
    session.metrics().gauge("cmp.bd_applies").add(
        static_cast<double>(bd_cost.applies));
    session.metrics().gauge("cmp.sym_applies").add(
        static_cast<double>(sym_cost.applies));
    mgr.export_metrics(session.metrics(), std::string("bdd.") + name);
  }
  std::cout << "\n";
  table.print(std::cout);

  bench::shape_check(all_identical,
                     "all three engines produce bit-identical test sets");
  return 0;
}
