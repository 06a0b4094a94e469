// Table 1: the output-difference relationships, validated symbolically on
// random functions, plus the selective-trace ablation the table enables:
// "calculations are only performed as long as difference information
// exists" (paper §3).
#include <random>

#include "common.hpp"
#include "dp/difference.hpp"
#include "dp/engine.hpp"
#include "netlist/structure.hpp"

using namespace dp;

namespace {

bdd::Bdd random_function(bdd::Manager& mgr, std::mt19937_64& rng,
                         std::size_t nvars) {
  bdd::Bdd f = mgr.zero();
  for (std::uint64_t m = 0; m < (1ull << nvars); ++m) {
    if (rng() & 1) {
      bdd::Bdd cube = mgr.one();
      for (bdd::Var v = 0; v < nvars; ++v) {
        cube = cube & (((m >> v) & 1) ? mgr.var(v) : mgr.nvar(v));
      }
      f = f | cube;
    }
  }
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Session session("tab1_difference_algebra", argc, argv);
  bench::banner("Table 1 -- output difference functions per gate type",
                "Delta fC in terms of input good functions and input "
                "differences only; inversions never change the difference.");

  // Part 1: symbolic validation over random functions.
  obs::ScopedTimer identities_timer = session.phase("identities");
  constexpr std::size_t kVars = 6;
  bdd::Manager mgr(kVars);
  std::mt19937_64 rng(1990);
  std::size_t checked = 0, agreed = 0;
  for (int round = 0; round < 500; ++round) {
    const bdd::Bdd fa = random_function(mgr, rng, kVars);
    const bdd::Bdd fb = random_function(mgr, rng, kVars);
    const bdd::Bdd Fa = random_function(mgr, rng, kVars);
    const bdd::Bdd Fb = random_function(mgr, rng, kVars);
    const bdd::Bdd da = fa ^ Fa, db = fb ^ Fb;
    struct Row {
      const char* gate;
      bdd::Bdd direct, formula;
    };
    const Row rows[] = {
        {"AND/NAND", (fa & fb) ^ (Fa & Fb),
         core::gate_difference2(netlist::GateType::And, fa, fb, da, db)},
        {"OR/NOR", (fa | fb) ^ (Fa | Fb),
         core::gate_difference2(netlist::GateType::Or, fa, fb, da, db)},
        {"XOR/XNOR", (fa ^ fb) ^ (Fa ^ Fb),
         core::gate_difference2(netlist::GateType::Xor, fa, fb, da, db)},
        {"NOT/BUF", fa ^ Fa,
         core::gate_difference2(netlist::GateType::Buf, fa, fb, da, db)},
    };
    for (const Row& r : rows) {
      ++checked;
      agreed += (r.direct == r.formula);
    }
  }
  identities_timer.stop();
  mgr.export_metrics(session.metrics(), "bdd.identities");
  session.metrics().counter("tab1.identity_checks").add(checked);
  session.metrics().counter("tab1.identity_agreements").add(agreed);
  std::cout << "Symbolic identity checks: " << agreed << "/" << checked
            << " agree with direct good-XOR-faulty computation\n";
  bench::shape_check(agreed == checked, "all Table 1 identities hold");

  // Part 2: selective trace. Count gate evaluations with and without it
  // across the collapsed stuck-at set of a mid-size circuit.
  for (const char* name : {"c432", "c499"}) {
    obs::ScopedTimer timer = session.phase(name);
    const netlist::Circuit c = netlist::make_benchmark(name);
    netlist::Structure st(c);
    bdd::Manager m2(0);
    core::GoodFunctions good(m2, c);
    core::DifferencePropagator with(good, st);
    core::DifferencePropagator without(good, st, {/*selective_trace=*/false});

    std::uint64_t eval_with = 0, eval_without = 0;
    const auto faults = fault::collapse_checkpoint_faults(c);
    for (const auto& f : faults) {
      eval_with += with.analyze(f).stats.gates_evaluated;
      eval_without += without.analyze(f).stats.gates_evaluated;
    }
    timer.stop();
    session.metrics().counter("dp.gates_evaluated").add(eval_with);
    session.metrics()
        .counter("tab1.gates_evaluated_without_selective_trace")
        .add(eval_without);
    m2.export_metrics(session.metrics(), std::string("bdd.") + name);
    const double saved =
        1.0 - static_cast<double>(eval_with) /
                  static_cast<double>(eval_without);
    std::cout << name << ": " << faults.size() << " faults; gate evaluations "
              << eval_with << " (selective trace) vs " << eval_without
              << " (all gates) -> " << analysis::TextTable::num(100 * saved, 1)
              << "% avoided\n";
    bench::shape_check(saved > 0.2,
                       std::string(name) +
                           ": selective trace avoids a large share of gate "
                           "evaluations");
  }
  return 0;
}
