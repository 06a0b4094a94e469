// Three-way engine equivalence: Difference Propagation, the CATAPULT-style
// Boolean-difference method, and Cho-Bryant-style symbolic fault simulation
// must produce IDENTICAL complete test sets -- they are different
// factorizations of the same exact computation.
#include <gtest/gtest.h>

#include "dp/boolean_difference.hpp"
#include "dp/engine.hpp"
#include "dp/observabilities.hpp"
#include "dp/symbolic_sim.hpp"
#include "netlist/generators.hpp"
#include "netlist/structure.hpp"

namespace dp::core {
namespace {

using fault::BridgeType;
using netlist::Circuit;

/// All three engines in one manager, which adopts a universe layered over
/// every region root so that DP analyzes any bridge.
struct Engines {
  explicit Engines(Circuit&& c)
      : circuit(std::move(c)),
        structure(circuit),
        layer(SharedGoodFunctions(circuit), structure, every_net(circuit)),
        stack(layer, structure),
        good(stack.good),
        dp(stack.propagator),
        bd(good, structure),
        sym(good, structure) {}

  Circuit circuit;
  netlist::Structure structure;
  SharedGoodFunctions layer;  ///< layered over every region root
  AdoptedPropagator stack;
  const GoodFunctions& good;
  const DifferencePropagator& dp;
  BooleanDifferenceEngine bd;
  SymbolicFaultSimulator sym;
};

class EngineEquivalenceTest : public ::testing::TestWithParam<const char*> {};

TEST_P(EngineEquivalenceTest, StuckAtTestSetsIdentical) {
  Engines rig(netlist::make_benchmark(GetParam()));
  for (const auto& f : fault::checkpoint_faults(rig.circuit)) {
    const FaultAnalysis a = rig.dp.analyze(f);
    const FaultAnalysis b = rig.bd.analyze(f);
    const FaultAnalysis c = rig.sym.analyze(f);
    const std::string what = describe(f, rig.circuit);
    // Canonical BDDs: equality is pointer equality inside one manager.
    ASSERT_EQ(a.test_set, b.test_set) << "DP vs BD: " << what;
    ASSERT_EQ(a.test_set, c.test_set) << "DP vs SYM: " << what;
    ASSERT_DOUBLE_EQ(a.detectability, b.detectability) << what;
    ASSERT_DOUBLE_EQ(a.detectability, c.detectability) << what;
    ASSERT_EQ(a.po_observable, b.po_observable) << what;
    ASSERT_EQ(a.po_observable, c.po_observable) << what;
    ASSERT_DOUBLE_EQ(a.adherence, b.adherence) << what;
  }
}

INSTANTIATE_TEST_SUITE_P(Suite, EngineEquivalenceTest,
                         ::testing::Values("c17", "fulladder", "c95",
                                           "alu181", "c432"));

TEST(EngineEquivalenceTest, BridgingDpVsSymbolic) {
  Engines rig(netlist::make_c95_analog());
  for (BridgeType type : {BridgeType::And, BridgeType::Or}) {
    const auto faults =
        fault::enumerate_nfbfs(rig.circuit, rig.structure, type);
    std::size_t checked = 0;
    for (const auto& f : faults) {
      const FaultAnalysis a = rig.dp.analyze(f);
      const FaultAnalysis c = rig.sym.analyze(f);
      ASSERT_EQ(a.test_set, c.test_set) << describe(f, rig.circuit);
      ASSERT_EQ(a.bridge_stuck_at, c.bridge_stuck_at);
      ASSERT_DOUBLE_EQ(a.upper_bound, c.upper_bound);
      if (++checked == 120) break;
    }
  }
}

TEST(EngineEquivalenceTest, RandomCircuitsAllThreeAgree) {
  for (std::uint64_t seed : {11u, 22u, 33u}) {
    Engines rig(netlist::make_random_circuit(seed, 8, 35, 4));
    for (const auto& f : fault::collapse_checkpoint_faults(rig.circuit)) {
      const FaultAnalysis a = rig.dp.analyze(f);
      const FaultAnalysis b = rig.bd.analyze(f);
      const FaultAnalysis c = rig.sym.analyze(f);
      ASSERT_EQ(a.test_set, b.test_set)
          << "seed " << seed << " " << describe(f, rig.circuit);
      ASSERT_EQ(a.test_set, c.test_set)
          << "seed " << seed << " " << describe(f, rig.circuit);
    }
  }
}

TEST(EngineCostTest, SymbolicEvaluatesConeGatesOnly) {
  Engines rig(netlist::make_c95_analog());
  // A PO stem fault has a single-gate cone in the symbolic engine.
  const auto po = rig.circuit.outputs()[3];
  const FaultAnalysis s =
      rig.sym.analyze(fault::StuckAtFault{po, std::nullopt, true});
  EXPECT_EQ(s.stats.gates_evaluated, 0u);  // seeded at the net: no gate
  const FaultAnalysis b =
      rig.bd.analyze(fault::StuckAtFault{po, std::nullopt, true});
  EXPECT_EQ(b.stats.gates_evaluated, 0u);
}

TEST(EngineCostTest, BooleanDifferenceRebuildsTheCone) {
  Engines rig(netlist::make_c95_analog());
  // A PI fault's cone covers many gates in all engines.
  const FaultAnalysis b = rig.bd.analyze(
      fault::StuckAtFault{rig.circuit.inputs()[0], std::nullopt, false});
  EXPECT_GT(b.stats.gates_evaluated, 10u);
  EXPECT_EQ(b.stats.gates_evaluated + b.stats.gates_skipped,
            rig.circuit.num_gates());
}

}  // namespace
}  // namespace dp::core
