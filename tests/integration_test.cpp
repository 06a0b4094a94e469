// End-to-end integration: the full pipeline (generator -> structure ->
// good functions -> DP -> analysis) exercised across the suite, checking
// the cross-module invariants the paper's conclusions rest on.
#include <gtest/gtest.h>

#include "analysis/profiles.hpp"
#include "dp/engine.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/generators.hpp"
#include "netlist/structure.hpp"
#include "sim/wide_sim.hpp"

namespace dp {
namespace {

class SuiteInvariantsTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SuiteInvariantsTest, StuckAtProfileInvariants) {
  const netlist::Circuit c = netlist::make_benchmark(GetParam());
  const analysis::CircuitProfile p = analysis::analyze_stuck_at(c);

  ASSERT_FALSE(p.faults.empty());
  EXPECT_EQ(p.netlist_size, c.num_gates());
  for (const analysis::FaultRecord& f : p.faults) {
    // Probability sanity.
    EXPECT_GE(f.detectability, 0.0);
    EXPECT_LE(f.detectability, 1.0);
    EXPECT_GE(f.upper_bound, 0.0);
    EXPECT_LE(f.upper_bound, 1.0);
    // The syndrome bound (paper §4.1): delta_i <= u_i, a_i = delta_i/u_i.
    EXPECT_LE(f.detectability, f.upper_bound + 1e-12);
    EXPECT_GE(f.adherence, 0.0);
    EXPECT_LE(f.adherence, 1.0);
    // Observability cannot exceed structural reach.
    EXPECT_LE(f.pos_observable, f.pos_fed);
    EXPECT_LE(f.pos_fed, c.num_outputs());
    // Detectable <=> observable somewhere.
    EXPECT_EQ(f.detectable, f.pos_observable > 0);
    // Selective-trace accounting covers every gate exactly once.
    EXPECT_EQ(f.gates_evaluated + f.gates_skipped, c.num_gates());
  }
}

TEST_P(SuiteInvariantsTest, BridgingProfileInvariants) {
  const netlist::Circuit c = netlist::make_benchmark(GetParam());
  analysis::AnalysisOptions opt;
  opt.sampling.target_count = 60;  // keep the integration sweep fast
  for (fault::BridgeType type :
       {fault::BridgeType::And, fault::BridgeType::Or}) {
    const analysis::CircuitProfile p = analysis::analyze_bridging(c, type, opt);
    ASSERT_FALSE(p.faults.empty());
    for (const analysis::FaultRecord& f : p.faults) {
      EXPECT_LE(f.detectability, f.upper_bound + 1e-12);
      EXPECT_LE(f.pos_observable, f.pos_fed);
      // A stuck-at-like bridge with a nonzero wired constant difference
      // still obeys the excitation bound; nothing else to assert per
      // fault, but the flag must be consistent with the bound: if the
      // wires never disagree the bridge cannot be stuck-at-like unless
      // both wires are constants themselves.
      if (f.upper_bound == 0.0) {
        EXPECT_EQ(f.detectability, 0.0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, SuiteInvariantsTest,
                         ::testing::Values("fulladder", "c17", "c95",
                                           "alu181", "c432", "c499"));

TEST(PipelineTest, BenchRoundtripPreservesAnalysis) {
  // Write the ALU to .bench, read it back, and verify each checkpoint
  // fault's exact detectability is unchanged. Net ids (and with them the
  // enumeration order) legitimately differ after the roundtrip, so faults
  // are matched by name.
  const netlist::Circuit original = netlist::make_alu181();
  const netlist::Circuit reread = netlist::read_bench_string(
      netlist::write_bench_string(original), original.name());

  netlist::Structure st_a(original), st_b(reread);
  bdd::Manager ma(0), mb(0);
  core::GoodFunctions ga(ma, original), gb(mb, reread);
  core::DifferencePropagator dpa(ga, st_a), dpb(gb, st_b);

  std::size_t compared = 0;
  for (const auto& f : fault::checkpoint_faults(original)) {
    fault::StuckAtFault g;
    g.net = *reread.find_net(original.net_name(f.net));
    g.stuck_value = f.stuck_value;
    if (f.branch) {
      g.branch = netlist::PinRef{
          *reread.find_net(original.net_name(f.branch->gate)),
          f.branch->pin};
    }
    const core::FaultAnalysis a = dpa.analyze(f);
    const core::FaultAnalysis b = dpb.analyze(g);
    ASSERT_DOUBLE_EQ(a.detectability, b.detectability)
        << describe(f, original);
    ASSERT_DOUBLE_EQ(a.adherence, b.adherence) << describe(f, original);
    if (++compared == 80) break;
  }
  EXPECT_GT(compared, 0u);
}

TEST(PipelineTest, AtpgStyleFlowReachesFullCoverage) {
  // The core loop of `dpcli atpg` as a library-level property (here in
  // fault order; the CLI compacts hardest fault first): DP test sets,
  // greedily compacted, must grade to full coverage of detectable faults
  // on the simulator.
  const netlist::Circuit c = netlist::make_alu181();
  netlist::Structure st(c);
  bdd::Manager mgr(0);
  core::GoodFunctions good(mgr, c);
  core::DifferencePropagator dp(good, st);

  const auto faults = fault::collapse_checkpoint_faults(c);
  std::vector<std::vector<bool>> vectors;
  std::size_t redundant = 0;
  for (const auto& f : faults) {
    const core::FaultAnalysis a = dp.analyze(f);
    if (!a.detectable) {
      ++redundant;
      continue;
    }
    bool covered = false;
    for (const auto& v : vectors) {
      if (a.test_set.eval(v)) {
        covered = true;
        break;
      }
    }
    if (covered) continue;
    const auto cube = a.test_set.sat_one();
    std::vector<bool> v(c.num_inputs(), false);
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = cube[i] == 1;
    vectors.push_back(std::move(v));
  }
  const auto grade = sim::WideFaultSimulator(c).grade_vectors(faults, vectors);
  EXPECT_EQ(grade.detected() + redundant, grade.total);
  // Compaction is real: far fewer vectors than faults.
  EXPECT_LT(vectors.size(), faults.size() / 2);
}

TEST(PipelineTest, CollapsedClassesShareTestSets) {
  // Fault equivalence (paper §2.1): every fault collapsed into a class
  // must have exactly the representative's complete test set.
  const netlist::Circuit c = netlist::make_c95_analog();
  netlist::Structure st(c);
  bdd::Manager mgr(0);
  core::GoodFunctions good(mgr, c);
  core::DifferencePropagator dp(good, st);

  std::size_t classes_with_members = 0;
  for (const auto& cls : fault::checkpoint_equivalence_classes(c)) {
    if (cls.collapsed.empty()) continue;
    ++classes_with_members;
    const core::FaultAnalysis rep = dp.analyze(cls.representative);
    for (const auto& member : cls.collapsed) {
      const core::FaultAnalysis m = dp.analyze(member);
      EXPECT_EQ(m.test_set, rep.test_set)
          << describe(member, c) << " vs "
          << describe(cls.representative, c);
    }
  }
  EXPECT_GT(classes_with_members, 0u);
}

}  // namespace
}  // namespace dp
