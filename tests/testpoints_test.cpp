// DFT test-point edits: function preservation and testability effect.
#include <gtest/gtest.h>

#include "analysis/profiles.hpp"
#include "netlist/generators.hpp"
#include "netlist/structure.hpp"
#include "netlist/testpoints.hpp"
#include "sim/wide_sim.hpp"

namespace dp::netlist {
namespace {

std::vector<bool> run(const Circuit& c, const std::vector<bool>& in) {
  return sim::WideFaultSimulator(c).po_values({in})[0];
}

TEST(ObservationPointsTest, AddsPosWithoutChangingFunctions) {
  Circuit base = make_c17();
  const NetId tap = *base.find_net("11");
  Circuit obs = add_observation_points(base, {tap});
  EXPECT_EQ(obs.num_outputs(), base.num_outputs() + 1);
  EXPECT_EQ(obs.num_inputs(), base.num_inputs());
  EXPECT_EQ(obs.num_gates(), base.num_gates());

  for (std::uint64_t v = 0; v < 32; ++v) {
    std::vector<bool> in(5);
    for (int i = 0; i < 5; ++i) in[i] = (v >> i) & 1;
    const auto a = run(base, in);
    const auto b = run(obs, in);
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k], b[k]) << "original PO " << k << " changed";
    }
  }
}

TEST(ObservationPointsTest, TappingAnExistingPoIsIdempotent) {
  Circuit base = make_c17();
  Circuit obs = add_observation_points(base, {base.outputs()[0]});
  EXPECT_EQ(obs.num_outputs(), base.num_outputs());
}

TEST(ObservationPointsTest, ImprovesMeanDetectability) {
  // Observing a buried fanout stem can only help (monotone: every old
  // test still works, new detections possible).
  Circuit base = make_c95_analog();
  Structure s(base);
  // Deepest-from-PO internal net.
  NetId best = kInvalidNet;
  int depth = -1;
  for (NetId id = 0; id < base.num_nets(); ++id) {
    if (base.type(id) == GateType::Input) continue;
    if (s.max_levels_to_po(id) > depth) {
      depth = s.max_levels_to_po(id);
      best = id;
    }
  }
  const auto before = analysis::analyze_stuck_at(base);
  const auto after =
      analysis::analyze_stuck_at(add_observation_points(base, {best}));
  EXPECT_GE(after.mean_detectability_detectable(),
            before.mean_detectability_detectable());
  EXPECT_LE(after.faults.size() - after.detectable_count(),
            before.faults.size() - before.detectable_count());
}

TEST(ControlPointsTest, NormalModeKeepsFunctions) {
  Circuit base = make_c17();
  const NetId tap = *base.find_net("16");
  Circuit ctl = add_control_points(base, {tap});
  EXPECT_EQ(ctl.num_inputs(), base.num_inputs() + 1);
  EXPECT_EQ(ctl.num_outputs(), base.num_outputs());

  for (std::uint64_t v = 0; v < 32; ++v) {
    std::vector<bool> in(5);
    for (int i = 0; i < 5; ++i) in[i] = (v >> i) & 1;
    auto extended = in;
    extended.push_back(false);  // cp0 = 0: normal operation
    EXPECT_EQ(run(base, in), run(ctl, extended)) << v;
  }
}

TEST(ControlPointsTest, AssertedControlFlipsTheNet) {
  Circuit base = make_c17();
  const NetId tap = *base.find_net("16");
  Circuit ctl = add_control_points(base, {tap});
  // With cp0 = 1 the tapped net inverts; gate 22 = NAND(10, 16) must see
  // the flip for at least one vector.
  bool any_changed = false;
  for (std::uint64_t v = 0; v < 32 && !any_changed; ++v) {
    std::vector<bool> in(5);
    for (int i = 0; i < 5; ++i) in[i] = (v >> i) & 1;
    auto extended = in;
    extended.push_back(true);
    any_changed = run(base, in) != run(ctl, extended);
  }
  EXPECT_TRUE(any_changed);
}

TEST(ControlPointsTest, TappedPoIsRedirectedThroughTheXor) {
  Circuit base = make_c17();
  const NetId po = base.outputs()[0];
  Circuit ctl = add_control_points(base, {po});
  // The PO must now be the XOR-ed net so the control point is observable.
  const NetId new_po = ctl.outputs()[0];
  EXPECT_EQ(ctl.type(new_po), GateType::Xor);
}

TEST(TestPointErrorsTest, BadTapsRejected) {
  Circuit base = make_c17();
  EXPECT_THROW(add_observation_points(base, {9999}), NetlistError);
  EXPECT_THROW(add_control_points(base, {9999}), NetlistError);

  Circuit with_const("k");
  NetId a = with_const.add_input("a");
  NetId k = with_const.add_const(true, "k1");
  NetId g = with_const.add_gate(GateType::And, {a, k}, "g");
  with_const.mark_output(g);
  with_const.finalize();
  EXPECT_THROW(add_observation_points(with_const, {k}), NetlistError);
}

}  // namespace
}  // namespace dp::netlist
