// Transform correctness: XOR->NAND expansion and 2-input decomposition
// must preserve every PO function (verified exhaustively or by sampling).
#include <gtest/gtest.h>

#include <random>

#include "netlist/generators.hpp"
#include "netlist/transforms.hpp"
#include "sim/wide_sim.hpp"

namespace dp::netlist {
namespace {

std::vector<bool> run(const Circuit& c, const std::vector<bool>& in) {
  return sim::WideFaultSimulator(c).po_values({in})[0];
}

void expect_equivalent(const Circuit& a, const Circuit& b,
                       std::size_t samples, std::uint64_t seed) {
  ASSERT_EQ(a.num_inputs(), b.num_inputs());
  ASSERT_EQ(a.num_outputs(), b.num_outputs());
  const std::size_t n = a.num_inputs();
  std::mt19937_64 rng(seed);
  const bool exhaustive = n <= 12;
  const std::uint64_t limit = exhaustive ? (1ull << n) : samples;
  for (std::uint64_t k = 0; k < limit; ++k) {
    std::vector<bool> in(n);
    for (std::size_t i = 0; i < n; ++i) {
      in[i] = exhaustive ? ((k >> i) & 1) : (rng() & 1);
    }
    ASSERT_EQ(run(a, in), run(b, in)) << "vector " << k;
  }
}

class XorExpansionTest : public ::testing::TestWithParam<const char*> {};

TEST_P(XorExpansionTest, PreservesFunction) {
  Circuit original = make_benchmark(GetParam());
  Circuit expanded = expand_xor_to_nand(original, "expanded");
  expect_equivalent(original, expanded, 512, 2024);
  // No parity gates survive.
  for (NetId id = 0; id < expanded.num_nets(); ++id) {
    EXPECT_NE(expanded.type(id), GateType::Xor);
    EXPECT_NE(expanded.type(id), GateType::Xnor);
  }
}

INSTANTIATE_TEST_SUITE_P(Suite, XorExpansionTest,
                         ::testing::Values("fulladder", "c95", "alu181",
                                           "c499"));

TEST(XorExpansionTest, XnorGetsInverter) {
  Circuit c("xnor");
  NetId a = c.add_input("a");
  NetId b = c.add_input("b");
  c.mark_output(c.add_gate(GateType::Xnor, {a, b}, "o"));
  c.finalize();
  Circuit e = expand_xor_to_nand(c, "e");
  expect_equivalent(c, e, 4, 1);
}

TEST(XorExpansionTest, MultiInputParityFoldsLeft) {
  Circuit c("par3");
  NetId a = c.add_input("a");
  NetId b = c.add_input("b");
  NetId d = c.add_input("d");
  c.mark_output(c.add_gate(GateType::Xor, {a, b, d}, "o"));
  c.finalize();
  Circuit e = expand_xor_to_nand(c, "e");
  expect_equivalent(c, e, 8, 1);
  EXPECT_EQ(e.num_gates(), 8u);  // two XOR stages x 4 NANDs
}

TEST(XorExpansionTest, GateCountGrowsByThreePerXor) {
  // Paper relationship: each 2-input XOR becomes 4 NANDs (+3 gates).
  Circuit c = make_parity_tree(8, true);
  const std::size_t xors = c.num_gates();  // all gates are XOR
  Circuit e = expand_xor_to_nand(c, "e");
  EXPECT_EQ(e.num_gates(), xors * 4);
}

class DecomposeTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DecomposeTest, PreservesFunctionWithTwoInputGates) {
  Circuit original = make_benchmark(GetParam());
  Circuit two = decompose_to_two_input(original, "two");
  expect_equivalent(original, two, 512, 77);
  for (NetId id = 0; id < two.num_nets(); ++id) {
    EXPECT_LE(two.fanins(id).size(), 2u) << two.net_name(id);
  }
}

INSTANTIATE_TEST_SUITE_P(Suite, DecomposeTest,
                         ::testing::Values("c17", "alu181", "c432", "c499"));

TEST(DecomposeTest, KeepsInversionAtRoot) {
  Circuit c("nand3");
  NetId a = c.add_input("a");
  NetId b = c.add_input("b");
  NetId d = c.add_input("d");
  c.mark_output(c.add_gate(GateType::Nand, {a, b, d}, "o"));
  c.finalize();
  Circuit two = decompose_to_two_input(c, "two");
  expect_equivalent(c, two, 8, 1);
  // AND2 feeding a NAND2 root.
  const NetId root = two.outputs()[0];
  EXPECT_EQ(two.type(root), GateType::Nand);
  EXPECT_EQ(two.num_gates(), 2u);
}

}  // namespace
}  // namespace dp::netlist
