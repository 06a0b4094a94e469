// Simulator tests: the gate evaluator, stuck-at, bridging and multiple
// fault injection in the exhaustive reference, exhaustive sweeps, vector
// grading, ragged-block lane masking.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <random>
#include <string>

#include "fault/bridging.hpp"
#include "fault/stuck_at.hpp"
#include "netlist/generators.hpp"
#include "netlist/structure.hpp"
#include "obs/span.hpp"
#include "sim/wide_sim.hpp"

namespace dp::sim {
namespace {

using fault::BridgingFault;
using fault::StuckAtFault;
using netlist::Circuit;
using netlist::GateType;
using netlist::NetId;

/// Every input vector of `c`; vector v gives PI i the bit (v >> i) & 1,
/// the index order of WideFaultSimulator::exhaustive_test_set.
std::vector<std::vector<bool>> all_vectors(const Circuit& c) {
  const std::size_t n = c.num_inputs();
  std::vector<std::vector<bool>> vectors(std::size_t{1} << n,
                                         std::vector<bool>(n));
  for (std::size_t v = 0; v < vectors.size(); ++v) {
    for (std::size_t i = 0; i < n; ++i) vectors[v][i] = (v >> i) & 1;
  }
  return vectors;
}

/// Per vector: whether it detects `f`, by the exhaustive reference's
/// forward re-evaluation of the faulty circuit -- an injection path
/// independent of the region grading.
std::vector<bool> detects(const WideFaultSimulator& wide,
                          const StuckAtFault& f,
                          const std::vector<std::vector<bool>>& vectors) {
  const auto good = wide.po_values(vectors);
  const auto bad = wide.po_values(vectors, f);
  std::vector<bool> out(vectors.size());
  for (std::size_t k = 0; k < vectors.size(); ++k) out[k] = good[k] != bad[k];
  return out;
}

/// One PO per input: PO i buffers PI i.
Circuit make_buffers(std::size_t n) {
  Circuit c("buffers" + std::to_string(n));
  for (std::size_t i = 0; i < n; ++i) {
    const NetId pi = c.add_input("x" + std::to_string(i));
    c.mark_output(c.add_gate(GateType::Buf, {pi}, "o" + std::to_string(i)));
  }
  c.finalize();
  return c;
}

TEST(PatternSimTest, ExhaustiveInputWordsEnumerateAllVectors) {
  // Ten PIs span every packing regime: bits 0..5 of the vector number
  // vary within a word, bits 6..7 across a block's words and bits 8..9
  // across blocks. A stuck-at-0 on PI i is detected exactly by the
  // vectors with bit i set, so its test set spells out the packing.
  const Circuit c = make_buffers(10);
  const WideFaultSimulator wide(c);
  for (std::size_t i = 0; i < c.num_inputs(); ++i) {
    const auto tests =
        wide.exhaustive_test_set({c.inputs()[i], std::nullopt, false});
    ASSERT_EQ(tests.size(), 1024u);
    for (std::size_t v = 0; v < tests.size(); ++v) {
      ASSERT_EQ(tests[v], ((v >> i) & 1) != 0)
          << "PI " << i << " vector " << v;
    }
    EXPECT_DOUBLE_EQ(wide.exhaustive_syndrome(c.inputs()[i]), 0.5);
  }
}

TEST(PatternSimTest, BlockMaskCoversSmallCircuits) {
  // Fewer than 8 inputs leave a partial 256-lane block whose upper lanes
  // replicate vectors; a buffered PI is detected by exactly half the
  // vectors at every width, a full block and two blocks included.
  for (std::size_t n = 1; n <= 9; ++n) {
    const Circuit c = make_buffers(n);
    const WideFaultSimulator wide(c);
    const StuckAtFault f{c.inputs()[n - 1], std::nullopt, true};
    EXPECT_DOUBLE_EQ(wide.exhaustive_detectability(f), 0.5) << "n = " << n;
    EXPECT_DOUBLE_EQ(wide.exhaustive_syndrome(c.outputs()[0]), 0.5)
        << "n = " << n;
    EXPECT_EQ(wide.exhaustive_test_set(f).size(), std::size_t{1} << n);
  }
}

/// The value of an n-input gate of type `t` on `ins`.
bool truth(GateType t, const std::vector<bool>& ins) {
  bool and_v = true, or_v = false, xor_v = false;
  for (const bool b : ins) {
    and_v = and_v && b;
    or_v = or_v || b;
    xor_v = xor_v != b;
  }
  switch (t) {
    case GateType::Buf: return ins[0];
    case GateType::Not: return !ins[0];
    case GateType::And: return and_v;
    case GateType::Nand: return !and_v;
    case GateType::Or: return or_v;
    case GateType::Nor: return !or_v;
    case GateType::Xor: return xor_v;
    case GateType::Xnor: return !xor_v;
    case GateType::Const0: return false;
    case GateType::Const1: return true;
    default: ADD_FAILURE() << "no truth table"; return false;
  }
}

TEST(PatternSimTest, GateEvaluationMatchesTruthTables) {
  // The grader and the exhaustive reference share one gate evaluator;
  // check it directly: every gate type, 1-3 fanins, and the same net on
  // two pins, over every input vector.
  Circuit c("gates");
  const NetId a = c.add_input("a");
  const NetId b = c.add_input("b");
  const NetId d = c.add_input("d");
  const std::vector<std::vector<NetId>> pin_lists = {
      {a}, {a, b}, {a, b, d}, {a, a}, {a, a, b}, {b, a, a}};
  // (type, pins) per PO, in PO order.
  std::vector<std::pair<GateType, std::vector<NetId>>> gates;
  for (const GateType t : {GateType::Buf, GateType::Not}) {
    gates.push_back({t, {a}});
  }
  for (const GateType t : {GateType::And, GateType::Nand, GateType::Or,
                           GateType::Nor, GateType::Xor, GateType::Xnor}) {
    for (const auto& pins : pin_lists) gates.push_back({t, pins});
  }
  for (const auto& [t, pins] : gates) {
    c.mark_output(c.add_gate(t, pins, "g" + std::to_string(c.num_nets())));
  }
  gates.push_back({GateType::Const0, {}});
  c.mark_output(c.add_const(false, "k0"));
  gates.push_back({GateType::Const1, {}});
  c.mark_output(c.add_const(true, "k1"));
  c.finalize();

  const WideFaultSimulator wide(c);
  const auto vectors = all_vectors(c);
  const auto pos = wide.po_values(vectors);
  for (std::size_t v = 0; v < vectors.size(); ++v) {
    for (std::size_t p = 0; p < gates.size(); ++p) {
      std::vector<bool> ins;
      for (const NetId pin : gates[p].second) {
        ins.push_back(vectors[v][pin == a ? 0 : pin == b ? 1 : 2]);
      }
      EXPECT_EQ(pos[v][p], truth(gates[p].first, ins))
          << netlist::to_string(gates[p].first) << " with "
          << gates[p].second.size() << " pins, vector " << v;
    }
  }
}

/// a, b -> s = AND(a, b), a PO, also fanning out to POs g = NOT(s) and
/// h = BUF(s).
Circuit make_stem() {
  Circuit c("stem");
  const NetId a = c.add_input("a");
  const NetId b = c.add_input("b");
  const NetId s = c.add_gate(GateType::And, {a, b}, "s");
  c.mark_output(s);
  c.mark_output(c.add_gate(GateType::Not, {s}, "g"));
  c.mark_output(c.add_gate(GateType::Buf, {s}, "h"));
  c.finalize();
  return c;
}

TEST(FaultSimTest, StemStuckAtForcesNet) {
  const Circuit c = make_stem();
  const WideFaultSimulator wide(c);
  const StuckAtFault f{*c.find_net("s"), std::nullopt, true};
  // Every branch of the stem sees the forced 1.
  for (const auto& pos : wide.po_values(all_vectors(c), f)) {
    EXPECT_EQ(pos, (std::vector<bool>{true, false, true}));
  }
}

TEST(FaultSimTest, BranchStuckAtLeavesStemClean) {
  const Circuit c = make_stem();
  const WideFaultSimulator wide(c);
  const NetId s = *c.find_net("s");
  const NetId g = *c.find_net("g");
  // Branch s->g stuck at 1: s and the other branch keep their good
  // values, and g = NOT(1).
  const StuckAtFault f{s, netlist::PinRef{g, 0}, true};
  const auto vectors = all_vectors(c);
  const auto good = wide.po_values(vectors);
  const auto bad = wide.po_values(vectors, f);
  for (std::size_t v = 0; v < vectors.size(); ++v) {
    EXPECT_EQ(bad[v][0], good[v][0]) << v;  // stem unaffected
    EXPECT_EQ(bad[v][2], good[v][2]) << v;  // other branch unaffected
    EXPECT_FALSE(bad[v][1]) << v;
  }
}

TEST(FaultSimTest, AndBridgeWiresBothNets) {
  // x = NAND(a, b) and y = NOR(b, e) are POs, and z = NOT(x) consumes
  // one of them: under an AND bridge both POs read x & y and z reads
  // NOT(x & y).
  Circuit c("bridge");
  const NetId a = c.add_input("a");
  const NetId b = c.add_input("b");
  const NetId e = c.add_input("e");
  const NetId x = c.add_gate(GateType::Nand, {a, b}, "x");
  const NetId y = c.add_gate(GateType::Nor, {b, e}, "y");
  c.mark_output(x);
  c.mark_output(y);
  c.mark_output(c.add_gate(GateType::Not, {x}, "z"));
  c.finalize();
  const WideFaultSimulator wide(c);
  const auto vectors = all_vectors(c);
  const auto good = wide.po_values(vectors);
  const BridgingFault f{x, y, fault::BridgeType::And};
  std::size_t detecting = 0;
  for (std::size_t v = 0; v < vectors.size(); ++v) {
    const bool wired = good[v][0] && good[v][1];
    const std::vector<bool> expect = {wired, wired, !wired};
    detecting += expect != good[v];
  }
  const auto tests = wide.exhaustive_test_set(f);
  EXPECT_EQ(static_cast<std::size_t>(std::count(tests.begin(), tests.end(),
                                                true)),
            detecting);
  EXPECT_DOUBLE_EQ(wide.exhaustive_detectability(f),
                   static_cast<double>(detecting) / 8.0);
}

TEST(FaultSimTest, BridgeConsumersSeeWiredValue) {
  // a -> g = NOT(a); b independent. Bridge (a, b): g must compute
  // NOT(wired) even though b comes later in the original topo order.
  Circuit c("order");
  NetId a = c.add_input("a");
  NetId g = c.add_gate(GateType::Not, {a}, "g");
  NetId b = c.add_input("b");
  NetId h = c.add_gate(GateType::Not, {b}, "h");
  c.mark_output(g);
  c.mark_output(h);
  c.finalize();
  const WideFaultSimulator wide(c);
  const BridgingFault f{a, b, fault::BridgeType::Or};
  // Detected exactly where a != b: there the wired 1 flips one output.
  EXPECT_EQ(wide.exhaustive_test_set(f),
            (std::vector<bool>{false, true, true, false}));
}

TEST(FaultSimTest, FeedbackBridgeIsRejected) {
  // b = NOT(a): a reaches b, so wiring them makes a loop the reference
  // cannot evaluate forward.
  Circuit c("feedback");
  const NetId a = c.add_input("a");
  const NetId n = c.add_gate(GateType::Not, {a}, "n");
  const NetId o = c.add_gate(GateType::Buf, {n}, "o");
  c.mark_output(o);
  c.finalize();
  const WideFaultSimulator wide(c);
  for (const BridgingFault& f : {BridgingFault{a, o, fault::BridgeType::And},
                                 BridgingFault{o, a, fault::BridgeType::Or},
                                 BridgingFault{n, o, fault::BridgeType::Or}}) {
    EXPECT_THROW((void)wide.exhaustive_detectability(f), std::logic_error);
    EXPECT_THROW((void)wide.exhaustive_test_set(f), std::logic_error);
  }
}

TEST(FaultSimTest, ExhaustiveDetectabilityKnownValues) {
  // Full adder, sum output chain: sa0 on PI "a" (stem).
  // a is XORed into sum: every vector flips sum when a = 1 -> all 4
  // vectors with a = 1 detect via sum. Detectability = 1/2.
  Circuit c = netlist::make_full_adder();
  const WideFaultSimulator wide(c);
  StuckAtFault f{c.inputs()[0], std::nullopt, false};
  EXPECT_DOUBLE_EQ(wide.exhaustive_detectability(f), 0.5);
  // sa1 on "a": detected whenever a = 0 -> also 1/2.
  StuckAtFault f1{c.inputs()[0], std::nullopt, true};
  EXPECT_DOUBLE_EQ(wide.exhaustive_detectability(f1), 0.5);
}

TEST(FaultSimTest, ExhaustiveSyndromeKnownValues) {
  Circuit c = netlist::make_full_adder();
  const WideFaultSimulator wide(c);
  // sum = a ^ b ^ cin has syndrome 1/2; cout = majority has 1/2.
  EXPECT_DOUBLE_EQ(wide.exhaustive_syndrome(*c.find_net("sum")), 0.5);
  EXPECT_DOUBLE_EQ(wide.exhaustive_syndrome(*c.find_net("cout")), 0.5);
  // ab = a & b has syndrome 1/4.
  EXPECT_DOUBLE_EQ(wide.exhaustive_syndrome(*c.find_net("ab")), 0.25);
}

TEST(FaultSimTest, ExhaustiveTestSetMatchesDetectability) {
  Circuit c = netlist::make_c17();
  const WideFaultSimulator wide(c);
  for (const auto& f : fault::checkpoint_faults(c)) {
    const auto tests = wide.exhaustive_test_set(f);
    std::size_t count = 0;
    for (bool t : tests) count += t;
    EXPECT_DOUBLE_EQ(static_cast<double>(count) / 32.0,
                     wide.exhaustive_detectability(f))
        << describe(f, c);
  }
}

TEST(FaultSimTest, InputLimitEnforced) {
  Circuit c = netlist::make_c499_analog();  // 41 PIs
  const WideFaultSimulator wide(c);
  StuckAtFault f{c.inputs()[0], std::nullopt, false};
  EXPECT_THROW((void)wide.exhaustive_detectability(f), std::invalid_argument);
  EXPECT_THROW((void)wide.exhaustive_syndrome(f.net), std::invalid_argument);
  // The test-set bitmap stops at 24 inputs, below the sweep limit.
  const Circuit buffers = make_buffers(25);
  const StuckAtFault pi0{buffers.inputs()[0], std::nullopt, false};
  EXPECT_THROW((void)WideFaultSimulator(buffers).exhaustive_test_set(pi0),
               std::invalid_argument);
}

TEST(FaultSimTest, RandomGradingDetectsEverythingOnC17) {
  Circuit c = netlist::make_c17();
  const WideFaultSimulator wide(c);
  const auto faults = fault::checkpoint_faults(c);
  const auto cov = wide.grade_random(faults, 256, 99);
  // All C17 checkpoint faults are detectable and easy to hit randomly.
  EXPECT_EQ(cov.detected(), cov.total);
  EXPECT_DOUBLE_EQ(static_cast<double>(cov.detected()) / cov.total, 1.0);
}

TEST(FaultSimTest, VectorGradingCountsDetections) {
  Circuit c = netlist::make_c17();
  const WideFaultSimulator wide(c);
  const auto faults = fault::checkpoint_faults(c);
  // One all-zeros vector detects some but not all faults.
  const auto cov1 =
      wide.grade_vectors(faults, {std::vector<bool>(c.num_inputs(), false)});
  EXPECT_GT(cov1.detected(), 0u);
  EXPECT_LT(cov1.detected(), cov1.total);
  // Exhaustive vector list detects everything.
  const auto cov = wide.grade_vectors(faults, all_vectors(c));
  EXPECT_EQ(cov.detected(), cov.total);
  // Width mismatch rejected.
  EXPECT_THROW(wide.grade_vectors(faults, {std::vector<bool>(3, false)}),
               std::invalid_argument);
}

// ---- ragged-block lane masking ------------------------------------------
// Pattern counts that are not a multiple of 256 leave a partial block
// whose upper lanes hold garbage (replicated vectors in the exhaustive
// sweeps, zero-filled inputs in the graders). These tests pin the masking
// contract.

TEST(FaultSimRaggedTest, BlockMaskPopcountsSumToVectorCount) {
  // An n-input XOR is 1 on exactly half the vectors, so its PO stuck-at-0
  // is detected 2^(n-1) times: any unmasked or double-counted lane shows.
  for (std::size_t n = 1; n <= 10; ++n) {
    Circuit c("xor" + std::to_string(n));
    std::vector<NetId> pis;
    for (std::size_t i = 0; i < n; ++i) {
      pis.push_back(c.add_input("x" + std::to_string(i)));
    }
    const NetId o = c.add_gate(GateType::Xor, pis, "o");
    c.mark_output(o);
    c.finalize();
    const WideFaultSimulator wide(c);
    const auto tests = wide.exhaustive_test_set({o, std::nullopt, false});
    ASSERT_EQ(tests.size(), std::size_t{1} << n);
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(tests.begin(), tests.end(), true)),
              tests.size() / 2)
        << "n = " << n;
  }
}

TEST(FaultSimRaggedTest, PartialBlockSweepsIgnoreGarbageLanes) {
  // 3 inputs: only 8 of the 256 lanes are valid, and lanes 8..255
  // replicate vectors 0..7 under the striped input words. An unmasked
  // sweep would count each detection 32x (detectability 4.0, not 1/8).
  Circuit c("and3");
  NetId a = c.add_input("a");
  NetId b = c.add_input("b");
  NetId d = c.add_input("d");
  NetId o = c.add_gate(GateType::And, {a, b, d}, "o");
  c.mark_output(o);
  c.finalize();
  const WideFaultSimulator wide(c);
  StuckAtFault f{o, std::nullopt, false};  // sa0: detected only by 111
  EXPECT_DOUBLE_EQ(wide.exhaustive_detectability(f), 1.0 / 8.0);
  EXPECT_DOUBLE_EQ(wide.exhaustive_syndrome(o), 1.0 / 8.0);
  const auto tests = wide.exhaustive_test_set(f);
  ASSERT_EQ(tests.size(), 8u);  // 2^n entries, not 256
  for (std::size_t v = 0; v < tests.size(); ++v) {
    EXPECT_EQ(tests[v], v == 7u) << "vector " << v;
  }
}

TEST(FaultSimRaggedTest, RaggedVectorGradingMasksTailLanes) {
  // o = OR(a, b); sa1 on o is detected only by the all-zero vector --
  // which is exactly what the zero-filled unused tail lanes fake. 63
  // non-detecting vectors must grade as zero detections; a real all-zero
  // vector in a 1-lane tail block (65 total) must be honoured.
  Circuit c("or2");
  NetId a = c.add_input("a");
  NetId b = c.add_input("b");
  NetId o = c.add_gate(GateType::Or, {a, b}, "o");
  c.mark_output(o);
  c.finalize();
  const WideFaultSimulator wide(c);
  const std::vector<StuckAtFault> faults = {{o, std::nullopt, true}};

  const std::vector<bool> ones(2, true), zeros(2, false);
  std::vector<std::vector<bool>> vectors(63, ones);
  EXPECT_EQ(wide.grade_vectors(faults, vectors).detected(), 0u);

  vectors.assign(64, ones);
  vectors.push_back(zeros);  // lane 0 of the second (1-lane) block
  EXPECT_EQ(wide.grade_vectors(faults, vectors).detected(), 1u);
}

TEST(FaultSimRaggedTest, RandomGradingHonorsExactPatternCount) {
  // One random pattern must grade exactly lane 0 of the seeded word
  // stream; cross-check against grade_vectors on that reconstructed
  // vector so a mask regression shows up as a count mismatch.
  Circuit c = netlist::make_c17();
  const WideFaultSimulator wide(c);
  const auto faults = fault::checkpoint_faults(c);
  const std::uint64_t seed = 123;
  std::mt19937_64 rng(seed);
  std::vector<bool> lane0(c.num_inputs());
  for (std::size_t i = 0; i < c.num_inputs(); ++i) lane0[i] = rng() & 1;
  const auto one_random = wide.grade_random(faults, 1, seed);
  const auto one_vector = wide.grade_vectors(faults, {lane0});
  EXPECT_EQ(one_random.detected(), one_vector.detected());
  EXPECT_EQ(one_random.total, one_vector.total);
}

// ---- Levelized 256-lane engine -----------------------------------------

TEST(WideSimTest, RandomGradingMatchesVectorGradingAtRaggedCounts) {
  // The random path packs lanes straight from the RNG word stream; the
  // vector path packs bool vectors lane by lane. Grading the materialized
  // stream must reproduce the random grade exactly -- per fault, not just
  // in aggregate -- at counts straddling every masking boundary (partial
  // word, full word, partial block, full 256-lane block).
  const Circuit c = netlist::make_c17();
  const WideFaultSimulator wide(c);
  const auto faults = fault::checkpoint_faults(c);
  const std::uint64_t seed = 0xfeedface;
  for (const std::size_t n : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                              std::size_t{65}, std::size_t{100},
                              std::size_t{250}, std::size_t{256},
                              std::size_t{300}}) {
    const auto random_grade = wide.grade_random(faults, n, seed);
    const auto vector_grade =
        wide.grade_vectors(faults, wide.random_patterns(n, seed));
    EXPECT_EQ(random_grade.detected(), vector_grade.detected()) << "n=" << n;
    EXPECT_EQ(random_grade.num_patterns, n) << "n=" << n;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      EXPECT_EQ(random_grade.detection_counts[i],
                vector_grade.detection_counts[i])
          << "n=" << n << " fault " << i;
      EXPECT_EQ(random_grade.first_detection[i],
                vector_grade.first_detection[i])
          << "n=" << n << " fault " << i;
    }
  }
}

TEST(WideSimTest, ExactCountsMatchSerialRecountAcrossEngines) {
  // Cross-engine identity for the n-detect contract: with fault dropping
  // off, the wide engine's per-fault detection_counts and first_detection
  // must equal a naive recount (the exhaustive reference's forward
  // re-evaluation of each pattern for each fault) at counts straddling
  // every lane-masking boundary.
  // The n-detect analytics layer leans on exactly this equality when it
  // cross-checks BDD satcounts against simulator recounts.
  const Circuit c = netlist::make_c17();
  const WideFaultSimulator wide(c);
  const auto faults = fault::checkpoint_faults(c);
  const std::uint64_t seed = 0xc0de;
  WideSimOptions keep;
  keep.drop_detected = false;
  for (const std::size_t n : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                              std::size_t{65}, std::size_t{256},
                              std::size_t{300}}) {
    const auto stream = wide.random_patterns(n, seed);
    ASSERT_EQ(stream.size(), n);
    const auto grade = wide.grade_vectors(faults, stream, keep);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const std::vector<bool> hits = detects(wide, faults[i], stream);
      std::uint64_t count = 0;
      std::uint64_t first = WideFaultSimulator::kNotDetected;
      for (std::size_t p = 0; p < n; ++p) {
        if (hits[p]) {
          if (count == 0) first = p;
          ++count;
        }
      }
      EXPECT_EQ(grade.detection_counts[i], count)
          << "n=" << n << " fault " << i;
      EXPECT_EQ(grade.first_detection[i], first)
          << "n=" << n << " fault " << i;
    }
  }
}

TEST(WideSimTest, FirstDetectionIsEarliestDetectingPattern) {
  // Cross-check first_detection against the slow truth: grade each
  // reconstructed vector on its own and record the first detecting index.
  const Circuit c = netlist::make_c17();
  const WideFaultSimulator wide(c);
  const auto faults = fault::checkpoint_faults(c);
  const std::size_t n = 40;
  const std::uint64_t seed = 99;
  const auto stream = wide.random_patterns(n, seed);
  const auto grade = wide.grade_random(faults, n, seed);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const std::vector<bool> hits = detects(wide, faults[i], stream);
    std::uint64_t expected = WideFaultSimulator::kNotDetected;
    for (std::size_t p = 0; p < n; ++p) {
      if (hits[p]) {
        expected = p;
        break;
      }
    }
    EXPECT_EQ(grade.first_detection[i], expected) << "fault " << i;
  }
}

TEST(WideSimTest, FaultDroppingPreservesDetectedSetAndFirstDetection) {
  // Dropping stops counting after the first detecting block, but it must
  // never change which faults are detected or where they were first seen.
  const Circuit c = netlist::make_benchmark("alu181");
  const WideFaultSimulator wide(c);
  const auto faults = fault::checkpoint_faults(c);
  WideSimOptions drop, keep;
  drop.drop_detected = true;
  keep.drop_detected = false;
  const auto dropped = wide.grade_random(faults, 300, 5, drop);
  const auto kept = wide.grade_random(faults, 300, 5, keep);
  EXPECT_EQ(dropped.detected(), kept.detected());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(dropped.first_detection[i], kept.first_detection[i])
        << "fault " << i;
    EXPECT_EQ(dropped.detection_counts[i] > 0, kept.detection_counts[i] > 0)
        << "fault " << i;
  }
}

void expect_same_grade(const WideFaultSimulator::Grade& expected,
                       const WideFaultSimulator::Grade& got,
                       const std::string& what) {
  EXPECT_EQ(got.total, expected.total) << what;
  EXPECT_EQ(got.num_patterns, expected.num_patterns) << what;
  EXPECT_EQ(got.detection_counts, expected.detection_counts) << what;
  EXPECT_EQ(got.first_detection, expected.first_detection) << what;
  EXPECT_EQ(got.level_events, expected.level_events) << what;
}

TEST(WideSimTest, GradeIsIdenticalAtEveryJobCount) {
  // Threads claim faults in whatever order the scheduler allows; every
  // Grade field must still equal the serial grade, with dropping on and
  // off, at pattern counts straddling the block boundary, and with more
  // threads than faults.
  const Circuit c = netlist::make_benchmark("c432");
  const WideFaultSimulator wide(c);
  const auto all = fault::collapse_checkpoint_faults(c);
  const std::vector<StuckAtFault> few(all.begin(), all.begin() + 3);
  for (const bool drop : {true, false}) {
    for (const std::size_t n :
         {std::size_t{1}, std::size_t{255}, std::size_t{256},
          std::size_t{257}, std::size_t{4096}}) {
      for (const auto* faults : {&all, &few}) {
        WideSimOptions opt;
        opt.drop_detected = drop;
        const auto serial = wide.grade_random(*faults, n, 0xab5eed, opt);
        for (const std::size_t jobs :
             {std::size_t{2}, std::size_t{3}, std::size_t{4},
              std::size_t{7}}) {
          opt.jobs = jobs;
          expect_same_grade(
              serial, wide.grade_random(*faults, n, 0xab5eed, opt),
              "drop=" + std::to_string(drop) + " n=" + std::to_string(n) +
                  " faults=" + std::to_string(faults->size()) +
                  " jobs=" + std::to_string(jobs));
        }
      }
    }
  }
}

TEST(WideSimTest, VectorGradeIsIdenticalAtEveryJobCount) {
  const Circuit c = netlist::make_benchmark("alu181");
  const WideFaultSimulator wide(c);
  const auto faults = fault::checkpoint_faults(c);
  const auto vectors = wide.random_patterns(300, 17);
  WideSimOptions opt;
  opt.drop_detected = false;
  const auto serial = wide.grade_vectors(faults, vectors, opt);
  opt.jobs = 4;
  expect_same_grade(serial, wide.grade_vectors(faults, vectors, opt),
                    "jobs=4");
}

TEST(WideSimTest, GradeSpanReportsChasesAndGroups) {
  // The sim.grade span tells shorter chases (stopped at a post-dominator)
  // from fewer chases, and how many block groups ran; like every other
  // count, those do not depend on the job count.
  const Circuit c = netlist::make_benchmark("c1355");
  const WideFaultSimulator wide(c);
  const auto faults = fault::collapse_checkpoint_faults(c);
  auto span_attrs = [&](bool drop, std::size_t jobs) {
    obs::SpanCollector collector(16);
    obs::SpanCollector::install(&collector);
    WideSimOptions opt;
    opt.drop_detected = drop;
    opt.jobs = jobs;
    const auto grade = wide.grade_random(faults, 1024, 9, opt);
    obs::SpanCollector::install(nullptr);
    const auto snap = collector.snapshot();
    EXPECT_EQ(snap.spans.size(), 1u);
    std::map<std::string, std::int64_t> attrs;
    for (const obs::SpanAttr& a : snap.spans.at(0).attrs) {
      if (a.key != "jobs") attrs[a.key] = a.i;
    }
    EXPECT_EQ(attrs.at("events"), static_cast<std::int64_t>(grade.events()));
    return attrs;
  };
  const auto kept = span_attrs(false, 1);
  EXPECT_EQ(kept.at("groups"), 1);  // four blocks fit one group
  EXPECT_GT(kept.at("dominated_stems"), 0);
  EXPECT_LT(kept.at("dominated_stems"), kept.at("stem_propagations"));
  const auto dropped = span_attrs(true, 1);
  EXPECT_EQ(dropped.at("groups"), 3);  // groups of 1, 2 and 1 blocks
  EXPECT_EQ(span_attrs(false, 3), kept);
  EXPECT_EQ(span_attrs(true, 3), dropped);
}

TEST(WideSimTest, EmptyFaultListAndZeroJobs) {
  const Circuit c = netlist::make_c17();
  const WideFaultSimulator wide(c);
  WideSimOptions opt;
  opt.jobs = 0;  // one thread per hardware thread, capped at the faults
  const auto none = wide.grade_random({}, 300, 3, opt);
  EXPECT_EQ(none.total, 0u);
  EXPECT_EQ(none.events(), 0u);
  const auto faults = fault::checkpoint_faults(c);
  expect_same_grade(wide.grade_random(faults, 300, 3),
                    wide.grade_random(faults, 300, 3, opt), "jobs=0");
}

/// Twelve PIs feeding ANDs of widths 9..12 (POs, rarely detected) plus a
/// 40k-gate buffer chain from PI 0 to a PO: 8 MiB of good values hold
/// only six 256-lane blocks of this circuit. `faults` receives each AND's
/// output stuck-at-0, its last pin's branch stuck-at-0, and PI 0
/// stuck-at-1.
Circuit make_and_chain_circuit(std::vector<StuckAtFault>& faults) {
  Circuit c("groups");
  std::vector<NetId> pis;
  for (int i = 0; i < 12; ++i) pis.push_back(c.add_input("x" + std::to_string(i)));
  for (std::size_t width = 9; width <= 12; ++width) {
    const NetId a = c.add_gate(
        GateType::And, std::vector<NetId>(pis.begin(), pis.begin() + width),
        "and" + std::to_string(width));
    c.mark_output(a);
    faults.push_back({a, std::nullopt, false});
    faults.push_back({pis[width - 1], netlist::PinRef{a, static_cast<std::uint32_t>(width - 1)}, false});
  }
  NetId tail = pis[0];
  for (int i = 0; i < 40000; ++i) {
    tail = c.add_gate(GateType::Buf, {tail}, "b" + std::to_string(i));
  }
  c.mark_output(tail);
  faults.push_back({pis[0], std::nullopt, true});
  c.finalize();
  return c;
}

TEST(WideSimTest, MultiGroupGradeMatchesPerBlockRegrade) {
  // A group holds as many 256-lane blocks as fit 8 MiB of good values; a
  // 40k-gate buffer chain shrinks that to six blocks, so 4096 patterns
  // span three groups. Wide ANDs are detected rarely enough that some
  // first detections fall in a later group. Counts and first detections
  // must equal a regrade of every block on its own, offset by the
  // block's position, with and without dropping and at two job counts.
  std::vector<StuckAtFault> faults;
  const Circuit c = make_and_chain_circuit(faults);
  const WideFaultSimulator wide(c);
  const std::size_t n = 4096;
  const std::uint64_t seed = 4242;
  const auto stream = wide.random_patterns(n, seed);
  std::vector<std::uint64_t> counts(faults.size(), 0);
  std::vector<std::uint64_t> first(faults.size(),
                                   WideFaultSimulator::kNotDetected);
  // With dropping, counting stops after the first detecting block.
  std::vector<std::uint64_t> first_block_counts(faults.size(), 0);
  WideSimOptions keep;
  keep.drop_detected = false;
  for (std::size_t base = 0; base < n; base += kWideLanes) {
    const std::vector<std::vector<bool>> block(
        stream.begin() + static_cast<std::ptrdiff_t>(base),
        stream.begin() + static_cast<std::ptrdiff_t>(base + kWideLanes));
    const auto g = wide.grade_vectors(faults, block, keep);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      counts[i] += g.detection_counts[i];
      if (first[i] == WideFaultSimulator::kNotDetected &&
          g.first_detection[i] != WideFaultSimulator::kNotDetected) {
        first[i] = base + g.first_detection[i];
        first_block_counts[i] = g.detection_counts[i];
      }
    }
  }
  std::uint64_t latest = 0;
  for (const std::uint64_t f : first) {
    if (f != WideFaultSimulator::kNotDetected) latest = std::max(latest, f);
  }
  ASSERT_GE(latest, 6 * kWideLanes) << "no first detection past group 0";

  for (const std::size_t jobs : {std::size_t{1}, std::size_t{3}}) {
    keep.jobs = jobs;
    const auto kept = wide.grade_random(faults, n, seed, keep);
    EXPECT_EQ(kept.detection_counts, counts) << "jobs=" << jobs;
    EXPECT_EQ(kept.first_detection, first) << "jobs=" << jobs;
    WideSimOptions drop;
    drop.jobs = jobs;
    const auto dropped = wide.grade_random(faults, n, seed, drop);
    EXPECT_EQ(dropped.first_detection, first) << "jobs=" << jobs;
    EXPECT_EQ(dropped.detection_counts, first_block_counts) << "jobs=" << jobs;
  }
}

TEST(WideSimTest, BranchFaultOnZeroFaninGateThrows) {
  // A branch fault names a fanin pin; an Input (or Const) gate has none,
  // so injection must fail loudly instead of indexing pins[0].
  Circuit c("guard");
  NetId a = c.add_input("a");
  NetId b = c.add_input("b");
  NetId o = c.add_gate(GateType::And, {a, b}, "o");
  c.mark_output(o);
  c.finalize();
  const WideFaultSimulator wide(c);
  const std::vector<StuckAtFault> bad = {{a, netlist::PinRef{a, 0}, true}};
  EXPECT_THROW(wide.grade_random(bad, 64, 1), netlist::NetlistError);
  EXPECT_THROW((void)wide.exhaustive_detectability(bad[0]),
               netlist::NetlistError);
  EXPECT_THROW((void)wide.po_values({{true, true}}, bad[0]),
               netlist::NetlistError);

  // Nor may a fault name a net past the circuit (an out-of-bounds read)
  // or a branch whose pin another net drives (which would grade that
  // other net instead).
  const auto past_end = static_cast<NetId>(c.num_nets());
  for (const StuckAtFault& f :
       {StuckAtFault{past_end, std::nullopt, true},
        StuckAtFault{past_end, netlist::PinRef{o, 0}, true},
        StuckAtFault{a, netlist::PinRef{o, 1}, false},
        StuckAtFault{a, netlist::PinRef{past_end, 0}, false}}) {
    EXPECT_THROW(wide.grade_random({f}, 64, 1), netlist::NetlistError);
    EXPECT_THROW(wide.grade_vectors({f}, {{true, true}}),
                 netlist::NetlistError);
    EXPECT_THROW((void)wide.exhaustive_test_set(f), netlist::NetlistError);
  }
  const StuckAtFault branch_b{b, netlist::PinRef{o, 1}, false};
  EXPECT_EQ(wide.grade_vectors({branch_b}, {{true, true}}).detected(), 1u);
}

/// Both polarities on every stem, and on every branch of a net that
/// feeds more than one pin: faults on every line of every FFR, not only
/// the checkpoints.
std::vector<StuckAtFault> every_line_fault(const Circuit& c) {
  std::vector<StuckAtFault> faults;
  for (NetId id = 0; id < c.num_nets(); ++id) {
    for (const bool v : {false, true}) {
      faults.push_back({id, std::nullopt, v});
      if (c.fanout_count(id) < 2) continue;
      for (const netlist::PinRef& pin : c.fanouts(id)) {
        faults.push_back({id, pin, v});
      }
    }
  }
  return faults;
}

/// Grades `faults` over all 2^n vectors and checks every count and first
/// detection against the fault's exhaustive test set, which the reference
/// computes by re-evaluating the whole faulty circuit.
void expect_exhaustive_grade(const Circuit& c,
                             const std::vector<StuckAtFault>& faults,
                             const std::string& what) {
  const WideFaultSimulator wide(c);
  std::vector<std::uint64_t> counts;
  std::vector<std::uint64_t> first;
  for (const StuckAtFault& f : faults) {
    const std::vector<bool> tests = wide.exhaustive_test_set(f);
    counts.push_back(static_cast<std::uint64_t>(
        std::count(tests.begin(), tests.end(), true)));
    const auto hit = std::find(tests.begin(), tests.end(), true);
    first.push_back(hit == tests.end()
                        ? WideFaultSimulator::kNotDetected
                        : static_cast<std::uint64_t>(hit - tests.begin()));
  }
  const auto vectors = all_vectors(c);
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    WideSimOptions opt;
    opt.jobs = jobs;
    opt.drop_detected = false;
    const auto kept = wide.grade_vectors(faults, vectors, opt);
    opt.drop_detected = true;
    const auto dropped = wide.grade_vectors(faults, vectors, opt);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const std::string where = what + " jobs=" + std::to_string(jobs) +
                                " " + fault::describe(faults[i], c);
      EXPECT_EQ(kept.detection_counts[i], counts[i]) << where;
      EXPECT_EQ(kept.first_detection[i], first[i]) << where;
      EXPECT_EQ(dropped.first_detection[i], first[i]) << where;
    }
  }
}

void expect_exhaustive_grades(const Circuit& c, const std::string& what) {
  expect_exhaustive_grade(c, fault::collapse_checkpoint_faults(c),
                          what + " collapsed");
  expect_exhaustive_grade(c, fault::checkpoint_faults(c),
                          what + " checkpoint");
  expect_exhaustive_grade(c, every_line_fault(c), what + " every line");
}

TEST(WideSimTest, ExhaustiveGradeMatchesTestSetsOnRandomCircuits) {
  // Region grading against the exhaustive reference, which shares only
  // the gate evaluator with it: every shape of random circuit, graded over
  // all 2^n vectors, must reproduce each fault's exhaustive test-set size
  // and lowest member.
  for (const netlist::CircuitShape shape : netlist::all_circuit_shapes()) {
    for (const int inputs : {5, 9, 12}) {
      const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(inputs);
      const Circuit c = netlist::make_random_circuit(seed, inputs,
                                                     4 * inputs, 3, shape);
      expect_exhaustive_grades(c, std::string(netlist::to_string(shape)) +
                                      " n=" + std::to_string(inputs));
    }
  }
}

TEST(WideSimTest, ExhaustiveGradeMatchesTestSetsOnEdgeCases) {
  {
    // The same net on two pins of one gate, for every gate kind.
    Circuit c("twin_pins");
    const NetId a = c.add_input("a");
    const NetId b = c.add_input("b");
    const NetId x = c.add_input("x");
    for (const GateType t : {GateType::And, GateType::Nand, GateType::Or,
                             GateType::Nor, GateType::Xor, GateType::Xnor}) {
      const NetId g = c.add_gate(t, {a, a, b},
                                 "g" + std::string(netlist::to_string(t)));
      c.mark_output(c.add_gate(GateType::And, {g, x}));
    }
    c.finalize();
    expect_exhaustive_grades(c, "twin pins");
  }
  {
    // A PO that also fans out, an unused PI, and constants on gates and
    // on a PO.
    Circuit c("po_fanout");
    const NetId a = c.add_input("a");
    const NetId b = c.add_input("b");
    const NetId d = c.add_input("d");
    c.add_input("unused");
    const NetId k0 = c.add_const(false, "k0");
    const NetId k1 = c.add_const(true, "k1");
    const NetId p = c.add_gate(GateType::Nand, {a, b}, "p");
    c.mark_output(p);
    const NetId q = c.add_gate(GateType::Or, {p, d, k0}, "q");
    c.mark_output(q);
    c.mark_output(c.add_gate(GateType::And, {q, k1, a}, "r"));
    c.mark_output(c.add_gate(GateType::Not, {p}, "s"));
    c.mark_output(k1);
    c.finalize();
    expect_exhaustive_grades(c, "po fanout");
  }
  {
    // A balanced XOR tree is one FFR: its root is the only PO.
    Circuit c("xor_tree");
    std::vector<NetId> level;
    for (int i = 0; i < 8; ++i) {
      level.push_back(c.add_input("x" + std::to_string(i)));
    }
    while (level.size() > 1) {
      std::vector<NetId> up;
      for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
        up.push_back(c.add_gate(i % 4 ? GateType::Xnor : GateType::Xor,
                                {level[i], level[i + 1]}));
      }
      level = up;
    }
    c.mark_output(level[0]);
    c.finalize();
    expect_exhaustive_grades(c, "xor tree");
  }
  {
    // A stem whose immediate post-dominator lies inside another region,
    // below that region's root, with the stem's own source as a side
    // input on the path between them: the stem is observed only where
    // that side input lets the post-dominator's flip through. The stem's
    // second branch reaches no PO.
    Circuit c("dom_in_region");
    const NetId i0 = c.add_input("i0");
    const NetId i1 = c.add_input("i1");
    c.add_input("i2");
    const NetId i3 = c.add_input("i3");
    const NetId n = c.add_gate(GateType::Not, {i3}, "n");
    const NetId stem = c.add_gate(GateType::Buf, {n}, "stem");
    const NetId d = c.add_gate(GateType::Buf, {stem}, "d");
    c.add_gate(GateType::Buf, {stem}, "dead");
    const NetId x = c.add_gate(GateType::Nand, {d, i3}, "x");
    const NetId y = c.add_gate(GateType::And, {x, i0}, "y");
    c.mark_output(c.add_gate(GateType::Or, {y, i1}, "po"));
    c.finalize();
    expect_exhaustive_grades(c, "post-dominator inside a region");
  }
  {
    // A stem with one branch into the observable logic and two that
    // reach no PO (one through a further dead gate).
    Circuit c("dead_branch");
    const NetId a = c.add_input("a");
    const NetId b = c.add_input("b");
    const NetId e = c.add_input("e");
    const NetId s = c.add_gate(GateType::Xor, {a, b}, "s");
    const NetId dead = c.add_gate(GateType::Or, {s, e}, "dead");
    c.add_gate(GateType::Nand, {dead, a}, "dead2");
    c.add_gate(GateType::Not, {s}, "dead3");
    c.mark_output(c.add_gate(GateType::And, {s, e}, "po"));
    c.finalize();
    expect_exhaustive_grades(c, "dead branch");
  }
  {
    // Three nested post-dominators: stem s1 reconverges at stem d1, d1 at
    // stem d2, and d2 at d3, a single-fanout net inside the PO's region.
    // Every reconvergence passes AND/OR side inputs, so each level's
    // observability depends on the one above it.
    Circuit c("nested_dominators");
    std::vector<NetId> in;
    for (int i = 0; i < 8; ++i) in.push_back(c.add_input("i" + std::to_string(i)));
    NetId stem = c.add_gate(GateType::Nand, {in[0], in[1]}, "s1");
    for (int k = 0; k < 3; ++k) {
      const std::string tag = std::to_string(k + 1);
      const NetId p = c.add_gate(GateType::And, {stem, in[2 + k]}, "p" + tag);
      const NetId q = c.add_gate(GateType::Or, {stem, in[3 + k]}, "q" + tag);
      stem = c.add_gate(k == 1 ? GateType::Xor : GateType::Nor, {p, q},
                        "d" + tag);
    }
    const NetId top = c.add_gate(GateType::And, {stem, in[6]}, "top");
    c.mark_output(c.add_gate(GateType::Nor, {top, in[7]}, "po"));
    c.finalize();
    expect_exhaustive_grades(c, "nested post-dominators");
  }
  {
    // A stem whose branches reach different POs: only the virtual sink
    // post-dominates it, so its flip is chased to the POs.
    Circuit c("sink_dominated");
    const NetId a = c.add_input("a");
    const NetId b = c.add_input("b");
    const NetId e = c.add_input("e");
    const NetId s = c.add_gate(GateType::Nor, {a, b}, "s");
    const NetId t = c.add_gate(GateType::And, {s, e}, "t");
    c.mark_output(c.add_gate(GateType::Or, {t, a}, "po1"));
    c.mark_output(c.add_gate(GateType::Xnor, {s, b}, "po2"));
    c.finalize();
    expect_exhaustive_grades(c, "sink-dominated stem");
  }
  {
    // A post-dominator that is a PO and also fans out: the stem is
    // observed wherever its flip reaches that PO, whatever lies beyond.
    Circuit c("po_dominator");
    const NetId a = c.add_input("a");
    const NetId b = c.add_input("b");
    const NetId e = c.add_input("e");
    const NetId f = c.add_input("f");
    const NetId s = c.add_gate(GateType::Xor, {a, b}, "s");
    const NetId p = c.add_gate(GateType::And, {s, e}, "p");
    const NetId q = c.add_gate(GateType::Or, {s, f}, "q");
    const NetId d = c.add_gate(GateType::Nand, {p, q}, "d");
    c.mark_output(d);
    c.mark_output(c.add_gate(GateType::And, {d, a}, "po2"));
    c.mark_output(c.add_gate(GateType::Or, {d, f}, "po3"));
    c.finalize();
    expect_exhaustive_grades(c, "PO post-dominator with fanout");
  }
  {
    // The 40k buffer chain: one region 40k nets deep, traced from its
    // far end by a fault on the branch that enters it and by stem faults
    // halfway along and at the root. (Each exhaustive test set
    // resimulates all 40k gates per block, so the sample stays small.)
    std::vector<StuckAtFault> faults;
    const Circuit c = make_and_chain_circuit(faults);
    const NetId stem = c.inputs()[0];
    const NetId root = static_cast<NetId>(c.num_nets() - 1);
    for (const bool v : {false, true}) {
      faults.push_back({stem, c.fanouts(stem).back(), v});
      faults.push_back({root / 2, std::nullopt, v});
      faults.push_back({root, std::nullopt, v});
    }
    expect_exhaustive_grade(c, faults, "buffer chain");
  }
}

}  // namespace
}  // namespace dp::sim
