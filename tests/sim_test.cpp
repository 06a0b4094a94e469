// Simulator tests: lane packing, stuck-at and bridging injection semantics,
// exhaustive sweeps, vector grading, ragged-block lane masking.
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
#include "sim/fault_sim.hpp"
#include "sim/wide_sim.hpp"

namespace dp::sim {
namespace {

using fault::BridgingFault;
using fault::StuckAtFault;
using netlist::Circuit;
using netlist::GateType;
using netlist::NetId;

/// Whether vector `v` detects `f`, by FaultSimulator's one-block
/// injection: an engine independent of WideFaultSimulator's grading.
bool detects(const FaultSimulator& fs, const StuckAtFault& f,
             const std::vector<bool>& v) {
  const Circuit& c = fs.circuit();
  std::vector<Word> good(c.num_nets(), 0), bad(c.num_nets(), 0);
  for (std::size_t i = 0; i < v.size(); ++i) {
    good[c.inputs()[i]] = bad[c.inputs()[i]] = v[i] ? ~Word{0} : 0;
  }
  fs.good_values(good);
  fs.faulty_values(bad, f);
  return fs.detect_lanes(good, bad) & 1;
}

TEST(PatternSimTest, ExhaustiveInputWordsEnumerateAllVectors) {
  // Block 0, 6 PIs: lane L must encode vector number L.
  for (std::size_t pi = 0; pi < 6; ++pi) {
    const Word w = PatternSimulator::exhaustive_input_word(pi, 0);
    for (std::uint64_t lane = 0; lane < 64; ++lane) {
      EXPECT_EQ((w >> lane) & 1, (lane >> pi) & 1);
    }
  }
  // PI >= 6 is constant per block, driven by the block number.
  EXPECT_EQ(PatternSimulator::exhaustive_input_word(6, 0), 0u);
  EXPECT_EQ(PatternSimulator::exhaustive_input_word(6, 1), ~Word{0});
  EXPECT_EQ(PatternSimulator::exhaustive_input_word(7, 2), ~Word{0});
  EXPECT_EQ(PatternSimulator::exhaustive_input_word(7, 1), 0u);
}

TEST(PatternSimTest, BlockMaskCoversSmallCircuits) {
  EXPECT_EQ(PatternSimulator::block_mask(0, 3), 0xffu);
  EXPECT_EQ(PatternSimulator::block_mask(0, 6), ~Word{0});
  EXPECT_EQ(PatternSimulator::block_mask(5, 20), ~Word{0});
}

TEST(PatternSimTest, GateEvaluationMatchesTruthTables) {
  Circuit c("gates");
  NetId a = c.add_input("a");
  NetId b = c.add_input("b");
  std::vector<std::pair<GateType, Word>> expect = {
      {GateType::And, 0x8}, {GateType::Nand, 0x7}, {GateType::Or, 0xe},
      {GateType::Nor, 0x1}, {GateType::Xor, 0x6},  {GateType::Xnor, 0x9}};
  std::vector<NetId> outs;
  for (auto& [t, tt] : expect) {
    outs.push_back(c.add_gate(t, {a, b}, std::string(netlist::to_string(t))));
    c.mark_output(outs.back());
  }
  c.finalize();
  PatternSimulator ps(c);
  std::vector<Word> values(c.num_nets());
  values[a] = PatternSimulator::exhaustive_input_word(0, 0);
  values[b] = PatternSimulator::exhaustive_input_word(1, 0);
  ps.eval(values);
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(values[outs[i]] & 0xf, expect[i].second)
        << netlist::to_string(expect[i].first);
  }
}

TEST(FaultSimTest, StemStuckAtForcesNet) {
  Circuit c = netlist::make_c17();
  FaultSimulator fs(c);
  const NetId n16 = *c.find_net("16");
  StuckAtFault f{n16, std::nullopt, true};
  std::vector<Word> values(c.num_nets());
  for (std::size_t i = 0; i < c.num_inputs(); ++i) {
    values[c.inputs()[i]] = PatternSimulator::exhaustive_input_word(i, 0);
  }
  fs.faulty_values(values, f);
  EXPECT_EQ(values[n16], ~Word{0});
}

TEST(FaultSimTest, BranchStuckAtLeavesStemClean) {
  Circuit c = netlist::make_c17();
  FaultSimulator fs(c);
  const NetId n11 = *c.find_net("11");
  const NetId n16 = *c.find_net("16");
  // Branch 11->16 stuck at 1: net 11 keeps its good value, gate 16 sees 1.
  StuckAtFault f{n11, netlist::PinRef{n16, 1}, true};
  std::vector<Word> good(c.num_nets()), bad(c.num_nets());
  for (std::size_t i = 0; i < c.num_inputs(); ++i) {
    good[c.inputs()[i]] = bad[c.inputs()[i]] =
        PatternSimulator::exhaustive_input_word(i, 0);
  }
  fs.good_values(good);
  fs.faulty_values(bad, f);
  EXPECT_EQ(bad[n11], good[n11]);  // stem unaffected
  // Gate 19 also reads net 11 and must be unaffected.
  EXPECT_EQ(bad[*c.find_net("19")], good[*c.find_net("19")]);
  // Gate 16 = NAND(2, forced 1) == NOT(2).
  const Word i2 = good[*c.find_net("2")];
  EXPECT_EQ(bad[n16], ~i2);
}

TEST(FaultSimTest, AndBridgeWiresBothNets) {
  Circuit c = netlist::make_c17();
  FaultSimulator fs(c);
  const NetId n10 = *c.find_net("10");
  const NetId n19 = *c.find_net("19");
  BridgingFault f{std::min(n10, n19), std::max(n10, n19),
                  fault::BridgeType::And};
  std::vector<Word> good(c.num_nets()), bad(c.num_nets());
  for (std::size_t i = 0; i < c.num_inputs(); ++i) {
    good[c.inputs()[i]] = bad[c.inputs()[i]] =
        PatternSimulator::exhaustive_input_word(i, 0);
  }
  fs.good_values(good);
  fs.faulty_values(bad, f);
  EXPECT_EQ(bad[n10], good[n10] & good[n19]);
  EXPECT_EQ(bad[n19], good[n10] & good[n19]);
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
  FaultSimulator fs(c);
  BridgingFault f{a, b, fault::BridgeType::Or};
  std::vector<Word> values(c.num_nets());
  values[a] = 0b0011;  // lanes: a = 1 on lanes 0,1
  values[b] = 0b0101;
  fs.faulty_values(values, f);
  const Word wired = 0b0111;
  EXPECT_EQ(values[g] & 0xf, static_cast<Word>(~wired) & 0xf);
  EXPECT_EQ(values[h] & 0xf, static_cast<Word>(~wired) & 0xf);
}

TEST(FaultSimTest, ExhaustiveDetectabilityKnownValues) {
  // Full adder, sum output chain: sa0 on PI "a" (stem).
  // a is XORed into sum: every vector flips sum when a = 1 -> all 4
  // vectors with a = 1 detect via sum. Detectability = 1/2.
  Circuit c = netlist::make_full_adder();
  FaultSimulator fs(c);
  StuckAtFault f{c.inputs()[0], std::nullopt, false};
  EXPECT_DOUBLE_EQ(fs.exhaustive_detectability(f), 0.5);
  // sa1 on "a": detected whenever a = 0 -> also 1/2.
  StuckAtFault f1{c.inputs()[0], std::nullopt, true};
  EXPECT_DOUBLE_EQ(fs.exhaustive_detectability(f1), 0.5);
}

TEST(FaultSimTest, ExhaustiveSyndromeKnownValues) {
  Circuit c = netlist::make_full_adder();
  FaultSimulator fs(c);
  // sum = a ^ b ^ cin has syndrome 1/2; cout = majority has 1/2.
  EXPECT_DOUBLE_EQ(fs.exhaustive_syndrome(*c.find_net("sum")), 0.5);
  EXPECT_DOUBLE_EQ(fs.exhaustive_syndrome(*c.find_net("cout")), 0.5);
  // ab = a & b has syndrome 1/4.
  EXPECT_DOUBLE_EQ(fs.exhaustive_syndrome(*c.find_net("ab")), 0.25);
}

TEST(FaultSimTest, ExhaustiveTestSetMatchesDetectability) {
  Circuit c = netlist::make_c17();
  FaultSimulator fs(c);
  for (const auto& f : fault::checkpoint_faults(c)) {
    const auto tests = fs.exhaustive_test_set(f);
    std::size_t count = 0;
    for (bool t : tests) count += t;
    EXPECT_DOUBLE_EQ(static_cast<double>(count) / 32.0,
                     fs.exhaustive_detectability(f))
        << describe(f, c);
  }
}

TEST(FaultSimTest, InputLimitEnforced) {
  Circuit c = netlist::make_c499_analog();  // 41 PIs
  FaultSimulator fs(c);
  StuckAtFault f{c.inputs()[0], std::nullopt, false};
  EXPECT_THROW((void)fs.exhaustive_detectability(f), std::invalid_argument);
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
  std::vector<std::vector<bool>> all;
  for (std::uint64_t v = 0; v < 32; ++v) {
    std::vector<bool> in(5);
    for (int i = 0; i < 5; ++i) in[i] = (v >> i) & 1;
    all.push_back(in);
  }
  const auto cov = wide.grade_vectors(faults, all);
  EXPECT_EQ(cov.detected(), cov.total);
  // Width mismatch rejected.
  EXPECT_THROW(wide.grade_vectors(faults, {std::vector<bool>(3, false)}),
               std::invalid_argument);
}

// ---- ragged-block lane masking ------------------------------------------
// Pattern counts that are not a multiple of 64 leave a partial word whose
// upper lanes hold garbage (replicated vectors in the exhaustive sweeps,
// zero-filled inputs in the graders). These tests pin the masking contract.

TEST(FaultSimRaggedTest, BlockMaskPopcountsSumToVectorCount) {
  for (std::size_t n = 1; n <= 8; ++n) {
    const std::uint64_t blocks = n > 6 ? (1ull << (n - 6)) : 1;
    std::uint64_t lanes = 0;
    for (std::uint64_t b = 0; b < blocks; ++b) {
      lanes += static_cast<std::uint64_t>(
          std::popcount(PatternSimulator::block_mask(b, n)));
    }
    EXPECT_EQ(lanes, 1ull << n) << "n = " << n;
  }
}

TEST(FaultSimRaggedTest, DetectLanesIsUnmaskedByContract) {
  // detect_lanes reports the raw XOR of the PO words; the *callers* apply
  // block_mask (or the graders' tail masks). Garbage lanes must show
  // through here, otherwise the masked sweeps would be double-masking.
  Circuit c("buf");
  NetId a = c.add_input("a");
  NetId o = c.add_gate(GateType::Buf, {a}, "o");
  c.mark_output(o);
  c.finalize();
  FaultSimulator fs(c);
  std::vector<Word> good(c.num_nets(), 0), faulty(c.num_nets(), 0);
  good[o] = 0xf0f0f0f0f0f0f0f0ull;
  faulty[o] = 0x00f0f0f0f0f0f0f0ull;
  EXPECT_EQ(fs.detect_lanes(good, faulty), 0xf000000000000000ull);
}

TEST(FaultSimRaggedTest, PartialBlockSweepsIgnoreGarbageLanes) {
  // 3 inputs: only 8 of the 64 lanes are valid, and lanes 8..63 replicate
  // vectors 0..7 under the striped input words. An unmasked sweep would
  // count each detection 8x (detectability 1.0 instead of 1/8).
  Circuit c("and3");
  NetId a = c.add_input("a");
  NetId b = c.add_input("b");
  NetId d = c.add_input("d");
  NetId o = c.add_gate(GateType::And, {a, b, d}, "o");
  c.mark_output(o);
  c.finalize();
  FaultSimulator fs(c);
  StuckAtFault f{o, std::nullopt, false};  // sa0: detected only by 111
  EXPECT_DOUBLE_EQ(fs.exhaustive_detectability(f), 1.0 / 8.0);
  EXPECT_DOUBLE_EQ(fs.exhaustive_syndrome(o), 1.0 / 8.0);
  const auto tests = fs.exhaustive_test_set(f);
  ASSERT_EQ(tests.size(), 8u);  // 2^n entries, not 64
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
  // must equal a naive serial recount (one FaultSimulator injection per
  // pattern per fault) at counts straddling every lane-masking boundary.
  // The n-detect analytics layer leans on exactly this equality when it
  // cross-checks BDD satcounts against simulator recounts.
  const Circuit c = netlist::make_c17();
  const WideFaultSimulator wide(c);
  FaultSimulator fs(c);
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
      std::uint64_t count = 0;
      std::uint64_t first = WideFaultSimulator::kNotDetected;
      for (std::size_t p = 0; p < n; ++p) {
        if (detects(fs, faults[i], stream[p])) {
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
  FaultSimulator fs(c);
  const auto faults = fault::checkpoint_faults(c);
  const std::size_t n = 40;
  const std::uint64_t seed = 99;
  const auto stream = wide.random_patterns(n, seed);
  const auto grade = wide.grade_random(faults, n, seed);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    std::uint64_t expected = WideFaultSimulator::kNotDetected;
    for (std::size_t p = 0; p < n; ++p) {
      if (detects(fs, faults[i], stream[p])) {
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
  FaultSimulator fs(c);
  std::vector<Word> values(c.num_nets());
  EXPECT_THROW(fs.faulty_values(values, bad[0]), netlist::NetlistError);

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
  }
  const StuckAtFault branch_b{b, netlist::PinRef{o, 1}, false};
  EXPECT_EQ(wide.grade_vectors({branch_b}, {{true, true}}).detected(), 1u);
}

/// Every input vector of `c`; vector v gives PI i the bit (v >> i) & 1,
/// the index order of FaultSimulator::exhaustive_test_set.
std::vector<std::vector<bool>> all_vectors(const Circuit& c) {
  const std::size_t n = c.num_inputs();
  std::vector<std::vector<bool>> vectors(std::size_t{1} << n,
                                         std::vector<bool>(n));
  for (std::size_t v = 0; v < vectors.size(); ++v) {
    for (std::size_t i = 0; i < n; ++i) vectors[v][i] = (v >> i) & 1;
  }
  return vectors;
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
/// detection against the fault's exhaustive test set, which the 64-lane
/// engine computes by resimulating the whole faulty circuit.
void expect_exhaustive_grade(const Circuit& c,
                             const std::vector<StuckAtFault>& faults,
                             const std::string& what) {
  const WideFaultSimulator wide(c);
  const FaultSimulator fs(c);
  std::vector<std::uint64_t> counts;
  std::vector<std::uint64_t> first;
  for (const StuckAtFault& f : faults) {
    const std::vector<bool> tests = fs.exhaustive_test_set(f);
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
  // Region grading against an engine that shares none of its math: every
  // shape of random circuit, graded over all 2^n vectors, must reproduce
  // each fault's exhaustive test-set size and lowest member.
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

TEST(FaultSimTest, BridgeOrderIsDeterministicAndReusable) {
  // The 2^n bridge sweeps now compute the affected topological order once
  // per fault and reuse it across blocks; repeated queries must agree
  // with each other, and grading through the cached order must match the
  // per-call recompute path (the 3-arg faulty_values overload).
  const Circuit c = netlist::make_c17();
  const netlist::Structure structure(c);
  FaultSimulator fs(c);
  PatternSimulator ps(c);
  std::vector<Word> base(c.num_nets());
  for (std::size_t i = 0; i < c.inputs().size(); ++i) {
    base[c.inputs()[i]] = PatternSimulator::exhaustive_input_word(i, 0);
  }
  ps.eval(base);
  auto bridges = fault::enumerate_nfbfs(c, structure, fault::BridgeType::And);
  ASSERT_FALSE(bridges.empty());
  bridges.resize(std::min<std::size_t>(4, bridges.size()));
  for (const BridgingFault& f : bridges) {
    const auto order1 = fs.bridge_order(f);
    const auto order2 = fs.bridge_order(f);
    EXPECT_EQ(order1, order2);
    std::vector<Word> via_cached = base;
    fs.faulty_values(via_cached, f, order1);
    std::vector<Word> via_fresh = base;
    fs.faulty_values(via_fresh, f);
    EXPECT_EQ(via_cached, via_fresh);
  }
}

TEST(PatternSimTest, EvalGateWithOverridesGuardsAndOverrides) {
  // The override evaluator is the single branch-injection path; it must
  // reject gates with no fanin pins and honour the override on the
  // addressed pin only.
  Circuit c("ov");
  NetId a = c.add_input("a");
  NetId b = c.add_input("b");
  NetId o = c.add_gate(GateType::And, {a, b}, "o");
  c.mark_output(o);
  c.finalize();
  PatternSimulator ps(c);
  std::vector<Word> values(c.num_nets());
  values[a] = ~Word{0};
  values[b] = 0;
  const PatternSimulator::PinOverride force_b1{1, ~Word{0}};
  EXPECT_EQ(ps.eval_gate_with_overrides(o, values, &force_b1, 1), ~Word{0});
  const PatternSimulator::PinOverride force_a0{0, Word{0}};
  EXPECT_EQ(ps.eval_gate_with_overrides(o, values, &force_a0, 1), Word{0});
  EXPECT_THROW(ps.eval_gate_with_overrides(a, values, &force_b1, 1),
               netlist::NetlistError);
}

}  // namespace
}  // namespace dp::sim
