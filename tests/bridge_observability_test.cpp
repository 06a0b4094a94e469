// Bridging faults through stem observability: DifferencePropagator
// analyzes a non-feedback bridge as the OR of two one-wire flips, each
// pushed along its fanout-free region to the root and observed through
// the root's (post-dominator-composed) observability. Every shape where
// that composition could go wrong is checked against exhaustive fault
// simulation and, field by field and BDD handle by handle, against
// symbolic fault simulation in the same manager.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/profile_io.hpp"
#include "analysis/profiles.hpp"
#include "dp/engine.hpp"
#include "dp/observabilities.hpp"
#include "dp/parallel_engine.hpp"
#include "dp/symbolic_sim.hpp"
#include "netlist/generators.hpp"
#include "netlist/layout.hpp"
#include "netlist/regions.hpp"
#include "sim/wide_sim.hpp"

namespace dp::core {
namespace {

using fault::BridgeType;
using fault::BridgingFault;
using netlist::Circuit;
using netlist::GateType;
using netlist::NetId;
using netlist::Regions;
using netlist::Structure;

/// DP over an observability layer for every region root, and symbolic
/// simulation in the same manager.
struct Rig {
  explicit Rig(Circuit&& c)
      : circuit(std::move(c)),
        structure(circuit),
        layer(SharedGoodFunctions(circuit), structure, every_net(circuit)),
        stack(layer, structure),
        good(stack.good),
        dp(stack.propagator),
        symbolic(good, structure),
        fs(circuit) {}

  NetId net(const std::string& name) const {
    return *circuit.find_net(name);
  }

  /// Both bridge types between `a` and `b` against both oracles; returns
  /// the AND analysis.
  FaultAnalysis check(const std::string& a, const std::string& b) {
    FaultAnalysis first;
    for (const BridgeType type : {BridgeType::And, BridgeType::Or}) {
      const BridgingFault f{net(a), net(b), type};
      const std::string what = circuit.name() + " " + describe(f, circuit);
      const FaultAnalysis d = dp.analyze(f);
      const FaultAnalysis s = symbolic.analyze(f);

      EXPECT_EQ(d.test_set, s.test_set) << what;
      EXPECT_TRUE(d.po_differences.empty()) << what;
      const std::vector<bdd::Bdd> d_po = dp.po_differences(f);
      EXPECT_EQ(d_po.size(), s.po_differences.size()) << what;
      EXPECT_EQ(d_po.size(), d.po_observable.size()) << what;
      for (std::size_t p = 0;
           p < std::min(d_po.size(), s.po_differences.size()); ++p) {
        EXPECT_EQ(d_po[p].valid(), s.po_differences[p].valid())
            << what << " PO " << p;
        EXPECT_EQ(d_po[p].valid(), bool(d.po_observable[p]))
            << what << " PO " << p;
        if (d_po[p].valid() && s.po_differences[p].valid()) {
          EXPECT_EQ(d_po[p], s.po_differences[p]) << what << " PO " << p;
        }
      }
      EXPECT_EQ(d.po_observable, s.po_observable) << what;
      EXPECT_EQ(d.pos_observable, s.pos_observable) << what;
      EXPECT_EQ(d.pos_fed, s.pos_fed) << what;
      EXPECT_EQ(d.detectable, s.detectable) << what;
      EXPECT_EQ(d.detectability, s.detectability) << what;
      EXPECT_EQ(d.upper_bound, s.upper_bound) << what;
      EXPECT_EQ(d.adherence, s.adherence) << what;
      EXPECT_EQ(d.bridge_stuck_at, s.bridge_stuck_at) << what;

      EXPECT_EQ(d.detectability, fs.exhaustive_detectability(f)) << what;
      const std::vector<bool> bitmap = fs.exhaustive_test_set(f);
      const std::size_t n = circuit.num_inputs();
      for (std::uint64_t v = 0; v < bitmap.size(); ++v) {
        std::vector<bool> point(n);
        for (std::size_t i = 0; i < n; ++i) point[i] = (v >> i) & 1;
        EXPECT_EQ(d.test_set.eval(point), bitmap[v]) << what << " at " << v;
      }
      if (type == BridgeType::And) first = d;
    }
    return first;
  }

  Circuit circuit;
  Structure structure;
  SharedGoodFunctions layer;  ///< layered over every region root
  AdoptedPropagator stack;
  const GoodFunctions& good;
  const DifferencePropagator& dp;
  SymbolicFaultSimulator symbolic;
  sim::WideFaultSimulator fs;
};

TEST(BridgeObservabilityTest, WireThatIsAPoWithFanout) {
  // d is a PO and feeds two more POs: its region is itself, and its flip
  // is observed at d and wherever it passes beyond.
  Circuit c("po_fanout");
  const NetId a = c.add_input("a");
  const NetId b = c.add_input("b");
  const NetId e = c.add_input("e");
  const NetId f = c.add_input("f");
  const NetId g = c.add_input("g");
  const NetId h = c.add_input("h");
  const NetId s = c.add_gate(GateType::Xor, {a, b}, "s");
  const NetId p = c.add_gate(GateType::And, {s, e}, "p");
  const NetId q = c.add_gate(GateType::Or, {s, f}, "q");
  const NetId d = c.add_gate(GateType::Nand, {p, q}, "d");
  c.mark_output(d);
  c.mark_output(c.add_gate(GateType::And, {d, a}, "po2"));
  c.mark_output(c.add_gate(GateType::Or, {d, f}, "po3"));
  const NetId w = c.add_gate(GateType::Nor, {g, h}, "w");
  c.mark_output(c.add_gate(GateType::Xor, {w, a}, "po4"));
  c.finalize();
  Rig rig(std::move(c));
  ASSERT_TRUE(rig.structure.regions().is_root(rig.net("d")));
  EXPECT_TRUE(rig.check("d", "w").detectable);
  rig.check("s", "w");
}

TEST(BridgeObservabilityTest, BothWiresInOneRegionAndSideInputs) {
  // x -> y -> r and v -> t -> r: one region rooted at r. Besides the two
  // members of separate branches, t is a side input on x's path (at r)
  // and y one on v's path.
  Circuit c("one_region");
  std::vector<NetId> in;
  for (int i = 0; i < 6; ++i) in.push_back(c.add_input("i" + std::to_string(i)));
  const NetId x = c.add_gate(GateType::And, {in[0], in[1]}, "x");
  const NetId y = c.add_gate(GateType::Or, {x, in[2]}, "y");
  const NetId v = c.add_gate(GateType::Nand, {in[3], in[4]}, "v");
  const NetId t = c.add_gate(GateType::Xor, {v, in[5]}, "t");
  const NetId r = c.add_gate(GateType::And, {y, t}, "r");
  c.mark_output(r);
  c.mark_output(c.add_gate(GateType::Or, {r, in[0]}, "po2"));
  c.finalize();
  Rig rig(std::move(c));
  const Regions& regions = rig.structure.regions();
  for (const char* name : {"x", "y", "v", "t"}) {
    EXPECT_EQ(regions.root_of(rig.net(name)), rig.net("r")) << name;
  }
  EXPECT_TRUE(rig.check("x", "v").detectable);
  rig.check("x", "t");  // t: side input at r on x's path
  rig.check("y", "v");  // y: side input at r on v's path
  rig.check("y", "t");
}

TEST(BridgeObservabilityTest, ThreeNestedPostDominators) {
  // s1 reconverges at d1, d1 at d2, and d2 at d3, a single-fanout net in
  // the PO's region: s1's observability is composed through all three.
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
  Rig rig(std::move(c));
  const Regions& regions = rig.structure.regions();
  EXPECT_EQ(regions.ipdom(rig.net("s1")), rig.net("d1"));
  EXPECT_EQ(regions.ipdom(rig.net("d1")), rig.net("d2"));
  EXPECT_EQ(regions.ipdom(rig.net("d2")), rig.net("d3"));
  EXPECT_FALSE(regions.is_root(rig.net("d3")));

  EXPECT_TRUE(rig.check("s1", "i7").detectable);
  rig.check("d1", "i7");
  rig.check("s1", "i6");
  // A layer over those wires chases s1, d1 and d2 each only to its
  // post-dominator and the PO's region root to the sink: four roots, the
  // closure of s1's region alone.
  const SharedGoodFunctions good(rig.circuit);
  const SharedGoodFunctions layer(
      good, rig.structure,
      {rig.net("s1"), rig.net("i7"), rig.net("d1"), rig.net("i6")});
  EXPECT_EQ(layer.observe_stats().roots_chased, 4u);
  const SharedGoodFunctions s1_only(good, rig.structure, {rig.net("s1")});
  EXPECT_EQ(s1_only.observe_stats().roots_chased, 4u);
  AdoptedPropagator narrow(s1_only, rig.structure);
  EXPECT_EQ(narrow.propagator
                .analyze(BridgingFault{rig.net("s1"), rig.net("i7"),
                                       BridgeType::And})
                .test_set.sat_count(8),
            rig.check("s1", "i7").test_set.sat_count(8));
  // A wire outside a layer's closure is refused, not chased.
  const SharedGoodFunctions none(good, rig.structure, {});
  EXPECT_EQ(none.observe_stats().roots_chased, 0u);
  AdoptedPropagator blind(none, rig.structure);
  EXPECT_THROW((void)blind.propagator.analyze(BridgingFault{
                   rig.net("s1"), rig.net("i7"), BridgeType::And}),
               std::logic_error);
}

TEST(BridgeObservabilityTest, WireThatReachesNoPo) {
  Circuit c("dead_wire");
  const NetId a = c.add_input("a");
  const NetId b = c.add_input("b");
  const NetId e = c.add_input("e");
  const NetId f = c.add_input("f");
  const NetId s = c.add_gate(GateType::Xor, {a, b}, "s");
  const NetId dead = c.add_gate(GateType::Or, {s, e}, "dead");
  c.add_gate(GateType::Nand, {dead, a}, "dead2");
  c.add_gate(GateType::Not, {s}, "dead3");
  c.mark_output(c.add_gate(GateType::And, {s, e}, "po"));
  c.mark_output(c.add_gate(GateType::Or, {f, b}, "po2"));
  c.finalize();
  Rig rig(std::move(c));
  EXPECT_EQ(rig.structure.regions().ipdom(rig.net("dead2")),
            Regions::kUnobservable);
  EXPECT_TRUE(rig.check("dead2", "f").detectable);  // through f alone
  const FaultAnalysis both_dead = rig.check("dead2", "dead3");
  EXPECT_FALSE(both_dead.detectable);
  EXPECT_EQ(both_dead.pos_fed, 0u);
}

TEST(BridgeObservabilityTest, RegionPathThatKillsTheDifference) {
  // a's path: y = AND(a, c), then z = OR(y, c): a flip of a passes y only
  // when c = 1 and z only when c = 0, so it dies at z and the step into
  // w is skipped. b reaches its root po2 in one step.
  Circuit c("killed_path");
  const NetId a = c.add_input("a");
  const NetId b = c.add_input("b");
  const NetId cc = c.add_input("c");
  const NetId e = c.add_input("e");
  const NetId y = c.add_gate(GateType::And, {a, cc}, "y");
  const NetId z = c.add_gate(GateType::Or, {y, cc}, "z");
  c.mark_output(c.add_gate(GateType::And, {z, e}, "w"));
  c.mark_output(c.add_gate(GateType::Xor, {b, e}, "po2"));
  c.finalize();
  Rig rig(std::move(c));
  const FaultAnalysis an = rig.check("a", "b");
  EXPECT_TRUE(an.detectable);  // through b only
  EXPECT_EQ(an.stats.gates_evaluated, 3u);  // y, z and po2
  EXPECT_EQ(an.stats.gates_skipped, 1u);    // w

  // Without selective trace every region step is evaluated.
  DifferencePropagator full(rig.good, rig.structure,
                            {/*selective_trace=*/false});
  const FaultAnalysis all =
      full.analyze(BridgingFault{rig.net("a"), rig.net("b"), BridgeType::And});
  EXPECT_EQ(all.stats.gates_evaluated, 4u);
  EXPECT_EQ(all.stats.gates_skipped, 0u);
  EXPECT_EQ(all.test_set, an.test_set);
}

TEST(BridgeObservabilityTest, ConstantWiredValueIsStuckAtLike) {
  Circuit c("constant_wired");
  const NetId a = c.add_input("a");
  const NetId b = c.add_input("b");
  const NetId na = c.add_gate(GateType::Not, {a}, "na");
  const NetId ab = c.add_gate(GateType::Buf, {a}, "ab");
  c.mark_output(c.add_gate(GateType::And, {na, b}, "g"));
  c.mark_output(c.add_gate(GateType::Or, {ab, b}, "h"));
  c.finalize();
  Rig rig(std::move(c));
  // AND of a and !a is constant 0, OR constant 1: check() compares both.
  EXPECT_TRUE(rig.check("ab", "na").bridge_stuck_at);
  const FaultAnalysis or_bridge = rig.dp.analyze(
      BridgingFault{rig.net("ab"), rig.net("na"), BridgeType::Or});
  EXPECT_TRUE(or_bridge.bridge_stuck_at);
}

TEST(BridgeObservabilityTest, FeedbackBridgesAndSelfBridgesThrow) {
  Circuit c("feedback");
  const NetId a = c.add_input("a");
  const NetId b = c.add_input("b");
  const NetId na = c.add_gate(GateType::Not, {a}, "na");
  c.mark_output(c.add_gate(GateType::And, {na, b}, "g"));
  c.finalize();
  Rig rig(std::move(c));
  for (const BridgeType type : {BridgeType::And, BridgeType::Or}) {
    EXPECT_THROW(
        (void)rig.dp.analyze(BridgingFault{rig.net("a"), rig.net("na"), type}),
        netlist::NetlistError);
    EXPECT_THROW(
        (void)rig.dp.analyze(BridgingFault{rig.net("g"), rig.net("na"), type}),
        netlist::NetlistError);
    EXPECT_THROW(
        (void)rig.dp.analyze(BridgingFault{rig.net("b"), rig.net("b"), type}),
        netlist::NetlistError);
    EXPECT_THROW((void)rig.dp.po_differences(
                     BridgingFault{rig.net("a"), rig.net("na"), type}),
                 netlist::NetlistError);
  }
}

/// The distinct region roots a layer over `wires` needs: each wire's
/// region and every region down its post-dominator chain, less the
/// unobservable ones (they are zero and chase nothing).
std::size_t distinct_roots(const Structure& structure,
                           const std::vector<NetId>& wires) {
  const Regions& regions = structure.regions();
  std::vector<bool> seen(regions.num_regions(), false);
  std::size_t roots = 0;
  for (const NetId w : wires) {
    for (std::uint32_t r = regions.region_of(w); !seen[r];) {
      seen[r] = true;
      const NetId d = regions.ipdom(regions.root(r));
      if (d == Regions::kUnobservable) break;
      ++roots;
      if (d == Regions::kSink) break;
      r = regions.region_of(d);
    }
  }
  return roots;
}

std::size_t count_spans(const obs::SpanCollector& spans,
                        const std::string& name) {
  std::size_t n = 0;
  for (const obs::SpanRecord& span : spans.snapshot().spans) {
    n += span.name == name ? 1 : 0;
  }
  return n;
}

TEST(BridgeObservabilityTest, ObserveSpansMatchDistinctRootsAtAnyJobs) {
  const Circuit circuit = netlist::make_c95_analog();
  const Structure structure(circuit);
  const std::vector<BridgingFault> faults =
      fault::enumerate_nfbfs(circuit, structure, BridgeType::Or);
  const std::vector<NetId> wires = bridge_wires(faults);
  const std::size_t roots = distinct_roots(structure, wires);
  ASSERT_GT(roots, 0u);
  const SharedGoodFunctions good(circuit);

  std::size_t frozen_at_one_job = 0;
  for (const std::size_t jobs : {1u, 2u, 4u}) {
    obs::SpanCollector spans;
    obs::SpanCollector::install(&spans);
    const auto layer = std::make_shared<const SharedGoodFunctions>(
        good, structure, wires, jobs);
    // Every chase happens in the build, once per distinct root ...
    EXPECT_EQ(count_spans(spans, "dp.observe"), roots) << "jobs " << jobs;
    ParallelEngine::Options opt;
    opt.jobs = jobs;
    opt.shared_good = layer;
    ParallelEngine engine(circuit, structure, opt);
    (void)engine.analyze_all(faults);
    obs::SpanCollector::install(nullptr);

    // ... and the sweep chases nothing.
    EXPECT_EQ(count_spans(spans, "dp.observe"), roots) << "jobs " << jobs;
    EXPECT_EQ(count_spans(spans, "dp.fault"), faults.size());
    for (const obs::SpanRecord& span : spans.snapshot().spans) {
      if (span.name != "dp.observe") continue;
      std::vector<std::string> keys;
      for (const obs::SpanAttr& a : span.attrs) keys.push_back(a.key);
      EXPECT_EQ(keys, (std::vector<std::string>{"root", "stop",
                                                "gates_evaluated"}));
    }
    EXPECT_EQ(layer->observe_stats().roots_chased, roots) << "jobs " << jobs;
    // The packed layer is the same forest at any worker count.
    if (jobs == 1) frozen_at_one_job = layer->observe_stats().frozen_nodes;
    EXPECT_EQ(layer->observe_stats().frozen_nodes, frozen_at_one_job);

    obs::MetricsRegistry registry;
    layer->observe_stats().export_metrics(registry);
    EXPECT_EQ(registry.counter("dp.observe.roots").value(), roots);
    EXPECT_EQ(registry.gauge("dp.observe.frozen_nodes").value(),
              static_cast<double>(frozen_at_one_job));
    EXPECT_EQ(registry.timer("dp.observe").snapshot().count, 1u);
  }
}

TEST(BridgeObservabilityTest, OneLayerServesAnAndSweepThenAnOrSweep) {
  const Circuit circuit = netlist::make_benchmark("alu181");
  const Structure structure(circuit);
  const netlist::LayoutEstimate layout(circuit, structure);
  analysis::AnalysisOptions own;
  own.sampling.target_count = 200;
  std::vector<NetId> wires;
  for (const BridgeType type : {BridgeType::And, BridgeType::Or}) {
    const std::vector<NetId> w = bridge_wires(
        fault::nfbf_fault_set(circuit, structure, layout, type,
                              own.sampling));
    wires.insert(wires.end(), w.begin(), w.end());
  }

  analysis::AnalysisOptions shared = own;
  obs::SpanCollector spans;
  obs::SpanCollector::install(&spans);
  shared.shared_good = std::make_shared<const SharedGoodFunctions>(
      SharedGoodFunctions(circuit), structure, wires);
  const analysis::CircuitProfile and_shared =
      analysis::analyze_bridging(circuit, BridgeType::And, shared);
  const analysis::CircuitProfile or_shared =
      analysis::analyze_bridging(circuit, BridgeType::Or, shared);
  obs::SpanCollector::install(nullptr);
  EXPECT_EQ(count_spans(spans, "dp.observabilities"), 1u);
  EXPECT_EQ(count_spans(spans, "dp.observe"), distinct_roots(structure, wires));
  // An adopted layer is reported by its builder, not by the sweeps.
  EXPECT_EQ(and_shared.engine_stats.observe.roots_chased, 0u);
  EXPECT_EQ(or_shared.engine_stats.observe.roots_chased, 0u);

  // Sweeps that build their own layers give the same records.
  const analysis::CircuitProfile and_own =
      analysis::analyze_bridging(circuit, BridgeType::And, own);
  const analysis::CircuitProfile or_own =
      analysis::analyze_bridging(circuit, BridgeType::Or, own);
  EXPECT_GT(and_own.engine_stats.observe.roots_chased, 0u);
  EXPECT_EQ(analysis::profile_to_json(and_shared, "k").dump(0),
            analysis::profile_to_json(and_own, "k").dump(0));
  EXPECT_EQ(analysis::profile_to_json(or_shared, "k").dump(0),
            analysis::profile_to_json(or_own, "k").dump(0));
}

}  // namespace
}  // namespace dp::core
