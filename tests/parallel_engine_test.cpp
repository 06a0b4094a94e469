// The fault-parallel engine's contract: identical results to the serial
// DifferencePropagator -- bit-identical scalars, not just close -- in input
// order, for any worker count, plus deterministic error propagation and
// coherent engine stats.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dp/parallel_engine.hpp"
#include "netlist/generators.hpp"
#include "netlist/structure.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace dp::core {
namespace {

using fault::BridgeType;
using fault::BridgingFault;
using fault::StuckAtFault;
using netlist::Circuit;
using netlist::Structure;

/// Everything the paper reports per fault, compared with operator== so any
/// drift from the serial engine is an exact-equality failure.
struct Scalars {
  bool detectable = false;
  double detectability = 0.0;
  double upper_bound = 0.0;
  double adherence = 0.0;
  std::size_t pos_fed = 0;
  std::size_t pos_observable = 0;
  std::vector<bool> po_observable;
  double test_set_count = 0.0;  ///< manager-independent test-set size

  bool operator==(const Scalars&) const = default;
};

Scalars scalars(const FaultAnalysis& a, std::size_t num_vars) {
  Scalars s;
  s.detectable = a.detectable;
  s.detectability = a.detectability;
  s.upper_bound = a.upper_bound;
  s.adherence = a.adherence;
  s.pos_fed = a.pos_fed;
  s.pos_observable = a.pos_observable;
  s.po_observable = a.po_observable;
  s.test_set_count = a.test_set.sat_count(num_vars);
  return s;
}

/// Serial reference sweep: one manager, one thread, the pre-engine loop.
template <typename Fault>
std::vector<Scalars> serial_sweep(const Circuit& circuit,
                                  const std::vector<Fault>& faults) {
  Structure structure(circuit);
  bdd::Manager manager(0, 32u * 1024 * 1024);
  GoodFunctions good(manager, circuit);
  DifferencePropagator dp(good, structure);
  std::vector<Scalars> out;
  out.reserve(faults.size());
  for (const Fault& f : faults) {
    out.push_back(scalars(dp.analyze(f), circuit.num_inputs()));
  }
  return out;
}

template <typename Fault>
std::vector<Scalars> parallel_sweep(const Circuit& circuit,
                                    const std::vector<Fault>& faults,
                                    std::size_t jobs) {
  Structure structure(circuit);
  ParallelEngine::Options opt;
  opt.jobs = jobs;
  ParallelEngine engine(circuit, structure, opt);
  EXPECT_GT(engine.stats().frozen_nodes, 0u);  // workers adopt one forest
  std::vector<Scalars> out(faults.size());
  engine.analyze_each(faults, [&](std::size_t i, FaultAnalysis&& a) {
    out[i] = scalars(a, circuit.num_inputs());
  });
  return out;
}

class ParallelEngineIdentityTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(ParallelEngineIdentityTest, StuckAtSweepIsBitIdenticalToSerial) {
  const Circuit circuit = netlist::make_benchmark(GetParam());
  const std::vector<StuckAtFault> faults = fault::checkpoint_faults(circuit);
  ASSERT_FALSE(faults.empty());

  const std::vector<Scalars> serial = serial_sweep(circuit, faults);
  for (std::size_t jobs : {2u, 4u}) {
    const std::vector<Scalars> par = parallel_sweep(circuit, faults, jobs);
    ASSERT_EQ(par.size(), serial.size());
    for (std::size_t i = 0; i < faults.size(); ++i) {
      EXPECT_EQ(par[i], serial[i])
          << GetParam() << " jobs=" << jobs << " "
          << describe(faults[i], circuit);
    }
  }
}

TEST_P(ParallelEngineIdentityTest, BridgingSweepIsBitIdenticalToSerial) {
  const Circuit circuit = netlist::make_benchmark(GetParam());
  const Structure structure(circuit);
  std::vector<BridgingFault> faults;
  for (BridgeType type : {BridgeType::And, BridgeType::Or}) {
    const auto all = fault::enumerate_nfbfs(circuit, structure, type);
    // C17's NFBF set is checked in full; larger circuits are strided down
    // to keep the exhaustive serial reference fast.
    const std::size_t stride = all.size() > 150 ? all.size() / 75 : 1;
    for (std::size_t i = 0; i < all.size(); i += stride) {
      faults.push_back(all[i]);
    }
  }
  ASSERT_FALSE(faults.empty());

  const std::vector<Scalars> serial = serial_sweep(circuit, faults);
  const std::vector<Scalars> par = parallel_sweep(circuit, faults, 4);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(par[i], serial[i])
        << GetParam() << " " << describe(faults[i], circuit);
  }
}

INSTANTIATE_TEST_SUITE_P(Circuits, ParallelEngineIdentityTest,
                         ::testing::Values("c17", "alu181"));

TEST(ParallelEngineTest, RepeatedSweepsAreDeterministic) {
  const Circuit circuit = netlist::make_alu181();
  const std::vector<StuckAtFault> faults =
      fault::collapse_checkpoint_faults(circuit);
  const std::vector<Scalars> first = parallel_sweep(circuit, faults, 3);
  const std::vector<Scalars> second = parallel_sweep(circuit, faults, 3);
  EXPECT_EQ(first, second);
}

TEST(ParallelEngineTest, AnalyzeAllReturnsInputOrderWithLiveHandles) {
  const Circuit circuit = netlist::make_c17();
  const Structure structure(circuit);
  const std::vector<StuckAtFault> faults = fault::checkpoint_faults(circuit);
  ParallelEngine::Options opt;
  opt.jobs = 2;
  ParallelEngine engine(circuit, structure, opt);
  const std::vector<FaultAnalysis> analyses = engine.analyze_all(faults);
  ASSERT_EQ(analyses.size(), faults.size());
  // The engine owns the workers, so the returned test-set handles remain
  // usable after analyze_all returns.
  for (std::size_t i = 0; i < analyses.size(); ++i) {
    if (analyses[i].detectable) {
      const auto cube = analyses[i].test_set.sat_one();
      std::vector<bool> v(circuit.num_inputs(), false);
      for (std::size_t k = 0; k < v.size(); ++k) v[k] = cube[k] == 1;
      EXPECT_TRUE(analyses[i].test_set.eval(v)) << i;
    }
  }
}

TEST(ParallelEngineTest, SinkSeesEveryIndexExactlyOnce) {
  const Circuit circuit = netlist::make_alu181();
  const Structure structure(circuit);
  const std::vector<StuckAtFault> faults =
      fault::collapse_checkpoint_faults(circuit);
  ParallelEngine::Options opt;
  opt.jobs = 4;
  ParallelEngine engine(circuit, structure, opt);
  std::vector<std::atomic<int>> seen(faults.size());
  engine.analyze_each(faults, [&](std::size_t i, FaultAnalysis&&) {
    seen[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].load(), 1) << i;
  }
}

TEST(ParallelEngineTest, StatsAreCoherent) {
  const Circuit circuit = netlist::make_alu181();
  const Structure structure(circuit);
  const std::vector<StuckAtFault> faults =
      fault::collapse_checkpoint_faults(circuit);
  ParallelEngine::Options opt;
  opt.jobs = 4;
  ParallelEngine engine(circuit, structure, opt);
  EXPECT_EQ(engine.jobs(), 4u);
  (void)engine.analyze_all(faults);

  const ParallelStats& st = engine.stats();
  EXPECT_EQ(st.jobs, 4u);
  EXPECT_EQ(st.faults, faults.size());
  ASSERT_EQ(st.workers.size(), 4u);
  std::size_t total = 0;
  for (const WorkerStats& w : st.workers) {
    total += w.faults_analyzed;
    EXPECT_GE(w.analyze_seconds, 0.0);
    EXPECT_GE(w.max_fault_seconds, 0.0);
    EXPECT_GT(w.apply_calls, 0u);
    EXPECT_EQ(w.ref_underflows, 0u);
  }
  EXPECT_EQ(total, faults.size());
  EXPECT_GT(st.wall_seconds, 0.0);
  EXPECT_GT(st.total_apply_calls(), 0u);
  EXPECT_GE(st.cache_hit_rate(), 0.0);
  EXPECT_LE(st.cache_hit_rate(), 1.0);
}

TEST(ParallelEngineTest, ExportedCountersMatchSerialExactly) {
  const Circuit circuit = netlist::make_alu181();
  const Structure structure(circuit);
  const std::vector<StuckAtFault> faults =
      fault::collapse_checkpoint_faults(circuit);

  // Everything exported as a counter is workload-deterministic: the same
  // fault set must yield identical values for --jobs 1 and --jobs N.
  auto sweep_counters = [&](std::size_t jobs) {
    ParallelEngine::Options opt;
    opt.jobs = jobs;
    ParallelEngine engine(circuit, structure, opt);
    (void)engine.analyze_all(faults);
    obs::MetricsRegistry reg;
    engine.stats().export_metrics(reg);
    return std::array<std::uint64_t, 3>{
        reg.counter("dp.faults_analyzed").value(),
        reg.counter("dp.gates_evaluated").value(),
        reg.counter("dp.gates_skipped").value()};
  };

  const auto serial = sweep_counters(1);
  const auto parallel = sweep_counters(4);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial[0], faults.size());
  EXPECT_GT(serial[1], 0u);
  EXPECT_GT(serial[2], 0u);  // selective trace must be skipping gates
}

TEST(ParallelEngineTest, FaultSpansRecordEveryFault) {
  const Circuit circuit = netlist::make_alu181();
  const Structure structure(circuit);
  const std::vector<StuckAtFault> faults =
      fault::collapse_checkpoint_faults(circuit);
  obs::SpanCollector spans;
  obs::SpanCollector::install(&spans);
  ParallelEngine::Options opt;
  opt.jobs = 3;
  ParallelEngine engine(circuit, structure, opt);
  const std::vector<FaultAnalysis> results = engine.analyze_all(faults);
  obs::SpanCollector::install(nullptr);

  const obs::SpanCollector::Snapshot snap = spans.snapshot();
  EXPECT_EQ(snap.dropped, 0u);
  std::map<std::string, int> spans_per_site;
  std::int64_t evaluated = 0, observable = 0;
  for (const obs::SpanRecord& span : snap.spans) {
    if (span.name != "dp.fault") continue;
    for (const obs::SpanAttr& a : span.attrs) {
      if (a.key == "site") ++spans_per_site[a.text];
      if (a.key == "gates_evaluated") evaluated += a.i;
      if (a.key == "pos_observable") observable += a.i;
      if (a.key == "seed_sites") {
        EXPECT_EQ(a.i, 1);
      }
    }
  }
  // Exactly one span per fault, and the span payloads reconcile with the
  // engine's totals and the returned analyses.
  ASSERT_EQ(spans_per_site.size(), faults.size());
  for (const StuckAtFault& f : faults) {
    EXPECT_EQ(spans_per_site[fault::describe(f, circuit)], 1)
        << fault::describe(f, circuit);
  }
  EXPECT_EQ(static_cast<std::uint64_t>(evaluated),
            engine.stats().total_gates_evaluated());
  std::int64_t expected_observable = 0;
  for (const FaultAnalysis& a : results) {
    expected_observable += static_cast<std::int64_t>(a.pos_observable);
  }
  EXPECT_EQ(observable, expected_observable);
}

TEST(ParallelEngineTest, JobsZeroMeansHardwareConcurrency) {
  const Circuit circuit = netlist::make_c17();
  const Structure structure(circuit);
  ParallelEngine::Options opt;
  opt.jobs = 0;
  ParallelEngine engine(circuit, structure, opt);
  const std::size_t expected =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  EXPECT_EQ(engine.jobs(), expected);
}

TEST(ParallelEngineTest, PerFaultFailureIsRethrownAfterTheSweep) {
  // C6288-class pathology: with cut points the good-function build fits
  // the budget but a deep PI fault's difference BDDs cannot. The engine
  // must surface that worker's OutOfNodes from analyze_all.
  const Circuit circuit = netlist::make_multiplier(16);
  const Structure structure(circuit);
  ParallelEngine::Options opt;
  opt.jobs = 2;
  opt.bdd_node_limit = 1000000;
  opt.good.cut_threshold = 500;
  ParallelEngine engine(circuit, structure, opt);

  const std::vector<StuckAtFault> faults{
      {circuit.inputs()[0], std::nullopt, false}};
  EXPECT_THROW((void)engine.analyze_all(faults), bdd::OutOfNodes);
}

TEST(ParallelEngineTest, MoreJobsThanFaultsIsExactAndCoherent) {
  // Edge case: a pool wider than the fault list. Idle workers must not
  // disturb the input-order merge, the results, or the stats.
  const Circuit circuit = netlist::make_c17();
  const Structure structure(circuit);
  std::vector<StuckAtFault> faults = fault::collapse_checkpoint_faults(circuit);
  faults.resize(3);
  const std::vector<Scalars> serial = serial_sweep(circuit, faults);

  ParallelEngine::Options opt;
  opt.jobs = 8;
  ParallelEngine engine(circuit, structure, opt);
  std::vector<Scalars> out(faults.size());
  std::atomic<std::size_t> delivered{0};
  engine.analyze_each(faults, [&](std::size_t i, FaultAnalysis&& a) {
    out[i] = scalars(a, circuit.num_inputs());
    delivered.fetch_add(1);
  });
  EXPECT_EQ(delivered.load(), faults.size());
  EXPECT_EQ(out, serial);

  const ParallelStats& stats = engine.stats();
  EXPECT_EQ(stats.jobs, 8u);
  EXPECT_EQ(stats.faults, faults.size());
  ASSERT_EQ(stats.workers.size(), 8u);
  std::size_t busy = 0, total = 0;
  for (const WorkerStats& w : stats.workers) {
    total += w.faults_analyzed;
    if (w.faults_analyzed > 0) ++busy;
  }
  EXPECT_EQ(total, faults.size());
  EXPECT_LE(busy, faults.size());
}

TEST(ParallelEngineTest, BuildFailureIsRethrownFromTheConstructor) {
  // Without cut points the 16x16 multiplier's one-time forest build
  // exhausts the budget; the constructor must rethrow.
  const Circuit circuit = netlist::make_multiplier(16);
  const Structure structure(circuit);
  ParallelEngine::Options opt;
  opt.jobs = 2;
  opt.bdd_node_limit = 1000000;
  EXPECT_THROW((ParallelEngine{circuit, structure, opt}), bdd::OutOfNodes);
}

TEST(ParallelEngineTest, MismatchedSharedForestThrowsAtConstruction) {
  const Circuit circuit = netlist::make_alu181();
  const Structure structure(circuit);
  ParallelEngine::Options opt;
  opt.jobs = 2;
  opt.shared_good =
      std::make_shared<const SharedGoodFunctions>(netlist::make_c17());
  EXPECT_THROW((ParallelEngine{circuit, structure, opt}), bdd::BddError);
}

}  // namespace
}  // namespace dp::core
