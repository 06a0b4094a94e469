// Hybrid pipeline handoff contract: the prefilter+DP pipeline must
// produce the same detected/undetected partition as the pure exact sweep,
// with bit-identical DP records on the remainder, at any worker count and
// any prefilter budget -- including budgets that resolve nothing or
// everything.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "analysis/hybrid.hpp"
#include "analysis/profiles.hpp"
#include "netlist/generators.hpp"
#include "obs/metrics.hpp"

namespace dp::analysis {
namespace {

void expect_matches_pure(const netlist::Circuit& circuit,
                         std::size_t prefilter_patterns, std::size_t jobs) {
  AnalysisOptions opt;
  opt.jobs = jobs;
  HybridOptions hopt;
  hopt.prefilter_patterns = prefilter_patterns;
  const CircuitProfile pure = analyze_stuck_at(circuit, opt);
  const HybridProfile hybrid = analyze_stuck_at_hybrid(circuit, opt, hopt);

  ASSERT_EQ(hybrid.faults.size(), pure.faults.size());
  EXPECT_EQ(hybrid.prefilter_resolved() + hybrid.dp_resolved(),
            hybrid.faults.size());
  for (std::size_t i = 0; i < pure.faults.size(); ++i) {
    const HybridFaultRecord& h = hybrid.faults[i];
    const FaultRecord& p = pure.faults[i];
    // Partition identity: a prefilter detection is a concrete witness, so
    // it can only ever claim faults pure DP also proves detectable.
    EXPECT_EQ(h.detectable, p.detectable) << "fault " << i;
    if (h.resolved_by == ResolvedBy::Prefilter) {
      EXPECT_TRUE(h.detectable) << "fault " << i;
      EXPECT_GT(h.detection_count, 0u) << "fault " << i;
      continue;
    }
    // Record identity on the DP remainder: same engine, same record
    // builder, so every field must match the pure sweep bit for bit.
    EXPECT_EQ(h.dp.detectable, p.detectable) << "fault " << i;
    EXPECT_EQ(h.dp.detectability, p.detectability) << "fault " << i;
    EXPECT_EQ(h.dp.upper_bound, p.upper_bound) << "fault " << i;
    EXPECT_EQ(h.dp.adherence, p.adherence) << "fault " << i;
    EXPECT_EQ(h.dp.pos_fed, p.pos_fed) << "fault " << i;
    EXPECT_EQ(h.dp.pos_observable, p.pos_observable) << "fault " << i;
    EXPECT_EQ(h.dp.max_levels_to_po, p.max_levels_to_po) << "fault " << i;
    EXPECT_EQ(h.dp.level_from_pi, p.level_from_pi) << "fault " << i;
    EXPECT_EQ(h.dp.branch_site, p.branch_site) << "fault " << i;
  }
}

TEST(HybridTest, MatchesPureDpOnC17) {
  const netlist::Circuit c = netlist::make_c17();
  // 20 patterns: a partial-word tail; resolves some but not all faults.
  expect_matches_pure(c, 20, 1);
  expect_matches_pure(c, 20, 4);
}

TEST(HybridTest, MatchesPureDpOnAlu181) {
  const netlist::Circuit c = netlist::make_benchmark("alu181");
  expect_matches_pure(c, 48, 1);
  expect_matches_pure(c, 48, 4);
}

TEST(HybridTest, ZeroPatternPrefilterDegeneratesToPureDp) {
  // No prefilter budget: every fault must flow through exact DP.
  const netlist::Circuit c = netlist::make_c17();
  AnalysisOptions opt;
  HybridOptions hopt;
  hopt.prefilter_patterns = 0;
  const HybridProfile hp = analyze_stuck_at_hybrid(c, opt, hopt);
  EXPECT_EQ(hp.prefilter_resolved(), 0u);
  EXPECT_EQ(hp.dp_resolved(), hp.faults.size());
  expect_matches_pure(c, 0, 1);
}

TEST(HybridTest, LargeBudgetResolvesEverythingDetectableOnC17) {
  // c17 has no redundant collapsed faults and is tiny: a healthy budget
  // must leave DP nothing to do.
  const netlist::Circuit c = netlist::make_c17();
  AnalysisOptions opt;
  HybridOptions hopt;
  hopt.prefilter_patterns = 4096;
  const HybridProfile hp = analyze_stuck_at_hybrid(c, opt, hopt);
  EXPECT_EQ(hp.prefilter_resolved(), hp.faults.size());
  EXPECT_EQ(hp.dp_resolved(), 0u);
  EXPECT_EQ(hp.detectable_count(), hp.faults.size());
}

/// Runs the pipeline at jobs 1 (twice) and jobs 4, which also threads the
/// prefilter, and requires every per-fault output and the prefilter's
/// event counts to be identical.
void expect_identical_across_jobs(const netlist::Circuit& c,
                                  const HybridOptions& hopt) {
  AnalysisOptions opt1, opt4;
  opt1.jobs = 1;
  opt4.jobs = 4;
  const HybridProfile a = analyze_stuck_at_hybrid(c, opt1, hopt);
  const HybridProfile b = analyze_stuck_at_hybrid(c, opt1, hopt);
  const HybridProfile d = analyze_stuck_at_hybrid(c, opt4, hopt);
  ASSERT_EQ(a.faults.size(), b.faults.size());
  ASSERT_EQ(a.faults.size(), d.faults.size());
  for (const HybridProfile* other : {&b, &d}) {
    EXPECT_EQ(a.sim_events, other->sim_events);
    EXPECT_EQ(a.sim_level_events, other->sim_level_events);
    for (std::size_t i = 0; i < a.faults.size(); ++i) {
      EXPECT_EQ(a.faults[i].resolved_by, other->faults[i].resolved_by)
          << "fault " << i;
      EXPECT_EQ(a.faults[i].detectable, other->faults[i].detectable)
          << "fault " << i;
      EXPECT_EQ(a.faults[i].detection_count, other->faults[i].detection_count)
          << "fault " << i;
      EXPECT_EQ(a.faults[i].first_detection, other->faults[i].first_detection)
          << "fault " << i;
      EXPECT_EQ(a.faults[i].dp.detectability, other->faults[i].dp.detectability)
          << "fault " << i;
    }
  }
}

TEST(HybridTest, DeterministicAcrossRunsAndJobCounts) {
  HybridOptions hopt;
  hopt.prefilter_patterns = 48;
  expect_identical_across_jobs(netlist::make_benchmark("alu181"), hopt);
}

TEST(HybridTest, DeterministicAcrossJobCountsOnC1355) {
  // The benchmark's configuration: full prefilter budget, dropping off so
  // every fault is graded against every block.
  HybridOptions hopt;
  hopt.drop_detected = false;
  expect_identical_across_jobs(netlist::make_benchmark("c1355"), hopt);
}

TEST(HybridTest, ProfileAccountingIsConsistent) {
  const netlist::Circuit c = netlist::make_benchmark("c432");
  AnalysisOptions opt;
  opt.jobs = 4;
  HybridOptions hopt;
  hopt.prefilter_patterns = 64;
  const HybridProfile hp = analyze_stuck_at_hybrid(c, opt, hopt);
  EXPECT_EQ(hp.circuit, c.name());
  EXPECT_EQ(hp.prefilter_patterns, 64u);
  EXPECT_EQ(hp.prefilter_resolved() + hp.dp_resolved(), hp.faults.size());
  EXPECT_EQ(hp.detectable_count() + hp.redundant_count(), hp.faults.size());
  EXPECT_GE(hp.prefilter_seconds, 0.0);
  EXPECT_GE(hp.dp_seconds, 0.0);
  // Every redundant fault must have been decided by exact DP -- the
  // prefilter can only ever prove detectability, never redundancy.
  for (const HybridFaultRecord& f : hp.faults) {
    if (!f.detectable) {
      EXPECT_EQ(f.resolved_by, ResolvedBy::ExactDp);
    }
  }
}

TEST(HybridTest, ExportMetricsCarriesPhaseTimersAndCounters) {
  const netlist::Circuit c = netlist::make_c17();
  AnalysisOptions opt;
  HybridOptions hopt;
  hopt.prefilter_patterns = 20;
  const HybridProfile hp = analyze_stuck_at_hybrid(c, opt, hopt);

  obs::MetricsRegistry reg;
  hp.export_metrics(reg);
  const obs::JsonValue j = reg.to_json();
  // The per-phase timers every trace/metrics consumer keys on.
  EXPECT_TRUE(j.at("timers").contains("phase.prefilter"));
  EXPECT_TRUE(j.at("timers").contains("phase.dp_remainder"));
  // Deterministic pipeline counters.
  EXPECT_EQ(j.at("counters").at("hybrid.faults").as_int(),
            static_cast<long long>(hp.faults.size()));
  EXPECT_EQ(j.at("counters").at("hybrid.prefilter_resolved").as_int(),
            static_cast<long long>(hp.prefilter_resolved()));
  EXPECT_EQ(j.at("counters").at("hybrid.dp_resolved").as_int(),
            static_cast<long long>(hp.dp_resolved()));
  EXPECT_EQ(j.at("counters").at("sim.patterns").as_int(), 20);
  EXPECT_EQ(j.at("counters").at("sim.events").as_int(),
            static_cast<long long>(hp.sim_events));
  // The engine's dp.* instruments are exported by callers via
  // engine_stats, never here -- exporting both would double-count.
  for (const auto& [key, value] : j.at("counters").members()) {
    EXPECT_NE(key.rfind("dp.", 0), 0u) << key;
  }
}

TEST(HybridTest, SimLevelEventAccountingIsConsistent) {
  const netlist::Circuit c = netlist::make_benchmark("alu181");
  AnalysisOptions opt;
  HybridOptions hopt;
  hopt.prefilter_patterns = 48;
  const HybridProfile hp = analyze_stuck_at_hybrid(c, opt, hopt);
  ASSERT_FALSE(hp.sim_level_events.empty());
  const std::uint64_t level_sum =
      std::accumulate(hp.sim_level_events.begin(),
                      hp.sim_level_events.end(), std::uint64_t{0});
  EXPECT_EQ(level_sum, hp.sim_events);
  EXPECT_GT(hp.sim_events, 0u);
}

TEST(HybridTest, ExportedCountersIdenticalAcrossJobCounts) {
  // The observability contract: counters (fault partition, sim events,
  // per-level activity) are deterministic properties of the workload, so
  // a --jobs 1 and a --jobs 4 run must export bit-identical counter
  // sections. Timers/gauges may of course differ.
  const netlist::Circuit c = netlist::make_benchmark("alu181");
  AnalysisOptions opt1, opt4;
  opt1.jobs = 1;
  opt4.jobs = 4;
  HybridOptions hopt;
  hopt.prefilter_patterns = 48;
  const HybridProfile a = analyze_stuck_at_hybrid(c, opt1, hopt);
  const HybridProfile b = analyze_stuck_at_hybrid(c, opt4, hopt);

  obs::MetricsRegistry ra, rb;
  a.export_metrics(ra);
  b.export_metrics(rb);
  const std::string ca = ra.to_json().at("counters").dump();
  const std::string cb = rb.to_json().at("counters").dump();
  EXPECT_EQ(ca, cb);
  // And the per-level series itself, element for element.
  EXPECT_EQ(a.sim_level_events, b.sim_level_events);
  EXPECT_EQ(a.sim_events, b.sim_events);
}

}  // namespace
}  // namespace dp::analysis
