// Full stuck-at testability report for a circuit: detectability profile,
// adherence profile, bathtub curve, undetectable (redundant) checkpoint
// faults, and the hardest-to-test faults.
//
//   $ ./testability_report                # defaults to alu181
//   $ ./testability_report c432           # any built-in benchmark
//   $ ./testability_report path/to.bench  # or an ISCAS-85 netlist file
//   $ ./testability_report c432 --jobs 4  # fault-parallel sweep
//                                         # (bit-identical to serial)
//   $ ./testability_report c432 --metrics-json report.json --trace
//   $ ./testability_report c432 --cache-dir .dpcache
//                                         # reuse a cached profile /
//                                         # resume an interrupted sweep
//   $ ./testability_report c432 --hybrid [--prefilter-patterns N]
//                                         # random-pattern prefilter, then
//                                         # exact DP on the remainder only
//   $ ./testability_report c432 --ndetect 5 [--ndetect-patterns K]
//                                         # random-pattern n-detect
//                                         # resistance: faults still below
//                                         # N detections after K random
//                                         # patterns, simulator counts
//                                         # cross-checked exactly against
//                                         # the DP satcounts
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "analysis/hybrid.hpp"
#include "analysis/ndetect.hpp"
#include "analysis/profiles.hpp"
#include "analysis/report.hpp"
#include "cli_common.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/generators.hpp"
#include "sim/wide_sim.hpp"

using namespace dp;

namespace {

netlist::Circuit load(const std::string& arg) {
  const auto& names = netlist::benchmark_names();
  if (std::find(names.begin(), names.end(), arg) != names.end()) {
    return netlist::make_benchmark(arg);
  }
  return netlist::read_bench_file(arg);
}

/// Fixed stream seed so resistance tables are reproducible run to run.
constexpr std::uint64_t kNDetectSeed = 0xd37ec7ull;

/// Random-pattern n-detect resistance: which faults are still below N
/// detections after K random patterns? The wide simulator counts
/// detections over the distinct patterns, DP recounts the same set as
/// satcount(CTS ∧ B(V)), and the two must agree exactly -- the table is
/// only printed once that cross-check passes. Returns false on any
/// count disagreement (a bug, never roundoff: both sides are integers).
bool print_ndetect_resistance(const netlist::Circuit& circuit,
                              std::size_t jobs, std::size_t n,
                              std::size_t num_patterns) {
  const auto faults = fault::collapse_checkpoint_faults(circuit);
  const sim::WideFaultSimulator wide(circuit);

  // Materialize the stream and collapse duplicate patterns: the n-detect
  // algebra is over vector SETS, so the simulator must grade the same
  // distinct vectors DP intersects.
  std::vector<std::vector<bool>> patterns;
  {
    std::set<std::vector<bool>> seen;
    for (auto& v : wide.random_patterns(num_patterns, kNDetectSeed)) {
      if (seen.insert(v).second) patterns.push_back(std::move(v));
    }
  }

  sim::WideFaultSimulator::Options wopt;
  wopt.drop_detected = false;
  wopt.jobs = jobs;
  const auto grade = wide.grade_vectors(faults, patterns, wopt);

  analysis::NDetectOptions nopt;
  nopt.jobs = jobs;
  analysis::NDetectAnalyzer analyzer(circuit, faults, nopt);
  const auto exact = analyzer.detection_counts(patterns);

  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (exact[i] != grade.detection_counts[i]) ++mismatches;
  }

  std::cout << "\nRandom-pattern n-detect resistance (N=" << n << ", "
            << num_patterns << " patterns, " << patterns.size()
            << " distinct):\n";
  std::cout << "Simulator vs DP satcount    : " << mismatches
            << " mismatches over " << faults.size() << " faults\n";
  if (mismatches != 0) {
    std::cout << "ERROR: exact cross-check failed\n";
    return false;
  }

  // The resistant set: detectable faults below their quota min(N, |CTS|).
  struct Row {
    std::size_t index;
    std::uint64_t detections;
  };
  std::vector<Row> resistant;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (!analyzer.detectable(i)) continue;
    if (exact[i] < analyzer.quota(i, n)) resistant.push_back({i, exact[i]});
  }
  std::sort(resistant.begin(), resistant.end(), [](const Row& a, const Row& b) {
    return a.detections != b.detections ? a.detections < b.detections
                                        : a.index < b.index;
  });
  std::cout << "Faults below quota          : " << resistant.size() << " of "
            << faults.size() << "\n";
  if (resistant.empty()) {
    std::cout << "Every detectable fault already has its " << n
              << " detections.\n";
    return true;
  }
  analysis::TextTable t({"fault", "detections", "quota", "|CTS|",
                         "CTS coverage"});
  for (std::size_t r = 0; r < std::min<std::size_t>(12, resistant.size());
       ++r) {
    const std::size_t i = resistant[r].index;
    t.add_row({fault::describe(faults[i], circuit),
               std::to_string(exact[i]),
               std::to_string(analyzer.quota(i, n)),
               analysis::TextTable::num(analyzer.cts_size(i), 0),
               analysis::TextTable::num(
                   static_cast<double>(exact[i]) / analyzer.cts_size(i), 6)});
  }
  t.print(std::cout);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  cli::handle_version_flag(args, "testability_report");
  cli::Telemetry tel;
  tel.strip_flags(args);

  std::string arg = "alu181";
  analysis::AnalysisOptions opt;
  bool hybrid = false;
  analysis::HybridOptions hopt;
  std::size_t ndetect = 0;  // 0 = no resistance table
  std::size_t ndetect_patterns = 256;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--jobs" || args[i] == "--prefilter-patterns" ||
        args[i] == "--ndetect" || args[i] == "--ndetect-patterns") {
      if (i + 1 >= args.size()) {
        std::cerr << "error: " << args[i] << " requires a value\n";
        return 2;
      }
      const std::string flag = args[i];
      const std::size_t value = cli::parse_count(flag, args[++i]);
      if (flag == "--jobs") {
        opt.jobs = value;
      } else if (flag == "--ndetect") {
        ndetect = value;
      } else if (flag == "--ndetect-patterns") {
        ndetect_patterns = value;
      } else {
        hopt.prefilter_patterns = value;
      }
    } else if (args[i] == "--hybrid") {
      hybrid = true;
    } else {
      arg = args[i];
    }
  }
  opt.dp.trace = tel.trace();
  opt.persistence.store = tel.store();
  opt.persistence.resume = tel.resume();
  netlist::Circuit circuit = load(arg);

  std::cout << "Stuck-at testability report: " << circuit.name() << "\n";
  std::cout << "  " << circuit.num_gates() << " gates, "
            << circuit.num_inputs() << " PIs, " << circuit.num_outputs()
            << " POs\n\n";

  if (hybrid) {
    const analysis::HybridProfile hp =
        analysis::analyze_stuck_at_hybrid(circuit, opt, hopt);
    hp.engine_stats.export_metrics(tel.metrics());
    hp.export_metrics(tel.metrics());
    std::cout << "Hybrid pipeline (" << hp.prefilter_patterns
              << " random patterns, then exact DP on the remainder)\n";
    std::cout << "Collapsed checkpoint faults : " << hp.faults.size() << "\n";
    std::cout << "Prefilter resolved          : " << hp.prefilter_resolved()
              << " (" << analysis::TextTable::num(hp.prefilter_fraction())
              << ")\n";
    std::cout << "Exact DP remainder          : " << hp.dp_resolved() << "\n";
    std::cout << "Undetectable (redundant)    : " << hp.redundant_count()
              << "\n";
    std::cout << "Phase seconds               : prefilter "
              << analysis::TextTable::num(hp.prefilter_seconds) << ", DP "
              << analysis::TextTable::num(hp.dp_seconds) << "\n";

    // The DP remainder is exactly the random-pattern-resistant set, so its
    // exact detectabilities rank the deterministic-ATPG workload.
    std::vector<const analysis::HybridFaultRecord*> hard;
    for (const auto& f : hp.faults) {
      if (f.resolved_by == analysis::ResolvedBy::ExactDp && f.detectable) {
        hard.push_back(&f);
      }
    }
    std::sort(hard.begin(), hard.end(), [](const auto* a, const auto* b) {
      return a->dp.detectability < b->dp.detectability;
    });
    std::cout << "\nHardest random-pattern-resistant faults (exact DP):\n";
    analysis::TextTable t({"detectability", "upper bound", "adherence",
                           "max levels to PO"});
    for (std::size_t i = 0; i < std::min<std::size_t>(8, hard.size()); ++i) {
      t.add_row({analysis::TextTable::num(hard[i]->dp.detectability, 6),
                 analysis::TextTable::num(hard[i]->dp.upper_bound, 6),
                 analysis::TextTable::num(hard[i]->dp.adherence),
                 std::to_string(hard[i]->dp.max_levels_to_po)});
    }
    t.print(std::cout);
    bool ndetect_ok = true;
    if (ndetect > 0) {
      ndetect_ok = print_ndetect_resistance(circuit, opt.jobs, ndetect,
                                            ndetect_patterns);
    }
    // Always shown (even serial) so refcount underflows can never hide.
    std::cout << "\n" << hp.engine_stats;
    return tel.write("testability_report") && ndetect_ok ? 0 : 1;
  }

  const analysis::CircuitProfile p = analysis::analyze_stuck_at(circuit, opt);
  p.engine_stats.export_metrics(tel.metrics());
  const std::size_t undetectable = p.faults.size() - p.detectable_count();

  std::cout << "Collapsed checkpoint faults : " << p.faults.size() << "\n";
  std::cout << "Detectable                  : " << p.detectable_count()
            << "\n";
  std::cout << "Undetectable (redundant)    : " << undetectable << "\n";
  std::cout << "Mean detectability          : "
            << analysis::TextTable::num(p.mean_detectability_detectable())
            << "\n";
  std::cout << "Mean detectability / #POs   : "
            << analysis::TextTable::num(p.mean_detectability_per_po(), 5)
            << "\n\n";

  analysis::print_histogram(std::cout, p.detectability_histogram(20),
                            "Detectability profile", "detection probability");
  std::cout << "\n";
  analysis::print_histogram(std::cout, p.adherence_histogram(20),
                            "Adherence profile", "adherence");
  std::cout << "\n";
  analysis::print_series(std::cout, p.detectability_by_po_distance(),
                         "Bathtub curve", "max levels to PO",
                         "mean detectability");

  // Hardest detectable faults: lowest detection probability first. These
  // are where deterministic test generation effort concentrates (§4.1).
  std::vector<const analysis::FaultRecord*> hard;
  for (const auto& f : p.faults) {
    if (f.detectable) hard.push_back(&f);
  }
  std::sort(hard.begin(), hard.end(),
            [](const auto* a, const auto* b) {
              return a->detectability < b->detectability;
            });
  std::cout << "\nHardest faults (lowest exact detectability):\n";
  analysis::TextTable t({"detectability", "upper bound", "adherence",
                         "max levels to PO"});
  for (std::size_t i = 0; i < std::min<std::size_t>(8, hard.size()); ++i) {
    t.add_row({analysis::TextTable::num(hard[i]->detectability, 6),
               analysis::TextTable::num(hard[i]->upper_bound, 6),
               analysis::TextTable::num(hard[i]->adherence),
               std::to_string(hard[i]->max_levels_to_po)});
  }
  t.print(std::cout);

  std::cout << "\nDFT hint: faults concentrate in the curve's middle -- "
               "target observation points at the circuit center (paper §4.1)."
            << "\n";
  bool ndetect_ok = true;
  if (ndetect > 0) {
    ndetect_ok = print_ndetect_resistance(circuit, opt.jobs, ndetect,
                                          ndetect_patterns);
  }
  // Always shown (even serial) so refcount underflows can never hide.
  std::cout << "\n" << p.engine_stats;
  return tel.write("testability_report") && ndetect_ok ? 0 : 1;
}
