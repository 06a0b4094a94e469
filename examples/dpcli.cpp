// dpcli -- the command-line front end for the Difference Propagation
// library and its one analysis CLI.
//
//   dpcli list                          built-in benchmark circuits
//   dpcli info C                        netlist statistics + structure
//   dpcli sa C [--full] [--hybrid] [--ndetect N [--ndetect-patterns K]]
//       stuck-at testability report: detectability and adherence
//       profiles, bathtub curve, hardest faults. --hybrid grades random
//       patterns first and runs exact DP on the undetected remainder
//       only. --ndetect N adds the random-pattern n-detect resistance
//       table (faults below N detections after K random patterns,
//       default 256), whose simulator counts are cross-checked exactly
//       against the DP satcounts; any mismatch exits 1.
//   dpcli bf C [--count N]              bridging-fault study (AND + OR):
//       enumerated NFBFs, N distance-weighted samples (default 1000),
//       AND detectability profile
//   dpcli atpg C [--hybrid] [--ndetect N [--ndetect-json PATH]]
//       DP-based ATPG: one sweep yields every fault's complete test set,
//       compacted hardest first, graded by the simulator and compared
//       with random patterns. --hybrid keeps the prefilter's witness
//       vectors and runs DP on the remainder only. --ndetect N tops the
//       set up until every detectable fault has min(N, |CTS|) detecting
//       vectors and recounts them with the simulator (exact ==);
//       --ndetect-json writes that dp.ndetect.v1 report. The output ends
//       with a "# C: ..." header line and one vector per line.
//   dpcli fault C NET 0|1               analyze one stem stuck-at fault
//   dpcli diagnose C NET 0|1            locate an injected fault via the
//                                       exact fault dictionary
//   dpcli syndrome C                    per-net syndromes (signal probs)
//   dpcli write C                       emit the netlist as .bench text
//   dpcli dot C NET                     good-function BDD in dot syntax
//   dpcli hash C                        structural content hash (the
//                                       artifact-cache key component);
//                                       `dpcli C --hash` works too
//
// sa, bf and atpg take --jobs N to shard the sweep over N worker threads
// (0 = all hardware threads; results are bit-identical to --jobs 1) and
// --cache-dir PATH: sa and bf reuse cached profiles and resume
// interrupted sweeps (--resume/--no-resume), atpg reuses the per-fault
// test-set forest. --prefilter-patterns N sets the random patterns of
// every --hybrid prefilter (default 4096).
//
// C is a built-in benchmark name or a path to a .bench file.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/diagnosis.hpp"
#include "analysis/hybrid.hpp"
#include "analysis/ndetect.hpp"
#include "analysis/profiles.hpp"
#include "analysis/random_pattern.hpp"
#include "analysis/report.hpp"
#include "bdd/dot_export.hpp"
#include "cli_common.hpp"
#include "dp/engine.hpp"
#include "dp/parallel_engine.hpp"
#include "fault/bridging.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/generators.hpp"
#include "netlist/structure.hpp"
#include "sim/fault_sim.hpp"
#include "sim/wide_sim.hpp"
#include "store/bdd_io.hpp"
#include "store/hash.hpp"

using namespace dp;

namespace {

int usage() {
  std::cerr
      << "usage: dpcli <command> [args]\n"
         "  list | info C | syndrome C | write C | dot C NET\n"
         "  fault C NET 0|1 | diagnose C NET 0|1 | hash C (or: C --hash)\n"
         "  sa C [--full] [--hybrid] [--ndetect N [--ndetect-patterns K]]\n"
         "  bf C [--count N]\n"
         "  atpg C [--hybrid] [--ndetect N [--ndetect-json PATH]]\n"
         "  (C = benchmark name or .bench path)\n"
         "  sa, bf, atpg: --jobs N (worker threads), --cache-dir PATH\n"
         "  (artifact cache), --resume/--no-resume; --hybrid takes\n"
         "  --prefilter-patterns N (random patterns, default 4096)\n"
         "  global: --metrics-json PATH (dp.metrics.v1 document),\n"
         "          --trace-out PATH (dp.trace.v1 span document)\n";
  return 2;
}

/// The options of the analysis subcommands, at their documented
/// defaults; each subcommand reads the ones it takes.
struct Flags {
  std::size_t jobs = 1;
  bool full = false;
  std::size_t count = 1000;
  bool hybrid = false;
  analysis::HybridOptions hybrid_options;  ///< --prefilter-patterns
  std::size_t ndetect = 0;                 ///< 0 = no n-detect stage
  std::size_t ndetect_patterns = 256;
  std::string ndetect_json;
};

/// Strips the options from `args` (the command stays at args[0]). Returns
/// nullopt after printing the error when a value is missing or the option
/// is unknown; a malformed count exits 2 inside cli::parse_count.
std::optional<Flags> parse_flags(std::vector<std::string>& args) {
  Flags f;
  const std::map<std::string, std::size_t*> counts = {
      {"--jobs", &f.jobs},
      {"--count", &f.count},
      {"--prefilter-patterns", &f.hybrid_options.prefilter_patterns},
      {"--ndetect", &f.ndetect},
      {"--ndetect-patterns", &f.ndetect_patterns}};
  const std::map<std::string, bool*> switches = {{"--full", &f.full},
                                                 {"--hybrid", &f.hybrid}};
  for (std::size_t i = 1; i < args.size();) {
    const std::string flag = args[i];
    const auto at = args.begin() + static_cast<std::ptrdiff_t>(i);
    if (const auto s = switches.find(flag); s != switches.end()) {
      *s->second = true;
      args.erase(at);
      continue;
    }
    const auto c = counts.find(flag);
    if (c != counts.end() || flag == "--ndetect-json") {
      // A trailing flag with no value is a hard error, never a silent
      // default.
      if (i + 1 >= args.size()) {
        std::cerr << "error: " << flag << " requires a value\n";
        return std::nullopt;
      }
      if (c != counts.end()) {
        *c->second = cli::parse_count(flag, args[i + 1]);
      } else {
        f.ndetect_json = args[i + 1];
      }
      args.erase(at, at + 2);
      continue;
    }
    // `--hash` is the flag form of the hash command; any other option is
    // a typo or a removed flag, never something to ignore.
    if (flag.starts_with("--") && flag != "--hash") {
      std::cerr << "error: unknown option '" << flag << "'\n";
      return std::nullopt;
    }
    ++i;
  }
  return f;
}

int cmd_list() {
  for (const std::string& name : netlist::benchmark_names()) {
    const netlist::Circuit c = netlist::make_benchmark(name);
    std::cout << name << ": " << c.num_inputs() << " PI, " << c.num_outputs()
              << " PO, " << c.num_gates() << " gates\n";
  }
  return 0;
}

int cmd_info(const netlist::Circuit& c) {
  netlist::Structure st(c);
  std::cout << "circuit " << c.name() << "\n";
  std::cout << "  inputs  : " << c.num_inputs() << "\n";
  std::cout << "  outputs : " << c.num_outputs() << "\n";
  std::cout << "  gates   : " << c.num_gates() << "\n";
  std::cout << "  depth   : " << st.depth() << " levels\n";
  std::size_t fanout_stems = 0, max_fanout = 0;
  for (netlist::NetId id = 0; id < c.num_nets(); ++id) {
    const std::size_t fo = c.fanout_count(id);
    if (fo > 1) ++fanout_stems;
    max_fanout = std::max(max_fanout, fo);
  }
  std::cout << "  fanout stems: " << fanout_stems
            << " (max fanout " << max_fanout << ")\n";
  std::cout << "  checkpoint faults: " << fault::checkpoint_faults(c).size()
            << " (collapsed: " << fault::collapse_checkpoint_faults(c).size()
            << ")\n";
  return 0;
}

std::string circuit_size(const netlist::Circuit& c) {
  return std::to_string(c.num_gates()) + " gates, " +
         std::to_string(c.num_inputs()) + " PIs, " +
         std::to_string(c.num_outputs()) + " POs";
}

/// The hardest detectable faults, lowest exact detectability first:
/// where deterministic test generation effort concentrates (paper §4.1).
void print_hardest(const std::string& title,
                   std::vector<const analysis::FaultRecord*> hard) {
  std::sort(hard.begin(), hard.end(), [](const auto* a, const auto* b) {
    return a->detectability < b->detectability;
  });
  std::cout << "\n" << title << ":\n";
  analysis::TextTable t({"detectability", "upper bound", "adherence",
                         "max levels to PO"});
  for (std::size_t i = 0; i < std::min<std::size_t>(8, hard.size()); ++i) {
    t.add_row({analysis::TextTable::num(hard[i]->detectability, 6),
               analysis::TextTable::num(hard[i]->upper_bound, 6),
               analysis::TextTable::num(hard[i]->adherence),
               std::to_string(hard[i]->max_levels_to_po)});
  }
  t.print(std::cout);
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

  std::cout << "\nrandom-pattern n-detect resistance (N=" << n << ", "
            << num_patterns << " patterns, " << patterns.size()
            << " distinct):\n";
  std::cout << "  simulator vs DP satcount: " << mismatches
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
  std::cout << "  faults below quota      : " << resistant.size() << " of "
            << faults.size() << "\n";
  if (resistant.empty()) {
    std::cout << "every detectable fault already has its " << n
              << " detections\n";
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

core::ParallelStats print_sa_hybrid(const netlist::Circuit& c,
                                    const analysis::AnalysisOptions& opt,
                                    const Flags& flags, cli::Telemetry& tel) {
  const analysis::HybridProfile p =
      analysis::analyze_stuck_at_hybrid(c, opt, flags.hybrid_options);
  p.engine_stats.export_metrics(tel.metrics());
  p.export_metrics(tel.metrics());
  std::cout << "hybrid stuck-at analysis of " << c.name() << " ("
            << (flags.full ? "uncollapsed" : "collapsed") << " checkpoints)\n";
  std::cout << "  circuit           : " << circuit_size(c) << "\n";
  std::cout << "  faults            : " << p.faults.size() << "\n";
  std::cout << "  prefilter resolved: " << p.prefilter_resolved() << " ("
            << analysis::TextTable::num(p.prefilter_fraction()) << " of all, "
            << p.prefilter_patterns << " random patterns)\n";
  std::cout << "  exact DP remainder: " << p.dp_resolved() << " analyzed, "
            << p.redundant_count() << " undetectable\n";
  std::cout << "  phase seconds     : prefilter "
            << analysis::TextTable::num(p.prefilter_seconds) << ", DP "
            << analysis::TextTable::num(p.dp_seconds) << "\n";
  // The DP remainder is exactly the random-pattern-resistant set, so its
  // exact detectabilities rank the deterministic-ATPG workload.
  std::vector<const analysis::FaultRecord*> hard;
  for (const auto& f : p.faults) {
    if (f.resolved_by == analysis::ResolvedBy::ExactDp && f.detectable) {
      hard.push_back(&f.dp);
    }
  }
  print_hardest("hardest random-pattern-resistant faults (exact DP)",
                std::move(hard));
  return p.engine_stats;
}

core::ParallelStats print_sa_exact(const netlist::Circuit& c,
                                   const analysis::AnalysisOptions& opt,
                                   const Flags& flags, cli::Telemetry& tel) {
  const analysis::CircuitProfile p = analysis::analyze_stuck_at(c, opt);
  p.engine_stats.export_metrics(tel.metrics());
  std::cout << "stuck-at profile of " << c.name() << " ("
            << (flags.full ? "uncollapsed" : "collapsed") << " checkpoints)\n";
  std::cout << "  circuit      : " << circuit_size(c) << "\n";
  std::cout << "  faults       : " << p.faults.size() << "\n";
  std::cout << "  detectable   : " << p.detectable_count() << "\n";
  std::cout << "  undetectable : " << p.faults.size() - p.detectable_count()
            << "\n";
  std::cout << "  mean det     : "
            << analysis::TextTable::num(p.mean_detectability_detectable())
            << "\n";
  std::cout << "  mean det/PO  : "
            << analysis::TextTable::num(p.mean_detectability_per_po(), 5)
            << "\n";
  std::cout << "  patterns for 95%/99% random coverage: "
            << analysis::patterns_for_coverage(p, 0.95) << " / "
            << analysis::patterns_for_coverage(p, 0.99) << "\n\n";
  analysis::print_histogram(std::cout, p.detectability_histogram(20),
                            "detectability profile", "detection probability");
  std::cout << "\n";
  analysis::print_histogram(std::cout, p.adherence_histogram(20),
                            "adherence profile", "adherence");
  std::cout << "\n";
  analysis::print_series(std::cout, p.detectability_by_po_distance(),
                         "bathtub curve", "max levels to PO",
                         "mean detectability");
  std::vector<const analysis::FaultRecord*> hard;
  for (const auto& f : p.faults) {
    if (f.detectable) hard.push_back(&f);
  }
  print_hardest("hardest faults (lowest exact detectability)",
                std::move(hard));
  return p.engine_stats;
}

int cmd_sa(const netlist::Circuit& c, const Flags& flags,
           cli::Telemetry& tel) {
  analysis::AnalysisOptions opt;
  opt.collapse = !flags.full;
  opt.jobs = flags.jobs;
  opt.persistence.store = tel.store();
  opt.persistence.resume = tel.resume();
  const core::ParallelStats stats =
      flags.hybrid ? print_sa_hybrid(c, opt, flags, tel)
                   : print_sa_exact(c, opt, flags, tel);
  const bool ndetect_ok =
      flags.ndetect == 0 ||
      print_ndetect_resistance(c, flags.jobs, flags.ndetect,
                               flags.ndetect_patterns);
  // Always shown (even serial) so refcount underflows can never hide.
  std::cout << "\n" << stats;
  return ndetect_ok ? 0 : 1;
}

int cmd_bf(const netlist::Circuit& c, const Flags& flags,
           cli::Telemetry& tel) {
  analysis::AnalysisOptions opt;
  opt.sampling.target_count = flags.count;
  opt.jobs = flags.jobs;
  opt.persistence.store = tel.store();
  opt.persistence.resume = tel.resume();
  const netlist::Structure structure(c);
  analysis::TextTable t({"type", "enumerated NFBFs", "faults", "detectable",
                         "mean det", "stuck-at-like"});
  std::optional<analysis::Histogram> and_histogram;
  analysis::CircuitProfile last;
  for (fault::BridgeType type :
       {fault::BridgeType::And, fault::BridgeType::Or}) {
    analysis::CircuitProfile p = analysis::analyze_bridging(c, type, opt);
    p.engine_stats.export_metrics(tel.metrics());
    t.add_row({fault::to_string(type),
               std::to_string(fault::enumerate_nfbfs(c, structure, type).size()),
               std::to_string(p.faults.size()),
               std::to_string(p.detectable_count()),
               analysis::TextTable::num(p.mean_detectability_detectable()),
               analysis::TextTable::num(p.bridge_stuck_at_fraction())});
    if (type == fault::BridgeType::And) {
      and_histogram = p.detectability_histogram(20);
    }
    last = std::move(p);
  }
  std::cout << "bridging-fault study of " << c.name() << "\n";
  std::cout << "  sampling: normalized layout distance z, weight "
               "exp(-z/theta), theta = "
            << opt.sampling.theta << " (paper §2.2)\n";
  t.print(std::cout);
  std::cout << "\n";
  analysis::print_histogram(std::cout, *and_histogram,
                            "AND NFBF detectability profile",
                            "detection probability");
  // Always shown (even serial) so refcount underflows can never hide.
  std::cout << "\n" << last.engine_stats;
  return 0;
}

int cmd_fault(const netlist::Circuit& c, const std::string& net,
              const std::string& value, cli::Telemetry& tel) {
  if (value != "0" && value != "1") {
    std::cerr << "stuck value must be 0 or 1, got '" << value << "'\n";
    return 2;
  }
  const auto id = c.find_net(net);
  if (!id) {
    std::cerr << "no net named '" << net << "'\n";
    return 1;
  }
  netlist::Structure st(c);
  bdd::Manager mgr(0);
  core::GoodFunctions good(mgr, c);
  core::DifferencePropagator dp(good, st);
  const fault::StuckAtFault f{*id, std::nullopt, value == "1"};
  const core::FaultAnalysis a = dp.analyze(f);
  mgr.export_metrics(tel.metrics());
  std::cout << describe(f, c) << ":\n";
  std::cout << "  detectable     : " << (a.detectable ? "yes" : "no") << "\n";
  std::cout << "  detectability  : " << a.detectability << "\n";
  std::cout << "  syndrome bound : " << a.upper_bound << "\n";
  std::cout << "  adherence      : " << a.adherence << "\n";
  std::cout << "  POs fed/obsrvd : " << a.pos_fed << "/" << a.pos_observable
            << "\n";
  std::cout << "  gates eval/skip: " << a.stats.gates_evaluated << "/"
            << a.stats.gates_skipped << "  (ref underflows "
            << mgr.stats().ref_underflows << ")\n";
  if (a.detectable) {
    const auto cube = a.test_set.sat_one();
    std::cout << "  a test vector  : ";
    for (std::size_t i = 0; i < c.num_inputs(); ++i) {
      std::cout << (cube[i] < 0 ? 'x' : static_cast<char>('0' + cube[i]));
    }
    std::cout << "  (PIs in order";
    for (std::size_t i = 0; i < std::min<std::size_t>(c.num_inputs(), 8); ++i) {
      std::cout << " " << c.net_name(c.inputs()[i]);
    }
    std::cout << (c.num_inputs() > 8 ? " ...)\n" : ")\n");
  }
  return 0;
}

int cmd_syndrome(const netlist::Circuit& c, cli::Telemetry& tel) {
  bdd::Manager mgr(0);
  core::GoodFunctions good(mgr, c);
  analysis::TextTable t({"net", "type", "syndrome", "bdd nodes"});
  for (netlist::NetId id : c.topo_order()) {
    t.add_row({c.net_name(id), std::string(netlist::to_string(c.type(id))),
               analysis::TextTable::num(good.syndrome(id)),
               std::to_string(good.at(id).dag_size())});
  }
  t.print(std::cout);
  mgr.export_metrics(tel.metrics());
  return 0;
}

/// Greedy compaction shared by atpg and diagnose. Walks `test_sets` in
/// the caller's order: a test set that already contains a vector of
/// `vectors` reuses it (a BDD evaluation), any other adds its satisfying
/// cube with don't-cares set to 0. Returns the number of reuses.
std::size_t compact(const std::vector<bdd::Bdd>& test_sets,
                    std::size_t num_inputs,
                    std::vector<std::vector<bool>>& vectors) {
  std::size_t reused = 0;
  for (const bdd::Bdd& ts : test_sets) {
    if (std::any_of(vectors.begin(), vectors.end(),
                    [&](const std::vector<bool>& v) { return ts.eval(v); })) {
      ++reused;
      continue;
    }
    const auto cube = ts.sat_one();
    std::vector<bool> v(num_inputs, false);
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = cube[i] == 1;
    vectors.push_back(std::move(v));
  }
  return reused;
}

/// Phase 3 of atpg (--ndetect N): tops `vectors` up until every
/// detectable fault has min(N, |CTS|) distinct detecting vectors, hardest
/// fault first, then re-derives every count with the wide simulator
/// (exact ==). The analyzer runs its own DP sweep over the FULL collapsed
/// fault list (a hybrid run analyzed only the resistant remainder).
/// Returns false when the recount disagrees or a quota stays unmet;
/// `detected` receives the faults the final set detects.
bool ndetect_top_up(const netlist::Circuit& c,
                    const std::vector<fault::StuckAtFault>& faults,
                    const Flags& flags, cli::Telemetry& tel,
                    std::vector<std::vector<bool>>& vectors,
                    std::size_t& detected) {
  // The n-detect algebra counts DISTINCT vectors; drop any duplicates
  // (possible between hybrid witness patterns) so the per-pattern
  // simulator recount below matches the satcounts exactly.
  {
    std::set<std::vector<bool>> seen;
    std::vector<std::vector<bool>> distinct;
    distinct.reserve(vectors.size());
    for (auto& v : vectors) {
      if (seen.insert(v).second) distinct.push_back(std::move(v));
    }
    vectors.swap(distinct);
  }
  analysis::NDetectOptions nopt;
  nopt.jobs = flags.jobs;
  analysis::NDetectAnalyzer analyzer(c, faults, nopt);
  analyzer.stats().export_metrics(tel.metrics(), "ndetect");

  std::cout << "\nn-detect top-up (target N=" << flags.ndetect << "):\n"
            << "  n=0: " << vectors.size() << " vectors (1-detect set)\n";
  std::size_t minted_total = 0;
  for (std::size_t k = 1; k <= flags.ndetect; ++k) {
    minted_total += analyzer.top_up(vectors, k);
    std::cout << "  n=" << k << ": " << vectors.size() << " vectors ("
              << minted_total << " minted)\n";
  }
  analysis::NDetectReport report = analyzer.report(vectors, flags.ndetect);
  report.minted_vectors = minted_total;

  sim::WideFaultSimulator::Options wopt;
  wopt.drop_detected = false;
  wopt.jobs = flags.jobs;
  const auto regrade =
      sim::WideFaultSimulator(c).grade_vectors(faults, vectors, wopt);
  detected = regrade.detected();
  std::size_t mismatches = 0;
  std::size_t below = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (regrade.detection_counts[i] != report.faults[i].detections) {
      ++mismatches;
    }
    if (!report.faults[i].meets_target()) ++below;
  }
  std::cout << "Simulator recount: " << mismatches
            << " detection-count mismatches, " << below
            << " faults below quota\n"
            << "Mean CTS coverage at N=" << flags.ndetect << ": "
            << report.mean_cts_coverage() << "\n";
  bool ok = mismatches == 0 && report.complete();
  std::cout << (ok ? "OK: every detectable fault meets its n-detect quota\n"
                   : "WARNING: n-detect verification failed\n");

  if (!flags.ndetect_json.empty()) {
    std::ofstream out(flags.ndetect_json);
    if (!out) {
      std::cerr << "error: cannot write " << flags.ndetect_json << "\n";
      ok = false;
    } else {
      out << analysis::ndetect_report_to_json(report).dump(2) << "\n";
      std::cout << "Wrote " << flags.ndetect_json << "\n";
    }
  }
  return ok;
}

int cmd_atpg(const netlist::Circuit& c, const Flags& flags,
             cli::Telemetry& tel) {
  const netlist::Structure structure(c);
  const analysis::HybridOptions& hopt = flags.hybrid_options;
  const auto faults = fault::collapse_checkpoint_faults(c);
  std::cout << "ATPG for " << c.name() << ": " << faults.size()
            << " collapsed checkpoint faults\n";

  // Phase 1 (--hybrid): random-pattern prefilter. Every detected fault
  // contributes its first detecting pattern, reconstructed from the
  // deterministic stream, so the random phase's coverage claims are backed
  // by concrete vectors in the emitted set.
  std::vector<std::vector<bool>> vectors;
  std::vector<fault::StuckAtFault> dp_faults = faults;
  if (flags.hybrid) {
    const sim::WideFaultSimulator wide(c);
    sim::WideSimOptions wopt;
    wopt.jobs = flags.jobs;
    const sim::WideFaultSimulator::Grade grade = wide.grade_random(
        faults, hopt.prefilter_patterns, hopt.prefilter_seed, wopt);
    std::vector<std::uint64_t> picks;
    dp_faults.clear();
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (grade.first_detection[i] == sim::WideFaultSimulator::kNotDetected) {
        dp_faults.push_back(faults[i]);
      } else {
        picks.push_back(grade.first_detection[i]);
      }
    }
    std::sort(picks.begin(), picks.end());
    picks.erase(std::unique(picks.begin(), picks.end()), picks.end());
    const auto stream =
        wide.random_patterns(hopt.prefilter_patterns, hopt.prefilter_seed);
    for (const std::uint64_t p : picks) {
      vectors.push_back(stream[static_cast<std::size_t>(p)]);
    }
    std::cout << "Prefilter (" << hopt.prefilter_patterns
              << " random patterns): " << faults.size() - dp_faults.size()
              << " faults detected, " << vectors.size()
              << " witness vectors kept, " << dp_faults.size()
              << " faults left for DP\n";
  }

  // Test-set forest cache: with --cache-dir the complete per-fault test
  // sets are serialized after the sweep, keyed on the circuit's
  // structural content. A warm rerun reloads them into `cache_mgr` and
  // skips BDD construction and the DP sweep entirely; every downstream
  // number is bit-identical because detectability is exactly the test
  // set's density and the reconstructed BDDs are canonical. The hybrid
  // remainder depends on the prefilter stream, so its key includes the
  // prefilter parameters.
  bdd::Manager cache_mgr(0);
  std::string forest_key;
  if (tel.store()) {
    store::KeyBuilder kb;
    kb.str("dp.atpg.tests.v1");
    kb.str(store::circuit_content_hash(c));
    kb.u64(dp_faults.size());
    if (flags.hybrid) {
      kb.str("hybrid");
      kb.u64(hopt.prefilter_patterns);
      kb.u64(hopt.prefilter_seed);
    }
    forest_key = kb.hex();
  }

  // On the cold path the engine must stay alive until vector minting is
  // done: the test-set BDDs live in its worker managers. Declared before
  // `entries` and `test_sets` so it is destroyed after the handles into
  // it.
  std::optional<core::ParallelEngine> engine;

  struct Entry {
    bdd::Bdd test_set;
    double detectability;
  };
  std::vector<Entry> entries;
  std::size_t redundant = 0;
  bool from_cache = false;
  if (tel.store()) {
    if (auto roots = tel.store()->load_forest(forest_key, "tests", cache_mgr)) {
      if (roots->size() == dp_faults.size()) {
        from_cache = true;
        std::cout << "[cache] test-set forest hit in " << tel.store()->dir()
                  << "\n";
        for (const bdd::Bdd& ts : *roots) {
          if (!ts.valid() || ts.is_zero()) {
            ++redundant;  // stored as an absent/empty test set
            continue;
          }
          entries.push_back({ts, ts.density(c.num_inputs())});
        }
      }
    }
  }
  if (!from_cache && !dp_faults.empty()) {
    core::ParallelEngine::Options popt;
    popt.jobs = flags.jobs;
    engine.emplace(c, structure, popt);
    std::vector<core::FaultAnalysis> analyses = engine->analyze_all(dp_faults);
    engine->stats().export_metrics(tel.metrics());

    std::vector<bdd::Bdd> roots(dp_faults.size());
    for (std::size_t i = 0; i < dp_faults.size(); ++i) {
      if (!analyses[i].detectable) {
        ++redundant;  // proven untestable: excluded, not abandoned
        continue;
      }
      if (tel.store()) {
        roots[i] = store::transfer(cache_mgr, analyses[i].test_set);
      }
      entries.push_back(
          {std::move(analyses[i].test_set), analyses[i].detectability});
    }
    if (tel.store()) {
      tel.store()->store_forest(forest_key, "tests", cache_mgr, roots);
    }
  }
  std::cout << "Provably redundant faults: " << redundant << "\n";

  // Hardest (smallest test set) first, so scarce vectors are placed
  // before flexible ones. In hybrid mode the prefilter's witness vectors
  // are already in the set, so DP-phase faults reuse them when possible.
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return a.detectability < b.detectability;
  });
  std::vector<bdd::Bdd> test_sets;
  test_sets.reserve(entries.size());
  for (Entry& e : entries) test_sets.push_back(std::move(e.test_set));
  const std::size_t random_vectors = vectors.size();
  const std::size_t reused = compact(test_sets, c.num_inputs(), vectors);
  std::cout << "Generated vectors: " << vectors.size() << " (" << reused
            << " faults covered by reuse";
  if (flags.hybrid) {
    std::cout << "; " << random_vectors << " random-phase + "
              << vectors.size() - random_vectors << " DP-phase";
  }
  std::cout << ")\n";

  // Independent verification: grade the vector set with the simulator,
  // over the FULL fault list (prefilter-covered faults included).
  const sim::WideFaultSimulator grader(c);
  const auto cov = grader.grade_vectors(faults, vectors);
  std::size_t detected = cov.detected();
  std::cout << "Simulator-graded coverage: " << detected << "/" << cov.total
            << " = " << 100.0 * static_cast<double>(detected) / cov.total
            << "% (expected: all but the " << redundant
            << " redundant faults)\n";

  // Comparison: how many random patterns reach the same coverage?
  std::size_t budget = 64;
  while (budget < 65536) {
    if (grader.grade_random(faults, budget, 7).detected() >= detected) break;
    budget *= 2;
  }
  std::cout << "Random patterns needed for equal coverage: ~" << budget
            << " vs " << vectors.size() << " deterministic vectors\n";

  bool ok = detected + redundant == cov.total;
  std::cout << (ok ? "OK: complete coverage of all testable faults\n"
                   : "WARNING: coverage gap\n");
  if (flags.ndetect > 0) {
    ok = ndetect_top_up(c, faults, flags, tel, vectors, detected) && ok;
  }
  // Always shown (even serial) so refcount underflows can never hide.
  // A warm-cache run has no engine (that is the point), so nothing to show.
  if (engine) std::cout << "\n" << engine->stats();

  std::cout << "# " << c.name() << ": " << vectors.size() << " vectors, "
            << detected << "/" << cov.total << " faults detected, "
            << redundant << " redundant\n";
  for (const auto& v : vectors) {
    for (bool b : v) std::cout << (b ? '1' : '0');
    std::cout << "\n";
  }
  return ok ? 0 : 1;
}

int cmd_diagnose(const netlist::Circuit& c, const std::string& net,
                 const std::string& value, cli::Telemetry& tel) {
  if (value != "0" && value != "1") {
    std::cerr << "stuck value must be 0 or 1, got '" << value << "'\n";
    return 2;
  }
  const auto id = c.find_net(net);
  if (!id) {
    std::cerr << "no net named '" << net << "'\n";
    return 1;
  }

  netlist::Structure st(c);
  bdd::Manager mgr(0);
  core::GoodFunctions good(mgr, c);
  core::DifferencePropagator dp(good, st);
  sim::FaultSimulator fs(c);

  // Dictionary over a compact vector set, compacted in fault order.
  const auto faults = fault::collapse_checkpoint_faults(c);
  std::vector<bdd::Bdd> test_sets;
  for (const auto& f : faults) {
    core::FaultAnalysis a = dp.analyze(f);
    if (a.detectable) test_sets.push_back(std::move(a.test_set));
  }
  std::vector<std::vector<bool>> vectors;
  compact(test_sets, c.num_inputs(), vectors);
  const analysis::FaultDictionary dict(dp, faults, vectors);

  // "Defective unit": simulate the requested fault and collect its
  // failing-PO signatures on the same vectors.
  const fault::StuckAtFault injected{*id, std::nullopt, value == "1"};
  std::vector<analysis::PoSignature> observed;
  for (const auto& v : vectors) {
    std::vector<sim::Word> goodv(c.num_nets(), 0), badv(c.num_nets(), 0);
    for (std::size_t i = 0; i < v.size(); ++i) {
      goodv[c.inputs()[i]] = badv[c.inputs()[i]] = v[i] ? ~sim::Word{0} : 0;
    }
    fs.good_values(goodv);
    fs.faulty_values(badv, injected);
    analysis::PoSignature sig = 0;
    for (std::size_t p = 0; p < c.num_outputs(); ++p) {
      if ((goodv[c.outputs()[p]] ^ badv[c.outputs()[p]]) & 1) {
        sig |= analysis::PoSignature{1} << p;
      }
    }
    observed.push_back(sig);
  }

  const auto ranked = dict.diagnose(observed);
  std::cout << "injected " << describe(injected, c) << "; dictionary over "
            << vectors.size() << " vectors, resolution "
            << analysis::TextTable::num(dict.resolution()) << "\n";
  std::cout << "top candidates (distance 0 = perfect match):\n";
  for (std::size_t k = 0; k < std::min<std::size_t>(5, ranked.size()); ++k) {
    const auto& cand = ranked[k];
    std::cout << "  " << describe(dict.fault_at(cand.fault_index), c)
              << "  distance " << cand.distance << "\n";
  }
  mgr.export_metrics(tel.metrics());
  return 0;
}

int cmd_dot(const netlist::Circuit& c, const std::string& net) {
  const auto id = c.find_net(net);
  if (!id) {
    std::cerr << "no net named '" << net << "'\n";
    return 1;
  }
  bdd::Manager mgr(0);
  core::GoodFunctions good(mgr, c);
  write_dot(std::cout, good.at(*id), [&](bdd::Var v) {
    return c.net_name(c.inputs()[v]);
  });
  return 0;
}

int cmd_hash(const netlist::Circuit& c) {
  std::cout << store::circuit_content_hash(c) << "\n";
  return 0;
}

int dispatch(const std::vector<std::string>& args, const Flags& flags,
             cli::Telemetry& tel) {
  const std::string cmd = args[0];
  if (cmd == "list") return cmd_list();
  // `dpcli <circuit> --hash`: flag form of the hash command.
  if (args.size() == 2 && args[1] == "--hash") {
    return cmd_hash(cli::load_circuit(args[0]));
  }
  if (args.size() < 2) return usage();
  const netlist::Circuit circuit = cli::load_circuit(args[1]);

  if (cmd == "hash") return cmd_hash(circuit);
  if (cmd == "info") return cmd_info(circuit);
  if (cmd == "sa") return cmd_sa(circuit, flags, tel);
  if (cmd == "bf") return cmd_bf(circuit, flags, tel);
  if (cmd == "atpg") return cmd_atpg(circuit, flags, tel);
  if (cmd == "fault" && args.size() == 4) {
    return cmd_fault(circuit, args[2], args[3], tel);
  }
  if (cmd == "diagnose" && args.size() == 4) {
    return cmd_diagnose(circuit, args[2], args[3], tel);
  }
  if (cmd == "syndrome") return cmd_syndrome(circuit, tel);
  if (cmd == "write") {
    netlist::write_bench(std::cout, circuit);
    return 0;
  }
  if (cmd == "dot" && args.size() == 3) return cmd_dot(circuit, args[2]);
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  cli::handle_version_flag(args, "dpcli");
  if (args.empty()) return usage();

  cli::Telemetry tel;
  tel.strip_flags(args);
  if (args.empty()) return usage();
  const std::optional<Flags> flags = parse_flags(args);
  if (!flags) return 2;

  int rc;
  try {
    rc = dispatch(args, *flags, tel);
  } catch (const std::exception& e) {
    std::cerr << "dpcli: " << e.what() << "\n";
    return 1;
  }
  if (!tel.write("dpcli", args[0]) && rc == 0) rc = 1;
  return rc;
}
