// dpcli -- command-line front end for the Difference Propagation library.
//
//   dpcli list                          built-in benchmark circuits
//   dpcli info <circuit>                netlist statistics + structure
//   dpcli sa <circuit> [--full]         stuck-at testability profile
//   dpcli bf <circuit> [--count N]      bridging-fault study (AND + OR)
//
// sa and bf accept --jobs N to shard the sweep over N worker threads
// (0 = all hardware threads); results are bit-identical to --jobs 1.
//   dpcli fault <circuit> <net> <0|1>   analyze one stem stuck-at fault
//   dpcli syndrome <circuit>            per-net syndromes (signal probs)
//   dpcli atpg <circuit>                compact test set + coverage
//   dpcli diagnose <circuit> <net> <0|1>  locate an injected fault via
//                                         the exact fault dictionary
//   dpcli write <circuit>               emit the netlist as .bench text
//   dpcli dot <circuit> <net>           good-function BDD in dot syntax
//   dpcli hash <circuit>                structural content hash (the
//                                       artifact-cache key component);
//                                       `dpcli <circuit> --hash` works too
//
// sa and bf also accept --cache-dir PATH (reuse cached profiles, resume
// interrupted sweeps) and --resume/--no-resume.
//
// <circuit> is a built-in benchmark name or a path to a .bench file.
#include <iostream>
#include <string>
#include <vector>

#include "analysis/diagnosis.hpp"
#include "cli_common.hpp"
#include "analysis/hybrid.hpp"
#include "analysis/profiles.hpp"
#include "analysis/random_pattern.hpp"
#include "analysis/report.hpp"
#include "bdd/dot_export.hpp"
#include "dp/engine.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/generators.hpp"
#include "netlist/structure.hpp"
#include "sim/fault_sim.hpp"
#include "sim/wide_sim.hpp"
#include "store/hash.hpp"

using namespace dp;

namespace {

int usage() {
  std::cerr
      << "usage: dpcli <command> [args]\n"
         "  list | info C | sa C [--full] | bf C [--count N]\n"
         "  fault C NET 0|1 | diagnose C NET 0|1 | syndrome C | atpg C\n"
         "  write C | dot C NET | hash C (or: C --hash)\n"
         "  (C = benchmark name or .bench path; sa and bf take --jobs N)\n"
         "  sa also takes --hybrid [--prefilter-patterns N]: random-pattern\n"
         "  prefilter first, exact DP only on the undetected remainder\n"
         "  global: --metrics-json PATH (dp.metrics.v1 document),\n"
         "          --trace-out PATH (dp.trace.v1 span document),\n"
         "          --cache-dir PATH (artifact cache), --resume/--no-resume\n";
  return 2;
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

int cmd_sa_hybrid(const netlist::Circuit& c, bool full, std::size_t jobs,
                  std::size_t prefilter_patterns, cli::Telemetry& tel) {
  analysis::AnalysisOptions opt;
  opt.collapse = !full;
  opt.jobs = jobs;
  analysis::HybridOptions hopt;
  hopt.prefilter_patterns = prefilter_patterns;
  const analysis::HybridProfile p = analysis::analyze_stuck_at_hybrid(c, opt, hopt);
  p.engine_stats.export_metrics(tel.metrics());
  p.export_metrics(tel.metrics());
  std::cout << "hybrid stuck-at analysis of " << c.name() << " ("
            << (full ? "uncollapsed" : "collapsed") << " checkpoints)\n";
  std::cout << "  faults            : " << p.faults.size() << "\n";
  std::cout << "  prefilter resolved: " << p.prefilter_resolved() << " ("
            << analysis::TextTable::num(p.prefilter_fraction()) << " of all, "
            << p.prefilter_patterns << " random patterns)\n";
  std::cout << "  exact DP remainder: " << p.dp_resolved() << " analyzed, "
            << p.redundant_count() << " undetectable\n";
  std::cout << "  phase seconds     : prefilter "
            << analysis::TextTable::num(p.prefilter_seconds) << ", DP "
            << analysis::TextTable::num(p.dp_seconds) << "\n";
  // Always shown (even serial) so refcount underflows can never hide.
  std::cout << "\n" << p.engine_stats;
  return 0;
}

int cmd_sa(const netlist::Circuit& c, bool full, std::size_t jobs,
           cli::Telemetry& tel) {
  analysis::AnalysisOptions opt;
  opt.collapse = !full;
  opt.jobs = jobs;
  opt.persistence.store = tel.store();
  opt.persistence.resume = tel.resume();
  const analysis::CircuitProfile p = analysis::analyze_stuck_at(c, opt);
  p.engine_stats.export_metrics(tel.metrics());
  std::cout << "stuck-at profile of " << c.name() << " ("
            << (full ? "uncollapsed" : "collapsed") << " checkpoints)\n";
  std::cout << "  faults       : " << p.faults.size() << "\n";
  std::cout << "  undetectable : " << p.faults.size() - p.detectable_count()
            << "\n";
  std::cout << "  mean det     : "
            << analysis::TextTable::num(p.mean_detectability_detectable())
            << "\n";
  std::cout << "  patterns for 95%/99% random coverage: "
            << analysis::patterns_for_coverage(p, 0.95) << " / "
            << analysis::patterns_for_coverage(p, 0.99) << "\n\n";
  analysis::print_histogram(std::cout, p.detectability_histogram(20),
                            "detectability profile", "detection probability");
  std::cout << "\n";
  analysis::print_series(std::cout, p.detectability_by_po_distance(),
                         "bathtub curve", "max levels to PO",
                         "mean detectability");
  // Always shown (even serial) so refcount underflows can never hide.
  std::cout << "\n" << p.engine_stats;
  return 0;
}

int cmd_bf(const netlist::Circuit& c, std::size_t count, std::size_t jobs,
           cli::Telemetry& tel) {
  analysis::AnalysisOptions opt;
  opt.sampling.target_count = count;
  opt.jobs = jobs;
  opt.persistence.store = tel.store();
  opt.persistence.resume = tel.resume();
  analysis::TextTable t({"type", "faults", "detectable", "mean det",
                         "stuck-at-like"});
  analysis::CircuitProfile last;
  for (fault::BridgeType type :
       {fault::BridgeType::And, fault::BridgeType::Or}) {
    analysis::CircuitProfile p = analysis::analyze_bridging(c, type, opt);
    p.engine_stats.export_metrics(tel.metrics());
    t.add_row({fault::to_string(type), std::to_string(p.faults.size()),
               std::to_string(p.detectable_count()),
               analysis::TextTable::num(p.mean_detectability_detectable()),
               analysis::TextTable::num(p.bridge_stuck_at_fraction())});
    last = std::move(p);
  }
  std::cout << "bridging-fault study of " << c.name() << "\n";
  t.print(std::cout);
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

/// Greedy compact vector set covering every detectable collapsed fault
/// (shared by the atpg and diagnose subcommands).
std::vector<std::vector<bool>> build_compact_vectors(
    const netlist::Circuit& c, core::DifferencePropagator& dp,
    std::size_t* redundant_out = nullptr) {
  std::vector<std::vector<bool>> vectors;
  std::size_t redundant = 0;
  for (const auto& f : fault::collapse_checkpoint_faults(c)) {
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
  if (redundant_out) *redundant_out = redundant;
  return vectors;
}

int cmd_atpg(const netlist::Circuit& c, cli::Telemetry& tel) {
  netlist::Structure st(c);
  bdd::Manager mgr(0);
  core::GoodFunctions good(mgr, c);
  core::DifferencePropagator dp(good, st);

  const auto faults = fault::collapse_checkpoint_faults(c);
  std::size_t redundant = 0;
  const auto vectors = build_compact_vectors(c, dp, &redundant);
  mgr.export_metrics(tel.metrics());
  const auto cov = sim::WideFaultSimulator(c).grade_vectors(faults, vectors);
  std::cout << "# " << c.name() << ": " << vectors.size() << " vectors, "
            << cov.detected() << "/" << cov.total << " faults detected, "
            << redundant << " redundant\n";
  for (const auto& v : vectors) {
    for (bool b : v) std::cout << (b ? '1' : '0');
    std::cout << "\n";
  }
  return 0;
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

  // Dictionary over a compact ATPG vector set.
  const auto faults = fault::collapse_checkpoint_faults(c);
  const auto vectors = build_compact_vectors(c, dp);
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

}  // namespace

namespace {

int cmd_hash(const netlist::Circuit& c) {
  std::cout << store::circuit_content_hash(c) << "\n";
  return 0;
}

struct HybridFlags {
  bool enabled = false;
  std::size_t prefilter_patterns = 4096;
};

int dispatch(const std::vector<std::string>& args, std::size_t jobs,
             const HybridFlags& hybrid, cli::Telemetry& tel) {
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
  if (cmd == "sa") {
    const bool full = args.size() > 2 && args[2] == "--full";
    if (hybrid.enabled) {
      return cmd_sa_hybrid(circuit, full, jobs, hybrid.prefilter_patterns,
                           tel);
    }
    return cmd_sa(circuit, full, jobs, tel);
  }
  if (cmd == "bf") {
    std::size_t count = 1000;
    if (args.size() > 3 && args[2] == "--count") {
      count = cli::parse_count("--count", args[3]);
    }
    return cmd_bf(circuit, count, jobs, tel);
  }
  if (cmd == "fault" && args.size() == 4) {
    return cmd_fault(circuit, args[2], args[3], tel);
  }
  if (cmd == "diagnose" && args.size() == 4) {
    return cmd_diagnose(circuit, args[2], args[3], tel);
  }
  if (cmd == "syndrome") return cmd_syndrome(circuit, tel);
  if (cmd == "atpg") return cmd_atpg(circuit, tel);
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

  // `--jobs N` may appear anywhere after the command; strip it here so
  // the per-command positional parsing below stays simple. A trailing
  // `--jobs` with no value is a hard error, never a silent default.
  std::size_t jobs = 1;
  HybridFlags hybrid;
  for (std::size_t i = 1; i < args.size();) {
    if (args[i] == "--hybrid") {
      hybrid.enabled = true;
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    if (args[i] == "--jobs" || args[i] == "--prefilter-patterns") {
      if (i + 1 >= args.size()) {
        std::cerr << "error: " << args[i] << " requires a value\n";
        return 2;
      }
      const std::size_t value = cli::parse_count(args[i], args[i + 1]);
      if (args[i] == "--jobs") {
        jobs = value;
      } else {
        hybrid.prefilter_patterns = value;
      }
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
      continue;
    }
    // The remaining flags are positional parts of one command; any other
    // option is a typo or a removed flag, never something to ignore.
    if (args[i].starts_with("--") && args[i] != "--full" &&
        args[i] != "--count" && args[i] != "--hash") {
      std::cerr << "error: unknown option '" << args[i] << "'\n";
      return 2;
    }
    ++i;
  }

  int rc;
  try {
    rc = dispatch(args, jobs, hybrid, tel);
  } catch (const std::exception& e) {
    std::cerr << "dpcli: " << e.what() << "\n";
    return 1;
  }
  if (!tel.write("dpcli", args[0]) && rc == 0) rc = 1;
  return rc;
}
