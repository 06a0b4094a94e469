// DP-based automatic test pattern generation: Difference Propagation
// returns the COMPLETE test set of every fault, so ATPG reduces to vector
// selection. This tool generates a compact test set for the collapsed
// checkpoint faults of a circuit, then independently fault-grades it with
// the parallel-pattern simulator.
//
//   $ ./atpg_tool             # defaults to c95
//   $ ./atpg_tool c432
//   $ ./atpg_tool c432 --jobs 4   # fault-parallel analysis sweep
//   $ ./atpg_tool c432 --metrics-json atpg.json --trace-out trace.json
//   $ ./atpg_tool c432 --cache-dir .dpcache
//       # first run serializes the per-fault test-set forest; a warm
//       # rerun loads it and skips BDD construction and DP entirely
//   $ ./atpg_tool c432 --hybrid [--prefilter-patterns N]
//       # two-phase ATPG: the wide random-pattern prefilter detects the
//       # easy faults and keeps each fault's first detecting vector; DP
//       # then analyzes and covers only the resistant remainder. The
//       # final grade still covers every fault.
//   $ ./atpg_tool c1908 --ndetect 3 [--ndetect-json PATH]
//       # n-detection: after the 1-detect compaction, mint top-up
//       # vectors from each fault's residual CTS BDD until every
//       # detectable fault has >= min(N, |CTS|) distinct detecting
//       # vectors, reporting the vector-count growth curve n = 1..N.
//       # The counts are verified by an independent wide-simulator
//       # recount (exact ==). --ndetect-json writes the dp.ndetect.v1
//       # document (validated by bench/validate_metrics).
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/ndetect.hpp"
#include "cli_common.hpp"
#include "dp/parallel_engine.hpp"
#include "netlist/structure.hpp"
#include "sim/wide_sim.hpp"
#include "store/bdd_io.hpp"
#include "store/hash.hpp"

using namespace dp;

namespace {

/// Fixed prefilter stream seed so hybrid runs are reproducible.
constexpr std::uint64_t kPrefilterSeed = 0x5eedb10cull;

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  cli::handle_version_flag(args, "atpg_tool");
  cli::Telemetry tel;
  tel.strip_flags(args);

  std::string arg = "c95";
  std::size_t jobs = 1;
  bool hybrid = false;
  std::size_t prefilter_patterns = 1024;
  std::size_t ndetect = 0;  // 0 = classic 1-detect ATPG
  std::string ndetect_json;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--jobs" || args[i] == "--prefilter-patterns" ||
        args[i] == "--ndetect") {
      if (i + 1 >= args.size()) {
        std::cerr << "error: " << args[i] << " requires a value\n";
        return 2;
      }
      const std::string flag = args[i];
      const std::size_t value = cli::parse_count(flag, args[++i]);
      if (flag == "--jobs") {
        jobs = value;
      } else if (flag == "--ndetect") {
        ndetect = value;
      } else {
        prefilter_patterns = value;
      }
    } else if (args[i] == "--ndetect-json") {
      if (i + 1 >= args.size()) {
        std::cerr << "error: --ndetect-json requires a value\n";
        return 2;
      }
      ndetect_json = args[++i];
    } else if (args[i] == "--hybrid") {
      hybrid = true;
    } else {
      arg = args[i];
    }
  }
  netlist::Circuit circuit = cli::load_circuit(arg);
  netlist::Structure structure(circuit);

  const auto faults = fault::collapse_checkpoint_faults(circuit);
  std::cout << "ATPG for " << circuit.name() << ": " << faults.size()
            << " collapsed checkpoint faults\n";

  // Phase 1 (hybrid only): random-pattern prefilter. Every detected fault
  // contributes its first detecting pattern, reconstructed from the
  // deterministic stream, so the random phase's coverage claims are backed
  // by concrete vectors in the emitted set.
  std::vector<std::vector<bool>> vectors;
  std::vector<fault::StuckAtFault> dp_faults = faults;
  if (hybrid) {
    const sim::WideFaultSimulator wide(circuit);
    sim::WideSimOptions wopt;
    wopt.jobs = jobs;
    const sim::WideFaultSimulator::Grade grade =
        wide.grade_random(faults, prefilter_patterns, kPrefilterSeed, wopt);
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
        wide.random_patterns(prefilter_patterns, kPrefilterSeed);
    for (const std::uint64_t p : picks) {
      vectors.push_back(stream[static_cast<std::size_t>(p)]);
    }
    std::cout << "Prefilter (" << prefilter_patterns << " random patterns): "
              << faults.size() - dp_faults.size() << " faults detected, "
              << vectors.size() << " witness vectors kept, "
              << dp_faults.size() << " faults left for DP\n";
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
    kb.str(store::circuit_content_hash(circuit));
    kb.u64(dp_faults.size());
    if (hybrid) {
      kb.str("hybrid");
      kb.u64(prefilter_patterns);
      kb.u64(kPrefilterSeed);
    }
    forest_key = kb.hex();
  }

  // On the cold path the engine must stay alive until vector minting is
  // done: the test-set BDDs live in its worker managers. Declared before
  // `entries` so it is destroyed after the handles into it.
  std::optional<core::ParallelEngine> engine;

  struct Entry {
    const fault::StuckAtFault* fault;
    bdd::Bdd test_set;
    double detectability;
  };
  std::vector<Entry> entries;
  std::size_t redundant = 0;
  bool from_cache = false;
  if (tel.store()) {
    if (auto roots =
            tel.store()->load_forest(forest_key, "tests", cache_mgr)) {
      if (roots->size() == dp_faults.size()) {
        from_cache = true;
        std::cout << "[cache] test-set forest hit in " << tel.store()->dir()
                  << "\n";
        for (std::size_t i = 0; i < dp_faults.size(); ++i) {
          const bdd::Bdd& ts = (*roots)[i];
          if (!ts.valid() || ts.is_zero()) {
            ++redundant;  // stored as an absent/empty test set
            continue;
          }
          entries.push_back({&dp_faults[i], ts,
                             ts.density(circuit.num_inputs())});
        }
      }
    }
  }
  if (!from_cache && !dp_faults.empty()) {
    // Analyze every fault (sharded over --jobs workers); sort hardest
    // (smallest test set) first so scarce vectors are placed before
    // flexible ones.
    core::ParallelEngine::Options popt;
    popt.jobs = jobs;
    engine.emplace(circuit, structure, popt);
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
      const double det = analyses[i].detectability;
      entries.push_back({&dp_faults[i], std::move(analyses[i].test_set), det});
    }
    if (tel.store()) {
      tel.store()->store_forest(forest_key, "tests", cache_mgr, roots);
    }
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return a.detectability < b.detectability;
  });
  std::cout << "Provably redundant faults: " << redundant << "\n";

  // Greedy compaction: reuse an existing vector whenever the fault's test
  // set already contains one (a BDD evaluation), else mint a new vector
  // from the test set's satisfying cube (don't-cares filled with zeros).
  // In hybrid mode the prefilter's witness vectors are already in the set,
  // so DP-phase faults reuse them when possible.
  const std::size_t random_vectors = vectors.size();
  std::size_t reused = 0;
  for (const Entry& e : entries) {
    bool covered = false;
    for (const auto& v : vectors) {
      if (e.test_set.eval(v)) {
        covered = true;
        ++reused;
        break;
      }
    }
    if (covered) continue;
    const auto cube = e.test_set.sat_one();
    std::vector<bool> v(circuit.num_inputs(), false);
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = cube[i] == 1;
    vectors.push_back(std::move(v));
  }
  std::cout << "Generated vectors: " << vectors.size() << " ("
            << reused << " faults covered by reuse";
  if (hybrid) {
    std::cout << "; " << random_vectors << " random-phase + "
              << vectors.size() - random_vectors << " DP-phase";
  }
  std::cout << ")\n";

  // Independent verification: grade the vector set with the simulator,
  // over the FULL fault list (prefilter-covered faults included).
  const sim::WideFaultSimulator grader(circuit);
  const auto cov = grader.grade_vectors(faults, vectors);
  const std::size_t detected = cov.detected();
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

  // Phase 3 (--ndetect N): top up the compacted set until every
  // detectable fault has min(N, |CTS|) distinct detecting vectors. The
  // analyzer runs its own DP sweep over the FULL collapsed fault list
  // (in hybrid mode the pipeline above analyzed only the resistant
  // remainder), then mints witnesses from each fault's residual CTS BDD,
  // hardest fault first. Every reported count is then re-derived by the
  // wide simulator and compared with exact ==.
  if (ndetect > 0) {
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
    nopt.jobs = jobs;
    analysis::NDetectAnalyzer analyzer(circuit, faults, nopt);
    analyzer.stats().export_metrics(tel.metrics(), "ndetect");

    std::cout << "\nn-detect top-up (target N=" << ndetect << "):\n"
              << "  n=0: " << vectors.size() << " vectors (1-detect set)\n";
    std::size_t minted_total = 0;
    for (std::size_t k = 1; k <= ndetect; ++k) {
      minted_total += analyzer.top_up(vectors, k);
      std::cout << "  n=" << k << ": " << vectors.size() << " vectors ("
                << minted_total << " minted)\n";
    }
    analysis::NDetectReport report = analyzer.report(vectors, ndetect);
    report.minted_vectors = minted_total;

    sim::WideFaultSimulator wide(circuit);
    sim::WideFaultSimulator::Options wopt;
    wopt.drop_detected = false;
    wopt.jobs = jobs;
    const auto regrade = wide.grade_vectors(faults, vectors, wopt);
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
              << "Mean CTS coverage at N=" << ndetect << ": "
              << report.mean_cts_coverage() << "\n";
    const bool ndetect_ok = mismatches == 0 && report.complete();
    std::cout << (ndetect_ok
                      ? "OK: every detectable fault meets its n-detect quota\n"
                      : "WARNING: n-detect verification failed\n");
    ok = ok && ndetect_ok;

    if (!ndetect_json.empty()) {
      std::ofstream out(ndetect_json);
      if (!out) {
        std::cerr << "error: cannot write " << ndetect_json << "\n";
        ok = false;
      } else {
        out << analysis::ndetect_report_to_json(report).dump(2) << "\n";
        std::cout << "Wrote " << ndetect_json << "\n";
      }
    }
  }
  // Always shown (even serial) so refcount underflows can never hide.
  // A warm-cache run has no engine (that is the point), so nothing to show.
  if (engine) std::cout << "\n" << engine->stats();
  const bool wrote = tel.write("atpg_tool");
  return ok && wrote ? 0 : 1;
}
