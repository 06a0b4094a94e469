#include "verify/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <sstream>

#include <set>

#include "analysis/hybrid.hpp"
#include "analysis/ndetect.hpp"
#include "analysis/profile_io.hpp"
#include "analysis/profiles.hpp"
#include "dp/engine.hpp"
#include "dp/parallel_engine.hpp"
#include "dp/symbolic_sim.hpp"
#include "fault/multiple.hpp"
#include "netlist/structure.hpp"
#include "sim/fault_sim.hpp"
#include "sim/wide_sim.hpp"
#include "store/artifact_store.hpp"

namespace dp::verify {

const char* to_string(Mutation m) {
  switch (m) {
    case Mutation::None: return "none";
    case Mutation::InflateDetectability: return "inflate_detectability";
    case Mutation::DropTestVector: return "drop_test_vector";
    case Mutation::FlipSyndrome: return "flip_syndrome";
    case Mutation::PerturbParallelMerge: return "perturb_parallel_merge";
    case Mutation::PerturbNDetectCount: return "perturb_ndetect_count";
    case Mutation::PerturbPrefilterCount: return "perturb_prefilter_count";
  }
  return "none";
}

namespace {

struct Recorder {
  OracleResult* out;

  void mismatch(const std::string& oracle, const std::string& subject,
                const std::string& detail) {
    out->discrepancies.push_back({oracle, subject, detail});
  }

  template <typename T>
  void expect_eq(const std::string& oracle, const std::string& subject,
                 T expected, T got) {
    if (expected == got) return;
    std::ostringstream os;
    os.precision(17);
    os << "expected " << expected << ", got " << got;
    mismatch(oracle, subject, os.str());
  }
};

/// The oracle's view of one serial-DP fault analysis, after the optional
/// self-test mutation has been applied. Membership is a function so
/// DropTestVector can lie about exactly one vector.
struct DpView {
  double detectability = 0.0;
  bool detectable = false;
  const core::FaultAnalysis* analysis = nullptr;
  std::uint64_t dropped_vector = ~0ull;  ///< membership lies here

  bool member(const std::vector<bool>& point, std::uint64_t v) const {
    if (v == dropped_vector) return false;
    return analysis->test_set.eval(point);
  }
};

/// `mutate_pending` is consumed when the perturbation lands on this
/// fault; DropTestVector needs a fault with a non-empty test set and
/// stays pending until it sees one.
DpView make_view(const core::FaultAnalysis& a, bool* mutate_pending,
                 Mutation mutate, std::size_t num_inputs) {
  DpView view;
  view.analysis = &a;
  view.detectability = a.detectability;
  view.detectable = a.detectable;
  if (!mutate_pending || !*mutate_pending) return view;
  const double one_vector = std::ldexp(1.0, -static_cast<int>(num_inputs));
  if (mutate == Mutation::InflateDetectability) {
    view.detectability += one_vector;
    view.detectable = true;
    *mutate_pending = false;
  } else if (mutate == Mutation::DropTestVector) {
    // Lie about the lowest vector the true test set contains.
    const std::uint64_t limit = 1ull << num_inputs;
    for (std::uint64_t v = 0; v < limit; ++v) {
      std::vector<bool> point(num_inputs);
      for (std::size_t i = 0; i < num_inputs; ++i) point[i] = (v >> i) & 1;
      if (a.test_set.eval(point)) {
        view.dropped_vector = v;
        *mutate_pending = false;
        break;
      }
    }
  }
  return view;
}

/// dp_vs_sim arm for one fault (stuck-at, bridging or multiple stuck-at).
template <typename Fault>
void check_fault(const Fault& f, bool* mutate_pending, const FuzzCase& fc,
                 const core::DifferencePropagator& dp,
                 const sim::FaultSimulator& fs, Mutation mutate,
                 Recorder& rec, OracleResult& result,
                 core::FaultAnalysis& serial_out) {
  const std::string what = describe(f, fc.circuit);
  serial_out = dp.analyze(f);
  const std::size_t n = fc.circuit.num_inputs();
  const DpView view = make_view(serial_out, mutate_pending, mutate, n);

  const double sim_det = fs.exhaustive_detectability(f);
  rec.expect_eq("dp_vs_sim.detectability", what, sim_det, view.detectability);
  rec.expect_eq("dp_vs_sim.detectable", what, sim_det > 0.0, view.detectable);

  const auto bitmap = fs.exhaustive_test_set(f);
  for (std::uint64_t v = 0; v < bitmap.size(); ++v) {
    std::vector<bool> point(n);
    for (std::size_t i = 0; i < n; ++i) point[i] = (v >> i) & 1;
    if (view.member(point, v) != bitmap[v]) {
      rec.mismatch("dp_vs_sim.test_set", what,
                   "membership differs at vector " + std::to_string(v));
    }
  }
  result.vectors_checked += bitmap.size();
  ++result.faults_checked;
}

/// dp_vs_symbolic arm for one bridge: DP (per-wire products through the
/// roots' observabilities) against symbolic fault simulation (faulty
/// functions swept through the whole cone) in the same manager, so BDDs
/// compare by handle and every FaultAnalysis field but the work counters
/// must be equal.
void check_symbolic_bridge(const std::string& what,
                           const core::FaultAnalysis& dp,
                           const core::FaultAnalysis& sym, Recorder& rec) {
  auto same = [](const bdd::Bdd& a, const bdd::Bdd& b) {
    return a.valid() == b.valid() && (!a.valid() || a == b);
  };
  const std::string arm = "dp_vs_symbolic";
  if (!same(sym.test_set, dp.test_set)) {
    rec.mismatch(arm + ".test_set", what, "test-set handles differ");
  }
  rec.expect_eq(arm + ".po_count", what, sym.po_differences.size(),
                dp.po_differences.size());
  for (std::size_t p = 0; p < std::min(sym.po_differences.size(),
                                       dp.po_differences.size());
       ++p) {
    if (!same(sym.po_differences[p], dp.po_differences[p])) {
      rec.mismatch(arm + ".po_differences", what,
                   "PO " + std::to_string(p) + " difference handles differ");
    }
  }
  if (sym.po_observable != dp.po_observable) {
    rec.mismatch(arm + ".po_observable", what, "per-PO flags differ");
  }
  rec.expect_eq(arm + ".pos_observable", what, sym.pos_observable,
                dp.pos_observable);
  rec.expect_eq(arm + ".pos_fed", what, sym.pos_fed, dp.pos_fed);
  rec.expect_eq(arm + ".detectable", what, sym.detectable, dp.detectable);
  rec.expect_eq(arm + ".detectability", what, sym.detectability,
                dp.detectability);
  rec.expect_eq(arm + ".upper_bound", what, sym.upper_bound, dp.upper_bound);
  rec.expect_eq(arm + ".adherence", what, sym.adherence, dp.adherence);
  rec.expect_eq(arm + ".bridge_stuck_at", what, sym.bridge_stuck_at,
                dp.bridge_stuck_at);
}

/// Parallel arm: one merged analysis against its serial counterpart.
void check_parallel_fault(const std::string& what,
                          const core::FaultAnalysis& serial,
                          const core::FaultAnalysis& par, bool first_fault,
                          Mutation mutate, std::size_t num_inputs,
                          Recorder& rec) {
  double par_det = par.detectability;
  if (first_fault && mutate == Mutation::PerturbParallelMerge) {
    par_det += std::ldexp(1.0, -static_cast<int>(num_inputs));
  }
  rec.expect_eq("parallel.detectability", what, serial.detectability, par_det);
  rec.expect_eq("parallel.detectable", what, serial.detectable, par.detectable);
  rec.expect_eq("parallel.upper_bound", what, serial.upper_bound,
                par.upper_bound);
  rec.expect_eq("parallel.adherence", what, serial.adherence, par.adherence);
  rec.expect_eq("parallel.pos_observable", what, serial.pos_observable,
                par.pos_observable);
  rec.expect_eq("parallel.pos_fed", what, serial.pos_fed, par.pos_fed);
  rec.expect_eq("parallel.bridge_stuck_at", what, serial.bridge_stuck_at,
                par.bridge_stuck_at);
  rec.expect_eq("parallel.test_set_size", what,
                serial.test_set.sat_count(num_inputs),
                par.test_set.sat_count(num_inputs));
}

/// Field-exact FaultRecord comparison for the store arm.
void check_records(const std::string& oracle,
                   const std::vector<analysis::FaultRecord>& expected,
                   const std::vector<analysis::FaultRecord>& got,
                   Recorder& rec) {
  if (expected.size() != got.size()) {
    rec.expect_eq(oracle + ".fault_count", "profile", expected.size(),
                  got.size());
    return;
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const auto& e = expected[i];
    const auto& g = got[i];
    const std::string subject = "fault record " + std::to_string(i);
    rec.expect_eq(oracle + ".detectable", subject, e.detectable, g.detectable);
    rec.expect_eq(oracle + ".detectability", subject, e.detectability,
                  g.detectability);
    rec.expect_eq(oracle + ".upper_bound", subject, e.upper_bound,
                  g.upper_bound);
    rec.expect_eq(oracle + ".adherence", subject, e.adherence, g.adherence);
    rec.expect_eq(oracle + ".pos_fed", subject, e.pos_fed, g.pos_fed);
    rec.expect_eq(oracle + ".pos_observable", subject, e.pos_observable,
                  g.pos_observable);
    rec.expect_eq(oracle + ".max_levels_to_po", subject, e.max_levels_to_po,
                  g.max_levels_to_po);
    rec.expect_eq(oracle + ".level_from_pi", subject, e.level_from_pi,
                  g.level_from_pi);
    rec.expect_eq(oracle + ".branch_site", subject, e.branch_site,
                  g.branch_site);
  }
}

/// Cold sweep vs profile-cache hit vs checkpoint resume, in a throwaway
/// per-case store directory.
void run_store_arm(const FuzzCase& fc, const std::string& scratch_root,
                   Recorder& rec) {
  namespace fs = std::filesystem;
  std::ostringstream dir;
  dir << scratch_root << "/case_" << std::hex << fc.case_seed;
  store::ArtifactStore store(dir.str());

  analysis::AnalysisOptions options;
  options.jobs = 1;
  options.persistence.store = &store;
  // Deliberately ragged batches: the last checkpoint chunk is partial for
  // most fault-set sizes, exercising the resume boundary.
  options.persistence.checkpoint_interval = 5;

  const analysis::CircuitProfile cold =
      analysis::analyze_stuck_at(fc.circuit, options);
  const analysis::CircuitProfile warm =
      analysis::analyze_stuck_at(fc.circuit, options);
  check_records("store.warm", cold.faults, warm.faults, rec);

  // Simulate an interrupted sweep: drop the finished profile, install a
  // half-done checkpoint, and require the resumed sweep to be identical.
  const std::string key =
      analysis::profile_cache_key(fc.circuit, "sa", options);
  store.remove(key, "profile");
  analysis::SweepCheckpoint ckpt;
  ckpt.key = key;
  ckpt.total_faults = cold.faults.size();
  ckpt.completed.assign(cold.faults.begin(),
                        cold.faults.begin() +
                            static_cast<std::ptrdiff_t>(cold.faults.size() / 2));
  store.store_document(key, "ckpt", analysis::checkpoint_to_json(ckpt));
  const analysis::CircuitProfile resumed =
      analysis::analyze_stuck_at(fc.circuit, options);
  check_records("store.resumed", cold.faults, resumed.faults, rec);

  std::error_code ec;
  fs::remove_all(dir.str(), ec);  // best effort; scratch root is temp
}

}  // namespace

OracleResult run_oracles(const FuzzCase& fc, const OracleConfig& config) {
  OracleResult result;
  Recorder rec{&result};

  try {
    const netlist::Structure structure(fc.circuit);
    bdd::Manager manager(0);
    const core::GoodFunctions good(manager, fc.circuit);
    const core::DifferencePropagator dp(good, structure);
    const sim::FaultSimulator fs(fc.circuit);
    const std::size_t n = fc.circuit.num_inputs();

    // ---- syndromes (every net, exact) ----------------------------------
    netlist::NetId last_gate = netlist::kInvalidNet;
    for (netlist::NetId id = 0; id < fc.circuit.num_nets(); ++id) {
      if (fc.circuit.type(id) != netlist::GateType::Input) last_gate = id;
    }
    for (netlist::NetId id = 0; id < fc.circuit.num_nets(); ++id) {
      double dp_syn = good.syndrome(id);
      if (config.mutate == Mutation::FlipSyndrome && id == last_gate) {
        dp_syn += std::ldexp(1.0, -static_cast<int>(n));
      }
      rec.expect_eq("dp_vs_sim.syndrome", fc.circuit.net_name(id),
                    fs.exhaustive_syndrome(id), dp_syn);
    }

    // ---- serial DP vs exhaustive simulation ----------------------------
    std::vector<core::FaultAnalysis> serial_sa(fc.sa_faults.size());
    std::vector<core::FaultAnalysis> serial_br(fc.bridges.size());
    bool mutate_pending = config.mutate == Mutation::InflateDetectability ||
                          config.mutate == Mutation::DropTestVector;
    for (std::size_t i = 0; i < fc.sa_faults.size(); ++i) {
      check_fault(fc.sa_faults[i], &mutate_pending, fc, dp, fs,
                  config.mutate, rec, result, serial_sa[i]);
    }
    for (std::size_t i = 0; i < fc.bridges.size(); ++i) {
      check_fault(fc.bridges[i], &mutate_pending, fc, dp, fs, config.mutate,
                  rec, result, serial_br[i]);
    }
    const core::SymbolicFaultSimulator symbolic(good, structure);
    for (std::size_t i = 0; i < fc.bridges.size(); ++i) {
      check_symbolic_bridge(describe(fc.bridges[i], fc.circuit),
                            serial_br[i], symbolic.analyze(fc.bridges[i]),
                            rec);
    }
    // A few 2- and 3-line multiple faults, sampled with a seed derived
    // from the case seed so the case's own fault lists stay as they were.
    const std::size_t universe = fault::checkpoint_faults(fc.circuit).size();
    for (std::size_t multiplicity : {2u, 3u}) {
      if (universe < multiplicity) continue;
      const std::uint64_t seed =
          fc.case_seed ^ (0x6d756c7469706c65ull + multiplicity);
      core::FaultAnalysis analysis;
      for (const fault::MultipleStuckAtFault& mf :
           fault::sample_multiple_faults(fc.circuit, multiplicity, 2, seed)) {
        check_fault(mf, &mutate_pending, fc, dp, fs, config.mutate, rec,
                    result, analysis);
      }
    }

    // ---- parallel engine vs serial -------------------------------------
    if (config.check_parallel) {
      core::ParallelEngine::Options par_options;
      par_options.jobs = config.jobs;
      core::ParallelEngine engine(fc.circuit, structure, par_options);
      const auto par_sa = engine.analyze_all(fc.sa_faults);
      for (std::size_t i = 0; i < fc.sa_faults.size(); ++i) {
        check_parallel_fault(describe(fc.sa_faults[i], fc.circuit),
                             serial_sa[i], par_sa[i], i == 0, config.mutate,
                             n, rec);
      }
      const auto par_br = engine.analyze_all(fc.bridges);
      for (std::size_t i = 0; i < fc.bridges.size(); ++i) {
        check_parallel_fault(describe(fc.bridges[i], fc.circuit),
                             serial_br[i], par_br[i], false, config.mutate,
                             n, rec);
      }
    }

    // ---- hybrid prefilter + DP remainder vs pure serial DP -------------
    if (config.check_hybrid) {
      analysis::AnalysisOptions hybrid_analysis;
      hybrid_analysis.jobs = config.jobs;
      analysis::HybridOptions hybrid_options;
      hybrid_options.prefilter_patterns = config.hybrid_prefilter_patterns;
      analysis::HybridProfile hp = analysis::analyze_hybrid(
          fc.circuit, fc.sa_faults, hybrid_analysis, hybrid_options);
      if (config.mutate == Mutation::PerturbPrefilterCount &&
          !hp.faults.empty()) {
        hp.faults[0].detection_count += 1;
      }
      // The prefilter graded on config.jobs threads; a serial grade of the
      // same stream must repeat its counts exactly.
      const sim::WideFaultSimulator wide(fc.circuit);
      const auto serial_grade = wide.grade_random(
          fc.sa_faults, hybrid_options.prefilter_patterns,
          hybrid_options.prefilter_seed);
      rec.expect_eq("hybrid.prefilter_events", "case", serial_grade.events(),
                    hp.sim_events);
      for (std::size_t i = 0; i < fc.sa_faults.size(); ++i) {
        const std::string what = describe(fc.sa_faults[i], fc.circuit);
        const analysis::HybridFaultRecord& hr = hp.faults[i];
        rec.expect_eq("hybrid.prefilter_count", what,
                      serial_grade.detection_counts[i], hr.detection_count);
        rec.expect_eq("hybrid.first_detection", what,
                      serial_grade.first_detection[i], hr.first_detection);
        rec.expect_eq("hybrid.partition", what, serial_sa[i].detectable,
                      hr.detectable);
        if (hr.resolved_by == analysis::ResolvedBy::Prefilter) {
          if (hr.detection_count == 0) {
            rec.mismatch("hybrid.witness", what,
                         "prefilter-resolved fault has zero detections");
          }
        } else {
          rec.expect_eq("hybrid.detectability", what,
                        serial_sa[i].detectability, hr.dp.detectability);
          rec.expect_eq("hybrid.upper_bound", what, serial_sa[i].upper_bound,
                        hr.dp.upper_bound);
          rec.expect_eq("hybrid.adherence", what, serial_sa[i].adherence,
                        hr.dp.adherence);
          rec.expect_eq("hybrid.pos_fed", what, serial_sa[i].pos_fed,
                        hr.dp.pos_fed);
          rec.expect_eq("hybrid.pos_observable", what,
                        serial_sa[i].pos_observable, hr.dp.pos_observable);
        }
      }

      // The checks above compare the region grader with itself; this
      // recount holds it to the whole-circuit resimulation behind
      // exhaustive_test_set: over all 2^n vectors, every fault's count is
      // its test-set size and its first detection the lowest member.
      std::vector<std::vector<bool>> vectors(std::size_t{1} << n,
                                             std::vector<bool>(n));
      for (std::size_t v = 0; v < vectors.size(); ++v) {
        for (std::size_t i = 0; i < n; ++i) vectors[v][i] = (v >> i) & 1;
      }
      sim::WideSimOptions exhaustive;
      exhaustive.drop_detected = false;
      exhaustive.jobs = config.jobs;
      const auto all = wide.grade_vectors(fc.sa_faults, vectors, exhaustive);
      for (std::size_t i = 0; i < fc.sa_faults.size(); ++i) {
        const std::vector<bool> tests = fs.exhaustive_test_set(fc.sa_faults[i]);
        const auto first = std::find(tests.begin(), tests.end(), true);
        const std::string what = describe(fc.sa_faults[i], fc.circuit);
        rec.expect_eq("hybrid.exhaustive_count", what,
                      static_cast<std::uint64_t>(
                          std::count(tests.begin(), tests.end(), true)),
                      all.detection_counts[i]);
        rec.expect_eq("hybrid.exhaustive_count", what,
                      first == tests.end()
                          ? sim::WideFaultSimulator::kNotDetected
                          : static_cast<std::uint64_t>(first - tests.begin()),
                      all.first_detection[i]);
      }
      result.vectors_checked += vectors.size() * fc.sa_faults.size();
    }

    // ---- n-detect analytics vs exhaustive simulation -------------------
    if (config.check_ndetect && !fc.sa_faults.empty()) {
      // A deterministic per-case vector sample (splitmix64 over the case
      // seed; duplicates dropped), topped up to n = 2 so minted witnesses
      // are cross-checked too. Both sides count the same distinct vector
      // set, so every comparison is an exact integer ==.
      std::vector<std::vector<bool>> vectors;
      {
        std::set<std::vector<bool>> seen;
        std::uint64_t x = fc.case_seed ^ 0x6e64657465637400ull;
        for (std::size_t k = 0; k < 8; ++k) {
          x += 0x9e3779b97f4a7c15ull;
          std::uint64_t z = x;
          z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
          z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
          z ^= z >> 31;
          std::vector<bool> v(n);
          for (std::size_t i = 0; i < n; ++i) v[i] = (z >> i) & 1;
          if (seen.insert(v).second) vectors.push_back(std::move(v));
        }
      }
      const std::size_t ndetect_n = 2;
      analysis::NDetectOptions nopt;
      nopt.jobs = config.jobs == 0 ? 1 : config.jobs;
      analysis::NDetectAnalyzer analyzer(fc.circuit, fc.sa_faults, nopt);
      analyzer.top_up(vectors, ndetect_n);
      std::vector<std::uint64_t> counts = analyzer.detection_counts(vectors);
      if (config.mutate == Mutation::PerturbNDetectCount && !counts.empty()) {
        counts[0] += 1;
      }

      const sim::WideFaultSimulator wide(fc.circuit);
      sim::WideFaultSimulator::Options wopt;
      wopt.drop_detected = false;
      const auto grade = wide.grade_vectors(fc.sa_faults, vectors, wopt);
      for (std::size_t i = 0; i < fc.sa_faults.size(); ++i) {
        const std::string what = describe(fc.sa_faults[i], fc.circuit);
        rec.expect_eq("ndetect.count", what, grade.detection_counts[i],
                      counts[i]);
        if (counts[i] < analyzer.quota(i, ndetect_n)) {
          rec.mismatch("ndetect.quota", what,
                       "top-up left " + std::to_string(counts[i]) +
                           " detections, quota " +
                           std::to_string(analyzer.quota(i, ndetect_n)));
        }
      }
      result.vectors_checked += vectors.size() * fc.sa_faults.size();
    }

    // ---- artifact store: cold vs warm vs resumed -----------------------
    if (config.check_store && !config.scratch_dir.empty()) {
      run_store_arm(fc, config.scratch_dir, rec);
    }
  } catch (const std::exception& e) {
    rec.mismatch("exception", "case", e.what());
  }
  return result;
}

}  // namespace dp::verify
