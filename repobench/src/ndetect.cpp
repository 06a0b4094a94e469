// ndetect: NDetectAnalyzer on c432 and c499. The constructor sweeps
// through analyze_all, which keeps every test-set BDD alive; then, per
// seeded random 256-vector set, the workload runs detection_counts,
// top_up(., 8) and report. This uses bdd the other way from sa_dp: no
// per-fault reclaim, and the time goes to conjunctions with vector-set
// BDDs, satcounts and witness minting.
#include <optional>
#include <set>

#include "analysis/ndetect.hpp"
#include "harness.hpp"
#include "sim/wide_sim.hpp"

namespace repobench {

namespace {

const std::vector<std::string> kCircuits = {"c432", "c499"};
constexpr std::size_t kJobs = 4;
/// Per circuit per pass: one keeps a pass near three seconds, so a run
/// holds enough passes for its median to ride out bursts of outside load.
constexpr std::size_t kVectorSets = 1;
constexpr std::size_t kVectors = 256;
constexpr std::size_t kTarget = 8;  ///< n of n-detect
constexpr std::uint64_t kStream = 0x4e44;  // "ND"

using Vectors = std::vector<std::vector<bool>>;

Vectors random_vectors(std::uint64_t seed, std::size_t inputs) {
  Rng rng(seed);
  Vectors out(kVectors, std::vector<bool>(inputs));
  for (std::vector<bool>& v : out) {
    for (std::size_t b = 0; b < inputs; ++b) v[b] = rng.next() & 1u;
  }
  return out;
}

/// Independent recount: the wide simulator grades the distinct vectors
/// with dropping off, which counts exactly the vectors each fault's
/// complete test set contains.
std::vector<std::uint64_t> simulator_counts(const LoadedCircuit& c, const Vectors& vectors) {
  const std::set<std::vector<bool>> distinct(vectors.begin(), vectors.end());
  dp::sim::WideSimOptions wide;
  wide.drop_detected = false;
  return dp::sim::WideFaultSimulator(*c.circuit)
      .grade_vectors(c.faults, Vectors(distinct.begin(), distinct.end()), wide)
      .detection_counts;
}

}  // namespace

void run_ndetect(const Config& config, Tracer& tracer, Result& result) {
  const std::map<std::string, CircuitReference> reference =
      load_reference(config.reference);
  CircuitSetup setup(kCircuits, /*forests=*/true, tracer);
  const std::vector<LoadedCircuit> circuits = setup.initial();

  EngineTotals engine;
  double sweep_s = 0.0, count_s = 0.0, topup_s = 0.0;
  std::uint64_t first_minted = 0, first_detections = 0;

  PassFigures figures;
  run_passes(config.seconds, [&](std::size_t pass) {
    dp::obs::ScopedSpan pass_span = tracer.span("pass");
    const std::size_t first_fault = engine.fault_ms.size();
    double spent = 0.0, swept = 0.0;
    for (std::size_t i = 0; i < circuits.size(); ++i) {
      const LoadedCircuit& c = circuits[i];
      dp::analysis::NDetectOptions options;
      options.jobs = kJobs;
      options.shared_good = c.forest;
      std::optional<dp::analysis::NDetectAnalyzer> analyzer;
      result.attempted += c.faults.size();
      try {
        const double s = timed(tracer, "ndetect.NDetectAnalyzer", c.name, [&] {
          analyzer.emplace(*c.circuit, c.faults, options);
        });
        sweep_s += s;
        swept += s;
        spent += s;
      } catch (const std::exception& e) {
        result.failed += c.faults.size();
        result.fail(c.name + ": n-detect sweep threw: " + e.what());
        continue;
      }
      engine.add(analyzer->stats());
      // The analyze_all sweep does the same per-fault work as sa_dp's.
      const CircuitReference& ref = reference.at(c.name);
      result.check(c.faults.size() == ref.faults &&
                       analyzer->stats().total_gates_evaluated() == ref.gates_evaluated,
                   c.name + ": n-detect sweep differs from the reference's work counts");

      for (std::size_t set = 0; set < kVectorSets; ++set) {
        const Vectors given = random_vectors(derive(config.seed, kStream, pass, i * 64 + set),
                                             c.circuit->num_inputs());
        std::vector<std::uint64_t> counts;
        Vectors topped = given;
        std::size_t minted = 0;
        dp::analysis::NDetectReport report;
        const double count1 = timed(tracer, "ndetect.detection_counts", c.name,
                                    [&] { counts = analyzer->detection_counts(given); });
        const double topup = timed(tracer, "ndetect.top_up", c.name,
                                   [&] { minted = analyzer->top_up(topped, kTarget); });
        const double count2 = timed(tracer, "ndetect.report", c.name,
                                    [&] { report = analyzer->report(topped, kTarget); });
        count_s += count1 + count2;
        topup_s += topup;
        spent += count1 + topup + count2;

        result.check(counts == simulator_counts(c, given),
                     c.name + ": detection counts differ from the simulator recount");
        std::vector<std::uint64_t> reported;
        for (const dp::analysis::NDetectFaultRecord& r : report.faults) {
          reported.push_back(r.detections);
        }
        result.check(reported == simulator_counts(c, topped),
                     c.name + ": topped-up counts differ from the simulator recount");
        result.check(report.complete(),
                     c.name + ": a detectable fault misses its quota after top-up");
        if (pass == 0) {
          first_minted += minted;
          first_detections += report.total_detections();
        }
        if (pass == 0 && set == 0) {
          // Top-up is deterministic: the same start mints the same vectors.
          Vectors again = given;
          analyzer->top_up(again, kTarget);
          result.check(again == topped, c.name + ": top-up did not repeat");
        }
      }
    }
    // Faults given an exact result per second of sweep wall time.
    const std::vector<double> latency_ms(engine.fault_ms.begin() + first_fault,
                                         engine.fault_ms.end());
    figures.add(spent, static_cast<double>(latency_ms.size()) / swept, latency_ms);
    return spent;
  }, [&] { setup.between_passes(); });

  const double passes = static_cast<double>(figures.passes());
  setup.report(circuits, result);
  figures.report(result, PassFigures::Peak::First);
  // A pass sweeps under a thousand faults, too few for a per-pass p99
  // with ten samples beyond it, so the p99 is pooled over the run.
  result.e2e("op_p99_ms", quantile(engine.fault_ms, 0.99));
  engine.report_layers(result, figures.passes());
  result.layer("dp.faults_failed", static_cast<double>(result.failed));
  result.layer("ndetect.sweep_s", sweep_s / passes);
  result.layer("ndetect.count_s", count_s / passes);
  result.layer("ndetect.topup_s", topup_s / passes);
  result.layer("ndetect.minted_vectors", static_cast<double>(first_minted));
  result.layer("ndetect.detections", static_cast<double>(first_detections));
}

}  // namespace repobench
