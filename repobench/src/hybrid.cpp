// hybrid: analyze_stuck_at_hybrid on the sa_dp circuits with the resident
// forest passed as shared_good, 4096 prefilter patterns and dropping off
// (full per-fault detection counts). Each pass draws one prefilter seed
// per circuit from the workload seed. The wide simulator does most of the
// work; DP sees only the random-pattern-resistant remainder, so a DP gain
// shows small here and a simulator gain shows large.
#include <algorithm>

#include "analysis/hybrid.hpp"
#include "harness.hpp"
#include "sim/wide_sim.hpp"

namespace repobench {

namespace {

constexpr std::size_t kJobs = 4;
constexpr std::size_t kPatterns = 4096;
constexpr std::uint64_t kStream = 0x4879;  // "Hy"

}  // namespace

void run_hybrid(const Config& config, Tracer& tracer, Result& result) {
  const std::map<std::string, CircuitReference> reference =
      load_reference(config.reference);
  CircuitSetup setup(kSweepCircuits, /*forests=*/true, tracer);
  const std::vector<LoadedCircuit> circuits = setup.initial();

  EngineTotals engine;  // the DP remainder's sweeps
  double prefilter_s = 0.0, remainder_s = 0.0;
  std::uint64_t events = 0, resolved = 0, faults = 0;
  // Pass 0's inputs and outputs, replayed after the measured phase.
  std::vector<std::uint64_t> first_seed(circuits.size());
  std::vector<std::vector<std::uint64_t>> first_counts(circuits.size());
  std::vector<std::uint64_t> first_events(circuits.size());
  std::uint64_t first_remainder = 0, first_gates_evaluated = 0, first_gates_skipped = 0;

  PassFigures figures;
  run_passes(config.seconds, [&](std::size_t pass) {
    dp::obs::ScopedSpan pass_span = tracer.span("pass");
    double spent = 0.0;
    std::size_t analyzed = 0;
    for (std::size_t i = 0; i < circuits.size(); ++i) {
      const LoadedCircuit& c = circuits[i];
      dp::analysis::AnalysisOptions options;
      options.jobs = kJobs;
      options.shared_good = c.forest;
      dp::analysis::HybridOptions hybrid;
      hybrid.prefilter_patterns = kPatterns;
      hybrid.prefilter_seed = derive(config.seed, kStream, pass, i);
      hybrid.drop_detected = false;
      dp::analysis::HybridProfile profile;
      result.attempted += c.faults.size();
      analyzed += c.faults.size();
      try {
        spent += timed(tracer, "analysis.analyze_stuck_at_hybrid", c.name, [&] {
          profile = dp::analysis::analyze_stuck_at_hybrid(*c.circuit, options, hybrid);
        });
      } catch (const std::exception& e) {
        result.failed += c.faults.size();
        result.fail(c.name + ": hybrid threw: " + e.what());
        continue;
      }
      engine.add(profile.engine_stats);
      prefilter_s += profile.prefilter_seconds;
      remainder_s += profile.dp_seconds;
      events += profile.sim_events;
      resolved += profile.prefilter_resolved();
      faults += profile.faults.size();

      // The detectable/undetectable split must equal the pure DP sweep's.
      const CircuitReference& ref = reference.at(c.name);
      bool split_ok = profile.faults.size() == ref.faults;
      for (std::size_t k = 0; split_ok && k < profile.faults.size(); ++k) {
        const bool undetectable = std::binary_search(
            ref.undetectable.begin(), ref.undetectable.end(), k);
        split_ok = profile.faults[k].detectable != undetectable;
      }
      result.check(split_ok, c.name + ": hybrid split differs from the DP sweep's");

      if (pass == 0) {
        first_seed[i] = hybrid.prefilter_seed;
        first_events[i] = profile.sim_events;
        first_remainder += profile.dp_resolved();
        first_gates_evaluated += profile.engine_stats.total_gates_evaluated();
        first_gates_skipped += profile.engine_stats.total_gates_skipped();
        for (const dp::analysis::HybridFaultRecord& r : profile.faults) {
          first_counts[i].push_back(r.detection_count);
        }
      }
    }
    figures.add(spent, static_cast<double>(analyzed) / spent);
    return spent;
  }, [&] { setup.between_passes(); });
  setup.report(circuits, result);

  // The prefilter's counts are deterministic: grading pass 0's stream
  // again, straight through the simulator, must repeat them exactly.
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    const dp::sim::WideFaultSimulator sim(*circuits[i].circuit);
    dp::sim::WideSimOptions wide;
    wide.drop_detected = false;
    const auto grade = sim.grade_random(circuits[i].faults, kPatterns, first_seed[i], wide);
    result.check(grade.detection_counts == first_counts[i] &&
                     grade.events() == first_events[i],
                 circuits[i].name + ": prefilter counts and events did not repeat");
  }

  // The DP remainder is a few dozen faults per pass, too few for a
  // per-pass p99, so its latencies are pooled over the run.
  const double passes = static_cast<double>(figures.passes());
  // Each pass draws new prefilter seeds, so its DP remainder and peak
  // differ; the median across passes is the representative one.
  figures.report(result, PassFigures::Peak::Median);
  result.e2e("op_p50_ms", quantile(engine.fault_ms, 0.50));
  result.e2e("op_p99_ms", quantile(engine.fault_ms, 0.99));
  engine.report_layers(result, figures.passes());
  // Each pass draws new prefilter seeds and so a new remainder: the work
  // counts that repeat exactly for a seed are pass 0's.
  result.layer("dp.gates_evaluated", static_cast<double>(first_gates_evaluated));
  result.layer("dp.gates_skipped", static_cast<double>(first_gates_skipped));
  result.layer("dp.faults_failed", static_cast<double>(result.failed));
  result.layer("sim.prefilter_s", prefilter_s / passes);
  std::uint64_t pass0_events = 0;
  for (const std::uint64_t e : first_events) pass0_events += e;
  result.layer("sim.events", static_cast<double>(pass0_events));
  result.layer("sim.ns_per_event",
               events > 0 ? prefilter_s * 1e9 / static_cast<double>(events) : 0.0);
  result.layer("sim.resolved_frac",
               faults > 0 ? static_cast<double>(resolved) / static_cast<double>(faults) : 0.0);
  result.layer("hybrid.dp_remainder_s", remainder_s / passes);
  result.layer("hybrid.remainder_faults", static_cast<double>(first_remainder));
}

}  // namespace repobench
