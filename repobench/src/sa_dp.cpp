// sa_dp: full collapsed stuck-at DP sweeps of c432 and c499 at jobs 4 --
// the paper's Fig. 1-4 workload and the headline faults/s. bdd and dp do
// almost all the work; sim does none. c1355 and c1908 are left to hybrid:
// one jobs-4 sweep of them takes 6-11 s on a 4-vCPU VM, so a run would
// hold one or two passes and no median could ride out a slow spell of
// the shared host (see ../README.md, "Pass length").
#include <iostream>

#include "analysis/profiles.hpp"
#include "harness.hpp"
#include "netlist/generators.hpp"
#include "obs/json.hpp"

namespace repobench {

namespace {

const std::vector<std::string> kCircuits = {"c432", "c499"};
constexpr std::size_t kJobs = 4;

}  // namespace

void run_sa_dp(const Config& config, Tracer& tracer, Result& result) {
  const std::map<std::string, CircuitReference> reference =
      load_reference(config.reference);
  CircuitSetup setup(kCircuits, /*forests=*/true, tracer);
  const std::vector<LoadedCircuit> circuits = setup.initial();

  EngineTotals engine;
  PassFigures figures;
  run_passes(config.seconds, [&](std::size_t) {
    dp::obs::ScopedSpan pass_span = tracer.span("pass");
    const std::size_t first_fault = engine.fault_ms.size();
    double spent = 0.0;
    for (const LoadedCircuit& c : circuits) {
      dp::analysis::AnalysisOptions options;
      options.jobs = kJobs;
      options.shared_good = c.forest;
      dp::analysis::CircuitProfile profile;
      result.attempted += c.faults.size();
      try {
        spent += timed(tracer, "analysis.analyze_stuck_at", c.name, [&] {
          profile = dp::analysis::analyze_stuck_at(*c.circuit, options);
        });
      } catch (const std::exception& e) {
        result.failed += c.faults.size();
        result.fail(c.name + ": sweep threw: " + e.what());
        continue;
      }
      engine.add(profile.engine_stats);
      const CircuitReference& ref = reference.at(c.name);
      result.check(profile.faults.size() == ref.faults,
                   c.name + ": fault count differs from the reference");
      result.check(profile_digest(profile) == ref.digest,
                   c.name + ": jobs-4 FaultRecords differ from the jobs-1 reference");
      result.check(profile.engine_stats.total_gates_evaluated() == ref.gates_evaluated &&
                       profile.engine_stats.total_gates_skipped() == ref.gates_skipped,
                   c.name + ": gates evaluated/skipped differ from the reference");
    }
    const std::vector<double> latency_ms(engine.fault_ms.begin() + first_fault,
                                         engine.fault_ms.end());
    figures.add(spent, static_cast<double>(latency_ms.size()) / spent, latency_ms);
    return spent;
  }, [&] { setup.between_passes(); });

  setup.report(circuits, result);
  figures.report(result, PassFigures::Peak::First);
  result.e2e("op_p99_ms", quantile(engine.fault_ms, 0.99));
  engine.report_layers(result, figures.passes());
  result.layer("dp.faults_failed", static_cast<double>(result.failed));
}

int write_reference(const std::string& path) {
  dp::obs::JsonValue circuits = dp::obs::JsonValue::object();
  for (const std::string& name : kSweepCircuits) {
    const dp::netlist::Circuit circuit = dp::netlist::make_benchmark(name);
    dp::analysis::AnalysisOptions options;
    options.jobs = 1;
    const dp::analysis::CircuitProfile profile =
        dp::analysis::analyze_stuck_at(circuit, options);
    dp::obs::JsonValue c = dp::obs::JsonValue::object();
    c["faults"] = profile.faults.size();
    c["digest"] = profile_digest(profile);
    dp::obs::JsonValue undetectable = dp::obs::JsonValue::array();
    for (std::size_t i = 0; i < profile.faults.size(); ++i) {
      if (!profile.faults[i].detectable) undetectable.push_back(i);
    }
    c["undetectable"] = std::move(undetectable);
    c["gates_evaluated"] = profile.engine_stats.total_gates_evaluated();
    c["gates_skipped"] = profile.engine_stats.total_gates_skipped();
    circuits[name] = std::move(c);
    std::cerr << "reference: " << name << " done\n";
  }
  dp::obs::JsonValue doc = dp::obs::JsonValue::object();
  doc["about"] =
      "jobs-1 analyze_stuck_at sweeps (collapsed checkpoint faults); "
      "regenerate with: repobench --write-reference repobench/reference.json";
  doc["circuits"] = std::move(circuits);
  std::string error;
  if (!dp::obs::write_json_file(path, doc, &error)) {
    std::cerr << "reference: " << error << "\n";
    return 1;
  }
  return 0;
}

}  // namespace repobench
