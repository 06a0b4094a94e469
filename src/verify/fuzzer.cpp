#include "verify/fuzzer.hpp"

#include <chrono>
#include <filesystem>
#include <ostream>
#include <sstream>

#include "netlist/bench_io.hpp"

namespace dp::verify {

namespace {

/// Self-contained reproducer document: everything needed to regenerate
/// and re-fail the case without the campaign that found it.
obs::JsonValue repro_to_json(const FuzzCase& original,
                             const CampaignConfig& config,
                             const CaseFailure& failure,
                             const ShrinkResult& shrunk) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc["schema"] = "dp.fuzzrepro.v1";
  doc["case_seed"] = failure.case_seed;
  doc["shape"] = std::string(netlist::to_string(original.shape));
  obs::JsonValue gen = obs::JsonValue::object();
  gen["min_inputs"] = config.cases.min_inputs;
  gen["max_inputs"] = config.cases.max_inputs;
  gen["min_gates"] = config.cases.min_gates;
  gen["max_gates"] = config.cases.max_gates;
  gen["num_outputs"] = config.cases.num_outputs;
  gen["max_sa_faults"] = config.cases.max_sa_faults;
  gen["max_bridges"] = config.cases.max_bridges;
  gen["include_bridging"] = config.cases.include_bridging;
  doc["generator"] = std::move(gen);
  obs::JsonValue engine = obs::JsonValue::object();
  engine["jobs"] = config.oracle.jobs;
  engine["check_parallel"] = config.oracle.check_parallel;
  engine["check_store"] = config.oracle.check_store;
  engine["check_hybrid"] = config.oracle.check_hybrid;
  engine["check_ndetect"] = config.oracle.check_ndetect;
  engine["mutation"] = to_string(config.oracle.mutate);
  doc["engine"] = std::move(engine);

  obs::JsonValue faults = obs::JsonValue::array();
  for (const fault::StuckAtFault& f : shrunk.reduced.sa_faults) {
    faults.push_back(describe(f, shrunk.reduced.circuit));
  }
  for (const fault::BridgingFault& f : shrunk.reduced.bridges) {
    faults.push_back(describe(f, shrunk.reduced.circuit));
  }
  doc["shrunk_faults"] = std::move(faults);
  doc["shrunk_bench"] = failure.shrunk_bench;

  obs::JsonValue ds = obs::JsonValue::array();
  for (const Discrepancy& d : failure.discrepancies) {
    obs::JsonValue rec = obs::JsonValue::object();
    rec["oracle"] = d.oracle;
    rec["subject"] = d.subject;
    rec["detail"] = d.detail;
    ds.push_back(std::move(rec));
  }
  doc["discrepancies"] = std::move(ds);
  return doc;
}

CaseFailure make_failure(std::uint64_t index, const FuzzCase& fc,
                         const OracleResult& oracle_result,
                         const CampaignConfig& config) {
  CaseFailure failure;
  failure.case_index = index;
  failure.case_seed = fc.case_seed;
  failure.shape = std::string(netlist::to_string(fc.shape));
  failure.discrepancies = oracle_result.discrepancies;

  ShrinkResult shrunk{sketch_from_case(fc), fc, 0, fc.circuit.num_gates(),
                      fc.circuit.num_gates(),
                      fc.sa_faults.size() + fc.bridges.size(),
                      fc.sa_faults.size() + fc.bridges.size()};
  if (config.shrink) {
    shrunk = shrink_case(fc, config.oracle, oracle_result);
  }
  failure.shrunk_gates = shrunk.gates_after;
  failure.shrunk_faults = shrunk.faults_after;
  failure.shrink_oracle_runs = shrunk.oracle_runs;
  failure.shrunk_bench = netlist::write_bench_string(shrunk.reduced.circuit);

  if (!config.repro_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config.repro_dir, ec);
    std::ostringstream stem;
    stem << config.repro_dir << "/case_" << std::hex << fc.case_seed;
    failure.repro_bench_path = stem.str() + ".bench";
    failure.repro_json_path = stem.str() + ".repro.json";
    obs::atomic_write_file(failure.repro_bench_path, failure.shrunk_bench);
    obs::write_json_file_atomic(
        failure.repro_json_path,
        repro_to_json(fc, config, failure, shrunk));
  }
  return failure;
}

}  // namespace

CampaignResult run_campaign(const CampaignConfig& config) {
  const auto start = std::chrono::steady_clock::now();
  CampaignResult result;
  result.seed = config.cases.seed;
  result.num_cases = config.num_cases;
  result.jobs = config.oracle.jobs;
  result.checked_parallel = config.oracle.check_parallel;
  result.checked_store =
      config.oracle.check_store && !config.oracle.scratch_dir.empty();
  result.checked_hybrid = config.oracle.check_hybrid;
  result.checked_ndetect = config.oracle.check_ndetect;

  for (std::uint64_t i = 0; i < config.num_cases; ++i) {
    const FuzzCase fc = make_case(config.cases, i);
    const OracleResult oracle_result = run_oracles(fc, config.oracle);
    ++result.cases_run;
    result.faults_checked += oracle_result.faults_checked;
    result.vectors_checked += oracle_result.vectors_checked;
    if (config.progress) {
      *config.progress << "[dpfuzz] case " << (i + 1) << "/"
                       << config.num_cases << " seed " << std::hex
                       << fc.case_seed << std::dec << " shape "
                       << netlist::to_string(fc.shape) << " gates "
                       << fc.circuit.num_gates() << ": "
                       << (oracle_result.ok()
                               ? "ok"
                               : std::to_string(
                                     oracle_result.discrepancies.size()) +
                                     " DISCREPANCIES")
                       << "\n";
    }
    if (oracle_result.ok()) continue;

    result.discrepancy_count += oracle_result.discrepancies.size();
    result.failures.push_back(make_failure(i, fc, oracle_result, config));
    if (config.progress) {
      const CaseFailure& f = result.failures.back();
      *config.progress << "[dpfuzz]   shrunk to " << f.shrunk_gates
                       << " gates / " << f.shrunk_faults << " faults in "
                       << f.shrink_oracle_runs << " oracle runs\n";
    }
    if (config.max_failures && result.failures.size() >= config.max_failures) {
      break;
    }
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

obs::JsonValue report_to_json(const CampaignResult& result) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc["schema"] = kFuzzReportSchema;
  doc["tool"] = "dpfuzz";
  doc["seed"] = result.seed;
  doc["cases"] = result.num_cases;
  doc["cases_run"] = result.cases_run;
  doc["faults_checked"] = result.faults_checked;
  doc["vectors_checked"] = result.vectors_checked;
  doc["discrepancies"] = result.discrepancy_count;
  doc["jobs"] = result.jobs;
  obs::JsonValue arms = obs::JsonValue::object();
  arms["dp_vs_sim"] = true;  // always on: it is the point
  arms["parallel"] = result.checked_parallel;
  arms["store"] = result.checked_store;
  arms["hybrid"] = result.checked_hybrid;
  arms["ndetect"] = result.checked_ndetect;
  doc["oracles"] = std::move(arms);
  doc["wall_seconds"] = result.wall_seconds;

  obs::JsonValue failures = obs::JsonValue::array();
  for (const CaseFailure& f : result.failures) {
    obs::JsonValue rec = obs::JsonValue::object();
    rec["case_index"] = f.case_index;
    rec["case_seed"] = f.case_seed;
    rec["shape"] = f.shape;
    obs::JsonValue ds = obs::JsonValue::array();
    for (const Discrepancy& d : f.discrepancies) {
      obs::JsonValue dr = obs::JsonValue::object();
      dr["oracle"] = d.oracle;
      dr["subject"] = d.subject;
      dr["detail"] = d.detail;
      ds.push_back(std::move(dr));
    }
    rec["discrepancies"] = std::move(ds);
    obs::JsonValue shrunk = obs::JsonValue::object();
    shrunk["gates"] = f.shrunk_gates;
    shrunk["faults"] = f.shrunk_faults;
    shrunk["oracle_runs"] = f.shrink_oracle_runs;
    shrunk["bench"] = f.shrunk_bench;
    if (!f.repro_bench_path.empty()) {
      shrunk["repro_bench"] = f.repro_bench_path;
      shrunk["repro_json"] = f.repro_json_path;
    }
    rec["shrunk"] = std::move(shrunk);
    failures.push_back(std::move(rec));
  }
  doc["failures"] = std::move(failures);
  return doc;
}

bool write_report(const std::string& path, const CampaignResult& result,
                  std::string* error) {
  return obs::write_json_file_atomic(path, report_to_json(result), error);
}

bool run_self_test(const CampaignConfig& base, std::ostream& log,
                   std::size_t max_shrunk_gates) {
  bool all_ok = true;
  for (Mutation m :
       {Mutation::InflateDetectability, Mutation::DropTestVector,
        Mutation::FlipSyndrome, Mutation::PerturbParallelMerge,
        Mutation::PerturbNDetectCount, Mutation::PerturbPrefilterCount}) {
    OracleConfig oracle = base.oracle;
    oracle.mutate = m;
    if (m == Mutation::PerturbParallelMerge && !oracle.check_parallel) {
      log << "[self-test] " << to_string(m)
          << ": SKIP (parallel arm disabled)\n";
      continue;
    }
    if (m == Mutation::PerturbNDetectCount && !oracle.check_ndetect) {
      log << "[self-test] " << to_string(m)
          << ": SKIP (ndetect arm disabled)\n";
      continue;
    }
    if (m == Mutation::PerturbPrefilterCount && !oracle.check_hybrid) {
      log << "[self-test] " << to_string(m)
          << ": SKIP (hybrid arm disabled)\n";
      continue;
    }
    // The store arm is orthogonal to every injected perturbation (it
    // compares against unperturbed serial results); keep the self-test
    // lean. The n-detect and hybrid arms only need to run when their own
    // count is the perturbed quantity.
    oracle.check_store = false;
    oracle.check_hybrid = m == Mutation::PerturbPrefilterCount;
    oracle.check_ndetect = m == Mutation::PerturbNDetectCount;

    // Any case with at least one stuck-at fault trips every mutation
    // (the first fault / last gate is perturbed); probe a few indices in
    // case index 0 drew an empty fault sample.
    bool caught = false;
    for (std::uint64_t index = 0; index < 4 && !caught; ++index) {
      const FuzzCase fc = make_case(base.cases, index);
      if (fc.sa_faults.empty()) continue;
      const OracleResult original = run_oracles(fc, oracle);
      if (original.ok()) {
        log << "[self-test] " << to_string(m) << ": NOT CAUGHT on case "
            << index << " (seed " << std::hex << fc.case_seed << std::dec
            << ")\n";
        all_ok = false;
        break;
      }
      const ShrinkResult shrunk = shrink_case(fc, oracle, original);
      const OracleResult still = run_oracles(shrunk.reduced, oracle);
      if (still.ok()) {
        log << "[self-test] " << to_string(m)
            << ": shrink LOST the failure\n";
        all_ok = false;
      } else if (shrunk.gates_after > max_shrunk_gates) {
        log << "[self-test] " << to_string(m) << ": shrunk to "
            << shrunk.gates_after << " gates (budget " << max_shrunk_gates
            << ")\n";
        all_ok = false;
      } else {
        log << "[self-test] " << to_string(m) << ": caught ("
            << original.discrepancies.size() << " discrepancies), shrunk "
            << shrunk.gates_before << " -> " << shrunk.gates_after
            << " gates, " << shrunk.faults_before << " -> "
            << shrunk.faults_after << " faults in " << shrunk.oracle_runs
            << " oracle runs\n";
      }
      caught = true;
    }
    if (!caught && all_ok) {
      log << "[self-test] " << to_string(m)
          << ": no case with stuck-at faults in probe window\n";
      all_ok = false;
    }
  }
  log << "[self-test] " << (all_ok ? "PASS" : "FAIL") << "\n";
  return all_ok;
}

}  // namespace dp::verify
