// dpfuzz -- budgeted differential-fuzzing campaigns over the oracle
// matrix (DP vs exhaustive simulation, serial vs parallel, cold vs warm
// vs resumed cache). Exit 0: campaign clean. Exit 1: discrepancies found
// (reproducers written), self-test failure, or a failed report write.
//
//   dpfuzz [--seed N] [--cases N] [--max-gates N] [--max-inputs N]
//          [--jobs N] [--shapes a,b,...] [--no-bridging] [--no-parallel]
//          [--no-store] [--no-hybrid] [--no-ndetect] [--no-shrink]
//          [--scratch-dir PATH] [--repro-dir PATH] [--metrics-json PATH]
//          [--max-failures N] [--self-test] [--quiet]
//
// --metrics-json writes the dp.fuzzreport.v1 document (validated by
// bench/validate_metrics alongside the dp.metrics.v1 bench documents).
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli_common.hpp"
#include "sim/wide_sim.hpp"
#include "verify/fuzzer.hpp"

namespace {

int usage() {
  std::cerr
      << "usage: dpfuzz [--seed N] [--cases N] [--max-gates N]\n"
         "              [--max-inputs N] [--jobs N] [--shapes a,b,...]\n"
         "              [--no-bridging] [--no-parallel] [--no-store]\n"
         "              [--no-hybrid] [--no-ndetect] [--no-shrink]\n"
         "              [--scratch-dir PATH]\n"
         "              [--repro-dir PATH] [--metrics-json PATH]\n"
         "              [--max-failures N] [--self-test] [--quiet]\n"
         "shapes: mixed fanout xor reconvergent chain (default: all)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  dp::cli::handle_version_flag(
      std::vector<std::string>(argv + 1, argv + argc), "dpfuzz");
  using dp::cli::parse_count;
  namespace fs = std::filesystem;

  dp::verify::CampaignConfig config;
  config.num_cases = 100;
  config.progress = &std::cout;
  std::string metrics_path, scratch_dir;
  bool self_test = false;

  std::vector<std::string> args(argv + 1, argv + argc);
  auto take_value = [&](std::size_t& i) -> std::string {
    if (i + 1 >= args.size()) {
      std::cerr << "error: " << args[i] << " requires a value\n";
      std::exit(2);
    }
    return args[++i];
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--seed") {
      config.cases.seed = parse_count(a, take_value(i));
    } else if (a == "--cases") {
      config.num_cases = parse_count(a, take_value(i));
    } else if (a == "--max-gates") {
      config.cases.max_gates = static_cast<int>(parse_count(a, take_value(i)));
    } else if (a == "--max-inputs") {
      // The dp_vs_sim arm checks DP's test set against a bitmap over
      // every input vector, which stops at this many inputs.
      constexpr std::size_t kMaxInputs =
          dp::sim::WideFaultSimulator::kMaxTestSetInputs;
      const std::size_t n = parse_count(a, take_value(i));
      if (n > kMaxInputs) {
        std::cerr << "error: --max-inputs <= " << kMaxInputs
                  << " required\n";
        return usage();
      }
      config.cases.max_inputs = static_cast<int>(n);
    } else if (a == "--jobs") {
      config.oracle.jobs = parse_count(a, take_value(i));
    } else if (a == "--max-failures") {
      config.max_failures = parse_count(a, take_value(i));
    } else if (a == "--shapes") {
      std::stringstream ss(take_value(i));
      std::string token;
      while (std::getline(ss, token, ',')) {
        const auto shape = dp::netlist::circuit_shape_from_string(token);
        if (!shape) {
          std::cerr << "error: unknown shape '" << token << "'\n";
          return usage();
        }
        config.cases.shapes.push_back(*shape);
      }
    } else if (a == "--no-bridging") {
      config.cases.include_bridging = false;
    } else if (a == "--no-parallel") {
      config.oracle.check_parallel = false;
    } else if (a == "--no-store") {
      config.oracle.check_store = false;
    } else if (a == "--no-hybrid") {
      config.oracle.check_hybrid = false;
    } else if (a == "--no-ndetect") {
      config.oracle.check_ndetect = false;
    } else if (a == "--no-shrink") {
      config.shrink = false;
    } else if (a == "--scratch-dir") {
      scratch_dir = take_value(i);
    } else if (a == "--repro-dir") {
      config.repro_dir = take_value(i);
    } else if (a == "--metrics-json") {
      metrics_path = take_value(i);
    } else if (a == "--self-test") {
      self_test = true;
    } else if (a == "--quiet") {
      config.progress = nullptr;
    } else {
      std::cerr << "error: unknown argument '" << a << "'\n";
      return usage();
    }
  }
  if (config.cases.max_inputs < config.cases.min_inputs ||
      config.cases.max_gates < config.cases.min_gates) {
    std::cerr << "error: --max-inputs >= " << config.cases.min_inputs
              << " and --max-gates >= " << config.cases.min_gates
              << " required\n";
    return 2;
  }

  // The store arm needs a scratch directory; default to a per-process
  // temp dir (concurrent ctest invocations must not collide) and remove
  // it on the way out unless the user pointed us somewhere.
  bool own_scratch = false;
  if (config.oracle.check_store && scratch_dir.empty()) {
    std::ostringstream os;
    os << fs::temp_directory_path().string() << "/dpfuzz_scratch_"
       << ::getpid();
    scratch_dir = os.str();
    own_scratch = true;
  }
  config.oracle.scratch_dir = scratch_dir;

  int exit_code = 0;
  if (self_test) {
    dp::verify::CampaignConfig st = config;
    st.num_cases = std::min<std::size_t>(st.num_cases, 4);
    if (!dp::verify::run_self_test(st, std::cout)) exit_code = 1;
  }

  dp::verify::CampaignResult result;
  if (exit_code == 0) {
    result = dp::verify::run_campaign(config);
    std::cout << "[dpfuzz] " << result.cases_run << "/" << result.num_cases
              << " cases, " << result.faults_checked << " faults, "
              << result.vectors_checked << " vectors checked, "
              << result.discrepancy_count << " discrepancies ("
              << result.wall_seconds << " s, jobs " << result.jobs
              << ", parallel " << (result.checked_parallel ? "on" : "off")
              << ", store " << (result.checked_store ? "on" : "off")
              << ", hybrid " << (result.checked_hybrid ? "on" : "off")
              << ", ndetect " << (result.checked_ndetect ? "on" : "off")
              << ")\n";
    for (const dp::verify::CaseFailure& f : result.failures) {
      std::cout << "[dpfuzz] FAILURE case " << f.case_index << " seed "
                << std::hex << f.case_seed << std::dec << " shape "
                << f.shape << ": " << f.discrepancies.size()
                << " discrepancies, shrunk to " << f.shrunk_gates
                << " gates";
      if (!f.repro_bench_path.empty()) {
        std::cout << " (repro: " << f.repro_bench_path << ")";
      }
      std::cout << "\n";
      for (const dp::verify::Discrepancy& d : f.discrepancies) {
        std::cout << "[dpfuzz]   " << d.oracle << " @ " << d.subject << ": "
                  << d.detail << "\n";
      }
    }
    if (!result.ok()) exit_code = 1;

    if (!metrics_path.empty()) {
      std::string error;
      if (!dp::verify::write_report(metrics_path, result, &error)) {
        std::cerr << "[dpfuzz] FAILED to write " << metrics_path << ": "
                  << error << "\n";
        exit_code = 1;
      } else {
        std::cout << "[metrics] wrote " << metrics_path << "\n";
      }
    }
  }

  if (own_scratch) {
    std::error_code ec;
    fs::remove_all(scratch_dir, ec);
  }
  return exit_code;
}
