// repobench -- the repository benchmark driver. One process runs one
// workload for a time budget, checks every output, and prints one JSON
// result line last on stdout. See ../README.md for the workloads and
// metrics; ../run.py builds this binary and is the usual entry point.
//
//   repobench --workload sa_dp|hybrid|ndetect|served --seed N --seconds S
//             --trace 0|1 --reference PATH [--server DPSERVED] [--out-dir DIR]
//             [--rate REQ_PER_S]
//   repobench --write-reference PATH
//
// --rate overrides served's fixed offered rate; --rate 0 drives it closed
// loop to measure the server's saturation throughput (see ../README.md).
//
// --trace 0 prints the end-to-end metrics; --trace 1 records spans around
// every call into the program, writes them to DIR/<workload>-<seed>.trace.json
// and prints the per-layer metrics instead.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "obs/json.hpp"

namespace {

/// A seed that no tuning run uses; gain claims are confirmed on it.
constexpr std::uint64_t kHeldOutSeed = 104729;

int usage() {
  std::cerr << "usage: repobench --workload sa_dp|hybrid|ndetect|served "
               "--seed N --seconds S --trace 0|1 --reference PATH\n"
               "                 [--server DPSERVED] [--out-dir DIR] [--rate REQ_PER_S]\n"
               "       repobench --write-reference PATH\n";
  return 2;
}

bool parse_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *out = std::strtoull(text.c_str(), nullptr, 10);
  return true;
}

dp::obs::JsonValue metric_block(const std::vector<repobench::MetricSpec>& specs,
                                const std::map<std::string, double>& values,
                                bool require_all, repobench::Result& result) {
  dp::obs::JsonValue metrics = dp::obs::JsonValue::object();
  for (const repobench::MetricSpec& spec : specs) {
    const auto it = values.find(spec.name);
    if (it == values.end() && require_all) {
      result.fail(std::string("workload did not measure ") + spec.name);
      continue;
    }
    dp::obs::JsonValue m = dp::obs::JsonValue::object();
    m["value"] = it == values.end() ? 0.0 : it->second;
    m["unit"] = spec.unit;
    metrics[spec.name] = std::move(m);
  }
  return metrics;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  repobench::Config config;
  std::string trace_flag;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i + 1 >= args.size()) return usage();
    const std::string& flag = args[i];
    const std::string& value = args[++i];
    std::uint64_t n = 0;
    if (flag == "--write-reference") {
      return repobench::write_reference(value);
    } else if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed" && parse_u64(value, &n)) {
      config.seed = n;
    } else if (flag == "--seconds" && parse_u64(value, &n) && n > 0) {
      config.seconds = static_cast<double>(n);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      trace_flag = value;
    } else if (flag == "--server") {
      config.server_exe = value;
    } else if (flag == "--out-dir") {
      config.out_dir = value;
    } else if (flag == "--reference") {
      config.reference = value;
    } else if (flag == "--rate" && parse_u64(value, &n)) {
      config.rate = static_cast<double>(n);
    } else {
      return usage();
    }
  }
  if (config.workload.empty() || trace_flag.empty() || config.reference.empty()) {
    return usage();
  }
  config.trace = trace_flag == "1";
  if (config.out_dir.empty()) config.out_dir = ".";

  std::cout << "workload " << config.workload << ", seed " << config.seed
            << " (held-out seed for claims: " << kHeldOutSeed << "), "
            << config.seconds << " s, trace " << trace_flag << "\n";

  repobench::Tracer tracer(config.trace);
  repobench::Result result;
  const repobench::Clock::time_point t0 = repobench::Clock::now();
  try {
    if (config.workload == "sa_dp") {
      repobench::run_sa_dp(config, tracer, result);
    } else if (config.workload == "hybrid") {
      repobench::run_hybrid(config, tracer, result);
    } else if (config.workload == "ndetect") {
      repobench::run_ndetect(config, tracer, result);
    } else if (config.workload == "served") {
      repobench::run_served(config, tracer, result);
    } else {
      std::cerr << "unknown workload '" << config.workload << "'\n";
      return usage();
    }
  } catch (const std::exception& e) {
    result.fail(std::string("workload aborted: ") + e.what());
  }
  if (result.attempted == 0) result.fail("no operations were attempted");

  dp::obs::JsonValue metrics;
  if (config.trace) {
    // The traced run's own end-to-end figures, for the tracing overhead:
    // run_s where the work sets the wall time, op_p50_ms on served,
    // where the offered rate fixes run_s.
    for (const char* name : {"run_s", "op_p50_ms"}) {
      const auto it = result.e2e().find(name);
      result.layer(std::string("trace.") + name, it == result.e2e().end() ? 0.0 : it->second);
    }
    result.layer("trace.spans", static_cast<double>(tracer.recorded()));
    metrics = metric_block(repobench::kPerLayer, result.layers(), false, result);
    const std::string path = config.out_dir + "/" + config.workload + "-" +
                             std::to_string(config.seed) + ".trace.json";
    const std::string run_id = config.workload + " seed " + std::to_string(config.seed);
    if (tracer.write(path, run_id, repobench::seconds_since(t0))) {
      std::cout << "trace written to " << path << "\n";
    }
  } else {
    const double attempted = static_cast<double>(result.attempted);
    result.e2e("ok_frac", attempted > 0.0
                              ? (attempted - static_cast<double>(result.failed)) / attempted
                              : 0.0);
    metrics = metric_block(repobench::kEndToEnd, result.e2e(), true, result);
  }

  dp::obs::JsonValue line = dp::obs::JsonValue::object();
  line["correct"] = result.correct();
  line["attempted"] = result.attempted;
  line["failed"] = result.failed;
  // An incorrect run reports no numbers.
  line["metrics"] = result.correct() ? std::move(metrics) : dp::obs::JsonValue::object();
  std::cout << line.dump(0) << std::endl;
  return result.correct() ? 0 : 1;
}
