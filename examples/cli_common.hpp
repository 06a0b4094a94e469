// Shared telemetry and persistence flags for the example CLIs:
// `--metrics-json PATH`, `--trace-out PATH`, `--cache-dir PATH`, and
// `--resume`/`--no-resume` behave identically in dpcli and dpserved.
// The written document mirrors the bench schema (dp.metrics.v1) so one
// validator handles both:
//
//   { "tool": "<name>", "command": "<subcommand>",   // command optional
//     "schema": "dp.metrics.v1",
//     "metrics": { counters, gauges, timers, histograms } }
//
// `--trace-out PATH` records hierarchical spans (one dp.fault span per
// analyzed fault) plus sampling-profiler gauge series and writes a
// separate dp.trace.v1 document (Perfetto / chrome://tracing loadable)
// beside the run.
//
// load_circuit() is the one circuit-argument rule of every CLI: a
// built-in benchmark name, else a .bench file path.
#pragma once

#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "netlist/bench_io.hpp"
#include "netlist/generators.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/span.hpp"
#include "store/artifact_store.hpp"

namespace dp::cli {

/// Build identity every CLI reports: the `git describe` of the tree the
/// binary was configured from, baked in by examples/CMakeLists.txt.
/// "unknown" only when the build ran outside a git checkout.
inline const char* version_string() {
#ifdef DP_GIT_DESCRIBE
  return DP_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

/// Uniform `--version` across every example CLI: when the flag appears
/// anywhere in `args`, print "<tool> <version>" and exit 0. Call before
/// any other argument parsing so `--version` wins over usage errors.
inline void handle_version_flag(const std::vector<std::string>& args,
                                const std::string& tool) {
  for (const std::string& a : args) {
    if (a == "--version") {
      std::cout << tool << " " << version_string() << "\n";
      std::exit(0);
    }
  }
}

/// Strict flag-value parser: exits 2 on anything but a non-negative
/// integer, so `--jobs` can never silently fall back to a default.
inline std::size_t parse_count(const std::string& flag,
                               const std::string& text) {
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || v < 0) {
    std::cerr << "error: " << flag
              << " expects a non-negative integer, got '" << text << "'\n";
    std::exit(2);
  }
  return static_cast<std::size_t>(v);
}

/// A built-in benchmark name (netlist::benchmark_names()), else a .bench
/// file path; throws what read_bench_file throws when it is neither.
inline netlist::Circuit load_circuit(const std::string& arg) {
  for (const std::string& name : netlist::benchmark_names()) {
    if (name == arg) return netlist::make_benchmark(arg);
  }
  return netlist::read_bench_file(arg);
}

/// Owns the metrics registry and the optional span collector for one CLI
/// invocation. strip_flags() removes the telemetry flags from argv before
/// the tool's own positional parsing; write() emits the JSON document.
class Telemetry {
 public:
  /// Removes the shared flags from `args`, exiting 2 when a flag that
  /// needs a value is the final token (a missing value must not be
  /// swallowed as a path). Handled: `--metrics-json PATH`,
  /// `--trace-out PATH` (installs the span collector and starts the
  /// sampling profiler), `--cache-dir PATH` (opens the artifact store),
  /// `--resume` / `--no-resume` (checkpoint consumption; on by default).
  void strip_flags(std::vector<std::string>& args) {
    auto take_value = [&](std::size_t i) -> std::string {
      if (i + 1 >= args.size()) {
        std::cerr << "error: " << args[i] << " requires a value\n";
        std::exit(2);
      }
      std::string v = args[i + 1];
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
      return v;
    };
    for (std::size_t i = 0; i < args.size();) {
      if (args[i] == "--metrics-json") {
        path_ = take_value(i);
      } else if (args[i] == "--trace-out") {
        trace_out_ = take_value(i);
      } else if (args[i] == "--cache-dir") {
        cache_dir_ = take_value(i);
      } else if (args[i] == "--resume" || args[i] == "--no-resume") {
        resume_ = args[i] == "--resume";
        args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    if (!cache_dir_.empty()) {
      store_ = std::make_unique<store::ArtifactStore>(
          cache_dir_, store::ArtifactStore::Options{}, &metrics_);
    }
    if (!trace_out_.empty()) {
      spans_ = std::make_unique<obs::SpanCollector>();
      obs::SpanCollector::install(spans_.get());
      profiler_ = std::make_unique<obs::SamplingProfiler>();
      profiler_->start();
    }
  }

  obs::MetricsRegistry& metrics() { return metrics_; }
  /// Non-null only with --cache-dir; wire into
  /// AnalysisOptions::persistence (or use directly for forest caching).
  store::ArtifactStore* store() { return store_.get(); }
  /// Whether --cache-dir runs may consume existing checkpoints
  /// (--no-resume turns a warm start into a full recompute).
  bool resume() const { return resume_; }
  /// The raw --cache-dir value (empty when absent), for tools that
  /// construct their own store on the directory (dpserved's Service).
  const std::string& cache_dir() const { return cache_dir_; }
  bool requested() const { return !path_.empty(); }
  /// Non-null only with --trace-out (already installed process-wide).
  obs::SpanCollector* spans() { return spans_.get(); }

  /// Writes the document when --metrics-json was given. Returns false
  /// only when a requested write failed (callers fold that into their
  /// exit code so scripts notice the missing file).
  bool write(const std::string& tool, const std::string& command = "") {
    bool ok = true;
    if (spans_) {
      if (obs::SpanCollector::current() == spans_.get()) {
        obs::SpanCollector::install(nullptr);
      }
      profiler_->stop();
      obs::JsonValue tdoc = obs::make_trace_document(
          "tool", tool, /*jobs=*/0, *spans_, profiler_->to_json(),
          spans_->elapsed_seconds());
      std::string error;
      if (!obs::write_json_file_atomic(trace_out_, tdoc, &error)) {
        std::cerr << "[trace] FAILED to write " << trace_out_ << ": "
                  << error << "\n";
        ok = false;
      } else {
        std::cout << "[trace] wrote " << trace_out_ << "\n";
      }
    }
    if (path_.empty()) return ok;
    obs::JsonValue doc = obs::JsonValue::object();
    doc["tool"] = tool;
    if (!command.empty()) doc["command"] = command;
    doc["schema"] = "dp.metrics.v1";
    doc["metrics"] = metrics_.to_json();
    std::string error;
    if (!obs::write_json_file_atomic(path_, doc, &error)) {
      std::cerr << "[metrics] FAILED to write " << path_ << ": " << error
                << "\n";
      return false;
    }
    std::cout << "[metrics] wrote " << path_ << "\n";
    return ok;
  }

 private:
  std::string path_;
  std::string trace_out_;
  std::string cache_dir_;
  bool resume_ = true;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<obs::SpanCollector> spans_;
  std::unique_ptr<obs::SamplingProfiler> profiler_;
  std::unique_ptr<store::ArtifactStore> store_;
};

}  // namespace dp::cli
