// Shared glue for the figure-reproduction benches: consistent headers,
// strict option handling, phase timing, and profile -> report -> metrics
// plumbing. Every bench accepts the same flags:
//
//   --jobs N            fault-parallel workers (0 = all hardware threads)
//   --metrics-json PATH write a dp.metrics.v1 JSON document on exit
//   --trace-out PATH    record hierarchical spans (one dp.fault span per
//                       analyzed fault) + profiler samples and write a
//                       dp.trace.v1 document (also loadable in Perfetto /
//                       chrome://tracing) on exit
//   --cache-dir PATH    content-addressed artifact cache: completed
//                       profiles are served without rebuilding BDDs, and
//                       interrupted sweeps resume from their last batch
//
// Unknown flags and flags missing their value are hard errors (usage on
// stderr, exit 2) -- a typo must never silently run the default
// configuration for an hour.
#pragma once

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/profiles.hpp"
#include "analysis/report.hpp"
#include "netlist/generators.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/span.hpp"
#include "store/artifact_store.hpp"

namespace dp::bench {

/// Every bench prints the same banner so bench_output.txt reads as an
/// experiment log keyed to the paper's figure/table numbers.
inline void banner(const std::string& id, const std::string& claim) {
  std::cout << "==================================================================\n";
  std::cout << id << "\n";
  std::cout << "Paper: Butler & Mercer, DAC 1990. " << claim << "\n";
  std::cout << "==================================================================\n";
}

namespace detail {

/// Everything the shared command line can configure.
struct CommonArgs {
  analysis::AnalysisOptions options;
  std::string metrics_json;
  std::string trace_out;  ///< --trace-out or DP_BENCH_TRACE_DIR
  std::string cache_dir;  ///< --cache-dir or DP_BENCH_CACHE_DIR
  bool jobs_set = false;  ///< --jobs or DP_BENCH_JOBS was given
  /// Unrecognized argv entries, kept only in passthrough mode (the
  /// google-benchmark benches forward these to benchmark::Initialize).
  std::vector<char*> passthrough;
};

inline void print_usage(std::ostream& os, const char* prog,
                        bool passthrough) {
  os << "usage: " << (prog && *prog ? prog : "bench")
     << " [--jobs N] [--metrics-json PATH] [--trace-out PATH]\n"
        "            [--cache-dir PATH]";
  if (passthrough) os << " [benchmark flags...]";
  os << "\n"
        "  --jobs N            fault-parallel workers; 0 = all hardware "
        "threads, 1 = serial\n"
        "  --metrics-json PATH write a dp.metrics.v1 JSON document on exit\n"
        "  --trace-out PATH    write a dp.trace.v1 span/profile document "
        "(Perfetto-loadable)\n"
        "  --cache-dir PATH    artifact cache: reuse completed profiles, "
        "resume interrupted sweeps\n"
        "env: DP_BENCH_BF_COUNT (bridging sample size), DP_BENCH_JOBS,\n"
        "     DP_BENCH_METRICS_DIR (write BENCH_<id>.json there when\n"
        "     --metrics-json is absent), DP_BENCH_TRACE_DIR (write\n"
        "     TRACE_<id>.json there when --trace-out is absent),\n"
        "     DP_BENCH_CACHE_DIR (as --cache-dir when the flag is absent)\n";
}

/// Parses the shared bench flags. Strict by default: an unknown flag or a
/// flag missing its value (e.g. `--jobs` as the final token) prints usage
/// and exits(2) instead of being silently dropped. With `passthrough`,
/// unrecognized arguments are collected instead of rejected.
inline CommonArgs parse_common_args(int argc, char** argv,
                                    bool passthrough = false) {
  CommonArgs args;
  args.options.sampling.target_count = 1000;
  if (const char* env = std::getenv("DP_BENCH_BF_COUNT")) {
    args.options.sampling.target_count =
        static_cast<std::size_t>(std::atoll(env));
  }
  if (const char* env = std::getenv("DP_BENCH_JOBS")) {
    args.options.jobs = static_cast<std::size_t>(std::atoll(env));
    args.jobs_set = true;
  }
  if (const char* env = std::getenv("DP_BENCH_CACHE_DIR")) {
    args.cache_dir = env;
  }

  const char* prog = argc > 0 ? argv[0] : nullptr;
  auto fail = [&](const std::string& message) {
    std::cerr << "error: " << message << "\n";
    print_usage(std::cerr, prog, passthrough);
    std::exit(2);
  };
  auto parse_count = [&](const char* flag, const char* text) -> std::size_t {
    char* end = nullptr;
    const long long v = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || v < 0) {
      fail(std::string(flag) + " expects a non-negative integer, got '" +
           text + "'");
    }
    return static_cast<std::size_t>(v);
  };

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value_of = [&]() -> const char* {
      if (i + 1 >= argc) fail(a + " requires a value");
      return argv[++i];
    };
    if (a == "--jobs") {
      args.options.jobs = parse_count("--jobs", value_of());
      args.jobs_set = true;
    } else if (a == "--metrics-json") {
      args.metrics_json = value_of();
    } else if (a == "--trace-out") {
      args.trace_out = value_of();
    } else if (a == "--cache-dir") {
      args.cache_dir = value_of();
    } else if (a == "--help" || a == "-h") {
      print_usage(std::cout, prog, passthrough);
      std::exit(0);
    } else if (passthrough) {
      args.passthrough.push_back(argv[i]);
    } else {
      fail("unknown option '" + a + "'");
    }
  }
  return args;
}

}  // namespace detail

/// Back-compat shim: the shared strict parser, returning just the
/// analysis options.
inline analysis::AnalysisOptions default_options(int argc = 0,
                                                 char** argv = nullptr) {
  return detail::parse_common_args(argc, argv).options;
}

inline void shape_check(bool ok, const std::string& what) {
  std::cout << (ok ? "[shape OK]   " : "[shape MISS] ") << what << "\n";
}

/// One bench run: parses the shared flags, owns the metrics registry and
/// (optional) span collector, times phases, folds every analyzed circuit's
/// engine stats into the registry, and writes the JSON document on
/// destruction when --metrics-json (or DP_BENCH_METRICS_DIR) asked for
/// one. Document shape:
///
///   { "bench": "<id>", "schema": "dp.metrics.v1", "jobs": N,
///     "metrics": { counters, gauges, timers, histograms },
///     "circuits": [ { circuit, gates, inputs, outputs, faults, ... } ]
///   }
class Session {
 public:
  /// `id` names the output document (BENCH_<id>.json under
  /// DP_BENCH_METRICS_DIR); use the executable's short name.
  /// `passthrough_unknown` keeps unrecognized argv entries available via
  /// passthrough_argv() instead of rejecting them.
  explicit Session(std::string id, int argc = 0, char** argv = nullptr,
                   bool passthrough_unknown = false)
      : id_(std::move(id)),
        args_(detail::parse_common_args(argc, argv, passthrough_unknown)),
        circuits_(obs::JsonValue::array()),
        start_(std::chrono::steady_clock::now()) {
    if (args_.metrics_json.empty()) {
      if (const char* dir = std::getenv("DP_BENCH_METRICS_DIR")) {
        args_.metrics_json = std::string(dir) + "/BENCH_" + id_ + ".json";
      }
    }
    if (args_.trace_out.empty()) {
      if (const char* dir = std::getenv("DP_BENCH_TRACE_DIR")) {
        args_.trace_out = std::string(dir) + "/TRACE_" + id_ + ".json";
      }
    }
    if (!args_.trace_out.empty()) {
      // Install the collector process-wide so the engines' instrumentation
      // points find it via SpanCollector::current() -- no plumbing through
      // the analysis call chain.
      spans_ = std::make_unique<obs::SpanCollector>();
      obs::SpanCollector::install(spans_.get());
      profiler_ = std::make_unique<obs::SamplingProfiler>();
      profiler_->start();
    }
    if (!args_.cache_dir.empty()) {
      store_ = std::make_unique<store::ArtifactStore>(
          args_.cache_dir, store::ArtifactStore::Options{}, &metrics_);
      args_.options.persistence.store = store_.get();
    }
  }
  ~Session() { finish(); }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Mutable so a bench can tweak sampling/collapse before the sweep.
  analysis::AnalysisOptions& options() { return args_.options; }
  obs::MetricsRegistry& metrics() { return metrics_; }
  /// Non-null only with --cache-dir / DP_BENCH_CACHE_DIR (already wired
  /// into options().persistence).
  store::ArtifactStore* store() { return store_.get(); }
  bool metrics_requested() const { return !args_.metrics_json.empty(); }
  /// True when --jobs (or DP_BENCH_JOBS) was given explicitly, letting a
  /// bench keep its own default worker count otherwise.
  bool jobs_explicit() const { return args_.jobs_set; }
  /// Arguments the strict parser did not recognize (passthrough mode).
  std::vector<char*>& passthrough_argv() { return args_.passthrough; }

  /// RAII wall-clock for one named phase; exported as timer
  /// "phase.<name>" and -- when --trace-out is active -- as a span of the
  /// same name, so the phase shows up on the trace timeline too.
  obs::ScopedTimer phase(const std::string& name) {
    return obs::ScopedTimer(metrics_.timer("phase." + name),
                            obs::ScopedSpan(spans_.get(), "phase." + name));
  }

  /// Folds one analyzed circuit into the document: engine stats into the
  /// registry (counters/gauges/timers) plus a per-circuit JSON record.
  void record_profile(const analysis::CircuitProfile& p) {
    obs::JsonValue c = start_circuit_record(p.circuit, p.netlist_size,
                                            p.num_inputs, p.num_outputs,
                                            p.faults.size(), p.engine_stats);
    c["detectable"] = p.detectable_count();
    c["mean_detectability_detectable"] = p.mean_detectability_detectable();
    c["mean_detectability_per_po"] = p.mean_detectability_per_po();
    circuits_.push_back(std::move(c));
  }

  /// Per-circuit record for benches that verify results themselves and
  /// only need the engine telemetry (throughput, peak nodes, cache hit
  /// rate, wall clock) in the document. `ops_per_second` is the bench's
  /// primary throughput (faults/s for the DP sweeps).
  void record_engine(const std::string& circuit, std::size_t gates,
                     std::size_t inputs, std::size_t outputs,
                     std::size_t faults, double ops_per_second,
                     const core::ParallelStats& es) {
    obs::JsonValue c =
        start_circuit_record(circuit, gates, inputs, outputs, faults, es);
    c["ops_per_second"] = ops_per_second;
    circuits_.push_back(std::move(c));
  }

  /// Writes the document (idempotent; also run by the destructor).
  /// Returns false only when a requested write failed.
  bool finish() {
    if (finished_) return true;
    finished_ = true;
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start_)
                            .count();
    metrics_.timer("phase.total").record(wall);

    bool ok = true;
    if (spans_) {
      if (obs::SpanCollector::current() == spans_.get()) {
        obs::SpanCollector::install(nullptr);
      }
      profiler_->stop();
      obs::JsonValue tdoc = obs::make_trace_document(
          "bench", id_, args_.options.jobs, *spans_, profiler_->to_json(),
          wall);
      std::string error;
      if (!obs::write_json_file_atomic(args_.trace_out, tdoc, &error)) {
        std::cerr << "[trace] FAILED to write " << args_.trace_out << ": "
                  << error << "\n";
        ok = false;
      } else {
        std::cout << "[trace] wrote " << args_.trace_out << "\n";
      }
    }
    if (args_.metrics_json.empty()) return ok;

    obs::JsonValue doc = obs::JsonValue::object();
    doc["bench"] = id_;
    doc["schema"] = "dp.metrics.v1";
    doc["jobs"] = args_.options.jobs;
    doc["metrics"] = metrics_.to_json();
    doc["circuits"] = std::move(circuits_);
    if (store_) {
      obs::JsonValue& cache = doc["cache"];
      cache["dir"] = store_->dir();
      cache["bytes"] = store_->size_bytes();
    }

    // Atomic rename: a bench killed mid-write leaves the previous
    // document (or nothing), never a torn half-file.
    std::string error;
    if (!obs::write_json_file_atomic(args_.metrics_json, doc, &error)) {
      std::cerr << "[metrics] FAILED to write " << args_.metrics_json << ": "
                << error << "\n";
      return false;
    }
    std::cout << "[metrics] wrote " << args_.metrics_json << "\n";
    return ok;
  }

 private:
  /// Shared identity + engine section of a per-circuit record; the caller
  /// adds its result fields and pushes onto circuits_.
  obs::JsonValue start_circuit_record(const std::string& circuit,
                                      std::size_t gates, std::size_t inputs,
                                      std::size_t outputs, std::size_t faults,
                                      const core::ParallelStats& es) {
    es.export_metrics(metrics_);
    metrics_.counter("bench.circuits").add(1);

    std::size_t peak = 0;
    for (const core::WorkerStats& w : es.workers) {
      peak = std::max(peak, w.peak_live_nodes);
    }

    obs::JsonValue c = obs::JsonValue::object();
    c["circuit"] = circuit;
    c["gates"] = gates;
    c["inputs"] = inputs;
    c["outputs"] = outputs;
    c["faults"] = faults;
    obs::JsonValue& e = c["engine"];
    e["jobs"] = es.jobs;
    e["wall_seconds"] = es.wall_seconds;
    e["gates_evaluated"] = es.total_gates_evaluated();
    e["gates_skipped"] = es.total_gates_skipped();
    e["roots_chased"] = es.observe.roots_chased;
    e["apply_calls"] = es.total_apply_calls();
    e["cache_hits"] = es.total_cache_hits();
    e["cache_hit_rate"] = es.cache_hit_rate();
    e["negations_constant_time"] = es.total_negations_constant_time();
    e["cache_canonical_swaps"] = es.total_cache_canonical_swaps();
    e["gc_runs"] = es.total_gc_runs();
    e["peak_live_nodes"] = peak;
    e["ref_underflows"] = es.total_ref_underflows();
    return c;
  }

  std::string id_;
  detail::CommonArgs args_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<obs::SpanCollector> spans_;
  std::unique_ptr<obs::SamplingProfiler> profiler_;
  std::unique_ptr<store::ArtifactStore> store_;
  obs::JsonValue circuits_;
  std::chrono::steady_clock::time_point start_;
  bool finished_ = false;
};

}  // namespace dp::bench
