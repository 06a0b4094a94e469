// Shared pieces of the repository benchmark: the run configuration, the
// result document every workload fills, seed derivation, quantiles, the
// pass loop that fills the time budget, and the benchmark's own span
// tracer.
//
// Layering rule: the benchmark measures the program from OUTSIDE. Every
// timing here brackets a call into a public function of src/, and every
// count is read from a structure those functions already return
// (core::ParallelStats, analysis::HybridProfile, the served responses and
// the served "metrics" document). Nothing is instrumented inside src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/profiles.hpp"
#include "dp/good_functions.hpp"
#include "dp/parallel_engine.hpp"
#include "fault/stuck_at.hpp"
#include "netlist/circuit.hpp"
#include "obs/span.hpp"

namespace repobench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string server_exe;  ///< dpserved binary (served workload)
  std::string out_dir;     ///< scratch space inside the checkout
  std::string reference;   ///< reference.json (sa_dp / hybrid checks)
  /// served only: offered requests per second instead of the workload's
  /// fixed rate; 0 drives closed loop (each connection sends its next
  /// request as soon as the last is answered), which measures the
  /// server's saturation throughput.
  std::optional<double> rate;
};

/// Independent 64-bit streams from the workload seed (splitmix64 over the
/// seed and a stream path). Every generated input -- prefilter seeds,
/// vector sets, bridge seeds, the request schedule -- comes from here, so
/// one --seed fixes all of them.
std::uint64_t derive(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0,
                     std::uint64_t c = 0);

/// splitmix64 generator for bulk draws (vector sets, schedules).
class Rng {
 public:
  explicit Rng(std::uint64_t state) : state_(state) {}
  std::uint64_t next();
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Nearest-rank q-quantile (0 <= q <= 1); 0 on an empty sample.
double quantile(std::vector<double> v, double q);
/// Median (mean of the middle two for an even count); 0 on an empty sample.
double median(std::vector<double> v);

/// Starts a new peak-resident-set window: resets this process's VmHWM to
/// its current resident set (Linux /proc/self/clear_refs). A no-op where
/// unsupported, and then the peak below is the lifetime peak.
void reset_peak_rss();
/// Peak resident set of this process since the last reset_peak_rss(), MiB.
double self_peak_rss_mb();

/// One run's outcome: the correctness verdict, op accounting, and the
/// named metrics of both kinds (end-to-end and per-layer). main() prints
/// the kind the run was asked for.
class Result {
 public:
  /// Records a failed output check. Any failure makes the run incorrect,
  /// and an incorrect run reports no numbers.
  void fail(const std::string& what);
  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
  bool correct() const { return failures_ == 0; }

  void e2e(const std::string& name, double value) { e2e_[name] = value; }
  void layer(const std::string& name, double value) { layer_[name] = value; }

  const std::map<std::string, double>& e2e() const { return e2e_; }
  const std::map<std::string, double>& layers() const { return layer_; }

  std::uint64_t attempted = 0;  ///< faults (sweeps) or requests (served)
  std::uint64_t failed = 0;

 private:
  std::size_t failures_ = 0;
  std::map<std::string, double> e2e_;
  std::map<std::string, double> layer_;
};

/// Spans recorded by the benchmark around its calls into the program.
/// Untraced runs hold no collector, so every span is a no-op; traced runs
/// keep spans in memory and write one dp.trace.v1 document at the end
/// (readable by dptrace and Perfetto). The collector is never installed
/// as current(), so the program's own internal spans stay off and the
/// trace shows exactly the layer boundaries the benchmark crosses.
class Tracer {
 public:
  explicit Tracer(bool on);
  dp::obs::ScopedSpan span(std::string_view name) {
    return dp::obs::ScopedSpan(spans_.get(), name);
  }
  std::uint64_t recorded() const;
  /// Writes the trace document; false (and a message on stderr) on error.
  bool write(const std::string& path, const std::string& run_id,
             double wall_seconds) const;

 private:
  std::unique_ptr<dp::obs::SpanCollector> spans_;
};

/// Runs `call` inside a span named `name` (tagged with the circuit it
/// works on) and returns its wall seconds.
template <typename F>
double timed(Tracer& tracer, std::string_view name, std::string_view circuit, F&& call) {
  dp::obs::ScopedSpan span = tracer.span(name);
  span.attr("circuit", circuit);
  const Clock::time_point t0 = Clock::now();
  call();
  return seconds_since(t0);
}

/// Returns the heap's free memory to the system (glibc malloc_trim), so a
/// peak-resident-set window opened next measures what the code after it
/// allocates, not what earlier work left cached in the allocator's arenas.
void release_free_heap();

/// The measured phase. `pass()` runs one unit of the workload and returns
/// the seconds it spent inside program calls (checks excluded); each pass
/// opens its own peak-resident-set window on a trimmed heap. `between()`
/// runs before every pass but the first, outside both. Passes repeat while
/// the next one, estimated by the slowest so far, still fits in `budget`;
/// at least one always runs. Returns every pass's seconds.
template <typename F, typename G>
std::vector<double> run_passes(double budget, F&& pass, G&& between) {
  std::vector<double> times;
  const Clock::time_point t0 = Clock::now();
  double slowest = 0.0;
  do {
    if (!times.empty()) between();
    release_free_heap();
    reset_peak_rss();
    const Clock::time_point p0 = Clock::now();
    times.push_back(pass(times.size()));
    slowest = std::max(slowest, seconds_since(p0));
    std::cout << "pass " << times.size() - 1 << ": " << times.back() << " s, peak "
              << self_peak_rss_mb() << " MiB\n";
  } while (seconds_since(t0) + slowest <= budget);
  return times;
}

/// End-to-end figures of every pass. A run reports the median across its
/// passes: on a VM whose memory system is shared with other tenants, a
/// burst of outside traffic slows a memory-bound pass by up to half, so
/// one disturbed pass must not move the result. Passes are kept short (a
/// few seconds at most) so that a run holds enough of them for the median
/// to ride out such bursts.
class PassFigures {
 public:
  /// One pass: its seconds inside program calls, its operations per
  /// second, and (optionally) every operation's latency in ms. Also reads
  /// the pass's peak resident set, so call it at the end of the pass.
  void add(double seconds, double ops_per_s, const std::vector<double>& latency_ms = {});
  /// Which pass peak_rss_mb is read from.
  enum class Peak {
    /// The first pass: what one sweep costs a fresh process after set-up.
    /// Later passes' peaks creep up by a few MiB every few passes (memory
    /// the allocator keeps and trimming cannot return), so their median
    /// would depend on how many passes fit in the run.
    First,
    /// The median across passes after the first, for workloads whose
    /// passes differ in their inputs and so in their peaks.
    Median,
  };
  /// run_s and ops_per_s, plus op_p50_ms when passes carried latencies
  /// (each pass's p50), each the median across passes after the first,
  /// which is a warm-up; and peak_rss_mb per `peak`. A short pass has too
  /// few operations for a p99 with ten samples beyond it, so the
  /// workloads report op_p99_ms pooled over the run.
  void report(Result& result, Peak peak) const;
  std::size_t passes() const { return seconds_.size(); }

 private:
  std::vector<double> seconds_, ops_per_s_, peak_rss_mb_, p50_ms_;
};

/// Set-up is timed many times in a run and setup_s is the median, so one
/// slow set-up does not read as a regression. One set-up takes 10-70 ms,
/// while the shared host's speed drifts by a quarter or more over tens of
/// seconds, so the repeats are spread over the run instead of bunched at
/// its start. The in-process workloads set up kSetupMinRepeats times
/// before the measured phase and once more between passes whenever
/// kSetupInterval seconds have passed; served, whose measured phase cannot
/// be interrupted, sets up kSetupMinRepeats times before it and as many
/// after it.
inline constexpr int kSetupMinRepeats = 5;
inline constexpr double kSetupInterval = 1.0;

/// Engine telemetry summed over every sweep of a run, read from the
/// core::ParallelStats the analysis entry points return.
struct EngineTotals {
  double sweep_s = 0.0;      ///< summed sweep wall clock
  double busy_s = 0.0;       ///< summed per-fault analyze time
  double capacity_s = 0.0;   ///< summed jobs x sweep wall clock
  std::uint64_t gates_evaluated = 0;
  std::uint64_t gates_skipped = 0;
  std::uint64_t apply_calls = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t gc_runs = 0;
  std::size_t peak_live_nodes = 0;
  std::vector<double> fault_ms;  ///< every fault's latency

  void add(const dp::core::ParallelStats& stats);
  /// dp.* engine and bdd.* metrics. Work counts and times are per pass,
  /// so they do not depend on how many passes fit in the budget.
  void report_layers(Result& result, std::size_t passes) const;
};

/// The circuits hybrid sweeps and reference.json records (sa_dp sweeps
/// the first two).
inline const std::vector<std::string> kSweepCircuits = {"c432", "c499", "c1355", "c1908"};

/// One benchmark circuit with everything set-up builds for it. The
/// circuit is heap-held because engines keep references to it.
struct LoadedCircuit {
  std::string name;
  std::unique_ptr<dp::netlist::Circuit> circuit;
  std::vector<dp::fault::StuckAtFault> faults;  ///< collapsed checkpoints
  std::shared_ptr<const dp::core::SharedGoodFunctions> forest;
};

/// Set-up of the in-process workloads: each netlist, its collapsed fault
/// list and (with `forests`) its frozen good-function forest, timed per
/// layer on every build (see kSetupInterval).
class CircuitSetup {
 public:
  CircuitSetup(std::vector<std::string> names, bool forests, Tracer& tracer)
      : names_(std::move(names)), forests_(forests), tracer_(tracer) {}
  /// The kSetupMinRepeats builds before the measured phase; returns the
  /// last one, which the run uses.
  std::vector<LoadedCircuit> initial();
  /// Between passes: builds once more, and drops the result, when
  /// kSetupInterval seconds have passed since the last build.
  void between_passes();
  /// setup_s and the netlist / fault / forest medians over every build,
  /// and the fault and frozen-node counts of `loaded`.
  void report(const std::vector<LoadedCircuit>& loaded, Result& result) const;

 private:
  std::vector<LoadedCircuit> build();

  std::vector<std::string> names_;
  bool forests_;
  Tracer& tracer_;
  Clock::time_point last_ = Clock::now();
  std::vector<double> total_s_, netlist_s_, fault_s_, forest_s_;
};

/// What a jobs-1 sweep of one circuit produced, stored in reference.json.
struct CircuitReference {
  std::size_t faults = 0;
  std::string digest;  ///< hash of the serialized FaultRecords
  std::vector<std::size_t> undetectable;  ///< fault indices
  std::uint64_t gates_evaluated = 0;
  std::uint64_t gates_skipped = 0;
};
std::map<std::string, CircuitReference> load_reference(const std::string& path);
/// Hash of a profile's dp.profile.v1 serialization: every FaultRecord
/// field, doubles bit-exact.
std::string profile_digest(const dp::analysis::CircuitProfile& profile);

/// The metric names the run prints, with units, in output order. A
/// workload that does not exercise a layer reports 0 for it (sim.* on
/// sa_dp: the simulator does no work there).
struct MetricSpec {
  const char* name;
  const char* unit;
};
extern const std::vector<MetricSpec> kEndToEnd;
extern const std::vector<MetricSpec> kPerLayer;

// Workloads (one translation unit each).
void run_sa_dp(const Config& config, Tracer& tracer, Result& result);
void run_hybrid(const Config& config, Tracer& tracer, Result& result);
void run_ndetect(const Config& config, Tracer& tracer, Result& result);
void run_served(const Config& config, Tracer& tracer, Result& result);
/// Recomputes reference.json (jobs-1 sweeps); see README.md.
int write_reference(const std::string& path);

}  // namespace repobench
