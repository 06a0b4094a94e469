// Fault-parallel Difference Propagation (the paper's headline sweeps).
//
// Every per-fault analysis in the paper's experiments is independent of
// every other one, so the sweep parallelizes at the fault granularity:
// a worker pool runs the serial DifferencePropagator per fault and writes
// its result into the slot of the fault's input position. Results are
// therefore merged deterministically in input order, and detectability,
// adherence, and observability are bit-identical to the serial engine no
// matter how faults are scheduled.
//
// The good-function universe is built ONCE (or taken pre-built from the
// caller), frozen into an immutable bdd::FrozenForest, and adopted by
// every worker's private manager as a read-only node prefix: workers host
// only their Δ/fault-site functions privately, so sweep memory is
// O(forest + jobs x Δ) instead of O(jobs x forest), and a worker's build
// is just a Manager over the forest plus a handle wrap, done on the
// calling thread. Every FaultAnalysis field is a value of a canonical
// Boolean function, invariant under the slot renumbering freeze()
// applies, so results are bit-identical to the serial engine over an
// unfrozen GoodFunctions.
//
// The engine owns the workers: FaultAnalysis results hold Bdd handles into
// the worker managers and stay valid for the engine's lifetime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <vector>

#include "dp/engine.hpp"
#include "dp/good_functions.hpp"
#include "dp/observabilities.hpp"
#include "obs/metrics.hpp"

namespace dp::core {

/// Per-worker observability: how much BDD work this worker's private
/// manager did during the last sweep (deltas over the sweep, except the
/// node gauges which are end-of-sweep values).
struct WorkerStats {
  std::size_t faults_analyzed = 0;
  std::uint64_t gates_evaluated = 0;  ///< summed PropagationStats
  std::uint64_t gates_skipped = 0;    ///< summed PropagationStats
  double analyze_seconds = 0.0;     ///< summed per-fault wall clock
  double max_fault_seconds = 0.0;   ///< slowest single fault
  /// Wall clock of every fault this worker analyzed, in claim order --
  /// the raw material for the sweep's per-fault latency quantiles.
  std::vector<double> fault_seconds;
  std::size_t live_nodes = 0;       ///< manager gauge after the sweep
  std::size_t peak_live_nodes = 0;  ///< manager high-water mark
  std::uint64_t gc_runs = 0;
  std::uint64_t apply_calls = 0;
  std::uint64_t intersect_calls = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t negations_constant_time = 0;
  std::uint64_t cache_canonical_swaps = 0;
  std::uint64_t ref_underflows = 0;

  double cache_hit_rate() const {
    return apply_calls > 0 ? static_cast<double>(cache_hits) /
                                 static_cast<double>(apply_calls)
                           : 0.0;
  }
};

/// Aggregated engine-level stats for one sweep (analyze_all() or
/// analyze_each()).
struct ParallelStats {
  std::size_t jobs = 0;
  std::size_t faults = 0;
  double wall_seconds = 0.0;  ///< end-to-end sweep time (fan-out to join)
  /// One-time build+freeze cost of the shared forest. Merge takes the
  /// max: a batched sweep pays it once.
  double shared_build_seconds = 0.0;
  /// Size of the shared frozen forest.
  std::size_t frozen_nodes = 0;
  /// The observability layer built for this sweep, when the sweep built
  /// its own (analyze_bridging over a universe without one); zero
  /// otherwise, since whoever builds a shared layer reports it once.
  ObserveStats observe;
  std::vector<WorkerStats> workers;

  double total_analyze_seconds() const;
  double faults_per_second() const;
  std::uint64_t total_gates_evaluated() const;
  std::uint64_t total_gates_skipped() const;
  std::uint64_t total_gc_runs() const;
  std::uint64_t total_apply_calls() const;
  std::uint64_t total_intersect_calls() const;
  std::uint64_t total_cache_hits() const;
  std::uint64_t total_negations_constant_time() const;
  std::uint64_t total_cache_canonical_swaps() const;
  std::uint64_t total_ref_underflows() const;
  double cache_hit_rate() const;
  /// Concatenation of every worker's per-fault wall clocks (worker-index
  /// order). Feeds latency quantiles in print()/export_metrics().
  std::vector<double> all_fault_seconds() const;

  /// Folds another sweep's stats into this one (per-worker fields sum,
  /// peaks take the max, node gauges take the latest) so a batched sweep
  /// -- e.g. one checkpointed in fault-batch chunks -- reports one
  /// aggregate indistinguishable in its deterministic totals from a
  /// single uninterrupted sweep. Worker lists are matched by index;
  /// `other` may have more workers than `this` (the list grows).
  void merge(const ParallelStats& other);

  /// Human-readable block: one summary line plus one row per worker.
  void print(std::ostream& os) const;

  /// Folds this sweep into `registry` under `<prefix>.`. Per-worker
  /// snapshots are aggregated in worker-index order (deterministic).
  /// Deterministic totals (faults analyzed, gates evaluated/skipped)
  /// become counters -- identical for --jobs 1 and --jobs N sweeps of the
  /// same workload; schedule-dependent values (apply calls, cache hits,
  /// node counts) become gauges. Repeated calls accumulate, so one
  /// registry can absorb a whole multi-circuit bench. Stats of no sweep
  /// (jobs == 0: a profile-cache hit, or a hybrid run with no DP
  /// remainder) export nothing.
  void export_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix = "dp") const;
};

std::ostream& operator<<(std::ostream& os, const ParallelStats& stats);

/// Shards a fault list across a worker pool and merges the per-fault
/// analyses back in input order.
class ParallelEngine {
 public:
  struct Options {
    /// Worker count; 0 = std::thread::hardware_concurrency(). With one
    /// worker the sweep runs inline on the calling thread (no pool).
    std::size_t jobs = 0;
    /// The frozen universe every worker adopts, under its node budget,
    /// so all managers agree on the variable order and detectabilities
    /// are bit-identical to the serial path. A layered universe also
    /// serves bridges; without a layer a bridge throws std::logic_error.
    /// serve::Service shares one across requests. nullptr = the engine
    /// builds SharedGoodFunctions(circuit).
    std::shared_ptr<const SharedGoodFunctions> shared_good;
  };

  /// Builds (or takes) the shared universe, then one Manager + adopted
  /// GoodFunctions + DifferencePropagator (default options, so selective
  /// trace is on) per worker. Throws BddError when
  /// options.shared_good does not match `circuit`. `circuit` and
  /// `structure` must outlive the engine.
  ParallelEngine(const netlist::Circuit& circuit,
                 const netlist::Structure& structure)
      : ParallelEngine(circuit, structure, Options{}) {}
  ParallelEngine(const netlist::Circuit& circuit,
                 const netlist::Structure& structure, Options options);
  ~ParallelEngine();

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  /// Analyzes every fault; result i is fault i's analysis (input order).
  /// The returned Bdd handles live in worker managers: they are valid only
  /// while the engine is alive. The first per-fault exception (by fault
  /// index) is rethrown after all workers drain.
  std::vector<FaultAnalysis> analyze_all(
      const std::vector<fault::StuckAtFault>& faults);
  std::vector<FaultAnalysis> analyze_all(
      const std::vector<fault::BridgingFault>& faults);
  std::vector<FaultAnalysis> analyze_all(
      const std::vector<fault::MultipleStuckAtFault>& faults);

  /// Streaming variant: each analysis is handed to `sink(index, analysis)`
  /// as soon as its fault finishes, and the BDD handles are released right
  /// after the call -- node pressure stays flat over arbitrarily long
  /// fault lists. The sink runs on worker threads, each index exactly
  /// once; it must be safe to call concurrently for DISTINCT indices
  /// (writing record i into a pre-sized vector qualifies).
  using ResultSink = std::function<void(std::size_t, FaultAnalysis&&)>;
  void analyze_each(const std::vector<fault::StuckAtFault>& faults,
                    const ResultSink& sink);
  void analyze_each(const std::vector<fault::BridgingFault>& faults,
                    const ResultSink& sink);
  void analyze_each(const std::vector<fault::MultipleStuckAtFault>& faults,
                    const ResultSink& sink);

  std::size_t jobs() const { return workers_.size(); }
  /// Stats of the most recent sweep (analyze_all() or analyze_each()).
  const ParallelStats& stats() const { return stats_; }

 private:
  template <typename Fault>
  void run(const std::vector<Fault>& faults, const ResultSink& sink);

  template <typename Fault>
  std::vector<FaultAnalysis> run_collect(const std::vector<Fault>& faults);

  /// The adopted universe: the workers' good functions read its layer.
  std::shared_ptr<const SharedGoodFunctions> shared_;
  /// One private analysis stack per worker over the shared frozen forest:
  /// the forest is immutable and no other BDD state is shared between
  /// workers, so no locks are needed anywhere on the hot path.
  std::vector<std::unique_ptr<AdoptedPropagator>> workers_;
  ParallelStats stats_;
};

}  // namespace dp::core
