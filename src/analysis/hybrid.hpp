// Hybrid bit-parallel-simulation / Difference-Propagation pipeline.
//
// Phase 1 (prefilter) runs the levelized wide fault simulator over a fixed
// random-pattern stream: any fault a pattern exposes at a PO is detectable
// by construction (the witness vector is concrete), so it never needs a
// BDD. Phase 2 hands only the undetected remainder to the exact DP engine.
//
// The handoff contract:
//   * Partition identity -- the detectable/undetectable split over the
//     whole fault list equals a pure DP sweep's exactly. A prefilter
//     detection is sound (witnessed), and the remainder is decided by the
//     same exact engine a pure sweep uses.
//   * Record identity on the remainder -- a fault the prefilter misses
//     gets a FaultRecord field-identical to the one analyze_stuck_at
//     would produce (same engine, same per-fault independence, built via
//     the shared make_stuck_at_record).
//   * A prefilter-resolved fault carries detection counts and its first
//     detecting pattern index instead of a DP record; exact detectability
//     for those faults is intentionally not computed.
//
// Persistence (AnalysisOptions::persistence) is ignored here: the hybrid
// pipeline is the cheap path, and its DP remainder is not keyed like a
// full-population dp.profile.v1 sweep.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/profiles.hpp"
#include "sim/wide_sim.hpp"

namespace dp::analysis {

struct HybridOptions {
  /// Random patterns the prefilter applies before DP takes over.
  std::size_t prefilter_patterns = 4096;
  std::uint64_t prefilter_seed = 0x5eedb10cull;
  /// Forwarded to the wide engine: drop a fault after its first detecting
  /// block (keep off for full n-detect counts).
  bool drop_detected = true;
};

enum class ResolvedBy : std::uint8_t {
  Prefilter,  ///< a random pattern exposed the fault; no DP ran
  ExactDp,    ///< DP analyzed it (detectable or proven redundant)
};

struct HybridFaultRecord {
  ResolvedBy resolved_by = ResolvedBy::ExactDp;
  bool detectable = false;
  /// Prefilter detections observed (0 for DP-resolved faults).
  std::uint64_t detection_count = 0;
  /// First detecting pattern index in the prefilter stream.
  std::uint64_t first_detection = sim::WideFaultSimulator::kNotDetected;
  /// Valid only when resolved_by == ExactDp; field-identical to the
  /// record a pure analyze_stuck_at sweep produces for the same fault.
  FaultRecord dp;
};

struct HybridProfile {
  std::string circuit;
  std::size_t netlist_size = 0;
  std::size_t num_inputs = 0;
  std::size_t num_outputs = 0;
  std::size_t prefilter_patterns = 0;
  std::uint64_t prefilter_seed = 0;
  /// One record per input fault, input order preserved.
  std::vector<HybridFaultRecord> faults;
  /// DP-remainder sweep telemetry (zero when the prefilter resolved all).
  core::ParallelStats engine_stats;
  double prefilter_seconds = 0.0;
  double dp_seconds = 0.0;
  /// Wide-sim stem-chase evaluations during the prefilter (one per chase
  /// of a fanout-free-region root's flip and one per gate that chase
  /// evaluates up to the root's immediate post-dominator), total and per
  /// circuit level (copied from Grade::level_events; deterministic for a
  /// fixed fault list / pattern budget / seed at every job count).
  std::uint64_t sim_events = 0;
  std::vector<std::uint64_t> sim_level_events;

  std::size_t prefilter_resolved() const;
  std::size_t dp_resolved() const;
  std::size_t detectable_count() const;
  std::size_t redundant_count() const;
  /// Fraction of faults the prefilter resolved (0 on an empty list).
  double prefilter_fraction() const;

  /// Folds this run's pipeline-level instruments into `registry`: timers
  /// phase.prefilter / phase.dp_remainder plus deterministic counters
  /// (hybrid.faults, hybrid.prefilter_resolved, hybrid.dp_resolved,
  /// sim.patterns, sim.events, per-level sim.level_events.NNN) -- all
  /// identical across --jobs 1/N runs of the same workload. The DP
  /// remainder's engine telemetry is NOT included; export engine_stats
  /// separately (callers like bench::Session::record_engine already do)
  /// so the dp.* instruments are never double-counted.
  void export_metrics(obs::MetricsRegistry& registry) const;
};

/// Runs the pipeline over an explicit fault list (the fuzzer's oracle and
/// ATPG use this form).
HybridProfile analyze_hybrid(const netlist::Circuit& circuit,
                             const std::vector<fault::StuckAtFault>& faults,
                             const AnalysisOptions& options = {},
                             const HybridOptions& hybrid = {});

/// Checkpoint-fault counterpart of analyze_stuck_at (collapse honoured).
HybridProfile analyze_stuck_at_hybrid(const netlist::Circuit& circuit,
                                      const AnalysisOptions& options = {},
                                      const HybridOptions& hybrid = {});

}  // namespace dp::analysis
