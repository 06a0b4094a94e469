// Per-circuit fault-population studies: run Difference Propagation over a
// whole fault set and keep the scalar metrics the paper's figures plot.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "analysis/histogram.hpp"
#include "dp/engine.hpp"
#include "dp/parallel_engine.hpp"
#include "fault/sampling.hpp"
#include "fault/stuck_at.hpp"
#include "store/artifact_store.hpp"

namespace dp::analysis {

/// Scalar per-fault record (the test-set BDD itself is dropped so large
/// populations do not pin manager nodes).
struct FaultRecord {
  bool detectable = false;
  double detectability = 0.0;
  double upper_bound = 0.0;
  double adherence = 0.0;
  std::size_t pos_fed = 0;
  std::size_t pos_observable = 0;
  int max_levels_to_po = -1;  ///< site distance for the bathtub curves
  int level_from_pi = 0;      ///< site controllability-side distance
  /// Stuck-at only: the site is a fanout branch. pos_fed then counts the
  /// STEM's structural reach while the difference only travels through the
  /// fed gate, so fed-vs-observed comparisons skip these records.
  bool branch_site = false;
  bool bridge_stuck_at = false;
  std::uint64_t gates_evaluated = 0;
  std::uint64_t gates_skipped = 0;
};

struct CircuitProfile {
  std::string circuit;
  std::size_t netlist_size = 0;  ///< gate count (paper's size axis)
  std::size_t num_inputs = 0;
  std::size_t num_outputs = 0;
  std::vector<FaultRecord> faults;
  /// Worker-pool observability for the sweep that built this profile
  /// (with jobs == 1 the sweep ran inline on one worker).
  core::ParallelStats engine_stats;

  std::size_t detectable_count() const;
  /// "Overall mean detectability of detectable faults" (figure 2/7 solid).
  double mean_detectability_detectable() const;
  /// The same normalized by PO count (figure 2/7 dotted).
  double mean_detectability_per_po() const;

  Histogram detectability_histogram(std::size_t bins = 20) const;
  /// Adherence histogram over detectable faults (figure 4).
  Histogram adherence_histogram(std::size_t bins = 20) const;

  /// Mean detectability of detectable faults grouped by the site's maximum
  /// distance to a PO (figures 3 and 8 -- the "bathtub" curves).
  std::map<int, double> detectability_by_po_distance() const;
  /// Controllability-side counterpart (paper: "much more random").
  std::map<int, double> detectability_by_pi_distance() const;

  /// Fraction of faults whose fed and observable PO counts coincide
  /// ("these numbers are almost always the same", §4.1). Branch-site
  /// faults are excluded: their fed count refers to the checkpoint stem,
  /// not to the cone the injected difference can travel through.
  double po_fed_equals_observed_fraction() const;

  /// Bridging only: fraction behaving as double stuck-at (figure 5).
  double bridge_stuck_at_fraction() const;
};

/// Durable-artifact wiring for one sweep. With a store attached the
/// sweep (1) returns a cached dp.profile.v1 result when one exists for
/// the derived cache key -- skipping BDD construction and DP entirely --
/// (2) writes a dp.checkpoint.v1 document after every completed fault
/// batch, and (3) on start consumes a matching checkpoint so an
/// interrupted sweep resumes at the last completed batch. Per-fault
/// results are independent and deterministically ordered, so a resumed
/// sweep is bit-identical to an uninterrupted one.
struct PersistenceOptions {
  /// Not owned; nullptr disables all persistence (the default).
  store::ArtifactStore* store = nullptr;
  /// Faults per checkpoint batch (the resume granularity: at most this
  /// many faults are recomputed after a crash).
  std::size_t checkpoint_interval = 64;
  /// When false, existing checkpoints are ignored (but still written).
  bool resume = true;
};

struct AnalysisOptions {
  bool collapse = true;          ///< collapse the checkpoint set (paper §2.1)
  /// Fault-parallel worker count: 1 = serial (inline), 0 = all hardware
  /// threads, N = N workers, each with a private BDD manager. Results are
  /// bit-identical to the serial sweep for any value.
  std::size_t jobs = 1;
  fault::SamplingOptions sampling;  ///< bridging-fault sampling policy
  PersistenceOptions persistence;   ///< artifact cache + checkpoint/resume
  /// Pre-built universe to adopt (serve::Service passes its resident
  /// forest here); nullptr = build per sweep. Results are bit-identical
  /// either way, so this does not enter the profile cache key.
  std::shared_ptr<const core::SharedGoodFunctions> shared_good;
};

/// Builds the scalar record for one stuck-at DP result exactly as
/// analyze_stuck_at does. Shared with the hybrid pipeline
/// (analysis/hybrid.hpp) so a DP-resolved hybrid record is field-identical
/// to the record a pure sweep produces for the same fault.
FaultRecord make_stuck_at_record(const netlist::Structure& structure,
                                 const fault::StuckAtFault& fault,
                                 const core::FaultAnalysis& analysis);

/// Full stuck-at study of one circuit (checkpoint faults, collapsed).
CircuitProfile analyze_stuck_at(const netlist::Circuit& circuit,
                                const AnalysisOptions& options = {});

/// Full bridging study of one circuit: enumerate potentially detectable
/// NFBFs, sample per the paper's distance-weighted policy when the set
/// exceeds the target, analyze each.
CircuitProfile analyze_bridging(const netlist::Circuit& circuit,
                                fault::BridgeType type,
                                const AnalysisOptions& options = {});

}  // namespace dp::analysis
