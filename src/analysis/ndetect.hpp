// Exact n-detection analytics over Difference Propagation test sets.
//
// DP yields every fault's COMPLETE test set (CTS) as a canonical BDD, so
// the questions modern test quality asks -- how many of my vectors detect
// each fault (n-detect, Pomeranz & Reddy), and how close a sampled test
// set gets to the complete one (Goldberg's approximation quality) -- have
// exact answers here instead of the simulation estimates everyone else
// settles for:
//
//   detections(f, V) = satcount(CTS_f ∧ B(V))     B(V) = OR of V's minterms
//   coverage(f, V)   = detections(f, V) / satcount(CTS_f)
//
// Both numerators and denominators are integer sat counts, so every
// cross-check against a simulator recount is an exact == comparison.
// A vector SET is what the algebra intersects: duplicate vectors in the
// input collapse into one minterm and are counted once.
//
// Top-up generation closes the loop: for each detectable fault below its
// quota min(n, |CTS_f|), witnesses are minted from the residual BDD
// CTS_f ∧ ¬B(V) -- vectors the fault still accepts and the set does not
// yet contain -- hardest (smallest CTS) fault first, so scarce vectors
// are placed before flexible ones and every minted vector is live for all
// later faults. The DP sweep itself runs once through the ParallelEngine
// (frozen good-function forest shared across workers by default); the
// analyzer keeps the engine alive so the test-set BDDs stay valid across
// any number of counting and top-up passes. Results are bit-identical
// for any worker count: the analyses are jobs-invariant and every count
// is a sat count of a canonical function.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dp/parallel_engine.hpp"
#include "fault/stuck_at.hpp"
#include "netlist/circuit.hpp"
#include "netlist/structure.hpp"
#include "obs/json.hpp"

namespace dp::analysis {

inline constexpr const char* kNDetectSchema = "dp.ndetect.v1";

struct NDetectOptions {
  /// Fault-parallel workers for the DP sweep; 0 = all hardware threads.
  std::size_t jobs = 1;
  /// Pre-built universe to adopt (serve's resident forest); must match
  /// the circuit. nullptr = the engine builds it.
  std::shared_ptr<const core::SharedGoodFunctions> shared_good;
};

/// One fault's n-detect standing against a vector set.
struct NDetectFaultRecord {
  fault::StuckAtFault fault;
  /// describe(fault, circuit): stable human-readable identity, also the
  /// per-fault key in the dp.ndetect.v1 document.
  std::string name;
  bool detectable = false;
  /// |CTS|: exact satcount of the complete test set (integer in a double,
  /// exact up to 2^53).
  double cts_size = 0.0;
  /// Distinct vectors of the set inside the CTS -- the exact n-detect
  /// count.
  std::uint64_t detections = 0;
  /// min(n, |CTS|): the achievable quota for this fault.
  std::uint64_t target = 0;
  /// detections / |CTS| -- Goldberg's approximation quality, exact.
  double cts_coverage = 0.0;

  bool meets_target() const { return detections >= target; }
};

struct NDetectReport {
  std::string circuit;
  std::size_t n = 0;
  std::size_t num_inputs = 0;
  /// Distinct vectors analyzed (duplicates collapse).
  std::size_t num_vectors = 0;
  /// Vectors minted by top_up to reach the quota (0 for pure analysis).
  std::size_t minted_vectors = 0;
  std::vector<NDetectFaultRecord> faults;

  std::size_t detectable_faults() const;
  std::size_t faults_meeting_target() const;
  /// Sum of per-fault detection counts (the --summary total).
  std::uint64_t total_detections() const;
  /// Mean CTS coverage over detectable faults (0 when none).
  double mean_cts_coverage() const;
  /// Every detectable fault meets its quota.
  bool complete() const;
};

/// Runs the DP sweep once, then answers any number of counting / top-up
/// queries against the resident test-set forest. Not thread-safe: the
/// queries build vector-set BDDs inside the worker managers.
class NDetectAnalyzer {
 public:
  /// `circuit` must outlive the analyzer (the engine and structure hold
  /// references). The sweep runs in the constructor.
  NDetectAnalyzer(const netlist::Circuit& circuit,
                  std::vector<fault::StuckAtFault> faults,
                  const NDetectOptions& options = {});

  const netlist::Circuit& circuit() const { return *circuit_; }
  const std::vector<fault::StuckAtFault>& faults() const { return faults_; }
  std::size_t num_faults() const { return faults_.size(); }
  bool detectable(std::size_t i) const;
  double cts_size(std::size_t i) const;
  /// min(n, |CTS_i|); 0 for undetectable faults.
  std::uint64_t quota(std::size_t i, std::size_t n) const;

  /// Exact per-fault detection counts of the DISTINCT vectors in
  /// `vectors`: counts[i] = satcount(CTS_i ∧ B(vectors)).
  std::vector<std::uint64_t> detection_counts(
      const std::vector<std::vector<bool>>& vectors);

  /// Greedy top-up: appends minted vectors to `vectors` until every
  /// detectable fault reaches quota(i, n). Returns the number minted.
  /// Deterministic: hardest fault first, witnesses from the canonical
  /// residual's first satisfying cube (don't-cares filled with 0).
  std::size_t top_up(std::vector<std::vector<bool>>& vectors, std::size_t n);

  /// Full report of `vectors` against target `n` (no top-up; set
  /// minted_vectors yourself if you topped up beforehand).
  NDetectReport report(const std::vector<std::vector<bool>>& vectors,
                       std::size_t n);

  /// Stats of the constructor's DP sweep.
  const core::ParallelStats& stats() const { return engine_.stats(); }

 private:
  const netlist::Circuit* circuit_;
  std::vector<fault::StuckAtFault> faults_;
  netlist::Structure structure_;
  core::ParallelEngine engine_;
  std::vector<core::FaultAnalysis> analyses_;
  std::vector<double> cts_sizes_;
  /// Fault indices sorted hardest (smallest CTS) first; ties by index.
  std::vector<std::size_t> order_;
};

/// One-shot analysis (no top-up): sweep + report(vectors, n).
NDetectReport analyze_ndetect(const netlist::Circuit& circuit,
                              const std::vector<fault::StuckAtFault>& faults,
                              const std::vector<std::vector<bool>>& vectors,
                              std::size_t n,
                              const NDetectOptions& options = {});

/// The dp.ndetect.v1 document. Excludes run observations (engine stats),
/// so serialized reports are byte-identical for any worker count --
/// the contract tests/serve_test.cpp pins for the served `ndetect`
/// request. `key` (the profile-cache / store key) is recorded when
/// non-empty.
obs::JsonValue ndetect_report_to_json(const NDetectReport& report,
                                      const std::string& key = "");

}  // namespace dp::analysis
