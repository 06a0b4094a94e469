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
// later faults.
//
// The test sets depend only on the circuit and the fault list, so they
// are computed once into a TestSets, the one complete-test-set artifact
// (ATPG, top-up, served requests and the "tests" cache all read it): a
// DP sweep at any worker count, or roots loaded from the store, packed
// into one standalone bdd::FrozenForest beside their CTS sizes and the
// hardest-first order. That object is immutable and holds no reference
// to the circuit, so any number of analyzers -- concurrent served
// requests included -- adopt one copy lock-free. Each analyzer adopts it
// in one private Manager, where the vector-set BDDs of its queries live.
// Results are bit-identical for any worker count: the analyses are
// jobs-invariant and every count is a sat count of a canonical function.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "bdd/frozen_forest.hpp"
#include "dp/parallel_engine.hpp"
#include "fault/stuck_at.hpp"
#include "netlist/circuit.hpp"
#include "obs/json.hpp"

namespace dp::store {
class ArtifactStore;
}

namespace dp::analysis {

inline constexpr const char* kNDetectSchema = "dp.ndetect.v1";
/// Salt of the "tests" artifact key (save_test_sets/load_test_sets).
inline constexpr const char* kTestSetsSchema = "dp.tests.v1";

/// The distinct vectors of `vectors`, in first-occurrence order: the
/// vector SET the n-detect algebra counts over.
std::vector<std::vector<bool>> distinct_vectors(
    const std::vector<std::vector<bool>>& vectors);

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

/// Every fault's complete test set, packed into one standalone frozen
/// forest, with its exact size and the hardest-first order. Immutable
/// after construction, so one copy can be shared by any number of
/// analyzers on any threads.
class TestSets {
 public:
  /// Runs the DP sweep over `faults` (options.jobs workers) and packs the
  /// test sets. `circuit` is only read during construction.
  TestSets(const netlist::Circuit& circuit,
           std::vector<fault::StuckAtFault> faults,
           const NDetectOptions& options = {});
  /// Packs given test sets: roots[i] is faults[i]'s CTS over
  /// `num_inputs` PI variables (the FALSE function when undetectable),
  /// from any managers that share the identity variable order -- the way
  /// in for sets loaded from the artifact store. stats() stays empty.
  TestSets(std::vector<fault::StuckAtFault> faults,
           const std::vector<bdd::Bdd>& roots, std::size_t num_inputs);

  const std::vector<fault::StuckAtFault>& faults() const { return faults_; }
  /// The packed test sets; test_set(i) is fault i's CTS as an edge of it.
  const std::shared_ptr<const bdd::FrozenForest>& forest() const {
    return forest_;
  }
  bdd::NodeIndex test_set(std::size_t i) const { return test_sets_.at(i); }
  bool detectable(std::size_t i) const {
    return test_sets_.at(i) != bdd::kFalseNode;
  }
  /// |CTS_i|, exact (0 for undetectable faults).
  double cts_size(std::size_t i) const { return cts_sizes_.at(i); }
  /// Fault indices sorted hardest (smallest CTS) first; ties by index.
  const std::vector<std::size_t>& order() const { return order_; }
  /// Stats of the DP sweep that built the sets (empty when packed from
  /// given roots).
  const core::ParallelStats& stats() const { return stats_; }

 private:
  /// Packs `roots` into the forest, sizes every CTS and orders the
  /// faults: the one path both constructors take.
  void pack(const std::vector<bdd::Bdd>& roots, std::size_t num_inputs);

  std::vector<fault::StuckAtFault> faults_;
  std::shared_ptr<const bdd::FrozenForest> forest_;
  std::vector<bdd::NodeIndex> test_sets_;
  std::vector<double> cts_sizes_;
  std::vector<std::size_t> order_;
  core::ParallelStats stats_;
};

/// Writes `sets` to `store` as kind "tests", keyed on kTestSetsSchema,
/// the circuit's content hash and the swept fault list. False when the
/// write failed.
bool save_test_sets(store::ArtifactStore& store,
                    const netlist::Circuit& circuit, const TestSets& sets);
/// The test sets save_test_sets wrote for `circuit` and exactly `faults`;
/// nullopt on a miss or a corrupt artifact (counted by the store).
std::optional<TestSets> load_test_sets(
    store::ArtifactStore& store, const netlist::Circuit& circuit,
    std::vector<fault::StuckAtFault> faults);

/// Answers any number of counting / top-up queries against one fault
/// list's test sets. Not thread-safe (the queries build vector-set BDDs
/// in the analyzer's private manager); concurrent analyzers share one
/// TestSets instead.
class NDetectAnalyzer {
 public:
  /// Builds the test sets (the DP sweep runs here). `circuit` must
  /// outlive the analyzer.
  NDetectAnalyzer(const netlist::Circuit& circuit,
                  std::vector<fault::StuckAtFault> faults,
                  const NDetectOptions& options = {});
  /// Adopts test sets built for `circuit` (no sweep). `circuit` must
  /// outlive the analyzer.
  NDetectAnalyzer(const netlist::Circuit& circuit,
                  std::shared_ptr<const TestSets> test_sets);

  const netlist::Circuit& circuit() const { return *circuit_; }
  const std::vector<fault::StuckAtFault>& faults() const {
    return sets_->faults();
  }
  std::size_t num_faults() const { return faults().size(); }
  bool detectable(std::size_t i) const { return sets_->detectable(i); }
  double cts_size(std::size_t i) const { return sets_->cts_size(i); }
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

  /// The adopted test sets (share them with further analyzers).
  const std::shared_ptr<const TestSets>& test_sets() const {
    return sets_;
  }
  /// Stats of the DP sweep that built the test sets.
  const core::ParallelStats& stats() const { return sets_->stats(); }

 private:
  /// Fault i's test set as a handle of manager_.
  bdd::Bdd cts(std::size_t i) { return manager_.make(sets_->test_set(i)); }

  const netlist::Circuit* circuit_;
  std::shared_ptr<const TestSets> sets_;
  bdd::Manager manager_;
};

/// The dp.ndetect.v1 document. Excludes run observations (engine stats),
/// so serialized reports are byte-identical for any worker count --
/// the contract tests/serve_test.cpp pins for the served `ndetect`
/// request. `key` (the profile-cache / store key) is recorded when
/// non-empty.
obs::JsonValue ndetect_report_to_json(const NDetectReport& report,
                                      const std::string& key = "");

}  // namespace dp::analysis
