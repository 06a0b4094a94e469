// The differential oracle matrix.
//
// For one FuzzCase, every engine in the repo is run against every other
// engine that must agree with it bit-for-bit:
//
//   dp_vs_sim    serial DifferencePropagator vs the exhaustive 64-way
//                fault simulator: syndromes per net, detectability /
//                detectable flag per fault, and full complete-test-set
//                membership over all 2^n input vectors -- for the case's
//                stuck-at and bridging faults plus two 2-line and two
//                3-line multiple stuck-at faults sampled from the case seed.
//   dp_vs_symbolic  serial DifferencePropagator vs SymbolicFaultSimulator
//                for every bridge, in one manager: test set and every PO
//                difference by handle, and every other FaultAnalysis field
//                but the work counters exactly.
//   parallel     ParallelEngine at jobs N vs the serial engine: every
//                scalar FaultAnalysis field plus the test-set sat count.
//   store        analyze_stuck_at cold (fresh sweep + artifacts written)
//                vs warm (profile cache hit) vs resumed (profile dropped,
//                truncated checkpoint installed): FaultRecord vectors
//                compared field-exact.
//   hybrid       the prefilter+DP pipeline (analysis/hybrid.hpp) at jobs N
//                vs the serial engine: the detectable/undetectable partition
//                must match exactly, every prefilter resolution must carry a
//                detection witness count, and every DP-resolved fault's
//                record must equal the serial analysis field-for-field. The
//                prefilter's per-fault detection counts, first detections
//                and event total must equal a jobs-1 wide-simulator grade
//                of the same pattern stream.
//   ndetect      the n-detection analytics (analysis/ndetect.hpp) vs the
//                wide fault simulator: a deterministic per-case vector
//                sample is topped up to n = 2, then every fault's exact
//                satcount-based detection count must equal the simulator's
//                per-pattern recount, and every detectable fault must have
//                reached its min(n, |CTS|) quota.
//
// All equality is exact (==, doubles included): every compared quantity
// is an integer sat count <= 2^n divided by a power of two, so any
// difference at all is an engine bug, not float noise.
//
// The mutation hook: OracleConfig::mutate perturbs the DP-side values
// *as seen by the oracle* (a wrapper over the engine results, enabled
// only by the self-test) so the fuzzer can prove it detects and shrinks
// injected engine bugs without shipping a buggy engine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "verify/case_gen.hpp"

namespace dp::verify {

/// Injected engine perturbations for the oracle self-test.
enum class Mutation : std::uint8_t {
  None,
  /// DP reports a detectability one vector too high for the first fault.
  InflateDetectability,
  /// DP's test set loses its lowest-numbered member vector (first fault).
  DropTestVector,
  /// The good-function syndrome of the last gate net is off by 2^-n.
  FlipSyndrome,
  /// The parallel engine's merged result diverges from serial on the
  /// first fault (a stand-in for an input-order merge bug).
  PerturbParallelMerge,
  /// The n-detect arm's view of the first fault's exact detection count
  /// is one high (a stand-in for a vector-set BDD intersection bug).
  PerturbNDetectCount,
  /// The hybrid arm's view of the first fault's prefilter detection count
  /// is one high (a stand-in for a lost or doubled count when the
  /// prefilter's threads merge).
  PerturbPrefilterCount,
};

const char* to_string(Mutation m);

struct OracleConfig {
  std::size_t jobs = 4;        ///< worker count of the parallel arm
  bool check_parallel = true;
  bool check_store = true;
  bool check_hybrid = true;
  bool check_ndetect = true;
  /// Prefilter depth of the hybrid arm; deliberately small (and not a
  /// multiple of the 256-lane block) so fuzz cases routinely exercise both
  /// phases and the tail-lane masking.
  std::size_t hybrid_prefilter_patterns = 192;
  /// Scratch root for the store arm's per-case ArtifactStore; the arm is
  /// skipped when empty. The per-case subdirectory is removed afterwards.
  std::string scratch_dir;
  Mutation mutate = Mutation::None;  ///< self-test only
};

struct Discrepancy {
  std::string oracle;   ///< e.g. "dp_vs_sim.detectability"
  std::string subject;  ///< fault or net description
  std::string detail;   ///< expected-vs-got message
};

struct OracleResult {
  std::size_t faults_checked = 0;
  std::size_t vectors_checked = 0;  ///< test-set membership points compared
  std::vector<Discrepancy> discrepancies;

  bool ok() const { return discrepancies.empty(); }
};

/// Runs the full matrix on one case. Never throws on a mismatch (it
/// records a Discrepancy); engine exceptions are converted into
/// "exception" discrepancies so a crash-inducing case is also shrinkable.
OracleResult run_oracles(const FuzzCase& fuzz_case,
                         const OracleConfig& config);

}  // namespace dp::verify
