// Levelized, wide bit-parallel fault simulation.
//
// The engine simulates 256 patterns per block (four 64-bit words, plain
// loops the compiler auto-vectorizes) over a flattened levelized
// schedule, and has two uses.
//
// Test-set grading of stuck-at faults evaluates each good-circuit block
// once and grades the faults one fanout-free region (FFR) at a time,
// instead of re-evaluating the whole faulty circuit per fault per block.
// An FFR is a tree of single-fanout nets that meets the rest of the
// circuit only at its root (a net whose fanout count is not 1, or a PO).
//
// Grading a block has two phases. Phase A gives every region root (stem)
// an observability word: the lanes on which flipping the root flips some
// PO. The regions and every net's immediate post-dominator toward the POs
// come from netlist::Regions, and a stem's flip is chased, level by level
// through the gates it reaches, only up to its post-dominator d. Every
// path from the stem to a PO crosses d, so the stem is observed exactly
// where its flip arrives at d and d's own flip is observed: along d's
// critical path to its region root, then through that root's
// observability, which phase A computed first because it is deeper. Only
// stems post-dominated by the PO sink alone are chased to the POs. Phase
// B grades each region: critical-path tracing -- one backward pass from
// the root over the good values, seeded with the root's observability --
// gives the lanes on which each fault's effect reaches a PO, with no
// further chase. Combined
// with fault dropping this is the classic parallel-pattern stem-region
// design, and it is what makes random-pattern prefiltering cheap enough
// to sit in front of exact DP (see analysis/hybrid.hpp). Blocks are
// independent in phase A and regions in phase B, so WideSimOptions::jobs
// threads share them with bit-identical results.
//
// The exhaustive reference is the ground truth Difference Propagation is
// checked against (the paper's "exhaustive simulation" baseline): for
// every block of the 2^n input vectors it evaluates the good circuit,
// then re-evaluates the whole faulty circuit forward with the fault's
// seeds injected, and compares the POs. Every fault type is injected the
// one way: as stems forced to a value and gate fanin pins overridden. It
// reads no region, post-dominator or observability, so it shares nothing
// with the grader above, or with DP, but the gate evaluator.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "fault/bridging.hpp"
#include "fault/multiple.hpp"
#include "fault/stuck_at.hpp"
#include "netlist/circuit.hpp"
#include "netlist/regions.hpp"

namespace dp::sim {

using fault::BridgingFault;
using fault::MultipleStuckAtFault;
using fault::StuckAtFault;
using netlist::Circuit;
using netlist::NetId;

using Word = std::uint64_t;

inline constexpr std::size_t kWideWords = 4;
/// Patterns per simulation block.
inline constexpr std::size_t kWideLanes = 64 * kWideWords;

/// 256 lane-packed patterns: bit L of word W is pattern W*64 + L of the
/// block.
struct WideWord {
  std::array<Word, kWideWords> w{};

  friend bool operator==(const WideWord&, const WideWord&) = default;
};

/// Grading policy for the wide engine.
struct WideSimOptions {
  /// Stop simulating a fault after the block of its first detection.
  /// Turning this off keeps exact detection counts over the whole
  /// pattern set (n-detect analytics) at the cost of simulating every
  /// fault against every block.
  bool drop_detected = true;
  /// Grading threads; 0 = one per hardware thread. Never more threads
  /// than fanout-free regions holding a fault. Each good-circuit block is
  /// evaluated once and read by every thread; threads claim blocks for
  /// stem observability and then regions for grading, dynamically, and
  /// keep private scratch, so every Grade field is bit-identical for
  /// every value.
  std::size_t jobs = 1;
};

class WideFaultSimulator {
 public:
  explicit WideFaultSimulator(const Circuit& circuit);

  const Circuit& circuit() const { return *circuit_; }

  using Options = WideSimOptions;

  static constexpr std::uint64_t kNotDetected = ~std::uint64_t{0};

  struct Grade {
    std::size_t total = 0;         ///< faults graded
    std::size_t num_patterns = 0;  ///< patterns applied
    /// Detections observed per fault (pattern granularity). With dropping
    /// on, counting stops at the end of the fault's first detecting block.
    std::vector<std::uint64_t> detection_counts;
    /// Pattern index of the first detection, kNotDetected if none. Exact
    /// regardless of dropping (dropping only skips post-detection blocks).
    std::vector<std::uint64_t> first_detection;
    /// Stem-chase evaluations per circuit level (index = longest path
    /// from a PI; PIs are level 0): one count per chase of an FFR root's
    /// flip, at the root's level, and one per gate that chase evaluates up
    /// to the root's immediate post-dominator (up to the POs for a root
    /// post-dominated only by the PO sink). Roots that are POs, reach no
    /// PO, or are known unobservable from their post-dominator are never
    /// chased. Work inside a region (critical-path tracing) is not
    /// counted. Deterministic for a fixed fault list / pattern stream at
    /// every job count, and a direct picture of how deep stem differences
    /// travel before dying or meeting their post-dominator.
    std::vector<std::uint64_t> level_events;

    std::size_t detected() const;
    /// Total stem-chase evaluations (sum of level_events).
    std::uint64_t events() const;
  };

  /// Random-pattern grading; the pattern stream for a given (num_patterns,
  /// seed) is fixed and reproducible via random_patterns().
  Grade grade_random(const std::vector<StuckAtFault>& faults,
                     std::size_t num_patterns, std::uint64_t seed,
                     const Options& options = {}) const;

  /// Grades an explicit vector set (vectors indexed by PI position).
  Grade grade_vectors(const std::vector<StuckAtFault>& faults,
                      const std::vector<std::vector<bool>>& vectors,
                      const Options& options = {}) const;

  /// The exact pattern stream grade_random(n, seed) applies, as explicit
  /// vectors: element p is pattern p of the stream. Lets ATPG materialize
  /// the vectors behind recorded first_detection indices.
  std::vector<std::vector<bool>> random_patterns(std::size_t num_patterns,
                                                 std::uint64_t seed) const;

  // ---- exhaustive reference (exact, 2^n sweep) ---------------------------
  // Block b holds input vectors b*256 .. b*256+255; vector v gives PI i
  // the bit (v >> i) & 1. A feedback bridge throws std::logic_error, and a
  // fault naming a net, gate or pin the circuit lacks throws NetlistError.

  /// Most inputs an exhaustive sweep accepts.
  static constexpr std::size_t kMaxExhaustiveInputs = 26;
  /// Most inputs exhaustive_test_set accepts (its bitmap has 2^n entries).
  static constexpr std::size_t kMaxTestSetInputs = 24;

  double exhaustive_detectability(const StuckAtFault& f) const;
  double exhaustive_detectability(const BridgingFault& f) const;
  double exhaustive_detectability(const MultipleStuckAtFault& f) const;

  /// Complete test set as a bitmap over input vectors (index = packed PI
  /// assignment, PI 0 = LSB).
  std::vector<bool> exhaustive_test_set(const StuckAtFault& f) const;
  std::vector<bool> exhaustive_test_set(const BridgingFault& f) const;
  std::vector<bool> exhaustive_test_set(const MultipleStuckAtFault& f) const;

  /// Exact signal probability of a net: fraction of inputs setting it to 1.
  double exhaustive_syndrome(NetId net) const;

  /// The PO values (indexed by PO position) under each of `vectors`
  /// (indexed by PI position): of the good circuit, or with `fault`
  /// injected.
  std::vector<std::vector<bool>> po_values(
      const std::vector<std::vector<bool>>& vectors,
      const std::optional<StuckAtFault>& fault = std::nullopt) const;

 private:
  /// One flattened schedule entry: a non-PI net and its fanin slice.
  struct GateRef {
    NetId net = netlist::kInvalidNet;
    netlist::GateType type = netlist::GateType::Input;
    std::uint32_t fanin_begin = 0;
    std::uint32_t fanin_count = 0;
  };

  /// One grading thread's private state.
  struct Worker {
    /// Per net: the block's good value, except for the nets a running
    /// chase has changed, which hold their faulty values.
    std::vector<WideWord> faulty;
    std::vector<NetId> changed;         ///< nets the running chase changed
    std::vector<std::uint32_t> queued;  ///< per net: epoch it was queued in
    std::uint32_t epoch = 0;
    /// Per level: schedule indices of gates waiting to be evaluated.
    std::vector<std::vector<std::uint32_t>> pending;
    /// Per net: the lanes on which flipping it flips a PO; valid for the
    /// traced members of the region being graded.
    std::vector<WideWord> crit;
    std::vector<std::uint64_t> level_events;
    std::uint64_t stem_propagations = 0;
    std::uint64_t dominated_stems = 0;  ///< chases stopped at a post-dominator
  };

  /// The faults of one run that sit in one region, and how far down the
  /// region's member list critical-path tracing must go to reach them.
  struct RegionRun {
    std::uint32_t region = 0;
    std::uint32_t trace_len = 0;    ///< members [0, trace_len) are traced
    std::uint32_t fault_begin = 0;  ///< slice of the run's fault order
    std::uint32_t fault_end = 0;
  };

  /// Throws NetlistError for a fault on a net the circuit lacks, a branch
  /// on a pin its gate lacks, or a branch whose pin another net drives.
  void check_fault(const StuckAtFault& f) const;

  /// The net a fault's effect starts from: the stem, or the fed gate.
  static NetId site_of(const StuckAtFault& f) {
    return f.branch ? f.branch->gate : f.net;
  }

  /// Lanes on which fanin `pin` of `g` alone decides the gate's output
  /// under the good values `good` (side inputs non-controlling).
  WideWord side_lanes(const GateRef& g, std::uint32_t pin,
                      const WideWord* good) const;

  /// Critical-path tracing: fills w.crit for the first `trace_len`
  /// members of `region`, with the root's word set to `root_obs`.
  void trace_region(std::uint32_t region, std::uint32_t trace_len,
                    const WideWord& root_obs, const WideWord* good,
                    Worker& w) const;

  /// Flips `root` on the lanes `flip` under the block whose good values
  /// (indexed by net) are `good`, which w.faulty must hold on entry, and
  /// chases the difference through the root's fanout cone. With `stop` = kSink, returns the lanes on which
  /// some PO differs. Otherwise `stop` must post-dominate `root`: the
  /// chase evaluates only gates below `stop`'s level (and `stop`), and
  /// returns the lanes on which `stop` differs.
  WideWord propagate(NetId root, const WideWord& flip, const WideWord* good,
                     Worker& w, NetId stop = kSink) const;

  /// Phase A for one block: the observability of every region root in
  /// `needed` (ascending region order, closed under post-dominator
  /// regions) into `obs`, indexed by region.
  void observe_block(const std::vector<std::uint32_t>& needed,
                     const WideWord& mask, const WideWord* good,
                     WideWord* obs, Worker& w) const;

  /// Evaluates one schedule entry; `fanin_value(k)` supplies fanin k.
  template <typename FaninValue>
  static WideWord eval_entry(const GateRef& g, FaninValue&& fanin_value);

  /// A fault as the values it forces in one block: stems forced to a
  /// word, and fanin pins of gates overridden. The one injection form of
  /// the exhaustive reference.
  struct Seeds {
    struct Stem {
      NetId net;
      WideWord value;
    };
    struct Pin {
      NetId gate;
      std::uint32_t pin;
      WideWord value;
    };
    std::vector<Stem> stems;
    std::vector<Pin> pins;
  };

  /// Validates a fault for the reference (check_fault for each stuck-at
  /// line; a bridge's wires exist and neither reaches the other).
  void check_reference(const StuckAtFault& f) const { check_fault(f); }
  void check_reference(const MultipleStuckAtFault& f) const;
  void check_reference(const BridgingFault& f) const;

  /// Appends the fault's seeds for the block whose good values are `good`:
  /// a stuck-at stem is one forced stem and a stuck-at branch one pin
  /// override, a multiple fault the list of its lines', and a bridge both
  /// wires forced to AND/OR of their good values. (Neither wire of a
  /// non-feedback bridge reaches the other, so neither driven value can
  /// change.)
  void seed(const StuckAtFault& f, const WideWord* good, Seeds& s) const;
  void seed(const MultipleStuckAtFault& f, const WideWord* good,
            Seeds& s) const;
  void seed(const BridgingFault& f, const WideWord* good, Seeds& s) const;

  /// Loads the PI slots of `values` with vectors[base ..] (at most one
  /// block; lanes past the last vector are zero).
  void load_vectors(const std::vector<std::vector<bool>>& vectors,
                    std::size_t base, WideWord* values) const;
  /// Evaluates every gate of `values`, whose PI slots are loaded.
  void eval_good(WideWord* values) const;

  /// Re-evaluates the whole circuit with `s` injected, from the PI values
  /// of `good`, into `faulty`. `mark` is per-net scratch, all zero on
  /// entry and on exit.
  void eval_faulty(const Seeds& s, const WideWord* good, WideWord* faulty,
                   std::vector<std::uint8_t>& mark) const;

  /// Calls visit(block, mask, good) for every block of the 2^n sweep,
  /// with `mask` its valid lanes and `good` its good values (indexed by
  /// net).
  template <typename Visit>
  void exhaustive_blocks(Visit&& visit) const;

  /// Calls visit(block, lanes) for every block of the 2^n sweep, with
  /// `lanes` the valid lanes on which `f` flips some PO.
  template <typename Fault, typename Visit>
  void exhaustive_detect(const Fault& f, Visit&& visit) const;

  template <typename Fault>
  double detectability(const Fault& f) const;
  template <typename Fault>
  std::vector<bool> test_set(const Fault& f) const;

  template <typename LoadBlock>
  Grade run(const std::vector<StuckAtFault>& faults, std::size_t num_patterns,
            const Options& options, LoadBlock&& load_block) const;

  const Circuit* circuit_;
  std::vector<GateRef> schedule_;  ///< topo order over non-PI nets
  std::vector<NetId> fanin_flat_;
  /// Per net: the schedule indices of the gates it feeds, as the slice
  /// [fanout_begin_[net], fanout_begin_[net + 1]) of fanout_flat_.
  std::vector<std::uint32_t> fanout_begin_;
  std::vector<std::uint32_t> fanout_flat_;
  std::vector<std::uint8_t> is_output_;  ///< per net
  /// Per net: its index in schedule_, or kNotScheduled for PIs.
  std::vector<std::uint32_t> schedule_index_;
  /// Per net: longest path (in gate levels) from any PI; PIs are 0.
  std::vector<std::uint32_t> net_level_;
  std::size_t num_levels_ = 0;  ///< deepest level + 1
  /// Fanout-free regions and post-dominators.
  netlist::Regions regions_;

  static constexpr std::uint32_t kNotScheduled = 0xffffffffu;
  static constexpr NetId kSink = netlist::Regions::kSink;
  static constexpr NetId kUnobservable = netlist::Regions::kUnobservable;
};

}  // namespace dp::sim
