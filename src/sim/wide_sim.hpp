// Levelized, wide bit-parallel stuck-at fault simulation.
//
// Where PatternSimulator re-evaluates the whole circuit once per fault per
// 64-pattern block, this engine simulates 256 patterns per block (four
// 64-bit words, plain loops the compiler auto-vectorizes) and propagates
// each fault only through its fanout cone: each good-circuit block is
// evaluated once over a flattened levelized schedule, then per fault the
// difference is injected at the site and chased, level by level, through
// the gates it reaches with epoch-stamped scratch values, dying as soon as
// it stops differing from the good value. Combined with fault dropping
// this is the classic parallel-pattern single-fault-propagation design,
// and it is what makes random-pattern prefiltering cheap enough to sit in
// front of exact DP (see analysis/hybrid.hpp). Faults are independent
// given the good values, so WideSimOptions::jobs threads grade them
// concurrently with bit-identical results.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "fault/stuck_at.hpp"
#include "sim/pattern_sim.hpp"

namespace dp::sim {

using fault::StuckAtFault;

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
  /// than faults. Each good-circuit block is evaluated once and read by
  /// every thread; threads claim faults dynamically and keep private
  /// scratch, so every Grade field is bit-identical for every value.
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
    /// Faulty-value evaluations per circuit level (index = longest path
    /// from a PI; PIs are level 0): one count per difference injection and
    /// per touched cone-gate evaluation. Deterministic for a fixed fault
    /// list / pattern stream, and a direct picture of how deep differences
    /// travel before dying.
    std::vector<std::uint64_t> level_events;

    std::size_t detected() const;
    /// Total faulty-value evaluations (sum of level_events).
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
    std::vector<WideWord> scratch;      ///< faulty values, valid where stamped
    std::vector<std::uint32_t> stamp;   ///< per net: epoch of its faulty value
    std::vector<std::uint32_t> queued;  ///< per net: epoch it was queued in
    std::uint32_t epoch = 0;
    /// Per level: schedule indices of gates waiting to be evaluated.
    std::vector<std::vector<std::uint32_t>> pending;
    std::vector<NetId> reached_pos;  ///< POs carrying a difference
    std::vector<std::uint64_t> level_events;
  };

  /// Throws NetlistError for a branch fault on a pin its gate lacks.
  void check_fault(const StuckAtFault& f) const;

  /// Chases one fault's difference through its fanout cone under the block
  /// whose good values (indexed by net) are `good`; returns the lanes
  /// (unmasked) on which some PO differs.
  WideWord propagate(const StuckAtFault& f, const WideWord* good,
                     Worker& w) const;

  /// Evaluates one schedule entry; `fanin_value(k)` supplies fanin k.
  template <typename FaninValue>
  static WideWord eval_entry(const GateRef& g, FaninValue&& fanin_value);

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

  static constexpr std::uint32_t kNotScheduled = 0xffffffffu;
};

}  // namespace dp::sim
