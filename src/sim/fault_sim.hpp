// Fault simulation: stuck-at and bridging injection on top of the
// parallel-pattern simulator, and exhaustive exact analysis (ground truth
// for Difference Propagation in the tests and the paper's "exhaustive
// simulation" baseline in the benchmarks). Test-set grading lives in
// sim/wide_sim.hpp.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/bridging.hpp"
#include "fault/multiple.hpp"
#include "fault/stuck_at.hpp"
#include "sim/pattern_sim.hpp"

namespace dp::sim {

using fault::BridgingFault;
using fault::StuckAtFault;

class FaultSimulator {
 public:
  /// `max_exhaustive_inputs` guards the 2^n sweeps (memory/time).
  explicit FaultSimulator(const Circuit& circuit,
                          std::size_t max_exhaustive_inputs = 26);

  const Circuit& circuit() const { return sim_.circuit(); }

  // ---- one 64-pattern block -------------------------------------------
  // `values` carries PI words in the input slots on entry.

  void good_values(std::vector<Word>& values) const { sim_.eval(values); }
  void faulty_values(std::vector<Word>& values, const StuckAtFault& f) const;
  void faulty_values(std::vector<Word>& values, const BridgingFault& f) const;
  /// Bridging sweep with a precomputed evaluation order: `order` must come
  /// from bridge_order(f). The 2^n sweeps prepare the order once per fault
  /// instead of re-running the Kahn sort every block.
  void faulty_values(std::vector<Word>& values, const BridgingFault& f,
                     const std::vector<NetId>& order) const;
  void faulty_values(std::vector<Word>& values,
                     const fault::MultipleStuckAtFault& f) const;

  /// Per-fault injection tables for a multiple stuck-at fault, built once
  /// and reused across blocks (the per-block overload rebuilds them every
  /// call).
  struct MultipleFaultPlan {
    /// Forced stem word per net; valid where has_stem is set.
    std::vector<Word> stem_forced;
    std::vector<std::uint8_t> has_stem;
    /// Branch overrides per fed gate (empty for most nets).
    std::vector<std::vector<PatternSimulator::PinOverride>> overrides;
  };

  MultipleFaultPlan make_plan(const fault::MultipleStuckAtFault& f) const;
  void faulty_values(std::vector<Word>& values,
                     const MultipleFaultPlan& plan) const;

  /// Lanes in which at least one PO differs.
  Word detect_lanes(const std::vector<Word>& good,
                    const std::vector<Word>& faulty) const;

  /// Evaluation order with the bridge's cross-dependencies honoured.
  /// Public so callers looping over blocks can compute it once per fault;
  /// throws std::logic_error on a feedback bridge.
  std::vector<NetId> bridge_order(const BridgingFault& f) const;

  // ---- exhaustive analysis (exact, 2^n sweep) ----------------------------

  double exhaustive_detectability(const StuckAtFault& f) const;
  double exhaustive_detectability(const BridgingFault& f) const;
  double exhaustive_detectability(const fault::MultipleStuckAtFault& f) const;

  /// Exact signal probability of a net: fraction of inputs setting it to 1.
  double exhaustive_syndrome(NetId net) const;

  /// Complete test set as a bitmap over input vectors (index = packed PI
  /// assignment, PI 0 = LSB). Requires <= 24 inputs.
  std::vector<bool> exhaustive_test_set(const StuckAtFault& f) const;
  std::vector<bool> exhaustive_test_set(const BridgingFault& f) const;
  std::vector<bool> exhaustive_test_set(
      const fault::MultipleStuckAtFault& f) const;

 private:
  // Per-fault prepared injection state: anything derivable from the fault
  // alone (bridge orders, multiple-fault tables) is computed once here and
  // reused across every block of a 2^n sweep.
  struct PreparedStuckAt {
    const StuckAtFault* fault;
  };
  struct PreparedBridge {
    const BridgingFault* fault;
    std::vector<NetId> order;
  };
  struct PreparedMultiple {
    MultipleFaultPlan plan;
  };

  PreparedStuckAt prepare(const StuckAtFault& f) const { return {&f}; }
  PreparedBridge prepare(const BridgingFault& f) const {
    return {&f, bridge_order(f)};
  }
  PreparedMultiple prepare(const fault::MultipleStuckAtFault& f) const {
    return {make_plan(f)};
  }

  void faulty_values_prepared(std::vector<Word>& values,
                              const PreparedStuckAt& p) const {
    faulty_values(values, *p.fault);
  }
  void faulty_values_prepared(std::vector<Word>& values,
                              const PreparedBridge& p) const {
    faulty_values(values, *p.fault, p.order);
  }
  void faulty_values_prepared(std::vector<Word>& values,
                              const PreparedMultiple& p) const {
    faulty_values(values, p.plan);
  }

  template <typename Fault>
  double exhaustive_detectability_impl(const Fault& f) const;
  template <typename Fault>
  std::vector<bool> exhaustive_test_set_impl(const Fault& f) const;

  void load_exhaustive_inputs(std::vector<Word>& values,
                              std::uint64_t block) const;
  void check_exhaustive(std::size_t limit) const;

  PatternSimulator sim_;
  std::size_t max_exhaustive_inputs_;
};

}  // namespace dp::sim
