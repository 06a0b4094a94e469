// The Difference Propagation engine (paper §3).
//
// Given the good functions of a circuit, the engine injects a fault's
// initial difference function(s) at the fault site and propagates
// differences toward the POs in topological order, evaluating a gate only
// while difference information exists ("selective trace"). The OR of the
// PO differences IS the complete test set of the fault; from it and the
// line syndromes come the exact detectability, the excitation upper bound,
// and the adherence (paper §4.1, eq. 3). A non-feedback bridge needs no
// sweep of its own: it is assembled from per-stem observabilities that
// every bridge shares (DESIGN.md §18).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bdd/bdd.hpp"
#include "dp/good_functions.hpp"
#include "fault/bridging.hpp"
#include "fault/multiple.hpp"
#include "fault/stuck_at.hpp"
#include "netlist/structure.hpp"
#include "obs/span.hpp"

namespace dp::core {

/// Per-fault work. For stuck-at and multiple faults these count one
/// selective-trace sweep: a pinned net's gate (a stem under fault) never
/// needs its difference computed; it counts as skipped with selective
/// trace on and as evaluated with it off, so that without selective trace
/// every non-PI, non-constant gate counts as evaluated. For a bridge they
/// count region steps: the gates on the two wires' region paths to their
/// roots, evaluated while a difference remains and skipped after it dies
/// (with selective trace off, every step is evaluated). The chases that
/// build stem observabilities are shared by every bridge, so no fault
/// counts them; each one is a dp.observe span and one roots_observed().
struct PropagationStats {
  std::uint64_t gates_evaluated = 0;  ///< gates whose difference was computed
  std::uint64_t gates_skipped = 0;    ///< gates skipped (no input difference)
};

/// Everything the paper derives per fault.
struct FaultAnalysis {
  bdd::Bdd test_set;          ///< complete test set over the PI variables
  bool detectable = false;
  double detectability = 0.0; ///< |test set| / 2^n (exact)
  double upper_bound = 0.0;   ///< excitation bound u_i (syndrome-derived)
  double adherence = 0.0;     ///< a_i = detectability / u_i; 0 when u_i = 0

  std::vector<bool> po_observable;  ///< per PO: difference not identically 0
  /// Per-PO difference functions (invalid handle == identically zero);
  /// the fault dictionary machinery evaluates these per test vector.
  std::vector<bdd::Bdd> po_differences;
  std::size_t pos_observable = 0;
  /// POs structurally fed by the faulted line's stem (for a branch fault
  /// this is the fanout stem, not the fed gate's output).
  std::size_t pos_fed = 0;

  /// Bridging only: the wired (faulty) site function is constant, i.e. the
  /// bridge is functionally a double stuck-at fault (paper §4.2).
  bool bridge_stuck_at = false;

  PropagationStats stats;
};

class DifferencePropagator {
 public:
  struct Options {
    /// When false, every gate in the circuit is evaluated for every fault
    /// (the ablation baseline for the selective-trace optimization).
    bool selective_trace = true;
  };

  DifferencePropagator(const GoodFunctions& good,
                       const netlist::Structure& structure)
      : DifferencePropagator(good, structure, Options{}) {}
  DifferencePropagator(const GoodFunctions& good,
                       const netlist::Structure& structure, Options options);

  FaultAnalysis analyze(const fault::StuckAtFault& fault) const;
  /// A non-feedback bridge, as the OR of two one-wire flips observed
  /// through the wires' region roots (see the comment in engine.cpp).
  /// Throws NetlistError for a feedback bridge or a == b.
  FaultAnalysis analyze(const fault::BridgingFault& fault) const;
  /// Multiple stuck-at faults: every component forces its line at once.
  /// A forced line clips any difference arriving from upstream components
  /// (the line's value is pinned, so its difference is always f XOR v).
  FaultAnalysis analyze(const fault::MultipleStuckAtFault& fault) const;

  const GoodFunctions& good() const { return good_; }

  /// Region roots whose observability this propagator has chased so far.
  std::uint64_t roots_observed() const { return roots_observed_; }

 private:
  /// One per-gate pin-difference override (branch-fault seeding).
  struct PinSeed {
    netlist::NetId gate = netlist::kInvalidNet;
    std::uint32_t pin = 0;
    bdd::Bdd diff;
  };
  /// One forced stem difference (the line's difference is pinned to
  /// `diff` no matter what arrives from upstream).
  struct NetSeed {
    netlist::NetId net = netlist::kInvalidNet;
    bdd::Bdd diff;
  };
  /// A fault as the sweep sees it: every fault type differs only here.
  struct Seeds {
    std::vector<NetSeed> nets;
    std::vector<PinSeed> pins;
    /// The faulted lines' stems (a branch fault's is its fanout stem):
    /// they set pos_fed, po_distance and seed_sites.
    std::vector<netlist::NetId> sites;
    /// When valid, the sweep ends once this net is evaluated.
    netlist::NetId stop = netlist::kInvalidNet;
  };

  /// A region root r's observability: per PO p, O(r, p), the inputs on
  /// which flipping r flips PO p (invalid == zero), and their OR.
  struct Observability {
    std::vector<bdd::Bdd> po;
    bdd::Bdd any;
  };

  /// The one selective-trace sweep: pins the seeded nets, overrides the
  /// seeded pins, and pushes Table-1 differences toward the POs (up to
  /// seeds.stop). `diff` is indexed by net (invalid == zero).
  PropagationStats propagate(const Seeds& seeds,
                             std::vector<bdd::Bdd>& diff) const;

  /// Pushes the difference `delta` on `net` along its region path to the
  /// region root and returns the root's difference.
  bdd::Bdd to_root(netlist::NetId net, bdd::Bdd delta,
                   PropagationStats& stats) const;

  /// O(r, .) for region root `root`, chased on first use and kept.
  const Observability& observe(netlist::NetId root) const;
  /// Chases one root whose post-dominator's observability is known.
  void chase(std::uint32_t region) const;

  /// Shared tail of every analyze(): derives the measures from the
  /// per-PO differences and the test set (their OR) and annotates the
  /// fault's dp.fault span.
  FaultAnalysis finish(std::vector<bdd::Bdd> po_diffs, bdd::Bdd test_set,
                       const std::vector<netlist::NetId>& sites,
                       PropagationStats stats, double upper_bound,
                       obs::ScopedSpan& span) const;
  /// finish() for a fault given as seeds: propagates them first.
  FaultAnalysis finish(const Seeds& seeds, double upper_bound,
                       obs::ScopedSpan& span) const;

  const GoodFunctions& good_;
  const netlist::Structure& structure_;
  Options options_;
  /// Per region: its root's observability, once chased (the propagator
  /// is single-threaded, like its manager).
  mutable std::vector<std::optional<Observability>> observed_;
  mutable std::uint64_t roots_observed_ = 0;
};

}  // namespace dp::core
