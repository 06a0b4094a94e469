// Stem observabilities, built once per circuit (DESIGN.md §18).
//
// A non-feedback bridge is the OR of two one-wire flips, each pushed
// along its wire's fanout-free region to the region root R and observed
// through O(R, p): the inputs on which flipping R flips PO p. Every bridge
// over a circuit shares those factors, so they are built once, after the
// good functions, and frozen:
//   * the roots needed are the post-dominator closure of the bridge
//     wires' region roots;
//   * a root post-dominated only by the sink behind the POs is chased to
//     the POs. Any other root is chased to its immediate post-dominator d,
//     pushed along d's region path and ANDed with O(root of d, p), so it
//     waits for the deeper root: the chases form a forest over regions.
//     Each tree of that forest runs on one worker (a private manager over
//     the good forest), trees in parallel, widest cone first;
//   * the results are packed with the good roots into one frozen forest
//     (FrozenForest::pack). Propagators over a manager that adopts it
//     read O(R, .) as frozen edges, so no sweep chases anything.
// The packed forest numbers its slots by a walk of the roots in order, so
// the layer is the same whatever the worker count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bdd/frozen_forest.hpp"
#include "dp/good_functions.hpp"
#include "fault/bridging.hpp"
#include "netlist/structure.hpp"
#include "obs/metrics.hpp"

namespace dp::core {

/// What one layer build did; deterministic except apply_calls (the
/// computed caches split with the trees) and build_seconds.
struct ObserveStats {
  std::uint64_t roots_chased = 0;  ///< one dp.observe span each
  std::size_t frozen_nodes = 0;    ///< the packed forest, good roots incl.
  std::uint64_t apply_calls = 0;   ///< summed over the build's managers
  double build_seconds = 0.0;

  /// Sums another build (a second layer) into this one.
  void merge(const ObserveStats& other);
  /// Counter <prefix>.observe.roots, gauges <prefix>.observe.frozen_nodes
  /// and <prefix>.observe.apply_calls, and timer <prefix>.observe; nothing
  /// when no layer was built.
  void export_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix = "dp") const;
};

class Observabilities {
 public:
  /// Builds O(r, .) for the post-dominator closure of the region roots of
  /// `wires` over `good`'s universe, on `jobs` threads (0 = hardware
  /// concurrency), each with a manager of at most `max_nodes` nodes.
  /// `structure` must be over the circuit `good` was built from.
  Observabilities(std::shared_ptr<const SharedGoodFunctions> good,
                  const netlist::Structure& structure,
                  const std::vector<netlist::NetId>& wires,
                  std::size_t jobs = 1,
                  std::size_t max_nodes = 32u * 1024 * 1024);

  /// Both wires of every bridge in `faults`: the `wires` a sweep needs.
  static std::vector<netlist::NetId> wires_of(
      const std::vector<fault::BridgingFault>& faults);
  /// Every net of `circuit`: a layer over every region root.
  static std::vector<netlist::NetId> every_net(const netlist::Circuit& circuit);

  /// The good universe re-packed into this layer's forest. A manager over
  /// forest() adopts it (GoodFunctions' adopting constructor) and hands
  /// its propagator this layer; ParallelEngine does both.
  const std::shared_ptr<const SharedGoodFunctions>& good() const {
    return good_;
  }
  const std::shared_ptr<const bdd::FrozenForest>& forest() const {
    return good_->forest();
  }

  /// O(r, .) of region `region` as forest edges: one per PO, then their
  /// OR (kFalseNode == zero). nullptr when the region is outside the
  /// closure this layer was built for.
  const bdd::NodeIndex* find(std::uint32_t region) const;

  const ObserveStats& stats() const { return stats_; }

 private:
  std::shared_ptr<const SharedGoodFunctions> good_;
  std::size_t num_outputs_ = 0;
  /// Per region: its first edge in edges_, or kNone outside the closure.
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  std::vector<std::uint32_t> first_edge_;
  std::vector<bdd::NodeIndex> edges_;  ///< num_outputs_ + 1 per region
  ObserveStats stats_;
};

}  // namespace dp::core
