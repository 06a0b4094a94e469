// Stem observabilities, built once per circuit (DESIGN.md §18).
//
// A non-feedback bridge is the OR of two one-wire flips, each pushed
// along its wire's fanout-free region to the region root R and observed
// through O(R, p): the inputs on which flipping R flips PO p. Every bridge
// over a circuit shares those factors, so they are built once, after the
// good functions, and frozen into the universe itself: SharedGoodFunctions'
// layer constructor (good_functions.hpp) turns a plain universe into a
// layered one.
//   * the roots needed are the post-dominator closure of the bridge
//     wires' region roots;
//   * a root post-dominated only by the sink behind the POs is chased to
//     the POs. Any other root is chased to its immediate post-dominator d,
//     pushed along d's region path and ANDed with O(root of d, p), so it
//     waits for the deeper root: the chases form a forest over regions.
//     Each tree of that forest runs on one worker (a private manager over
//     the plain universe), trees in parallel, widest cone first;
//   * the results are packed with the good roots into one frozen forest
//     (FrozenForest::pack). Propagators over a manager that adopts the
//     layered universe read O(R, .) as frozen edges, so no sweep chases
//     anything.
// The packed forest numbers its slots by a walk of the roots in order, so
// the layer is the same whatever the worker count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/bridging.hpp"
#include "netlist/circuit.hpp"
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

/// Both wires of every bridge in `faults`: the wires a layer for a sweep
/// over them needs.
std::vector<netlist::NetId> bridge_wires(
    const std::vector<fault::BridgingFault>& faults);
/// Every net of `circuit`: a layer over every region root.
std::vector<netlist::NetId> every_net(const netlist::Circuit& circuit);

}  // namespace dp::core
