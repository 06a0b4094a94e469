// Good-circuit function computation: one OBDD per net, over one variable
// per primary input, in the PI order stated by the netlist (the paper keeps
// the benchmark's PI order as the OBDD variable order).
//
// Two optional mechanisms from the paper are supported:
//   * an alternative static variable order (ordering.hpp), and
//   * cut-point functional decomposition -- "for the circuits C499 and
//     larger, functional decomposition was used to speed up Difference
//     Propagation" [21]: any net whose BDD exceeds a node threshold is
//     replaced by a fresh cut variable. Downstream results then average
//     over the cut variables, which is exactly the paper's caveat that
//     the decomposition "may mask some functional interactions".
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bdd/bdd.hpp"
#include "bdd/frozen_forest.hpp"
#include "dp/observabilities.hpp"
#include "netlist/circuit.hpp"

namespace dp::netlist {
class Structure;
}

namespace dp::core {

using netlist::Circuit;
using netlist::NetId;

struct GoodFunctionOptions {
  /// order[pi_index] = BDD variable id; empty = identity (stated PI order).
  std::vector<std::size_t> variable_order;
  /// Replace a net's function with a fresh cut variable when its BDD
  /// exceeds this many nodes. 0 disables decomposition (exact analysis).
  std::size_t cut_threshold = 0;
};

class SharedGoodFunctions;

class GoodFunctions {
 public:
  /// Creates the input variables in `manager` (which must be fresh) and
  /// builds every net's function with a single topological sweep.
  GoodFunctions(bdd::Manager& manager, const Circuit& circuit);
  GoodFunctions(bdd::Manager& manager, const Circuit& circuit,
                const GoodFunctionOptions& options);

  /// Adoption: wraps the per-net roots of a pre-built shared forest in
  /// handles of `manager`, which must have been constructed over
  /// `shared.forest()`. No BDD work happens here -- this is the cheap
  /// per-worker path of the shared-kernel split. `circuit` must be the
  /// circuit `shared` was built from (net count is checked), and `shared`
  /// must outlive this object: observed() reads its layer.
  GoodFunctions(bdd::Manager& manager, const Circuit& circuit,
                const SharedGoodFunctions& shared);

  const Circuit& circuit() const { return circuit_; }
  bdd::Manager& manager() const { return manager_; }

  /// Total variables the functions range over: the PIs plus any cut
  /// variables introduced by decomposition. Densities and detectabilities
  /// normalize by 2^num_vars(); with cuts they are averaged over the cut
  /// variables (approximate, per the paper's caveat).
  std::size_t num_vars() const { return manager_.num_vars(); }

  const bdd::Bdd& at(NetId id) const { return functions_.at(id); }

  /// BDD variable id assigned to PI position `pi_index`.
  bdd::Var var_of_input(std::size_t pi_index) const {
    return static_cast<bdd::Var>(order_.at(pi_index));
  }

  /// Exact signal probability: the paper's "syndrome" of a line
  /// (Savir 1980) -- the proportion of ones in the function's K-map.
  /// Every net's is computed once, at construction.
  double syndrome(NetId id) const { return syndromes_.at(id); }
  /// syndrome() of every net, indexed by net.
  const std::vector<double>& syndromes() const { return syndromes_; }

  /// Nets replaced by cut variables (empty when cut_threshold == 0).
  const std::vector<NetId>& cut_nets() const { return cut_nets_; }
  bool exact() const { return cut_nets_.empty(); }

  /// Sum of BDD sizes over all nets (diagnostics / benchmarks).
  std::size_t total_nodes() const;

  /// The adopted universe's SharedGoodFunctions::observed(region); nullptr
  /// for functions built in place.
  const bdd::NodeIndex* observed(std::uint32_t region) const;

 private:
  bdd::Manager& manager_;
  const Circuit& circuit_;
  std::vector<bdd::Bdd> functions_;
  std::vector<double> syndromes_;
  std::vector<std::size_t> order_;
  std::vector<NetId> cut_nets_;
  const SharedGoodFunctions* shared_ = nullptr;  ///< when adopted
};

/// Evaluates a single gate's function from fanin BDDs (n-ary fold of the
/// base type, then the output inversion if any).
bdd::Bdd build_gate_function(bdd::Manager& manager, netlist::GateType type,
                             const std::vector<bdd::Bdd>& fanins);

/// The build-once half of the shared-kernel split: constructs the
/// good-function universe for a circuit in a throwaway manager, freezes
/// it, and keeps only the immutable forest plus the per-net root edges
/// (in forest numbering). The result is safe to share across threads --
/// every reader either queries the forest directly or adopts it through
/// a private Manager -- and holds no reference to the source circuit, so
/// a serving cache can keep it alive past the request that built it.
///
/// A universe may also carry the stem observabilities O(r, .) that
/// bridges read (DESIGN.md §18), packed into the same forest: it is then
/// "layered", and a propagator whose manager adopts it analyzes bridges.
class SharedGoodFunctions {
 public:
  /// Managers that adopt this universe -- engine workers and the layer
  /// build's workers alike -- hold at most `max_nodes` nodes each, as
  /// does the build's own scaffold.
  explicit SharedGoodFunctions(const Circuit& circuit,
                               const GoodFunctionOptions& options = {},
                               std::size_t max_nodes = 32u * 1024 * 1024);
  /// The layer build (observabilities.cpp): `plain`'s functions plus
  /// O(r, .) for the post-dominator closure of the region roots of
  /// `wires`, chased on `jobs` threads (0 = hardware concurrency) by
  /// managers that adopt `plain`. `structure` must be over the circuit
  /// `plain` was built from; a layer `plain` carries is not kept.
  SharedGoodFunctions(const SharedGoodFunctions& plain,
                      const netlist::Structure& structure,
                      const std::vector<NetId>& wires, std::size_t jobs = 1);

  const std::shared_ptr<const bdd::FrozenForest>& forest() const {
    return forest_;
  }
  /// roots()[net] = the net's function as an edge in forest numbering.
  const std::vector<bdd::NodeIndex>& roots() const { return roots_; }
  /// PIs plus cut variables, mirroring GoodFunctions::num_vars().
  std::size_t num_vars() const { return num_vars_; }
  const std::vector<std::size_t>& order() const { return order_; }
  const std::vector<NetId>& cut_nets() const { return cut_nets_; }
  /// Per net: its syndrome (GoodFunctions::syndrome).
  const std::vector<double>& syndromes() const { return syndromes_; }
  std::size_t frozen_nodes() const { return forest_->size(); }
  /// Node budget of every manager that adopts this universe.
  std::size_t max_nodes() const { return max_nodes_; }
  /// Wall-clock cost of the one-time build+freeze (of `plain`'s, for a
  /// layered universe).
  double build_seconds() const { return build_seconds_; }

  /// Whether this universe carries an observability layer.
  bool layered() const { return !first_edge_.empty(); }
  /// O(r, .) of region `region` as forest edges: one per PO, then their
  /// OR (kFalseNode == zero). nullptr when the region is outside the
  /// layer's closure, or the universe has no layer.
  const bdd::NodeIndex* observed(std::uint32_t region) const;
  /// What the layer build did; all zero without a layer.
  const ObserveStats& observe_stats() const { return observe_; }

 private:
  std::shared_ptr<const bdd::FrozenForest> forest_;
  std::vector<bdd::NodeIndex> roots_;
  std::vector<std::size_t> order_;
  std::vector<NetId> cut_nets_;
  std::vector<double> syndromes_;
  std::size_t num_vars_ = 0;
  std::size_t max_nodes_ = 0;
  double build_seconds_ = 0.0;
  /// Per region: its first edge in edges_, or kNone outside the closure;
  /// empty without a layer.
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  std::vector<std::uint32_t> first_edge_;
  std::vector<bdd::NodeIndex> edges_;  ///< #POs + 1 per closure region
  ObserveStats observe_;
};

}  // namespace dp::core
