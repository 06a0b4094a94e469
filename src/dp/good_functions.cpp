#include "dp/good_functions.hpp"

#include <chrono>
#include <numeric>

namespace dp::core {

using netlist::GateType;

bdd::Bdd build_gate_function(bdd::Manager& manager, GateType type,
                             const std::vector<bdd::Bdd>& fanins) {
  switch (type) {
    case GateType::Const0: return manager.zero();
    case GateType::Const1: return manager.one();
    case GateType::Input:
      throw netlist::NetlistError("build_gate_function: PI has no gate");
    default: break;
  }
  if (fanins.empty()) {
    throw netlist::NetlistError("build_gate_function: gate with no fanins");
  }
  bdd::Bdd acc = fanins[0];
  const GateType base = netlist::base_of(type);
  for (std::size_t i = 1; i < fanins.size(); ++i) {
    switch (base) {
      case GateType::And: acc = acc & fanins[i]; break;
      case GateType::Or: acc = acc | fanins[i]; break;
      case GateType::Xor: acc = acc ^ fanins[i]; break;
      case GateType::Buf: break;  // single-input; loop never runs
      default:
        throw netlist::NetlistError("build_gate_function: unexpected type");
    }
  }
  if (netlist::is_inverting(type)) acc = !acc;
  return acc;
}

GoodFunctions::GoodFunctions(bdd::Manager& manager, const Circuit& circuit)
    : GoodFunctions(manager, circuit, GoodFunctionOptions{}) {}

GoodFunctions::GoodFunctions(bdd::Manager& manager, const Circuit& circuit,
                             const GoodFunctionOptions& options)
    : manager_(manager), circuit_(circuit) {
  if (!circuit.finalized()) {
    throw netlist::NetlistError("GoodFunctions: circuit must be finalized");
  }
  if (manager.num_vars() != 0) {
    throw bdd::BddError("GoodFunctions: manager must start with no variables");
  }

  const std::size_t n = circuit.num_inputs();
  order_ = options.variable_order;
  if (order_.empty()) {
    order_.resize(n);
    std::iota(order_.begin(), order_.end(), 0);
  }
  if (order_.size() != n) {
    throw bdd::BddError("GoodFunctions: variable order size != #PIs");
  }
  std::vector<bool> seen(n, false);
  for (std::size_t v : order_) {
    if (v >= n || seen[v]) {
      throw bdd::BddError("GoodFunctions: variable order is not a permutation");
    }
    seen[v] = true;
  }
  for (std::size_t i = 0; i < n; ++i) manager.new_var();

  functions_.assign(circuit.num_nets(), bdd::Bdd{});
  for (std::size_t i = 0; i < n; ++i) {
    functions_[circuit.inputs()[i]] =
        manager.var(static_cast<bdd::Var>(order_[i]));
  }
  for (NetId id : circuit.topo_order()) {
    if (circuit.type(id) == GateType::Input) continue;
    std::vector<bdd::Bdd> fi;
    fi.reserve(circuit.fanins(id).size());
    for (NetId f : circuit.fanins(id)) fi.push_back(functions_[f]);
    bdd::Bdd built = build_gate_function(manager, circuit.type(id), fi);
    if (options.cut_threshold > 0 &&
        built.dag_size() > options.cut_threshold) {
      // Functional decomposition: downstream logic sees a free variable
      // in place of this net's (too large) function.
      const bdd::Var cut = manager.new_var();
      built = manager.var(cut);
      cut_nets_.push_back(id);
    }
    functions_[id] = std::move(built);
  }
  std::vector<bdd::NodeIndex> roots;
  roots.reserve(functions_.size());
  for (const bdd::Bdd& f : functions_) roots.push_back(f.index());
  syndromes_ = manager.densities(roots, num_vars());
}

GoodFunctions::GoodFunctions(bdd::Manager& manager, const Circuit& circuit,
                             const SharedGoodFunctions& shared)
    : manager_(manager), circuit_(circuit), shared_(&shared) {
  if (!circuit.finalized()) {
    throw netlist::NetlistError("GoodFunctions: circuit must be finalized");
  }
  if (manager.frozen_forest().get() != shared.forest().get()) {
    throw bdd::BddError(
        "GoodFunctions: manager does not adopt the shared forest");
  }
  if (shared.roots().size() != circuit.num_nets()) {
    throw bdd::BddError(
        "GoodFunctions: shared forest built from a different circuit");
  }
  order_ = shared.order();
  cut_nets_ = shared.cut_nets();
  syndromes_ = shared.syndromes();
  functions_.reserve(shared.roots().size());
  // Frozen handles are immortal, so make() costs nothing beyond the wrap.
  for (bdd::NodeIndex root : shared.roots()) {
    functions_.push_back(manager.make(root));
  }
}

std::size_t GoodFunctions::total_nodes() const {
  std::size_t total = 0;
  for (const bdd::Bdd& f : functions_) total += f.dag_size();
  return total;
}

const bdd::NodeIndex* GoodFunctions::observed(std::uint32_t region) const {
  return shared_ ? shared_->observed(region) : nullptr;
}

SharedGoodFunctions::SharedGoodFunctions(const Circuit& circuit,
                                         const GoodFunctionOptions& options,
                                         std::size_t max_nodes)
    : max_nodes_(max_nodes) {
  const auto start = std::chrono::steady_clock::now();
  // The scaffold manager exists only for the build; freeze() packs the
  // reachable cone and everything else is dropped with the manager.
  bdd::Manager scaffold(0, max_nodes);
  GoodFunctions good(scaffold, circuit, options);
  std::vector<bdd::NodeIndex> build_roots;
  build_roots.reserve(circuit.num_nets());
  for (NetId id = 0; id < circuit.num_nets(); ++id) {
    build_roots.push_back(good.at(id).index());
  }
  forest_ = scaffold.freeze(build_roots, &roots_);
  order_ = std::vector<std::size_t>(good.circuit().num_inputs());
  for (std::size_t i = 0; i < order_.size(); ++i) {
    order_[i] = good.var_of_input(i);
  }
  cut_nets_ = good.cut_nets();
  syndromes_ = good.syndromes();
  num_vars_ = good.num_vars();
  build_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
}

const bdd::NodeIndex* SharedGoodFunctions::observed(
    std::uint32_t region) const {
  if (region >= first_edge_.size() || first_edge_[region] == kNone) {
    return nullptr;
  }
  return &edges_[first_edge_[region]];
}

}  // namespace dp::core
