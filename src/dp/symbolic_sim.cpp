#include "dp/symbolic_sim.hpp"

#include <algorithm>

namespace dp::core {

using netlist::GateType;
using netlist::NetId;

SymbolicFaultSimulator::SymbolicFaultSimulator(
    const GoodFunctions& good, const netlist::Structure& structure)
    : good_(good), structure_(structure) {}

PropagationStats SymbolicFaultSimulator::propagate(
    std::vector<bdd::Bdd>& faulty, const PinSeed* pin_seed) const {
  const netlist::Circuit& c = good_.circuit();
  bdd::Manager& mgr = good_.manager();
  PropagationStats st;

  for (NetId id : c.topo_order()) {
    const GateType t = c.type(id);
    if (t == GateType::Input || netlist::is_constant(t)) continue;
    const auto& fi = c.fanins(id);

    const bool seeded_here = pin_seed && pin_seed->gate == id;
    bool in_cone = seeded_here;
    if (!in_cone) {
      in_cone = std::any_of(fi.begin(), fi.end(),
                            [&](NetId f) { return faulty[f].valid(); });
    }
    if (!in_cone) continue;

    std::vector<bdd::Bdd> inputs;
    inputs.reserve(fi.size());
    for (std::uint32_t pin = 0; pin < fi.size(); ++pin) {
      if (seeded_here && pin_seed->pin == pin) {
        inputs.push_back(pin_seed->value);
      } else if (faulty[fi[pin]].valid()) {
        inputs.push_back(faulty[fi[pin]]);
      } else {
        inputs.push_back(good_.at(fi[pin]));
      }
    }
    bdd::Bdd result = build_gate_function(mgr, t, inputs);
    ++st.gates_evaluated;
    // Canonicity: a cone gate whose faulty function collapses back to the
    // good one stops the trace here (F == f is a pointer comparison).
    if (result != good_.at(id)) faulty[id] = std::move(result);
  }
  st.gates_skipped = c.num_gates() - st.gates_evaluated;
  return st;
}

FaultAnalysis SymbolicFaultSimulator::finish(
    const std::vector<bdd::Bdd>& faulty,
    const std::vector<NetId>& site_nets, double upper_bound,
    PropagationStats stats) const {
  const netlist::Circuit& c = good_.circuit();
  bdd::Manager& mgr = good_.manager();

  FaultAnalysis out;
  out.stats = stats;
  out.upper_bound = upper_bound;
  out.test_set = mgr.zero();
  out.po_observable.assign(c.num_outputs(), false);
  out.po_differences.resize(c.num_outputs());
  for (std::size_t i = 0; i < c.num_outputs(); ++i) {
    const NetId po = c.outputs()[i];
    if (!faulty[po].valid()) continue;
    bdd::Bdd diff = good_.at(po) ^ faulty[po];
    if (diff.is_zero()) continue;
    out.po_observable[i] = true;
    ++out.pos_observable;
    out.test_set = out.test_set | diff;
    out.po_differences[i] = std::move(diff);
  }
  out.detectable = !out.test_set.is_zero();
  out.detectability = out.test_set.density(good_.num_vars());
  out.adherence = upper_bound > 0.0
                      ? std::clamp(out.detectability / upper_bound, 0.0, 1.0)
                      : 0.0;
  for (std::size_t i = 0; i < c.num_outputs(); ++i) {
    for (NetId site : site_nets) {
      if (structure_.po_reachable(site, i)) {
        ++out.pos_fed;
        break;
      }
    }
  }
  return out;
}

FaultAnalysis SymbolicFaultSimulator::analyze(
    const fault::StuckAtFault& fault) const {
  const netlist::Circuit& c = good_.circuit();
  bdd::Manager& mgr = good_.manager();
  std::vector<bdd::Bdd> faulty(c.num_nets());

  const bdd::Bdd forced = fault.stuck_value ? mgr.one() : mgr.zero();
  const double syn = good_.syndrome(fault.net);
  const double upper = fault.stuck_value ? 1.0 - syn : syn;

  PropagationStats st;
  if (fault.branch) {
    PinSeed pin{fault.branch->gate, fault.branch->pin, forced};
    st = propagate(faulty, &pin);
  } else {
    if (good_.at(fault.net) != forced) faulty[fault.net] = forced;
    st = propagate(faulty, nullptr);
  }
  // pos_fed is measured from the checkpoint line's stem (see engine.cpp).
  return finish(faulty, {fault.net}, upper, st);
}

SymbolicFaultSimulator::SyndromeTest SymbolicFaultSimulator::syndrome_test(
    const fault::StuckAtFault& fault) const {
  const netlist::Circuit& c = good_.circuit();
  bdd::Manager& mgr = good_.manager();
  std::vector<bdd::Bdd> faulty(c.num_nets());

  const bdd::Bdd forced = fault.stuck_value ? mgr.one() : mgr.zero();
  if (fault.branch) {
    PinSeed pin{fault.branch->gate, fault.branch->pin, forced};
    propagate(faulty, &pin);
  } else {
    if (good_.at(fault.net) != forced) faulty[fault.net] = forced;
    propagate(faulty, nullptr);
  }

  SyndromeTest out;
  for (netlist::NetId po : c.outputs()) {
    const double good_syn = good_.syndrome(po);
    const double faulty_syn = faulty[po].valid()
                                  ? faulty[po].density(good_.num_vars())
                                  : good_syn;
    out.good_syndromes.push_back(good_syn);
    out.faulty_syndromes.push_back(faulty_syn);
    if (good_syn != faulty_syn) out.syndrome_detectable = true;
  }
  return out;
}

FaultAnalysis SymbolicFaultSimulator::analyze(
    const fault::BridgingFault& fault) const {
  const netlist::Circuit& c = good_.circuit();
  std::vector<bdd::Bdd> faulty(c.num_nets());

  const bdd::Bdd& fa = good_.at(fault.a);
  const bdd::Bdd& fb = good_.at(fault.b);
  // Non-feedback: the driven values are the good functions, so both wires
  // carry the wired combination of the good functions.
  const bdd::Bdd wired =
      fault.type == fault::BridgeType::And ? (fa & fb) : (fa | fb);
  if (wired != fa) faulty[fault.a] = wired;
  if (wired != fb) faulty[fault.b] = wired;

  const double upper = (fa ^ fb).density(good_.num_vars());

  PropagationStats st = propagate(faulty, nullptr);
  FaultAnalysis out = finish(faulty, {fault.a, fault.b}, upper, st);
  out.bridge_stuck_at = wired.is_constant();
  return out;
}

}  // namespace dp::core
