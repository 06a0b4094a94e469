#include "sim/fault_sim.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace dp::sim {

using netlist::GateType;

FaultSimulator::FaultSimulator(const Circuit& circuit,
                               std::size_t max_exhaustive_inputs)
    : sim_(circuit), max_exhaustive_inputs_(max_exhaustive_inputs) {}

void FaultSimulator::faulty_values(std::vector<Word>& values,
                                   const StuckAtFault& f) const {
  const Circuit& c = circuit();
  const Word forced = f.stuck_value ? ~Word{0} : 0;

  for (NetId id : c.topo_order()) {
    if (f.branch && f.branch->gate == id) {
      // Branch fault: the gate sees the forced value on one pin only.
      // Checked before the Input skip so a branch fault addressing a
      // zero-fanin site fails loudly instead of being silently ignored.
      const PatternSimulator::PinOverride ov{f.branch->pin, forced};
      values[id] = sim_.eval_gate_with_overrides(id, values, &ov, 1);
      continue;
    }
    if (c.type(id) != GateType::Input) {
      values[id] = sim_.eval_gate(id, values);
    }
    if (!f.branch && id == f.net) values[id] = forced;  // stem fault
  }
}

FaultSimulator::MultipleFaultPlan FaultSimulator::make_plan(
    const fault::MultipleStuckAtFault& f) const {
  const Circuit& c = circuit();
  MultipleFaultPlan plan;
  plan.stem_forced.assign(c.num_nets(), 0);
  plan.has_stem.assign(c.num_nets(), 0);
  plan.overrides.resize(c.num_nets());
  for (const fault::StuckAtFault& comp : f.components) {
    const Word forced = comp.stuck_value ? ~Word{0} : 0;
    if (comp.branch) {
      plan.overrides[comp.branch->gate].push_back({comp.branch->pin, forced});
    } else {
      plan.stem_forced[comp.net] = forced;
      plan.has_stem[comp.net] = 1;
    }
  }
  return plan;
}

void FaultSimulator::faulty_values(std::vector<Word>& values,
                                   const MultipleFaultPlan& plan) const {
  const Circuit& c = circuit();
  for (NetId id : c.topo_order()) {
    if (c.type(id) != GateType::Input) {
      const auto& ovs = plan.overrides[id];
      values[id] = ovs.empty()
                       ? sim_.eval_gate(id, values)
                       : sim_.eval_gate_with_overrides(id, values, ovs.data(),
                                                       ovs.size());
    }
    if (plan.has_stem[id]) values[id] = plan.stem_forced[id];
  }
}

void FaultSimulator::faulty_values(
    std::vector<Word>& values, const fault::MultipleStuckAtFault& f) const {
  faulty_values(values, make_plan(f));
}

std::vector<NetId> FaultSimulator::bridge_order(const BridgingFault& f) const {
  // Kahn's algorithm over the original dependencies plus the wired node's
  // cross edges: every consumer of a depends on b and vice versa. The
  // non-feedback screen guarantees this stays acyclic.
  const Circuit& c = circuit();
  const std::size_t n = c.num_nets();
  std::vector<std::vector<NetId>> extra_succ(n);
  std::vector<std::uint32_t> indeg(n, 0);

  for (NetId id = 0; id < n; ++id) {
    indeg[id] = static_cast<std::uint32_t>(c.fanins(id).size());
  }
  auto cross = [&](NetId wire, NetId other) {
    for (const netlist::PinRef& pin : c.fanouts(wire)) {
      extra_succ[other].push_back(pin.gate);
      ++indeg[pin.gate];
    }
  };
  cross(f.a, f.b);
  cross(f.b, f.a);

  std::vector<NetId> ready, order;
  order.reserve(n);
  for (NetId id = 0; id < n; ++id) {
    if (indeg[id] == 0) ready.push_back(id);
  }
  while (!ready.empty()) {
    NetId id = ready.back();
    ready.pop_back();
    order.push_back(id);
    auto release = [&](NetId succ) {
      if (--indeg[succ] == 0) ready.push_back(succ);
    };
    for (const netlist::PinRef& pin : c.fanouts(id)) release(pin.gate);
    for (NetId succ : extra_succ[id]) release(succ);
  }
  if (order.size() != n) {
    throw std::logic_error(
        "bridge_order(): feedback bridge passed to the simulator");
  }
  return order;
}

void FaultSimulator::faulty_values(std::vector<Word>& values,
                                   const BridgingFault& f,
                                   const std::vector<NetId>& order) const {
  const Circuit& c = circuit();

  Word driven_a = 0, driven_b = 0;
  bool have_a = false, have_b = false;
  auto fuse = [&]() {
    const Word wired = f.type == fault::BridgeType::And ? (driven_a & driven_b)
                                                        : (driven_a | driven_b);
    values[f.a] = wired;
    values[f.b] = wired;
  };

  for (NetId id : order) {
    if (c.type(id) != GateType::Input) {
      values[id] = sim_.eval_gate(id, values);
    }
    if (id == f.a) {
      driven_a = values[id];
      have_a = true;
      if (have_b) fuse();
    } else if (id == f.b) {
      driven_b = values[id];
      have_b = true;
      if (have_a) fuse();
    }
  }
}

void FaultSimulator::faulty_values(std::vector<Word>& values,
                                   const BridgingFault& f) const {
  faulty_values(values, f, bridge_order(f));
}

Word FaultSimulator::detect_lanes(const std::vector<Word>& good,
                                  const std::vector<Word>& faulty) const {
  Word lanes = 0;
  for (NetId po : circuit().outputs()) {
    lanes |= good[po] ^ faulty[po];
  }
  return lanes;
}

void FaultSimulator::check_exhaustive(std::size_t limit) const {
  if (circuit().num_inputs() > limit) {
    throw std::invalid_argument(
        "exhaustive analysis limited to " + std::to_string(limit) +
        " inputs; circuit '" + circuit().name() + "' has " +
        std::to_string(circuit().num_inputs()));
  }
}

void FaultSimulator::load_exhaustive_inputs(std::vector<Word>& values,
                                            std::uint64_t block) const {
  const auto& pis = circuit().inputs();
  for (std::size_t i = 0; i < pis.size(); ++i) {
    values[pis[i]] = PatternSimulator::exhaustive_input_word(i, block);
  }
}

template <typename Fault>
double FaultSimulator::exhaustive_detectability_impl(const Fault& f) const {
  check_exhaustive(max_exhaustive_inputs_);
  const std::size_t n = circuit().num_inputs();
  const std::uint64_t blocks = n > 6 ? (1ull << (n - 6)) : 1;

  // Everything derivable from the fault alone (bridge evaluation order,
  // multiple-fault injection tables) is prepared once, outside the 2^n
  // block loop.
  const auto prepared = prepare(f);
  std::vector<Word> good(circuit().num_nets());
  std::vector<Word> faulty(circuit().num_nets());
  std::uint64_t detected = 0;
  for (std::uint64_t b = 0; b < blocks; ++b) {
    load_exhaustive_inputs(good, b);
    load_exhaustive_inputs(faulty, b);
    good_values(good);
    faulty_values_prepared(faulty, prepared);
    detected += std::popcount(detect_lanes(good, faulty) &
                              PatternSimulator::block_mask(b, n));
  }
  return static_cast<double>(detected) / static_cast<double>(1ull << n);
}

double FaultSimulator::exhaustive_detectability(const StuckAtFault& f) const {
  return exhaustive_detectability_impl(f);
}
double FaultSimulator::exhaustive_detectability(const BridgingFault& f) const {
  return exhaustive_detectability_impl(f);
}
double FaultSimulator::exhaustive_detectability(
    const fault::MultipleStuckAtFault& f) const {
  return exhaustive_detectability_impl(f);
}

double FaultSimulator::exhaustive_syndrome(NetId net) const {
  check_exhaustive(max_exhaustive_inputs_);
  const std::size_t n = circuit().num_inputs();
  const std::uint64_t blocks = n > 6 ? (1ull << (n - 6)) : 1;
  std::vector<Word> values(circuit().num_nets());
  std::uint64_t ones = 0;
  for (std::uint64_t b = 0; b < blocks; ++b) {
    load_exhaustive_inputs(values, b);
    good_values(values);
    ones += std::popcount(values[net] & PatternSimulator::block_mask(b, n));
  }
  return static_cast<double>(ones) / static_cast<double>(1ull << n);
}

template <typename Fault>
std::vector<bool> FaultSimulator::exhaustive_test_set_impl(
    const Fault& f) const {
  check_exhaustive(std::min<std::size_t>(max_exhaustive_inputs_, 24));
  const std::size_t n = circuit().num_inputs();
  const std::uint64_t blocks = n > 6 ? (1ull << (n - 6)) : 1;

  const auto prepared = prepare(f);
  std::vector<bool> tests(1ull << n, false);
  std::vector<Word> good(circuit().num_nets());
  std::vector<Word> faulty(circuit().num_nets());
  for (std::uint64_t b = 0; b < blocks; ++b) {
    load_exhaustive_inputs(good, b);
    load_exhaustive_inputs(faulty, b);
    good_values(good);
    faulty_values_prepared(faulty, prepared);
    Word lanes =
        detect_lanes(good, faulty) & PatternSimulator::block_mask(b, n);
    while (lanes) {
      const int lane = std::countr_zero(lanes);
      lanes &= lanes - 1;
      tests[b * 64 + static_cast<std::uint64_t>(lane)] = true;
    }
  }
  return tests;
}

std::vector<bool> FaultSimulator::exhaustive_test_set(
    const StuckAtFault& f) const {
  return exhaustive_test_set_impl(f);
}
std::vector<bool> FaultSimulator::exhaustive_test_set(
    const BridgingFault& f) const {
  return exhaustive_test_set_impl(f);
}
std::vector<bool> FaultSimulator::exhaustive_test_set(
    const fault::MultipleStuckAtFault& f) const {
  return exhaustive_test_set_impl(f);
}

}  // namespace dp::sim
