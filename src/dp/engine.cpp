#include "dp/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "dp/difference.hpp"

namespace dp::core {

using netlist::GateType;
using netlist::NetId;
using netlist::Regions;

DifferencePropagator::DifferencePropagator(const GoodFunctions& good,
                                           const netlist::Structure& structure,
                                           Options options)
    : good_(good), structure_(structure), options_(options) {}

PropagationStats DifferencePropagator::propagate(
    const Seeds& seeds, std::vector<bdd::Bdd>& diff) const {
  const Circuit& c = good_.circuit();
  bdd::Manager& mgr = good_.manager();
  PropagationStats st;

  // A pinned net's difference is its seed whatever its fanins carry, and
  // no gate upstream of it reads it, so it can be set before the sweep. A
  // zero-valued seed is no difference at all: an unexcitable fault must
  // not defeat selective trace and drag the whole downstream cone through
  // gate_difference.
  for (const NetSeed& seed : seeds.nets) {
    if (!seed.diff.is_zero()) diff[seed.net] = seed.diff;
  }

  const auto& topo = c.topo_order();
  const auto end = seeds.stop == netlist::kInvalidNet
                       ? topo.end()
                       : std::find(topo.begin(), topo.end(), seeds.stop) + 1;
  std::vector<bdd::Bdd> goods, diffs;
  for (auto it = topo.begin(); it != end; ++it) {
    const NetId id = *it;
    const GateType t = c.type(id);
    if (t == GateType::Input || netlist::is_constant(t)) continue;

    const bool pinned =
        std::any_of(seeds.nets.begin(), seeds.nets.end(),
                    [id](const NetSeed& s) { return s.net == id; });
    if (pinned) {
      // Never evaluated; counted as PropagationStats documents.
      ++(options_.selective_trace ? st.gates_skipped : st.gates_evaluated);
      continue;
    }

    const auto& fi = c.fanins(id);
    const bool pin_seeded =
        std::any_of(seeds.pins.begin(), seeds.pins.end(),
                    [id](const PinSeed& s) { return s.gate == id; });
    // The difference on input `pin`: its override when seeded, else the
    // fanin net's; nullptr when zero.
    auto input_diff = [&](std::uint32_t pin) -> const bdd::Bdd* {
      if (pin_seeded) {
        for (const PinSeed& s : seeds.pins) {
          if (s.gate == id && s.pin == pin) {
            return s.diff.is_zero() ? nullptr : &s.diff;
          }
        }
      }
      return diff[fi[pin]].valid() ? &diff[fi[pin]] : nullptr;
    };

    bool has_diff = false;
    for (std::uint32_t pin = 0; pin < fi.size() && !has_diff; ++pin) {
      has_diff = input_diff(pin) != nullptr;
    }
    if (!has_diff && options_.selective_trace) {
      ++st.gates_skipped;
      continue;
    }

    goods.clear();
    diffs.clear();
    for (std::uint32_t pin = 0; pin < fi.size(); ++pin) {
      goods.push_back(good_.at(fi[pin]));
      const bdd::Bdd* d = input_diff(pin);
      diffs.push_back(d ? *d : mgr.zero());
    }
    bdd::Bdd result = gate_difference(mgr, t, goods, diffs);
    ++st.gates_evaluated;
    if (!result.is_zero()) diff[id] = std::move(result);
  }
  return st;
}

bdd::Bdd DifferencePropagator::to_root(NetId net, bdd::Bdd delta,
                                       PropagationStats& stats) const {
  // A member's cone up to its root is the region path itself, so every
  // side input on it is clean: Table 1 with zero side differences is an
  // AND with each side's good value (AND type), with its complement (OR
  // type), or a pass (XOR, BUF, NOT).
  const Circuit& c = good_.circuit();
  const Regions& regions = structure_.regions();
  while (!regions.is_root(net)) {
    const NetId gate = c.fanouts(net).front().gate;
    if (delta.is_zero() && options_.selective_trace) {
      ++stats.gates_skipped;
    } else {
      const GateType base = netlist::base_of(c.type(gate));
      const auto& fi = c.fanins(gate);
      for (std::uint32_t pin = 0; pin < fi.size(); ++pin) {
        if (pin == regions.sink_pin(net)) continue;
        if (base == GateType::And) delta = delta & good_.at(fi[pin]);
        if (base == GateType::Or) delta = delta & !good_.at(fi[pin]);
      }
      ++stats.gates_evaluated;
    }
    net = gate;
  }
  return delta;
}

FaultAnalysis DifferencePropagator::finish(const Seeds& seeds,
                                           double upper_bound,
                                           obs::ScopedSpan& span) const {
  const Circuit& c = good_.circuit();
  std::vector<bdd::Bdd> diff(c.num_nets());
  FaultAnalysis out;
  out.stats = propagate(seeds, diff);
  out.po_differences.resize(c.num_outputs());
  out.po_observable.assign(c.num_outputs(), false);
  out.test_set = good_.manager().zero();
  for (std::size_t i = 0; i < c.num_outputs(); ++i) {
    out.po_differences[i] = diff[c.outputs()[i]];
    if (!out.po_differences[i].valid()) continue;
    out.po_observable[i] = true;
    out.test_set = out.test_set | out.po_differences[i];
  }
  return finish(std::move(out), seeds.sites, upper_bound, span);
}

FaultAnalysis DifferencePropagator::finish(FaultAnalysis out,
                                           const std::vector<NetId>& sites,
                                           double upper_bound,
                                           obs::ScopedSpan& span) const {
  const Circuit& c = good_.circuit();
  out.upper_bound = upper_bound;
  out.pos_observable = static_cast<std::size_t>(
      std::count(out.po_observable.begin(), out.po_observable.end(), true));
  out.detectable = !out.test_set.is_zero();
  out.detectability = out.test_set.density(good_.num_vars());
  out.adherence =
      upper_bound > 0.0
          ? std::clamp(out.detectability / upper_bound, 0.0, 1.0)
          : 0.0;

  for (std::size_t i = 0; i < c.num_outputs(); ++i) {
    for (NetId site : sites) {
      if (structure_.po_reachable(site, i)) {
        ++out.pos_fed;
        break;
      }
    }
  }

  if (span.enabled()) {
    int po_distance = 0;
    for (NetId site : sites) {
      po_distance = std::max(po_distance, structure_.max_levels_to_po(site));
    }
    span.attr("po_distance", po_distance);
    span.attr("gates_evaluated", out.stats.gates_evaluated);
    span.attr("gates_skipped", out.stats.gates_skipped);
    span.attr("detectable", out.detectable ? 1 : 0);
    span.attr("seed_sites", sites.size());
    span.attr("pos_observable", out.pos_observable);
  }
  return out;
}

FaultAnalysis DifferencePropagator::analyze(
    const fault::StuckAtFault& fault) const {
  obs::ScopedSpan span(obs::SpanCollector::current(), "dp.fault");
  const bdd::Bdd& f_site = good_.at(fault.net);
  // Delta = f XOR v : the inputs on which the forced value differs.
  bdd::Bdd seed = fault.stuck_value ? !f_site : f_site;

  // PO reachability is measured from the checkpoint line's stem: a branch
  // fault lives on the fanout branch of `fault.net`, not on the fed gate's
  // output, so pos_fed counts the POs the stem feeds.
  Seeds seeds;
  seeds.sites = {fault.net};
  if (fault.branch) {
    seeds.pins.push_back(
        PinSeed{fault.branch->gate, fault.branch->pin, std::move(seed)});
  } else {
    seeds.nets.push_back(NetSeed{fault.net, std::move(seed)});
  }

  const double syn = good_.syndrome(fault.net);
  if (span.enabled()) {
    span.attr("site", fault::describe(fault, good_.circuit()));
    span.attr("branch", fault.branch ? 1 : 0);
  }
  return finish(seeds, fault.stuck_value ? 1.0 - syn : syn, span);
}

DifferencePropagator::BridgeFlips DifferencePropagator::flip(
    const fault::BridgingFault& fault, PropagationStats& stats) const {
  if (structure_.reaches(fault.a, fault.b) ||
      structure_.reaches(fault.b, fault.a)) {
    throw netlist::NetlistError(
        "analyze: bridge wires must be distinct and neither may reach the "
        "other: " + fault::describe(fault, good_.circuit()));
  }
  const bdd::Bdd& fa = good_.at(fault.a);
  const bdd::Bdd& fb = good_.at(fault.b);
  BridgeFlips out;
  out.wired = fault.type == fault::BridgeType::And ? (fa & fb) : (fa | fb);
  for (std::size_t w = 0; w < 2; ++w) {
    const NetId wire = w == 0 ? fault.a : fault.b;
    RootFlip& f = out.roots[w];
    f.delta = to_root(wire, good_.at(wire) ^ out.wired, stats);
    if (f.delta.is_zero()) continue;
    const std::uint32_t region = structure_.regions().region_of(wire);
    f.observed = good_.observed(region);
    if (!f.observed) {
      throw std::logic_error(
          "analyze: no observability layer covers the root of " +
          good_.circuit().net_name(wire));
    }
  }
  return out;
}

FaultAnalysis DifferencePropagator::analyze(
    const fault::BridgingFault& fault) const {
  obs::ScopedSpan span(obs::SpanCollector::current(), "dp.fault");
  const Circuit& c = good_.circuit();
  if (span.enabled()) span.attr("site", fault::describe(fault, c));

  // Each input flips at most one wire: a where fa differs from the wired
  // value, b where fb does (for AND a.!b and b.!a, for OR the reverse;
  // disjoint). Neither wire is in the other's cone, so on an input that
  // flips a the circuit is the good one with a flipped, and a's flip
  // reaches PO p exactly where it reaches a's region root R and R's flip
  // reaches p. Table 1 is pointwise, so propagating a difference D from R
  // gives D AND O(R, p), the propagation of 1. Hence
  //   T_p = D_Ra.O(Ra, p)  OR  D_Rb.O(Rb, p),
  // exactly what one sweep seeding both wires would give (cut variables
  // included). The test set, their OR over p, is D_Ra.O(Ra) OR D_Rb.O(Rb)
  // with O(R) the OR of O(R, p) over p, kept with the observabilities.
  // PO p observes the bridge iff either product is nonzero, which an
  // emptiness test decides without building it (po_differences() does).
  bdd::Manager& mgr = good_.manager();
  const std::size_t m = c.num_outputs();
  FaultAnalysis out;
  out.test_set = mgr.zero();
  out.po_observable.assign(m, false);
  const BridgeFlips flips = flip(fault, out.stats);
  for (const RootFlip& f : flips.roots) {
    if (!f.observed) continue;
    out.test_set = out.test_set | (f.delta & mgr.make(f.observed[m]));
    for (std::size_t i = 0; i < m; ++i) {
      if (out.po_observable[i] || f.observed[i] == bdd::kFalseNode) continue;
      out.po_observable[i] = f.delta.intersects(mgr.make(f.observed[i]));
    }
  }

  // Excitation bound: the bridge disturbs some wire iff the wires disagree.
  const double upper =
      (good_.at(fault.a) ^ good_.at(fault.b)).density(good_.num_vars());
  out = finish(std::move(out), {fault.a, fault.b}, upper, span);
  out.bridge_stuck_at = flips.wired.is_constant();
  return out;
}

std::vector<bdd::Bdd> DifferencePropagator::po_differences(
    const fault::BridgingFault& fault) const {
  PropagationStats stats;
  const BridgeFlips flips = flip(fault, stats);
  std::vector<bdd::Bdd> po_diffs(good_.circuit().num_outputs());
  for (const RootFlip& f : flips.roots) {
    if (!f.observed) continue;
    for (std::size_t i = 0; i < po_diffs.size(); ++i) {
      if (f.observed[i] == bdd::kFalseNode) continue;
      bdd::Bdd t = f.delta & good_.manager().make(f.observed[i]);
      if (t.is_zero()) continue;
      po_diffs[i] = po_diffs[i].valid() ? po_diffs[i] | t : std::move(t);
    }
  }
  return po_diffs;
}

FaultAnalysis DifferencePropagator::analyze(
    const fault::MultipleStuckAtFault& fault) const {
  obs::ScopedSpan span(obs::SpanCollector::current(), "dp.fault");
  if (fault.components.empty()) {
    throw netlist::NetlistError("analyze: multiple fault with no components");
  }
  for (std::size_t i = 0; i < fault.components.size(); ++i) {
    for (std::size_t j = i + 1; j < fault.components.size(); ++j) {
      if (fault::same_line(fault.components[i], fault.components[j])) {
        throw netlist::NetlistError(
            "analyze: multiple fault components share a line");
      }
    }
  }

  Seeds seeds;
  bdd::Bdd excitation = good_.manager().zero();
  for (const fault::StuckAtFault& f : fault.components) {
    const bdd::Bdd& f_site = good_.at(f.net);
    bdd::Bdd seed = f.stuck_value ? !f_site : f_site;
    excitation = excitation | seed;
    seeds.sites.push_back(f.net);
    if (f.branch) {
      seeds.pins.push_back(
          PinSeed{f.branch->gate, f.branch->pin, std::move(seed)});
    } else {
      seeds.nets.push_back(NetSeed{f.net, std::move(seed)});
    }
  }

  // Excitation (some line differing) is necessary for detection, so its
  // density upper-bounds the detectability exactly as for single faults.
  const double upper = excitation.density(good_.num_vars());

  if (span.enabled()) {
    span.attr("site", fault::describe(fault, good_.circuit()));
  }
  return finish(seeds, upper, span);
}

namespace {

/// GC trigger floor of an adopting worker's manager: small enough that
/// per-fault (or per-chase) churn is collected, large enough that the
/// trigger's adaptive max(floor, 2x live) term governs real circuits.
constexpr std::size_t kWorkerGcFloor = 1u << 16;

}  // namespace

AdoptedPropagator::AdoptedPropagator(const SharedGoodFunctions& shared,
                                     const netlist::Structure& structure)
    : manager(shared.forest(), shared.max_nodes()),
      good(manager, structure.circuit(), shared),
      propagator(good, structure) {
  // A worker builds and drops BDDs per fault; with the default
  // (throughput-oriented) GC floor that churn is never collected, so its
  // memory footprint -- and its peak_live_nodes accounting -- would grow
  // with the fault count instead of the working set. Results are
  // unaffected (GC is invisible to canonical BDD semantics).
  manager.set_gc_floor(kWorkerGcFloor);
}

}  // namespace dp::core
