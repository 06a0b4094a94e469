#include "dp/engine.hpp"

#include <algorithm>

#include "dp/difference.hpp"

namespace dp::core {

using netlist::GateType;
using netlist::NetId;

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

  std::vector<bdd::Bdd> goods, diffs;
  for (NetId id : c.topo_order()) {
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

FaultAnalysis DifferencePropagator::finish(const Seeds& seeds,
                                           double upper_bound,
                                           obs::ScopedSpan& span) const {
  const Circuit& c = good_.circuit();
  bdd::Manager& mgr = good_.manager();
  std::vector<bdd::Bdd> diff(c.num_nets());
  FaultAnalysis out;
  out.stats = propagate(seeds, diff);
  out.upper_bound = upper_bound;

  out.test_set = mgr.zero();
  out.po_observable.assign(c.num_outputs(), false);
  out.po_differences.resize(c.num_outputs());
  for (std::size_t i = 0; i < c.num_outputs(); ++i) {
    const bdd::Bdd& d = diff[c.outputs()[i]];
    if (d.valid() && !d.is_zero()) {
      out.po_observable[i] = true;
      out.po_differences[i] = d;
      ++out.pos_observable;
      out.test_set = out.test_set | d;
    }
  }
  out.detectable = !out.test_set.is_zero();
  out.detectability = out.test_set.density(good_.num_vars());
  out.adherence =
      upper_bound > 0.0
          ? std::clamp(out.detectability / upper_bound, 0.0, 1.0)
          : 0.0;

  for (std::size_t i = 0; i < c.num_outputs(); ++i) {
    for (NetId site : seeds.sites) {
      if (structure_.po_reachable(site, i)) {
        ++out.pos_fed;
        break;
      }
    }
  }

  if (span.enabled()) {
    int po_distance = 0;
    for (NetId site : seeds.sites) {
      po_distance = std::max(po_distance, structure_.max_levels_to_po(site));
    }
    span.attr("po_distance", po_distance);
    span.attr("gates_evaluated", out.stats.gates_evaluated);
    span.attr("gates_skipped", out.stats.gates_skipped);
    span.attr("detectable", out.detectable ? 1 : 0);
    span.attr("seed_sites", seeds.sites.size());
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

FaultAnalysis DifferencePropagator::analyze(
    const fault::BridgingFault& fault) const {
  obs::ScopedSpan span(obs::SpanCollector::current(), "dp.fault");
  const bdd::Bdd& fa = good_.at(fault.a);
  const bdd::Bdd& fb = good_.at(fault.b);
  const bdd::Bdd wired =
      fault.type == fault::BridgeType::And ? (fa & fb) : (fa | fb);

  // Both wires take the wired value; their differences seed together.
  Seeds seeds;
  seeds.sites = {fault.a, fault.b};
  seeds.nets.push_back(NetSeed{fault.a, fa ^ wired});
  seeds.nets.push_back(NetSeed{fault.b, fb ^ wired});

  // Excitation bound: the bridge disturbs some wire iff the wires disagree.
  const double upper = (fa ^ fb).density(good_.num_vars());

  if (span.enabled()) {
    span.attr("site", fault::describe(fault, good_.circuit()));
  }
  FaultAnalysis out = finish(seeds, upper, span);
  out.bridge_stuck_at = wired.is_constant();
  return out;
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

}  // namespace dp::core
