#include "netlist/regions.hpp"

namespace dp::netlist {

Regions::Regions(const Circuit& circuit) {
  if (!circuit.finalized()) {
    throw NetlistError("Regions: circuit must be finalized");
  }
  // Walking the topological order backwards reaches every gate before its
  // fanins, so a single-fanout net can take the region of the gate it
  // feeds; any other net, and every PO, is a root and opens a region of
  // its own. The same walk lists each region's members root first, every
  // net after its fed gate. A net's immediate post-dominator is the
  // meeting point of its observable fanout gates' post-dominator chains
  // (the two-finger intersect: the finger earlier in topological order
  // steps up its chain, since a post-dominator always comes later).
  const std::size_t num_nets = circuit.num_nets();
  const auto& topo = circuit.topo_order();
  std::vector<std::uint32_t> topo_pos(num_nets);
  for (std::size_t k = 0; k < topo.size(); ++k) {
    topo_pos[topo[k]] = static_cast<std::uint32_t>(k);
  }
  auto rank = [&](NetId n) {
    return n == kSink ? 0xffffffffu : topo_pos[n];
  };
  ipdom_.assign(num_nets, kUnobservable);
  region_of_.assign(num_nets, 0);
  member_pos_.assign(num_nets, 0);
  sink_pin_.assign(num_nets, 0);
  std::vector<std::uint32_t> region_size;
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NetId id = *it;
    const auto& fo = circuit.fanouts(id);
    const bool is_output = circuit.is_output(id);
    if (is_output) {
      ipdom_[id] = kSink;
    } else {
      for (const PinRef& pin : fo) {
        NetId finger = pin.gate;
        if (ipdom_[finger] == kUnobservable) continue;
        NetId& dom = ipdom_[id];
        if (dom == kUnobservable) dom = finger;
        while (dom != finger) {
          if (rank(dom) < rank(finger)) {
            dom = ipdom_[dom];
          } else {
            finger = ipdom_[finger];
          }
        }
      }
    }
    std::uint32_t r;
    if (fo.size() != 1 || is_output) {
      r = static_cast<std::uint32_t>(region_size.size());
      region_size.push_back(0);
    } else {
      r = region_of_[fo[0].gate];
      sink_pin_[id] = fo[0].pin;
    }
    region_of_[id] = r;
    member_pos_[id] = region_size[r]++;
  }
  region_begin_.assign(region_size.size() + 1, 0);
  for (std::size_t r = 0; r < region_size.size(); ++r) {
    region_begin_[r + 1] = region_begin_[r] + region_size[r];
  }
  members_.resize(num_nets);
  for (NetId id = 0; id < num_nets; ++id) {
    members_[region_begin_[region_of_[id]] + member_pos_[id]] = id;
  }
}

}  // namespace dp::netlist
