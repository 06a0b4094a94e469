// Fanout-free regions (FFRs) and immediate post-dominators.
//
// An FFR is a tree of single-fanout nets that meets the rest of the
// circuit only at its root: a net whose fanout count is not 1, or a PO.
// A difference on a member reaches the rest of the circuit only through
// the root, along the one path of single-fanout nets between them, and
// the side inputs of that path lie outside the member's cone.
//
// A net's immediate post-dominator is the first net every path from it to
// a PO crosses. Every path from a root r to a PO crosses its
// post-dominator d, so a flip of r is observed exactly where it arrives
// at d and d's own flip is observed: d's region path to its root, then
// that root's observability. Both the wide fault simulator (lane words)
// and Difference Propagation (BDDs) compose stem observabilities this
// way; both read this one structure.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/circuit.hpp"

namespace dp::netlist {

class Regions {
 public:
  explicit Regions(const Circuit& circuit);

  /// ipdom() of a net post-dominated only by the virtual sink behind the
  /// POs (every PO is such a net).
  static constexpr NetId kSink = kInvalidNet;
  /// ipdom() of a net with no path to any PO.
  static constexpr NetId kUnobservable = kInvalidNet - 1;

  /// Regions are numbered in reverse topological order of their roots, so
  /// a root's post-dominator always lies in a region with a lower index.
  std::size_t num_regions() const { return region_begin_.size() - 1; }
  std::uint32_t region_of(NetId net) const { return region_of_[net]; }
  NetId root(std::uint32_t region) const {
    return members_[region_begin_[region]];
  }
  NetId root_of(NetId net) const { return root(region_of_[net]); }
  bool is_root(NetId net) const { return member_pos_[net] == 0; }
  /// The region's members: its root first, then every net after the gate
  /// it feeds (reverse topological order).
  const NetId* members(std::uint32_t region) const {
    return &members_[region_begin_[region]];
  }
  /// A net's index in its region's member list (0 for the root).
  std::uint32_t member_pos(NetId net) const { return member_pos_[net]; }
  /// For a non-root net: the pin it drives on the one gate it feeds
  /// (circuit.fanouts(net)[0]).
  std::uint32_t sink_pin(NetId net) const { return sink_pin_[net]; }
  /// The net's immediate post-dominator, kSink or kUnobservable.
  NetId ipdom(NetId net) const { return ipdom_[net]; }

 private:
  std::vector<std::uint32_t> region_begin_;  ///< num_regions() + 1 offsets
  std::vector<NetId> members_;
  std::vector<std::uint32_t> region_of_;   ///< per net
  std::vector<std::uint32_t> member_pos_;  ///< per net
  std::vector<std::uint32_t> sink_pin_;    ///< per non-root net
  std::vector<NetId> ipdom_;               ///< per net
};

}  // namespace dp::netlist
