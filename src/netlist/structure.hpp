// Structural (purely topological) circuit analysis: levelization,
// PO reachability, net-to-net reachability, and fanout-free regions.
//
// The paper uses these quantities directly:
//   * level from PIs            -> X layout coordinate (section 2.2)
//   * maximum levels to a PO    -> the "bathtub" curves (figures 3, 8)
//   * POs fed by a net          -> the "#POs fed vs #POs observable" study
//   * net-to-net reachability   -> feedback-bridging-fault screening
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/circuit.hpp"
#include "netlist/regions.hpp"

namespace dp::netlist {

class Structure {
 public:
  explicit Structure(const Circuit& circuit);

  /// Longest path (in gate levels) from any PI; PIs are level 0.
  int level_from_pi(NetId id) const { return level_from_pi_.at(id); }

  /// Longest path (in gate levels) to any reachable PO; a PO net is 0.
  /// -1 when no PO is reachable (dangling logic).
  int max_levels_to_po(NetId id) const { return max_levels_to_po_.at(id); }

  /// Depth of the circuit: max level over all nets.
  int depth() const { return depth_; }

  /// Number of distinct POs in the transitive fanout of `id`
  /// (a net that is itself a PO counts).
  std::size_t reachable_po_count(NetId id) const;

  /// True if PO number `po_index` (index into circuit.outputs()) is in the
  /// transitive fanout of `id`.
  bool po_reachable(NetId id, std::size_t po_index) const;

  /// True if there is a directed path from `src` to `dst` (src == dst
  /// counts as reachable). Used to classify feedback bridging faults.
  bool reaches(NetId src, NetId dst) const;

  /// Fanout-free regions and immediate post-dominators.
  const Regions& regions() const { return regions_; }

 private:
  const Circuit& circuit_;
  std::vector<int> level_from_pi_;
  std::vector<int> max_levels_to_po_;
  int depth_ = 0;

  std::size_t po_words_ = 0;
  std::vector<std::uint64_t> po_mask_;  ///< num_nets x po_words bitsets

  std::size_t net_words_ = 0;
  std::vector<std::uint64_t> desc_mask_;  ///< num_nets x net_words bitsets

  Regions regions_;
};

}  // namespace dp::netlist
