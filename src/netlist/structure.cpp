#include "netlist/structure.hpp"

#include <algorithm>
#include <bit>

namespace dp::netlist {

Structure::Structure(const Circuit& circuit)
    : circuit_(circuit), regions_(circuit) {
  const std::size_t n = circuit.num_nets();
  const auto& topo = circuit.topo_order();

  // Levels from PIs: forward pass over the topological order.
  level_from_pi_.assign(n, 0);
  for (NetId id : topo) {
    int lvl = 0;
    for (NetId f : circuit.fanins(id)) {
      lvl = std::max(lvl, level_from_pi_[f] + 1);
    }
    level_from_pi_[id] = lvl;
    depth_ = std::max(depth_, lvl);
  }

  // Max levels to PO and PO masks: backward pass.
  max_levels_to_po_.assign(n, -1);
  po_words_ = (circuit.num_outputs() + 63) / 64;
  po_mask_.assign(n * po_words_, 0);
  for (std::size_t i = 0; i < circuit.outputs().size(); ++i) {
    NetId po = circuit.outputs()[i];
    max_levels_to_po_[po] = 0;
    po_mask_[po * po_words_ + i / 64] |= 1ull << (i % 64);
  }
  net_words_ = (n + 63) / 64;
  desc_mask_.assign(n * net_words_, 0);
  for (NetId id = 0; id < n; ++id) {
    desc_mask_[id * net_words_ + id / 64] |= 1ull << (id % 64);
  }

  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NetId id = *it;
    for (NetId f : circuit.fanins(id)) {
      if (max_levels_to_po_[id] >= 0) {
        max_levels_to_po_[f] =
            std::max(max_levels_to_po_[f], max_levels_to_po_[id] + 1);
      }
      for (std::size_t w = 0; w < po_words_; ++w) {
        po_mask_[f * po_words_ + w] |= po_mask_[id * po_words_ + w];
      }
      for (std::size_t w = 0; w < net_words_; ++w) {
        desc_mask_[f * net_words_ + w] |= desc_mask_[id * net_words_ + w];
      }
    }
  }
}

std::size_t Structure::reachable_po_count(NetId id) const {
  std::size_t count = 0;
  for (std::size_t w = 0; w < po_words_; ++w) {
    count += std::popcount(po_mask_[id * po_words_ + w]);
  }
  return count;
}

bool Structure::po_reachable(NetId id, std::size_t po_index) const {
  if (po_index >= circuit_.num_outputs()) {
    throw NetlistError("po_reachable(): PO index out of range");
  }
  return (po_mask_[id * po_words_ + po_index / 64] >>
          (po_index % 64)) & 1ull;
}

bool Structure::reaches(NetId src, NetId dst) const {
  if (src >= circuit_.num_nets() || dst >= circuit_.num_nets()) {
    throw NetlistError("reaches(): net id out of range");
  }
  return (desc_mask_[src * net_words_ + dst / 64] >> (dst % 64)) & 1ull;
}

}  // namespace dp::netlist
