// Immutable, contiguously packed ROBDD forest produced by
// Manager::freeze().
//
// A FrozenForest is the read-only half of the shared-kernel split: one
// thread builds the good-function universe in a private Manager, freezes
// it, and from then on any number of threads read the packed node array
// lock-free -- there is no mutation anywhere in this class after freeze()
// returns. Complement-edge handles are already canonical, so a frozen
// edge means exactly what it meant in the source manager (modulo the slot
// renumbering freeze() applies, which it reports back through
// `remapped_roots`).
//
// Adopting managers (Manager's frozen-forest constructor) splice the
// packed array in as a read-only slot prefix [0, size()): global slot g
// of such a manager resolves to frozen node g when g < size() and to the
// manager's private pool otherwise. The terminal always packs to slot 0,
// so kTrueNode/kFalseNode keep their values across the freeze boundary.
//
// Node::next is repurposed here as the forest's own hash-chain link (the
// source manager's unique-table chains are meaningless after packing), so
// adopting managers can probe `find()` before allocating a private node
// and keep the combined node space strongly reduced.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "bdd/bdd_types.hpp"

namespace dp::bdd {

class Bdd;
class Manager;

class FrozenForest {
 public:
  FrozenForest(const FrozenForest&) = delete;
  FrozenForest& operator=(const FrozenForest&) = delete;

  /// Packs every node reachable from `roots` -- handles of any managers
  /// that share one variable order, adopting managers included -- into
  /// one standalone forest (no frozen base of its own). Nodes are
  /// deduplicated on the way in, so the packed space stays strongly
  /// reduced and one function held by two managers packs to one edge.
  /// `remapped_roots` (when non-null) receives roots[i] in forest
  /// numbering. Slots are numbered by a post-order walk of the roots in
  /// order, low child first, which depends only on the functions, not on
  /// which manager held them. With no roots the forest holds the terminal
  /// alone and no variables. Throws BddError on an empty handle or on
  /// managers that disagree on the variable order.
  static std::shared_ptr<const FrozenForest> pack(
      const std::vector<Bdd>& roots,
      std::vector<NodeIndex>* remapped_roots = nullptr);

  /// Packed node count (terminal included). Doubles as the adopting
  /// manager's frozen_base_: private slots start here.
  std::size_t size() const { return nodes_.size(); }

  std::size_t num_vars() const { return num_vars_; }
  /// order[level] = variable id, copied verbatim from the source manager.
  const std::vector<Var>& variable_order() const { return var_at_level_; }
  std::size_t level_of(Var v) const { return level_of_var_.at(v); }

  const Node& node(NodeIndex slot) const { return nodes_[slot]; }
  const Node* nodes_data() const { return nodes_.data(); }

  /// Unique-table probe over the frozen space: returns the slot of the
  /// canonical node (v, lo, hi) -- children in frozen numbering, stored
  /// (regular-else) form -- or kInvalidNode. Lock-free and const; this is
  /// what lets adopting managers reuse frozen structure instead of
  /// duplicating it privately.
  NodeIndex find(Var v, NodeIndex lo_child, NodeIndex hi_child) const;

  /// Test/debug oracle: throws BddError on the first violation of the
  /// canonical invariants inside the packed array (complemented stored
  /// else, lo == hi, level order, dangling slot, duplicate triple).
  void check_canonical() const;

 private:
  friend class Manager;  // freeze() builds and populates the forest
  FrozenForest() = default;

  std::size_t bucket(Var v, NodeIndex lo_child, NodeIndex hi_child) const;
  /// pack()'s find-or-append of a node whose children are already packed;
  /// doubles the bucket array as the node count outgrows it.
  NodeIndex intern(Var v, NodeIndex lo_child, NodeIndex hi_child);

  std::size_t num_vars_ = 0;
  std::vector<Var> var_at_level_;          ///< level -> variable id
  std::vector<std::size_t> level_of_var_;  ///< variable id -> level
  std::vector<Node> nodes_;                ///< packed, terminal at slot 0
  std::vector<NodeIndex> buckets_;         ///< hash heads for find()
  std::size_t bucket_mask_ = 0;
};

}  // namespace dp::bdd
