// ROBDD manager: node pool, unique table, computed cache, mark-sweep GC.
//
// All BDDs live inside one Manager and are identified by NodeIndex *edges*
// ((slot << 1) | complement, see bdd_types.hpp); the strong-reduction
// invariant (no node with lo == hi, no duplicate (var, lo, hi) triples)
// plus the regular-else canonical rule make function equality a single
// edge comparison and negation a single bit flip. User code should hold
// nodes through the RAII `Bdd` handle (bdd.hpp), which keeps them alive
// across garbage collections.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "bdd/bdd_types.hpp"
#include "bdd/computed_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

namespace dp::bdd {

class Bdd;
class FrozenForest;

class Manager : public obs::ProfileSource {
 public:
  /// `max_nodes` bounds the pool; exceeding it throws OutOfNodes so callers
  /// (e.g. cut-point decomposition in the DP engine) can react.
  explicit Manager(std::size_t num_vars = 0,
                   std::size_t max_nodes = 32u * 1024 * 1024);

  /// Adopting constructor: splices `frozen` in as a read-only node prefix
  /// occupying slots [0, frozen->size()) and hosts only private nodes
  /// above it. Frozen handles are valid edges of this manager (they keep
  /// their numeric values), frozen nodes are immortal (ref counting and
  /// GC ignore them), and mk() probes the frozen unique index first so
  /// the combined node space stays strongly reduced. The variable count
  /// and order are inherited from the forest. `max_nodes` is the budget
  /// for the COMBINED space (frozen prefix + private pool), so a
  /// `bdd_node_limit` keeps meaning "total nodes in this analysis
  /// universe" whether or not the universe is shared.
  explicit Manager(std::shared_ptr<const FrozenForest> frozen,
                   std::size_t max_nodes = 32u * 1024 * 1024);

  ~Manager() override;

  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;

  // ---- variables -----------------------------------------------------

  /// Appends a new variable at the end of the order; returns its id.
  Var new_var();
  std::size_t num_vars() const { return num_vars_; }

  // ---- variable order (dynamic reordering) -----------------------------
  // Variable ids are stable names; their placement in the decision order
  // is a permutation that sifting rearranges in place. Node indices --
  // and therefore all live Bdd handles -- survive reordering.

  std::size_t level_of(Var v) const { return level_of_var_.at(v); }
  Var var_at_level(std::size_t level) const { return var_at_level_.at(level); }
  /// order[level] = variable id.
  const std::vector<Var>& variable_order() const { return var_at_level_; }

  /// Exchanges the variables at `level` and `level + 1` in place
  /// (Rudell's adjacent-swap). All node indices remain valid.
  void swap_adjacent_levels(std::size_t level);

  /// Rudell sifting: moves every variable through all positions and pins
  /// it where the live node count is smallest. `max_growth` aborts a
  /// direction when the graph exceeds best * max_growth. Returns the live
  /// node count after reordering.
  std::size_t sift_reorder(double max_growth = 2.0);

  /// Nodes reachable from externally referenced roots (terminal incl.).
  std::size_t count_live_from_roots() const;

  /// Test/debug oracle: walks every live pool slot and throws BddError on
  /// the first violation of the canonical complement-edge invariants --
  /// a complemented stored else-edge, lo == hi, a child at a level not
  /// strictly below its parent, a dangling child slot, or a duplicate
  /// (var, lo, hi) triple. In an adopting manager the duplicate check
  /// also probes the frozen index: a private node replicating a frozen
  /// triple breaks strong reduction of the combined space.
  void check_canonical() const;

  // ---- frozen forest ---------------------------------------------------

  /// Packs every node reachable from `roots` (terminal included) into an
  /// immutable FrozenForest readable lock-free by any thread. Slots are
  /// renumbered densely in ascending order (terminal -> 0); the edges
  /// denoting the same functions in forest numbering are written to
  /// `remapped_roots` when non-null, preserving complement bits. The
  /// source manager is not modified. Throws if this manager itself
  /// adopts a frozen forest (no stacking).
  std::shared_ptr<const FrozenForest> freeze(
      const std::vector<NodeIndex>& roots,
      std::vector<NodeIndex>* remapped_roots = nullptr) const;

  /// Number of slots occupied by the adopted frozen prefix (0 when this
  /// manager owns its whole pool).
  std::size_t frozen_nodes() const { return frozen_base_; }
  bool has_frozen_base() const { return frozen_base_ != 0; }
  /// The adopted forest, or nullptr.
  const std::shared_ptr<const FrozenForest>& frozen_forest() const {
    return frozen_;
  }

  // ---- handle factories ----------------------------------------------

  Bdd zero();
  Bdd one();
  Bdd var(Var v);   ///< the function "v"
  Bdd nvar(Var v);  ///< the function "not v"
  Bdd make(NodeIndex idx);  ///< wrap an existing edge in a handle

  // ---- raw node-level operations (top-level entry points) -------------
  // These may trigger garbage collection before doing any work; operands
  // must be protected by external references (automatic via Bdd handles).

  NodeIndex apply(Op op, NodeIndex a, NodeIndex b);
  /// O(1): flips the complement bit. Never allocates, never collects.
  NodeIndex negate(NodeIndex f);
  NodeIndex ite(NodeIndex f, NodeIndex g, NodeIndex h);
  NodeIndex restrict_var(NodeIndex f, Var v, bool value);
  NodeIndex exists_var(NodeIndex f, Var v);
  NodeIndex compose(NodeIndex f, Var v, NodeIndex g);

  // ---- queries (never allocate nodes) ---------------------------------

  /// Number of satisfying assignments over variables [0, nvars).
  /// Exact for nvars <= 52 (double holds the integer exactly).
  double sat_count(NodeIndex f, std::size_t nvars) const;

  /// Variables the function actually depends on, ascending.
  std::vector<Var> support(NodeIndex f) const;

  /// Nodes in the DAG rooted at f (pool slots, terminal included) --
  /// complement polarity does not change the count.
  std::size_t dag_size(NodeIndex f) const;

  /// Evaluate under a complete assignment (indexed by Var).
  bool eval(NodeIndex f, const std::vector<bool>& assignment) const;

  /// One satisfying cube, or empty vector if f == false.
  /// Entry v is 0, 1, or -1 (don't-care). Size == num_vars().
  std::vector<signed char> sat_one(NodeIndex f) const;

  // ---- memory management ----------------------------------------------

  void inc_ref(NodeIndex idx);
  void dec_ref(NodeIndex idx);

  /// Mark-sweep collection from externally referenced roots.
  /// Returns the number of nodes reclaimed.
  std::size_t gc();

  /// Adjusts the adaptive GC trigger floor. The default (1 << 22 nodes)
  /// favors throughput: small workloads never collect, at the price of
  /// live-node accounting that includes dropped intermediates. Churn-heavy
  /// workloads -- a fault sweep builds and drops one test-set BDD per
  /// fault -- set a small floor so collections track the true working set;
  /// after each collection the trigger re-arms at max(floor, 2x live)
  /// either way. Purely a space/time policy: results are unaffected.
  void set_gc_floor(std::size_t floor_nodes) {
    gc_threshold_floor_ = std::max<std::size_t>(1, floor_nodes);
    gc_threshold_ = std::max(gc_threshold_floor_, live_nodes_ * 2);
  }

  /// Private live nodes (the frozen prefix, being immortal, is not
  /// included -- see frozen_nodes() for that side).
  std::size_t live_nodes() const { return live_nodes_; }
  /// Combined slot-space size: frozen prefix + private pool.
  std::size_t pool_size() const { return frozen_base_ + nodes_.size(); }
  std::size_t unique_bucket_count() const { return unique_.size(); }
  /// Computed-table slots; grows with the work (see computed_cache.hpp).
  std::size_t cache_slots() const { return cache_.size(); }
  const ManagerStats& stats() const { return stats_; }
  void reset_stats() { stats_ = ManagerStats{}; }

  /// Publishes the manager's current state as live gauges named
  /// `<prefix>.<metric>`: node counts, GC activity, unique-table load
  /// (live nodes per hash bucket), and the computed-cache hit rate.
  /// Snapshot values, not deltas -- call again to refresh.
  void export_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix = "bdd") const;

  /// SamplingProfiler hook (obs::ProfileSource): emits
  /// `bdd.mgr<N>.live_nodes`, `.unique_load`, and `.cache_hit_rate`
  /// where N is this manager's process-unique id. Reads are word-sized
  /// and unsynchronized -- a sample racing a mutation may be one update
  /// stale, which is fine for a 10ms-period gauge series.
  void profile_sample(
      std::vector<std::pair<std::string, double>>& out) const override;

  // ---- edge accessors --------------------------------------------------
  // All three child/label accessors take *edges* and fold the edge's
  // complement bit into the children, so lo(e)/hi(e) are the true cofactor
  // edges of the function e denotes. Raw stored fields (canonical form,
  // else always regular) are reachable via node(edge_slot(e)).
  // Slots below frozen_base_ resolve into the adopted forest's packed
  // array (read-only, shared across threads); the rest into the private
  // pool. A standalone manager has frozen_base_ == 0 and the test below
  // is never true, so the hot path costs one always-false compare.

  const Node& node(NodeIndex slot) const {
    return slot < frozen_base_ ? frozen_nodes_data_[slot]
                               : nodes_[slot - frozen_base_];
  }
  Var var_of(NodeIndex e) const { return node(edge_slot(e)).var; }
  NodeIndex lo(NodeIndex e) const {
    return node(edge_slot(e)).lo ^ edge_complemented(e);
  }
  NodeIndex hi(NodeIndex e) const {
    return node(edge_slot(e)).hi ^ edge_complemented(e);
  }
  bool is_terminal(NodeIndex e) const { return edge_is_terminal(e); }

 private:
  friend class Bdd;

  /// Find-or-insert the reduced node for cofactor edges (v, lo, hi);
  /// canonicalizes so the stored else-edge is regular and returns the
  /// (possibly complemented) edge denoting ite(v, hi, lo).
  NodeIndex mk(Var v, NodeIndex lo_child, NodeIndex hi_child);

  NodeIndex allocate_node();
  void rehash_unique(std::size_t bucket_count);
  std::size_t unique_bucket(Var v, NodeIndex lo_child, NodeIndex hi_child) const;
  void maybe_gc();

  /// Mutable private-node access (global slot; must be >= frozen_base_).
  Node& node_mut(NodeIndex slot) { return nodes_[slot - frozen_base_]; }
  /// First private *index* worth sweeping: a standalone manager's index 0
  /// is the terminal (never swept/rehashed); an adopting manager's pool
  /// holds only decision nodes.
  NodeIndex first_private_index() const { return frozen_base_ == 0 ? 1 : 0; }

  // Recursive workers (no GC inside).
  std::size_t level_of_node(NodeIndex e) const {
    const Var v = node(edge_slot(e)).var;
    return v == kTerminalVar ? num_vars_ : level_of_var_[v];
  }
  void mark_from_roots(std::vector<bool>& marked) const;
  void sift_one_var(Var v, double max_growth);

  NodeIndex apply_rec(Op op, NodeIndex a, NodeIndex b);
  NodeIndex and_rec(NodeIndex a, NodeIndex b);
  NodeIndex xor_rec(NodeIndex a, NodeIndex b);
  NodeIndex restrict_rec(NodeIndex f, Var v, bool value);
  NodeIndex exists_rec(NodeIndex f, Var v);

  std::size_t num_vars_ = 0;
  std::size_t max_nodes_ = 0;
  std::size_t live_nodes_ = 0;
  std::size_t gc_threshold_ = 0;
  std::size_t gc_threshold_floor_ = 0;

  std::vector<Var> var_at_level_;        ///< level -> variable id
  std::vector<std::size_t> level_of_var_;  ///< variable id -> level

  std::vector<Node> nodes_;  ///< private nodes, indexed by slot - frozen_base_
  std::vector<std::uint32_t> ext_refs_;  ///< external refcount, same indexing
  std::vector<NodeIndex> unique_;  ///< bucket heads (global slots, private only)
  std::size_t unique_mask_ = 0;
  NodeIndex free_list_ = kInvalidNode;  ///< global slots

  // Adopted read-only prefix (empty in a standalone manager). The raw
  // pointer caches frozen_->nodes_data() so node() stays branch+load.
  std::shared_ptr<const FrozenForest> frozen_;
  const Node* frozen_nodes_data_ = nullptr;
  NodeIndex frozen_base_ = 0;

  ComputedCache cache_;

  ManagerStats stats_;

  std::uint64_t profile_id_ = 0;  ///< process-unique id for profiler series

};

}  // namespace dp::bdd
