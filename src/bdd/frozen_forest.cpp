// FrozenForest queries, Manager::freeze() and FrozenForest::pack(), the
// pack-and-publish steps of the shared-kernel split. freeze() renumbers
// one standalone manager's reachable slots into a dense ascending range
// (deterministic for a given pool state: the remap preserves slot order,
// terminal -> 0) so the packed array is cache-dense and the remapped
// roots are reproducible across runs. pack() gathers roots from several
// managers (sweep workers over one adopted forest) and hash-conses them
// into one forest as it goes.
#include "bdd/frozen_forest.hpp"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "bdd/bdd.hpp"
#include "bdd/manager.hpp"

namespace dp::bdd {

namespace {

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

double pow2(std::uint64_t e) {
  double r = 1.0;
  while (e--) r *= 2.0;
  return r;
}

}  // namespace

std::size_t FrozenForest::bucket(Var v, NodeIndex lo_child,
                                 NodeIndex hi_child) const {
  std::uint64_t key = static_cast<std::uint64_t>(v);
  key = key * 0x100000001b3ull ^ lo_child;
  key = key * 0x100000001b3ull ^ hi_child;
  key *= 0x9e3779b97f4a7c15ull;
  return static_cast<std::size_t>(key >> 32) & bucket_mask_;
}

NodeIndex FrozenForest::find(Var v, NodeIndex lo_child,
                             NodeIndex hi_child) const {
  if (buckets_.empty()) return kInvalidNode;
  for (NodeIndex i = buckets_[bucket(v, lo_child, hi_child)];
       i != kInvalidNode; i = nodes_[i].next) {
    const Node& n = nodes_[i];
    if (n.var == v && n.lo == lo_child && n.hi == hi_child) return i;
  }
  return kInvalidNode;
}

NodeIndex FrozenForest::intern(Var v, NodeIndex lo_child,
                               NodeIndex hi_child) {
  const NodeIndex found = find(v, lo_child, hi_child);
  if (found != kInvalidNode) return found;
  const auto slot = static_cast<NodeIndex>(nodes_.size());
  nodes_.push_back(Node{v, lo_child, hi_child, kInvalidNode});
  const bool rehash = nodes_.size() > buckets_.size();
  if (rehash) {
    buckets_.assign(2 * buckets_.size(), kInvalidNode);
    bucket_mask_ = buckets_.size() - 1;
  }
  for (NodeIndex i = rehash ? 1 : slot; i <= slot; ++i) {
    Node& n = nodes_[i];
    const std::size_t b = bucket(n.var, n.lo, n.hi);
    n.next = buckets_[b];
    buckets_[b] = i;
  }
  return slot;
}

std::shared_ptr<const FrozenForest> FrozenForest::pack(
    const std::vector<Bdd>& roots, std::vector<NodeIndex>* remapped_roots) {
  auto forest = std::shared_ptr<FrozenForest>(new FrozenForest());
  forest->nodes_.push_back(
      Node{kTerminalVar, kTrueNode, kTrueNode, kInvalidNode});
  forest->buckets_.assign(16, kInvalidNode);
  forest->bucket_mask_ = 15;

  // Per source manager: source slot -> packed slot. Both polarities of a
  // slot pack to the same node, and a node is packed only after both of
  // its children.
  std::unordered_map<const Manager*, std::vector<NodeIndex>> remaps;
  std::vector<NodeIndex> packed;
  packed.reserve(roots.size());
  std::vector<NodeIndex> stack;
  for (const Bdd& root : roots) {
    const Manager* m = root.manager();
    if (m == nullptr) throw BddError("pack(): empty handle");
    if (remaps.empty()) {
      forest->num_vars_ = m->num_vars();
      forest->var_at_level_ = m->variable_order();
      forest->level_of_var_.resize(forest->num_vars_);
      for (std::size_t level = 0; level < forest->num_vars_; ++level) {
        forest->level_of_var_[forest->var_at_level_[level]] = level;
      }
    } else if (m->variable_order() != forest->var_at_level_) {
      throw BddError("pack(): managers disagree on the variable order");
    }
    std::vector<NodeIndex>& remap = remaps[m];
    if (remap.empty()) {
      remap.assign(m->pool_size(), kInvalidNode);
      remap[0] = 0;  // the terminal
    }
    stack.push_back(edge_slot(root.index()));
    while (!stack.empty()) {
      const NodeIndex s = stack.back();
      if (remap[s] != kInvalidNode) {
        stack.pop_back();
        continue;
      }
      const Node& n = m->node(s);
      const NodeIndex lo = remap[edge_slot(n.lo)];
      const NodeIndex hi = remap[edge_slot(n.hi)];
      if (lo == kInvalidNode || hi == kInvalidNode) {
        if (hi == kInvalidNode) stack.push_back(edge_slot(n.hi));
        if (lo == kInvalidNode) stack.push_back(edge_slot(n.lo));
        continue;
      }
      stack.pop_back();
      remap[s] = forest->intern(n.var, make_edge(lo, edge_complemented(n.lo)),
                                make_edge(hi, edge_complemented(n.hi)));
    }
    packed.push_back(make_edge(remap[edge_slot(root.index())],
                               edge_complemented(root.index())));
  }
  if (remapped_roots) *remapped_roots = std::move(packed);
  return forest;
}

double FrozenForest::sat_count(NodeIndex f, std::size_t nvars) const {
  // Same algorithm as Manager::sat_count: iterative post-order with a
  // full-edge memo (the two polarities of a slot count complementary
  // solution sets), level gaps contribute powers of two.
  std::unordered_map<NodeIndex, double> memo;
  memo.reserve(256);

  auto level_of = [&](NodeIndex e) -> std::uint64_t {
    Var v = nodes_[edge_slot(e)].var;
    return v == kTerminalVar ? nvars : level_of_var_[v];
  };

  std::vector<NodeIndex> stack{f};
  while (!stack.empty()) {
    NodeIndex n = stack.back();
    if (memo.count(n)) {
      stack.pop_back();
      continue;
    }
    if (n == kFalseNode) {
      memo[n] = 0.0;
      stack.pop_back();
      continue;
    }
    if (n == kTrueNode) {
      memo[n] = 1.0;
      stack.pop_back();
      continue;
    }
    const Node& nd = nodes_[edge_slot(n)];
    if (nd.var >= nvars) {
      throw BddError("sat_count(): function depends on a variable >= nvars");
    }
    const NodeIndex lo_e = nd.lo ^ edge_complemented(n);
    const NodeIndex hi_e = nd.hi ^ edge_complemented(n);
    auto it_lo = memo.find(lo_e);
    auto it_hi = memo.find(hi_e);
    if (it_lo != memo.end() && it_hi != memo.end()) {
      const std::uint64_t lvl = level_of(n);
      double lo_c = it_lo->second * pow2(level_of(lo_e) - lvl - 1);
      double hi_c = it_hi->second * pow2(level_of(hi_e) - lvl - 1);
      memo[n] = lo_c + hi_c;
      stack.pop_back();
    } else {
      if (it_lo == memo.end()) stack.push_back(lo_e);
      if (it_hi == memo.end()) stack.push_back(hi_e);
    }
  }
  return memo[f] * pow2(level_of(f));
}

bool FrozenForest::eval(NodeIndex f,
                        const std::vector<bool>& assignment) const {
  NodeIndex e = f;
  while (!edge_is_terminal(e)) {
    const Node& nd = nodes_[edge_slot(e)];
    if (nd.var >= assignment.size()) {
      throw BddError("eval(): assignment shorter than function support");
    }
    e = (assignment[nd.var] ? nd.hi : nd.lo) ^ edge_complemented(e);
  }
  return e == kTrueNode;
}

std::vector<Var> FrozenForest::support(NodeIndex f) const {
  std::vector<bool> present(num_vars_, false);
  std::unordered_set<NodeIndex> visited;
  std::vector<NodeIndex> stack{edge_slot(f)};
  while (!stack.empty()) {
    NodeIndex s = stack.back();
    stack.pop_back();
    if (s == 0 || !visited.insert(s).second) continue;
    const Node& nd = nodes_[s];
    present[nd.var] = true;
    stack.push_back(edge_slot(nd.lo));
    stack.push_back(edge_slot(nd.hi));
  }
  std::vector<Var> result;
  for (Var v = 0; v < num_vars_; ++v) {
    if (present[v]) result.push_back(v);
  }
  return result;
}

std::size_t FrozenForest::dag_size(NodeIndex f) const {
  std::unordered_set<NodeIndex> visited;
  std::vector<NodeIndex> stack{edge_slot(f)};
  while (!stack.empty()) {
    NodeIndex s = stack.back();
    stack.pop_back();
    if (!visited.insert(s).second) continue;
    if (s == 0) continue;
    stack.push_back(edge_slot(nodes_[s].lo));
    stack.push_back(edge_slot(nodes_[s].hi));
  }
  return visited.size();
}

void FrozenForest::check_canonical() const {
  if (nodes_.empty() || nodes_[0].var != kTerminalVar) {
    throw BddError("check_canonical(): frozen slot 0 is not the terminal");
  }
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(nodes_.size() * 2);
  for (NodeIndex i = 1; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    const std::string at = " (frozen slot " + std::to_string(i) + ")";
    if (n.var == kTerminalVar) {
      throw BddError("check_canonical(): free-list slot in frozen pack" + at);
    }
    if (n.var >= num_vars_) {
      throw BddError("check_canonical(): variable id out of range" + at);
    }
    if (edge_complemented(n.lo)) {
      throw BddError("check_canonical(): stored else-edge is complemented" +
                     at);
    }
    if (n.lo == n.hi) {
      throw BddError("check_canonical(): unreduced node (lo == hi)" + at);
    }
    if (edge_slot(n.lo) >= nodes_.size() ||
        edge_slot(n.hi) >= nodes_.size()) {
      throw BddError("check_canonical(): dangling child slot" + at);
    }
    for (const NodeIndex child : {n.lo, n.hi}) {
      const Var cv = nodes_[edge_slot(child)].var;
      if (cv != kTerminalVar && level_of_var_[cv] <= level_of_var_[n.var]) {
        throw BddError(
            "check_canonical(): child level not below parent level" + at);
      }
    }
    std::uint64_t key = static_cast<std::uint64_t>(n.var);
    key = key * 0x100000001b3ull ^ n.lo;
    key = key * 0x100000001b3ull ^ n.hi;
    key *= 0x9e3779b97f4a7c15ull;
    if (!seen.insert(key).second) {
      throw BddError("check_canonical(): duplicate (var, lo, hi) triple" + at);
    }
  }
}

std::shared_ptr<const FrozenForest> Manager::freeze(
    const std::vector<NodeIndex>& roots,
    std::vector<NodeIndex>* remapped_roots) const {
  if (frozen_base_ != 0) {
    throw BddError("freeze(): manager already adopts a frozen forest");
  }

  // Polarity-blind reachability over slots: both edges into a slot freeze
  // the same node.
  std::vector<bool> reach(nodes_.size(), false);
  reach[0] = true;  // terminal always packs (to slot 0)
  std::vector<NodeIndex> stack;
  for (NodeIndex r : roots) {
    const NodeIndex s = edge_slot(r);
    if (s >= nodes_.size()) throw BddError("freeze(): root edge out of range");
    if (nodes_[s].var == kTerminalVar && s != 0) {
      throw BddError("freeze(): root edge into a free-list slot");
    }
    if (!reach[s]) {
      reach[s] = true;
      stack.push_back(s);
    }
  }
  while (!stack.empty()) {
    const NodeIndex s = stack.back();
    stack.pop_back();
    const Node& n = nodes_[s];
    if (n.var == kTerminalVar) continue;
    for (const NodeIndex child : {n.lo, n.hi}) {
      const NodeIndex cs = edge_slot(child);
      if (!reach[cs]) {
        reach[cs] = true;
        stack.push_back(cs);
      }
    }
  }

  // Pack in ascending slot order: the remap is monotone, the terminal
  // lands at 0, and the result is deterministic for a given pool state.
  auto forest = std::shared_ptr<FrozenForest>(new FrozenForest());
  forest->num_vars_ = num_vars_;
  forest->var_at_level_ = var_at_level_;
  forest->level_of_var_ = level_of_var_;

  std::vector<NodeIndex> remap(nodes_.size(), kInvalidNode);
  for (NodeIndex s = 0; s < nodes_.size(); ++s) {
    if (!reach[s]) continue;
    remap[s] = static_cast<NodeIndex>(forest->nodes_.size());
    forest->nodes_.push_back(nodes_[s]);
  }

  // Rewrite children into frozen numbering (complement bits ride along)
  // and thread the forest's own hash chains through Node::next.
  forest->nodes_[0] = Node{kTerminalVar, kTrueNode, kTrueNode, kInvalidNode};
  const std::size_t bucket_count =
      next_pow2(std::max<std::size_t>(16, forest->nodes_.size()));
  forest->buckets_.assign(bucket_count, kInvalidNode);
  forest->bucket_mask_ = bucket_count - 1;
  for (NodeIndex i = 1; i < forest->nodes_.size(); ++i) {
    Node& n = forest->nodes_[i];
    n.lo = make_edge(remap[edge_slot(n.lo)], edge_complemented(n.lo));
    n.hi = make_edge(remap[edge_slot(n.hi)], edge_complemented(n.hi));
    const std::size_t b = forest->bucket(n.var, n.lo, n.hi);
    n.next = forest->buckets_[b];
    forest->buckets_[b] = i;
  }

  if (remapped_roots) {
    remapped_roots->clear();
    remapped_roots->reserve(roots.size());
    for (NodeIndex r : roots) {
      remapped_roots->push_back(
          make_edge(remap[edge_slot(r)], edge_complemented(r)));
    }
  }
  return forest;
}

}  // namespace dp::bdd
