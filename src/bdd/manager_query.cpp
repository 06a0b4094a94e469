// Read-only queries: satisfying-assignment counting, support, DAG size,
// evaluation, and cube extraction. None of these allocate BDD nodes.
//
// Every traversal interprets complement parity along the path: an edge's
// sign bit is folded into the children it exposes (Manager::lo/hi do this),
// so a function and its negation share the same slots but enumerate
// complementary terminals.
#include <unordered_map>
#include <unordered_set>

#include "bdd/manager.hpp"

namespace dp::bdd {

namespace {

double pow2(std::uint64_t e) {
  double r = 1.0;
  while (e--) r *= 2.0;
  return r;
}

}  // namespace

double Manager::sat_count(NodeIndex f, std::size_t nvars) const {
  // c(e) = number of solutions over the variables strictly below e's level,
  // with the terminal sitting at level `nvars`. The memo is keyed on full
  // edges: the two polarities of a slot count complementary sets, so they
  // get independent entries.
  std::unordered_map<NodeIndex, double> memo;
  memo.reserve(256);

  // Levels follow the current (possibly sifted) order; counting over
  // levels is equivalent to counting over variables since the order is a
  // permutation of [0, nvars).
  auto level_of = [&](NodeIndex e) -> std::uint64_t {
    Var v = node(edge_slot(e)).var;
    return v == kTerminalVar ? nvars : level_of_var_[v];
  };

  // Iterative post-order to avoid deep recursion on path-shaped BDDs.
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
    const Node& nd = node(edge_slot(n));
    if (nd.var >= nvars) {
      throw BddError("sat_count(): function depends on a variable >= nvars");
    }
    const NodeIndex lo_e = lo(n);
    const NodeIndex hi_e = hi(n);
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

namespace {

/// density()'s memo: slot -> probability, open addressing with linear
/// probing over a power-of-two table that doubles at half load. A slot is
/// at most 2^31 - 1, so kInvalidNode marks an empty entry.
class DensityMemo {
 public:
  DensityMemo() : keys_(256, kInvalidNode), values_(256) {}

  const double* find(NodeIndex slot) const {
    for (std::size_t i = hash(slot);; i = (i + 1) & mask()) {
      if (keys_[i] == slot) return &values_[i];
      if (keys_[i] == kInvalidNode) return nullptr;
    }
  }

  void insert(NodeIndex slot, double p) {
    if (2 * (size_ + 1) > keys_.size()) grow();
    place(slot, p);
    ++size_;
  }

 private:
  std::size_t mask() const { return keys_.size() - 1; }
  std::size_t hash(NodeIndex slot) const {
    return (static_cast<std::size_t>(slot) * 0x9e3779b97f4a7c15ull >> 17) &
           mask();
  }
  void place(NodeIndex slot, double p) {
    std::size_t i = hash(slot);
    while (keys_[i] != kInvalidNode) i = (i + 1) & mask();
    keys_[i] = slot;
    values_[i] = p;
  }
  void grow() {
    std::vector<NodeIndex> keys(2 * keys_.size(), kInvalidNode);
    std::vector<double> values(keys.size());
    keys.swap(keys_);
    values.swap(values_);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] != kInvalidNode) place(keys[i], values[i]);
    }
  }

  std::vector<NodeIndex> keys_;
  std::vector<double> values_;
  std::size_t size_ = 0;
};

/// densities()'s memo: one entry per slot of the manager, -1 until known.
class DenseMemo {
 public:
  explicit DenseMemo(std::size_t slots) : values_(slots, -1.0) {}

  const double* find(NodeIndex slot) const {
    return values_[slot] >= 0.0 ? &values_[slot] : nullptr;
  }
  void insert(NodeIndex slot, double p) { values_[slot] = p; }

 private:
  std::vector<double> values_;
};

/// The probability recursion p = (p_lo + p_hi) / 2 over a uniform input,
/// with p(true) = 1 and a complement edge giving 1 - p. Every value stays
/// in [0, 1], so unlike sat_count / 2^nvars it cannot overflow, and a
/// variable the BDD skips leaves p unchanged, so it needs no levels.
/// While nvars <= 53 every intermediate is a dyadic rational the double
/// holds exactly, matching the count-based quotient bit for bit. `memo`
/// is keyed on slots (regular edges) and must know the terminal.
template <typename Memo>
double density_of(const Manager& m, NodeIndex f, std::size_t nvars,
                  Memo& memo, std::vector<NodeIndex>& stack) {
  auto polarity = [](NodeIndex e, double p) {
    return edge_complemented(e) ? 1.0 - p : p;
  };
  // Iterative post-order to avoid deep recursion on path-shaped BDDs.
  stack.push_back(edge_slot(f));
  while (!stack.empty()) {
    const NodeIndex s = stack.back();
    if (memo.find(s)) {
      stack.pop_back();
      continue;
    }
    const Node& nd = m.node(s);
    if (nd.var >= nvars) {
      throw BddError("density(): function depends on a variable >= nvars");
    }
    const double* p_lo = memo.find(edge_slot(nd.lo));
    const double* p_hi = memo.find(edge_slot(nd.hi));
    if (p_lo && p_hi) {
      const double p =
          (polarity(nd.lo, *p_lo) + polarity(nd.hi, *p_hi)) / 2.0;
      memo.insert(s, p);
      stack.pop_back();
    } else {
      if (!p_lo) stack.push_back(edge_slot(nd.lo));
      if (!p_hi) stack.push_back(edge_slot(nd.hi));
    }
  }
  return polarity(f, *memo.find(edge_slot(f)));
}

}  // namespace

double Manager::density(NodeIndex f, std::size_t nvars) const {
  DensityMemo memo;
  memo.insert(edge_slot(kTrueNode), 1.0);
  std::vector<NodeIndex> stack;
  return density_of(*this, f, nvars, memo, stack);
}

std::vector<double> Manager::densities(const std::vector<NodeIndex>& fs,
                                       std::size_t nvars) const {
  // One dense memo over every slot, shared by all roots, so shared
  // subgraphs are walked once.
  DenseMemo memo(pool_size());
  memo.insert(edge_slot(kTrueNode), 1.0);
  std::vector<NodeIndex> stack;
  std::vector<double> out;
  out.reserve(fs.size());
  for (const NodeIndex f : fs) {
    out.push_back(density_of(*this, f, nvars, memo, stack));
  }
  return out;
}

std::vector<Var> Manager::support(NodeIndex f) const {
  // Polarity cannot change the support; walk slots.
  std::vector<bool> present(num_vars_, false);
  std::unordered_set<NodeIndex> visited;
  std::vector<NodeIndex> stack{edge_slot(f)};
  while (!stack.empty()) {
    NodeIndex s = stack.back();
    stack.pop_back();
    if (s == 0 || !visited.insert(s).second) continue;
    const Node& nd = node(s);
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

std::size_t Manager::dag_size(NodeIndex f) const {
  // Shared-structure size: distinct pool slots (terminal included), i.e.
  // what the DAG costs in memory -- both polarities of a child count once.
  std::unordered_set<NodeIndex> visited;
  std::vector<NodeIndex> stack{edge_slot(f)};
  while (!stack.empty()) {
    NodeIndex s = stack.back();
    stack.pop_back();
    if (!visited.insert(s).second) continue;
    if (s == 0) continue;
    stack.push_back(edge_slot(node(s).lo));
    stack.push_back(edge_slot(node(s).hi));
  }
  return visited.size();
}

bool Manager::eval(NodeIndex f, const std::vector<bool>& assignment) const {
  NodeIndex e = f;
  while (!edge_is_terminal(e)) {
    const Node& nd = node(edge_slot(e));
    if (nd.var >= assignment.size()) {
      throw BddError("eval(): assignment shorter than function support");
    }
    e = (assignment[nd.var] ? nd.hi : nd.lo) ^ edge_complemented(e);
  }
  return e == kTrueNode;
}

std::vector<signed char> Manager::sat_one(NodeIndex f) const {
  if (f == kFalseNode) return {};
  std::vector<signed char> cube(num_vars_, -1);
  NodeIndex e = f;
  while (!edge_is_terminal(e)) {
    const Node& nd = node(edge_slot(e));
    // In a canonical complement-edge BDD every edge other than the FALSE
    // constant is satisfiable (lo != hi bars both cofactors from being
    // FALSE at once), so any non-false child works.
    const NodeIndex hi_e = nd.hi ^ edge_complemented(e);
    if (hi_e != kFalseNode) {
      cube[nd.var] = 1;
      e = hi_e;
    } else {
      cube[nd.var] = 0;
      e = nd.lo ^ edge_complemented(e);
    }
  }
  return cube;
}

void Manager::export_metrics(obs::MetricsRegistry& registry,
                             const std::string& prefix) const {
  auto g = [&](const char* name, double v) {
    registry.gauge(prefix + "." + name).set(v);
  };
  g("live_nodes", static_cast<double>(live_nodes_));
  g("pool_size", static_cast<double>(pool_size()));
  g("frozen_nodes", static_cast<double>(frozen_base_));
  g("peak_live_nodes", static_cast<double>(stats_.peak_live_nodes));
  g("nodes_created", static_cast<double>(stats_.nodes_created));
  g("unique_table_buckets", static_cast<double>(unique_.size()));
  g("unique_table_load",
    unique_.empty() ? 0.0
                    : static_cast<double>(live_nodes_) /
                          static_cast<double>(unique_.size()));
  g("unique_lookups", static_cast<double>(stats_.unique_lookups));
  g("apply_calls", static_cast<double>(stats_.apply_calls));
  g("cache_hits", static_cast<double>(stats_.cache_hits));
  g("intersect_calls", static_cast<double>(stats_.intersect_calls));
  g("cache_hit_rate", stats_.cache_hit_rate());
  g("cache_slots", static_cast<double>(cache_.size()));
  g("negations_constant_time",
    static_cast<double>(stats_.negations_constant_time));
  g("cache_canonical_swaps",
    static_cast<double>(stats_.cache_canonical_swaps));
  g("gc_runs", static_cast<double>(stats_.gc_runs));
  g("gc_reclaimed", static_cast<double>(stats_.gc_reclaimed));
  g("ref_underflows", static_cast<double>(stats_.ref_underflows));
}

}  // namespace dp::bdd
