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
