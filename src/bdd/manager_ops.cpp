// Boolean operations: apply (AND/OR/XOR), O(1) negation, ITE, restriction,
// existential quantification, and composition.
//
// Complement edges concentrate all binary work into two recursions:
//
//   * and_rec -- AND over full edges. OR folds into it by De Morgan
//     (a|b = ¬(¬a & ¬b)), so every OR the DP engine issues reuses the AND
//     computed table instead of keying a second operation.
//   * xor_rec -- XOR with operand complements stripped up front
//     ((¬a)^b = ¬(a^b)): the cache is keyed on regular edges only and the
//     result's polarity is recovered with one bit flip, collapsing the
//     four polarity variants of every XOR pair into a single entry.
//
// Negation itself never recurses and never touches the cache. The
// emptiness test `intersects` walks the AND recursion without building
// its result, so a caller that only needs "is a & b zero?" never pays for
// the nodes.
#include <utility>

#include "bdd/bdd.hpp"
#include "bdd/manager.hpp"

namespace dp::bdd {

NodeIndex Manager::apply(Op op, NodeIndex a, NodeIndex b) {
  maybe_gc();
  return apply_rec(op, a, b);
}

NodeIndex Manager::apply_rec(Op op, NodeIndex a, NodeIndex b) {
  switch (op) {
    case Op::And:
      return and_rec(a, b);
    case Op::Or:
      return edge_negate(and_rec(edge_negate(a), edge_negate(b)));
    case Op::Xor:
      return xor_rec(a, b);
    default:
      throw BddError("apply(): not a binary Boolean op");
  }
}

NodeIndex Manager::and_rec(NodeIndex a, NodeIndex b) {
  ++stats_.apply_calls;

  // Terminal and identity rules over full edges. `a == ¬b` is the rule
  // the recursive kernel could never see cheaply: with complement edges
  // it is one XOR against the sign bit.
  if (a == kFalseNode || b == kFalseNode) return kFalseNode;
  if (a == kTrueNode) return b;
  if (b == kTrueNode) return a;
  if (a == b) return a;
  if (a == edge_negate(b)) return kFalseNode;

  // AND is commutative; canonicalize the operand order so (f, g) and
  // (g, f) share one computed-table entry.
  if (a > b) {
    std::swap(a, b);
    ++stats_.cache_canonical_swaps;
  }

  NodeIndex cached = cache_.lookup(Op::And, a, b);
  if (cached != kInvalidNode) {
    ++stats_.cache_hits;
    return cached;
  }

  // The top variable is the one earlier in the (possibly sifted) order.
  const std::size_t la = level_of_node(a);
  const std::size_t lb = level_of_node(b);
  const Var v = la <= lb ? var_of(a) : var_of(b);

  const NodeIndex a0 = la <= lb ? lo(a) : a;
  const NodeIndex a1 = la <= lb ? hi(a) : a;
  const NodeIndex b0 = lb <= la ? lo(b) : b;
  const NodeIndex b1 = lb <= la ? hi(b) : b;

  const NodeIndex lo_res = and_rec(a0, b0);
  const NodeIndex hi_res = and_rec(a1, b1);
  const NodeIndex result = mk(v, lo_res, hi_res);

  cache_.insert(Op::And, a, b, result);
  return result;
}

bool Manager::intersects(NodeIndex a, NodeIndex b) {
  ++stats_.intersect_calls;
  // and_rec's terminal rules, read as "is the AND nonzero": only the
  // constant FALSE and a complementary pair are empty. A nonzero operand
  // against TRUE or against itself always meets it.
  if (a == kFalseNode || b == kFalseNode || a == edge_negate(b)) return false;
  if (a == kTrueNode || b == kTrueNode || a == b) return true;
  if (a > b) std::swap(a, b);

  const NodeIndex cached = cache_.lookup(Op::Intersects, a, b);
  if (cached != kInvalidNode) return cached == kTrueNode;

  const std::size_t la = level_of_node(a);
  const std::size_t lb = level_of_node(b);
  const bool meets =
      intersects(la <= lb ? lo(a) : a, lb <= la ? lo(b) : b) ||
      intersects(la <= lb ? hi(a) : a, lb <= la ? hi(b) : b);
  cache_.insert(Op::Intersects, a, b, meets ? kTrueNode : kFalseNode);
  return meets;
}

NodeIndex Manager::xor_rec(NodeIndex a, NodeIndex b) {
  ++stats_.apply_calls;

  // XOR commutes with complement on either operand: (¬a)^b = ¬(a^b).
  // Strip both sign bits, recurse on regular edges, and re-apply the
  // combined polarity to the result -- the cache only ever sees regular
  // operand pairs.
  const NodeIndex out_c = (a ^ b) & 1u;
  a = edge_regular(a);
  b = edge_regular(b);

  if (a == b) return kFalseNode ^ out_c;
  // The only regular terminal edge is TRUE; x ^ 1 = ¬x.
  if (a == kTrueNode) return edge_negate(b) ^ out_c;
  if (b == kTrueNode) return edge_negate(a) ^ out_c;

  if (a > b) {
    std::swap(a, b);
    ++stats_.cache_canonical_swaps;
  }

  NodeIndex cached = cache_.lookup(Op::Xor, a, b);
  if (cached != kInvalidNode) {
    ++stats_.cache_hits;
    return cached ^ out_c;
  }

  const std::size_t la = level_of_node(a);
  const std::size_t lb = level_of_node(b);
  const Var v = la <= lb ? var_of(a) : var_of(b);

  const NodeIndex a0 = la <= lb ? lo(a) : a;
  const NodeIndex a1 = la <= lb ? hi(a) : a;
  const NodeIndex b0 = lb <= la ? lo(b) : b;
  const NodeIndex b1 = lb <= la ? hi(b) : b;

  const NodeIndex lo_res = xor_rec(a0, b0);
  const NodeIndex hi_res = xor_rec(a1, b1);
  const NodeIndex result = mk(v, lo_res, hi_res);

  cache_.insert(Op::Xor, a, b, result);
  return result ^ out_c;
}

NodeIndex Manager::negate(NodeIndex f) {
  ++stats_.negations_constant_time;
  return edge_negate(f);
}

NodeIndex Manager::ite(NodeIndex f, NodeIndex g, NodeIndex h) {
  maybe_gc();
  if (f == kTrueNode) return g;
  if (f == kFalseNode) return h;
  if (g == h) return g;
  if (g == kTrueNode && h == kFalseNode) return f;
  if (g == kFalseNode && h == kTrueNode) return edge_negate(f);
  // Standard-triple normalization: a regular predicate, so ite(¬f, g, h)
  // and ite(f, h, g) resolve to the same recursion.
  if (edge_complemented(f)) {
    f = edge_negate(f);
    std::swap(g, h);
  }
  // (f & g) | (!f & h). Intermediates are pinned with handles so a GC
  // triggered between the applies cannot reclaim them.
  Bdd fg = make(and_rec(f, g));
  Bdd nfh = make(and_rec(edge_negate(f), h));
  return edge_negate(
      and_rec(edge_negate(fg.index()), edge_negate(nfh.index())));
}

NodeIndex Manager::restrict_var(NodeIndex f, Var v, bool value) {
  if (v >= num_vars_) throw BddError("restrict_var(): variable out of range");
  maybe_gc();
  return restrict_rec(f, v, value);
}

NodeIndex Manager::restrict_rec(NodeIndex f, Var v, bool value) {
  // Restriction commutes with complement, so recurse and cache on the
  // regular edge and re-apply the polarity on the way out: both polarities
  // of a function share every cache entry below.
  const NodeIndex c = edge_complemented(f);
  const NodeIndex fr = edge_regular(f);
  if (level_of_node(fr) > level_of_var_[v]) return f;  // v cannot occur below
  // Copy: recursive calls can reallocate the node pool.
  const Node n = node(edge_slot(fr));
  if (n.var == v) return (value ? n.hi : n.lo) ^ c;

  const NodeIndex key_b = static_cast<NodeIndex>(v * 2 + (value ? 1 : 0));
  NodeIndex cached = cache_.lookup(Op::Restrict, fr, key_b);
  if (cached != kInvalidNode) {
    ++stats_.cache_hits;
    return cached ^ c;
  }

  const NodeIndex lo_res = restrict_rec(n.lo, v, value);
  const NodeIndex hi_res = restrict_rec(n.hi, v, value);
  const NodeIndex result = mk(n.var, lo_res, hi_res);
  cache_.insert(Op::Restrict, fr, key_b, result);
  return result ^ c;
}

NodeIndex Manager::exists_var(NodeIndex f, Var v) {
  if (v >= num_vars_) throw BddError("exists_var(): variable out of range");
  maybe_gc();
  return exists_rec(f, v);
}

NodeIndex Manager::exists_rec(NodeIndex f, Var v) {
  // Quantification does NOT commute with complement (∃v.¬f ≠ ¬∃v.f), so
  // the cache key must carry the full edge including its polarity.
  if (level_of_node(f) > level_of_var_[v]) return f;
  const NodeIndex c = edge_complemented(f);
  // Copy: recursive calls can reallocate the node pool.
  const Node n = node(edge_slot(f));
  if (n.var == v) return apply_rec(Op::Or, n.lo ^ c, n.hi ^ c);

  NodeIndex cached = cache_.lookup(Op::Exists, f, static_cast<NodeIndex>(v));
  if (cached != kInvalidNode) {
    ++stats_.cache_hits;
    return cached;
  }

  const NodeIndex lo_res = exists_rec(n.lo ^ c, v);
  const NodeIndex hi_res = exists_rec(n.hi ^ c, v);
  const NodeIndex result = mk(n.var, lo_res, hi_res);
  cache_.insert(Op::Exists, f, static_cast<NodeIndex>(v), result);
  return result;
}

NodeIndex Manager::compose(NodeIndex f, Var v, NodeIndex g) {
  if (v >= num_vars_) throw BddError("compose(): variable out of range");
  maybe_gc();

  // Shannon expansion on v: f[v <- g] = (g & f|v=1) | (!g & f|v=0).
  // The cofactors never mention v, so plain apply calls finish the job.
  Bdd f1 = make(restrict_rec(f, v, true));
  Bdd f0 = make(restrict_rec(f, v, false));
  Bdd gh = make(g);
  Bdd t1 = make(and_rec(gh.index(), f1.index()));
  Bdd t0 = make(and_rec(edge_negate(g), f0.index()));
  return apply_rec(Op::Or, t1.index(), t0.index());
}

}  // namespace dp::bdd
