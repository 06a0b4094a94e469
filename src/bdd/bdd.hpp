// RAII handle to a BDD node.
//
// A live Bdd pins its root (and thus the whole DAG under it) across garbage
// collections. Handles are cheap to copy (one refcount bump) and compare by
// canonical node identity, so `a == b` means functional equality.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "bdd/bdd_types.hpp"
#include "bdd/manager.hpp"

namespace dp::bdd {

class Bdd {
 public:
  Bdd() = default;

  Bdd(Manager& mgr, NodeIndex idx) : mgr_(&mgr), idx_(idx) {
    mgr_->inc_ref(idx_);
  }

  Bdd(const Bdd& other) : mgr_(other.mgr_), idx_(other.idx_) {
    if (mgr_) mgr_->inc_ref(idx_);
  }

  Bdd(Bdd&& other) noexcept : mgr_(other.mgr_), idx_(other.idx_) {
    other.mgr_ = nullptr;
    other.idx_ = kInvalidNode;
  }

  Bdd& operator=(const Bdd& other) {
    Bdd tmp(other);
    swap(tmp);
    return *this;
  }

  Bdd& operator=(Bdd&& other) noexcept {
    swap(other);
    return *this;
  }

  ~Bdd() {
    if (mgr_) mgr_->dec_ref(idx_);
  }

  void swap(Bdd& other) noexcept {
    std::swap(mgr_, other.mgr_);
    std::swap(idx_, other.idx_);
  }

  // ---- state -----------------------------------------------------------

  bool valid() const { return mgr_ != nullptr; }
  bool is_zero() const { return valid() && idx_ == kFalseNode; }
  bool is_one() const { return valid() && idx_ == kTrueNode; }
  bool is_constant() const { return valid() && edge_is_terminal(idx_); }
  NodeIndex index() const { return idx_; }
  Manager* manager() const { return mgr_; }

  /// Variable labelling the root node (kTerminalVar for constants).
  Var top_var() const { return check()->var_of(idx_); }

  // ---- Boolean algebra ---------------------------------------------------

  Bdd operator&(const Bdd& rhs) const {
    Manager* m = same(rhs);
    return Bdd(*m, m->apply(Op::And, idx_, rhs.idx_));
  }
  Bdd operator|(const Bdd& rhs) const {
    Manager* m = same(rhs);
    return Bdd(*m, m->apply(Op::Or, idx_, rhs.idx_));
  }
  Bdd operator^(const Bdd& rhs) const {
    Manager* m = same(rhs);
    return Bdd(*m, m->apply(Op::Xor, idx_, rhs.idx_));
  }
  Bdd operator!() const {
    Manager* m = check();
    return Bdd(*m, m->negate(idx_));
  }
  Bdd operator~() const { return !*this; }

  Bdd& operator&=(const Bdd& rhs) { return *this = *this & rhs; }
  Bdd& operator|=(const Bdd& rhs) { return *this = *this | rhs; }
  Bdd& operator^=(const Bdd& rhs) { return *this = *this ^ rhs; }

  /// if-then-else: (*this & g) | (!*this & h), computed in one pass.
  Bdd ite(const Bdd& g, const Bdd& h) const {
    Manager* m = same(g);
    if (h.mgr_ != m) throw BddError("mixing BDDs from different managers");
    return Bdd(*m, m->ite(idx_, g.idx_, h.idx_));
  }

  Bdd restrict_var(Var v, bool value) const {
    Manager* m = check();
    return Bdd(*m, m->restrict_var(idx_, v, value));
  }
  Bdd exists(Var v) const {
    Manager* m = check();
    return Bdd(*m, m->exists_var(idx_, v));
  }
  Bdd compose(Var v, const Bdd& g) const {
    Manager* m = same(g);
    return Bdd(*m, m->compose(idx_, v, g.idx_));
  }

  /// Implication as a predicate: (*this -> rhs) is a tautology?
  bool implies(const Bdd& rhs) const { return (*this & !rhs).is_zero(); }

  // ---- queries ------------------------------------------------------------

  double sat_count(std::size_t nvars) const {
    return check()->sat_count(idx_, nvars);
  }
  /// Fraction of the 2^nvars input space that satisfies the function.
  double density(std::size_t nvars) const {
    return check()->density(idx_, nvars);
  }
  std::vector<Var> support() const { return check()->support(idx_); }
  std::size_t dag_size() const { return check()->dag_size(idx_); }
  bool eval(const std::vector<bool>& assignment) const {
    return check()->eval(idx_, assignment);
  }
  std::vector<signed char> sat_one() const { return check()->sat_one(idx_); }

  friend bool operator==(const Bdd& a, const Bdd& b) {
    return a.mgr_ == b.mgr_ && a.idx_ == b.idx_;
  }
  friend bool operator!=(const Bdd& a, const Bdd& b) { return !(a == b); }

 private:
  Manager* check() const {
    if (!mgr_) throw BddError("operation on empty Bdd handle");
    return mgr_;
  }
  Manager* same(const Bdd& other) const {
    check();
    if (other.mgr_ != mgr_) throw BddError("mixing BDDs from different managers");
    return mgr_;
  }

  Manager* mgr_ = nullptr;
  NodeIndex idx_ = kInvalidNode;
};

inline Bdd Manager::zero() { return Bdd(*this, kFalseNode); }
inline Bdd Manager::one() { return Bdd(*this, kTrueNode); }
inline Bdd Manager::make(NodeIndex idx) { return Bdd(*this, idx); }

}  // namespace dp::bdd
