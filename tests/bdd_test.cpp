// Unit tests for the OBDD package: canonicity, Boolean algebra laws,
// counting, quantification, memory management.
#include <gtest/gtest.h>

#include <bit>
#include <random>
#include <sstream>
#include <vector>

#include "bdd/bdd.hpp"
#include "bdd/dot_export.hpp"
#include "bdd/frozen_forest.hpp"

namespace dp::bdd {
namespace {

class BddTest : public ::testing::Test {
 protected:
  Manager mgr{8};
  Bdd x0 = mgr.var(0);
  Bdd x1 = mgr.var(1);
  Bdd x2 = mgr.var(2);
};

TEST_F(BddTest, TerminalsAreDistinctConstants) {
  EXPECT_TRUE(mgr.zero().is_zero());
  EXPECT_TRUE(mgr.one().is_one());
  EXPECT_NE(mgr.zero(), mgr.one());
  EXPECT_TRUE(mgr.zero().is_constant());
}

TEST_F(BddTest, VariablesAreCanonical) {
  EXPECT_EQ(x0, mgr.var(0));
  EXPECT_NE(x0, x1);
  EXPECT_EQ(mgr.nvar(0), !x0);
}

TEST_F(BddTest, VarOutOfRangeThrows) {
  EXPECT_THROW(mgr.var(8), BddError);
  EXPECT_THROW(mgr.nvar(100), BddError);
}

TEST_F(BddTest, BasicAlgebra) {
  EXPECT_EQ(x0 & mgr.one(), x0);
  EXPECT_EQ(x0 & mgr.zero(), mgr.zero());
  EXPECT_EQ(x0 | mgr.zero(), x0);
  EXPECT_EQ(x0 | mgr.one(), mgr.one());
  EXPECT_EQ(x0 ^ x0, mgr.zero());
  EXPECT_EQ(x0 ^ mgr.one(), !x0);
  EXPECT_EQ(x0 & x0, x0);
  EXPECT_EQ(x0 | x0, x0);
}

TEST_F(BddTest, CommutativityAndAssociativity) {
  EXPECT_EQ(x0 & x1, x1 & x0);
  EXPECT_EQ(x0 | x1, x1 | x0);
  EXPECT_EQ(x0 ^ x1, x1 ^ x0);
  EXPECT_EQ((x0 & x1) & x2, x0 & (x1 & x2));
  EXPECT_EQ((x0 | x1) | x2, x0 | (x1 | x2));
  EXPECT_EQ((x0 ^ x1) ^ x2, x0 ^ (x1 ^ x2));
}

TEST_F(BddTest, DeMorgan) {
  EXPECT_EQ(!(x0 & x1), (!x0) | (!x1));
  EXPECT_EQ(!(x0 | x1), (!x0) & (!x1));
}

TEST_F(BddTest, DoubleNegation) { EXPECT_EQ(!!x0, x0); }

TEST_F(BddTest, Distribution) {
  EXPECT_EQ(x0 & (x1 | x2), (x0 & x1) | (x0 & x2));
  EXPECT_EQ(x0 | (x1 & x2), (x0 | x1) & (x0 | x2));
}

TEST_F(BddTest, IteMatchesDefinition) {
  Bdd f = x0.ite(x1, x2);
  EXPECT_EQ(f, (x0 & x1) | ((!x0) & x2));
  EXPECT_EQ(mgr.one().ite(x1, x2), x1);
  EXPECT_EQ(mgr.zero().ite(x1, x2), x2);
  EXPECT_EQ(x0.ite(x1, x1), x1);
}

TEST_F(BddTest, XorViaIte) { EXPECT_EQ(x0 ^ x1, x0.ite(!x1, x1)); }

TEST_F(BddTest, SatCountSimple) {
  EXPECT_DOUBLE_EQ(mgr.zero().sat_count(3), 0.0);
  EXPECT_DOUBLE_EQ(mgr.one().sat_count(3), 8.0);
  EXPECT_DOUBLE_EQ(x0.sat_count(3), 4.0);
  EXPECT_DOUBLE_EQ((x0 & x1).sat_count(3), 2.0);
  EXPECT_DOUBLE_EQ((x0 | x1).sat_count(3), 6.0);
  EXPECT_DOUBLE_EQ((x0 ^ x1).sat_count(2), 2.0);
}

TEST_F(BddTest, SatCountRejectsTooFewVars) {
  EXPECT_THROW(x2.sat_count(1), BddError);
}

TEST_F(BddTest, DensityIsNormalizedSatCount) {
  EXPECT_DOUBLE_EQ((x0 & x1).density(8), 0.25);
  EXPECT_DOUBLE_EQ(mgr.one().density(8), 1.0);
  EXPECT_THROW(x2.density(1), BddError);
}

TEST_F(BddTest, SharedDensityMemoMatchesOneRootAtATime) {
  // Enough distinct nodes to grow the memo table past its first size, with
  // shared subgraphs and both polarities of the same slots.
  std::vector<Bdd> x;
  for (Var v = 0; v < 8; ++v) x.push_back(mgr.var(v));
  std::vector<Bdd> fs;
  Bdd acc = x[0];
  for (int round = 0; round < 40; ++round) {
    acc = (acc ^ x[1]) | ((x[2] & !acc) ^ x[3]);
    acc = round % 2 ? (acc & x[4]) | x[5] : acc ^ (x[6] & x[7]);
    fs.push_back(acc);
    fs.push_back(!acc);
    fs.push_back(acc ^ x[0] ^ x[7]);
  }
  fs.push_back(mgr.zero());
  fs.push_back(mgr.one());
  std::vector<NodeIndex> roots;
  for (const Bdd& f : fs) roots.push_back(f.index());
  const std::vector<double> shared = mgr.densities(roots, 8);
  ASSERT_EQ(shared.size(), fs.size());
  for (std::size_t i = 0; i < fs.size(); ++i) {
    EXPECT_EQ(shared[i], fs[i].density(8)) << i;
    EXPECT_EQ(shared[i], fs[i].sat_count(8) / 256.0) << i;
  }
  EXPECT_THROW((void)mgr.densities({x0.index(), x2.index()}, 1), BddError);
}

TEST_F(BddTest, SupportListsDependentVariablesOnly) {
  Bdd f = (x0 & x2) | (!x0 & x2);  // == x2
  EXPECT_EQ(f, x2);
  EXPECT_EQ(f.support(), (std::vector<Var>{2}));
  Bdd g = x0 ^ x1 ^ x2;
  EXPECT_EQ(g.support(), (std::vector<Var>{0, 1, 2}));
  EXPECT_TRUE(mgr.one().support().empty());
}

TEST_F(BddTest, EvalWalksCofactors) {
  Bdd f = (x0 & x1) | x2;
  EXPECT_TRUE(f.eval({true, true, false, false, false, false, false, false}));
  EXPECT_FALSE(f.eval({true, false, false, false, false, false, false, false}));
  EXPECT_TRUE(f.eval({false, false, true, false, false, false, false, false}));
}

TEST_F(BddTest, SatOneReturnsSatisfyingCube) {
  Bdd f = (x0 & !x1) | (x1 & x2);
  auto cube = f.sat_one();
  ASSERT_EQ(cube.size(), mgr.num_vars());
  std::vector<bool> point(mgr.num_vars(), false);
  for (std::size_t i = 0; i < cube.size(); ++i) point[i] = cube[i] == 1;
  EXPECT_TRUE(f.eval(point));
  EXPECT_TRUE(mgr.zero().sat_one().empty());
  // All-don't-care cube for the tautology.
  for (signed char c : mgr.one().sat_one()) EXPECT_EQ(c, -1);
}

TEST_F(BddTest, RestrictIsCofactor) {
  Bdd f = (x0 & x1) | (!x0 & x2);
  EXPECT_EQ(f.restrict_var(0, true), x1);
  EXPECT_EQ(f.restrict_var(0, false), x2);
  // Restricting an absent variable is the identity.
  EXPECT_EQ(f.restrict_var(5, true), f);
}

TEST_F(BddTest, ExistsQuantifies) {
  Bdd f = x0 & x1;
  EXPECT_EQ(f.exists(0), x1);
  EXPECT_EQ(f.exists(5), f);
  Bdd g = x0 ^ x1;
  EXPECT_EQ(g.exists(0), mgr.one());
}

TEST_F(BddTest, ComposeSubstitutes) {
  Bdd f = x0 & x1;
  EXPECT_EQ(f.compose(1, x2), x0 & x2);
  EXPECT_EQ(f.compose(1, !x0), mgr.zero());
  Bdd g = x0 ^ x1;
  EXPECT_EQ(g.compose(0, x1), mgr.zero());
  // Substituting into an absent variable is the identity.
  EXPECT_EQ(f.compose(5, x2), f);
}

TEST_F(BddTest, ImpliesPredicate) {
  EXPECT_TRUE((x0 & x1).implies(x0));
  EXPECT_FALSE(x0.implies(x0 & x1));
  EXPECT_TRUE(mgr.zero().implies(x0));
}

TEST_F(BddTest, DagSizeCountsNodes) {
  EXPECT_EQ(mgr.zero().dag_size(), 1u);  // just the shared terminal
  EXPECT_EQ(x0.dag_size(), 2u);          // node + terminal
  // Parity needs ONE node per level under complement edges (the classic
  // 2x saving: even and odd parity share slots, differing only in edge
  // polarity) plus the terminal.
  Bdd f = x0 ^ x1 ^ x2;
  EXPECT_EQ(f.dag_size(), 3 + 1u);
}

TEST_F(BddTest, NegationSharesSlotsAndIsConstantTime) {
  // A function and its negation are the same DAG, opposite root polarity.
  Bdd f = (x0 & x1) | x2;
  Bdd g = !f;
  EXPECT_EQ(f.dag_size(), g.dag_size());
  EXPECT_EQ(f.index() ^ 1u, g.index());
  const std::uint64_t applies_before = mgr.stats().apply_calls;
  const std::uint64_t negs_before = mgr.stats().negations_constant_time;
  Bdd h = !g;
  EXPECT_EQ(h, f);
  // negate() must not enter the recursive apply path at all.
  EXPECT_EQ(mgr.stats().apply_calls, applies_before);
  EXPECT_EQ(mgr.stats().negations_constant_time, negs_before + 1);
}

TEST_F(BddTest, CommutativeCacheCanonicalization) {
  // f&g then g&f: the second call must be answered from the computed
  // cache via the a<=b operand swap, not recomputed.
  Bdd f = (x0 ^ x1) | x2;
  Bdd g = (x1 & x2) ^ x0;
  mgr.reset_stats();
  Bdd fg = f & g;
  const std::uint64_t hits_after_first = mgr.stats().cache_hits;
  const std::uint64_t applies_after_first = mgr.stats().apply_calls;
  Bdd gf = g & f;
  EXPECT_EQ(fg, gf);
  // One top-level apply call, answered by one cache hit (plus the swap
  // counter recording the canonicalization).
  EXPECT_EQ(mgr.stats().apply_calls, applies_after_first + 1);
  EXPECT_EQ(mgr.stats().cache_hits, hits_after_first + 1);
  EXPECT_GT(mgr.stats().cache_canonical_swaps, 0u);
  EXPECT_GT(mgr.stats().cache_hit_rate(), 0.0);
}

TEST_F(BddTest, MixingManagersThrows) {
  Manager other(4);
  Bdd y = other.var(0);
  EXPECT_THROW((void)(x0 & y), BddError);
  EXPECT_THROW((void)x0.ite(y, x1), BddError);
}

TEST_F(BddTest, EmptyHandleThrows) {
  Bdd empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_THROW((void)(!empty), BddError);
  EXPECT_THROW((void)empty.support(), BddError);
}

TEST_F(BddTest, DotExportMentionsAllNodes) {
  std::ostringstream os;
  write_dot(os, x0 & x1);
  const std::string dot = os.str();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("x0"), std::string::npos);
  EXPECT_NE(dot.find("x1"), std::string::npos);
}

TEST(BddMemoryTest, GcReclaimsUnreferencedNodes) {
  Manager mgr(16);
  {
    Bdd acc = mgr.one();
    for (Var v = 0; v < 16; ++v) acc = acc & mgr.var(v);
    EXPECT_GT(mgr.live_nodes(), 16u);
  }
  // All handles dropped: everything but the terminal is garbage.
  const std::size_t reclaimed = mgr.gc();
  EXPECT_GT(reclaimed, 0u);
  EXPECT_EQ(mgr.live_nodes(), 1u);
}

TEST(BddMemoryTest, GcKeepsReferencedNodes) {
  Manager mgr(8);
  Bdd keep = (mgr.var(0) & mgr.var(1)) | mgr.var(2);
  const std::size_t before_size = keep.dag_size();
  for (int i = 0; i < 100; ++i) {
    (void)(mgr.var(3) ^ mgr.var(4));  // temporaries
  }
  mgr.gc();
  EXPECT_EQ(keep.dag_size(), before_size);
  // The function still works after collection.
  EXPECT_TRUE(keep.eval({false, false, true, false, false, false, false,
                         false}));
}

TEST(BddMemoryTest, NodesSurviveGcAndStayCanonical) {
  Manager mgr(8);
  Bdd f = (mgr.var(0) & mgr.var(1)) ^ mgr.var(2);
  mgr.gc();
  Bdd g = (mgr.var(0) & mgr.var(1)) ^ mgr.var(2);
  EXPECT_EQ(f, g);  // unique table rebuilt consistently
}

TEST(BddMemoryTest, NodeBudgetThrows) {
  Manager mgr(24, /*max_nodes=*/64);
  Bdd acc = mgr.zero();
  EXPECT_THROW(
      {
        // Build a function whose BDD must exceed 64 nodes; keep handles
        // alive so GC cannot save us.
        std::vector<Bdd> keep;
        for (Var v = 0; v + 1 < 24; v += 2) {
          acc = acc | (mgr.var(v) & mgr.var(v + 1));
          keep.push_back(acc);
        }
      },
      OutOfNodes);
}

TEST(BddMemoryTest, StatsAccumulate) {
  Manager mgr(4);
  mgr.reset_stats();
  Bdd f = mgr.var(0) & mgr.var(1);
  (void)f;
  EXPECT_GT(mgr.stats().apply_calls, 0u);
  EXPECT_GT(mgr.stats().nodes_created, 0u);
}

// ---- randomized truth-table cross-checks ---------------------------------

/// Evaluates a random expression tree both as a BDD and on every point of
/// the truth table; satcount and eval must agree exactly.
class BddRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BddRandomTest, MatchesTruthTableSemantics) {
  constexpr std::size_t kVars = 6;
  std::mt19937_64 rng(GetParam());
  Manager mgr(kVars);

  // Truth table representation: one 64-bit word, bit i = f(point i).
  struct Pair {
    Bdd bdd;
    std::uint64_t tt;
  };
  std::vector<Pair> pool;
  for (Var v = 0; v < kVars; ++v) {
    std::uint64_t tt = 0;
    for (std::uint64_t p = 0; p < 64; ++p) {
      if ((p >> v) & 1) tt |= 1ull << p;
    }
    pool.push_back({mgr.var(v), tt});
  }

  std::uniform_int_distribution<int> op_dist(0, 3);
  for (int step = 0; step < 200; ++step) {
    std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
    const Pair& a = pool[pick(rng)];
    const Pair& b = pool[pick(rng)];
    Pair out;
    switch (op_dist(rng)) {
      case 0: out = {a.bdd & b.bdd, a.tt & b.tt}; break;
      case 1: out = {a.bdd | b.bdd, a.tt | b.tt}; break;
      case 2: out = {a.bdd ^ b.bdd, a.tt ^ b.tt}; break;
      default: out = {!a.bdd, ~a.tt}; break;
    }
    // Exact satisfying-assignment count.
    ASSERT_DOUBLE_EQ(out.bdd.sat_count(kVars),
                     static_cast<double>(std::popcount(out.tt)));
    // Pointwise agreement on every assignment.
    for (std::uint64_t p = 0; p < 64; ++p) {
      std::vector<bool> point(kVars);
      for (Var v = 0; v < kVars; ++v) point[v] = (p >> v) & 1;
      ASSERT_EQ(out.bdd.eval(point), static_cast<bool>((out.tt >> p) & 1))
          << "seed " << GetParam() << " step " << step << " point " << p;
    }
    pool.push_back(std::move(out));
  }
  // The whole pool must satisfy the canonical complement-edge invariants
  // (regular else-edges, reduction, level order, triple uniqueness).
  EXPECT_NO_THROW(mgr.check_canonical());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddRandomTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

/// Canonicity: semantically equal expressions built differently must be the
/// same node.
TEST_P(BddRandomTest, CanonicityAcrossConstructions) {
  constexpr std::size_t kVars = 5;
  std::mt19937_64 rng(GetParam() * 7919);
  Manager mgr(kVars);
  std::uniform_int_distribution<int> coin(0, 1);

  for (int round = 0; round < 50; ++round) {
    Bdd a = mgr.var(rng() % kVars);
    Bdd b = mgr.var(rng() % kVars);
    Bdd c = mgr.var(rng() % kVars);
    // (a&b)|(a&c) vs a&(b|c); also via ITE.
    Bdd lhs = (a & b) | (a & c);
    Bdd rhs = a & (b | c);
    EXPECT_EQ(lhs, rhs);
    Bdd ite_form = a.ite(b | c, mgr.zero());
    EXPECT_EQ(ite_form, rhs);
    if (coin(rng)) mgr.gc();
  }
}

INSTANTIATE_TEST_SUITE_P(MoreSeeds, BddRandomTest,
                         ::testing::Values(101, 202, 303));

TEST(ComputedCacheTest, GrowsOnInsertPressureAndLiveNodesUpToTheCap) {
  ComputedCache cache;
  EXPECT_EQ(cache.size(), ComputedCache::kMinSlots);
  cache.insert(Op::And, 2, 4, 6);
  EXPECT_EQ(cache.lookup(Op::And, 2, 4), 6u);
  EXPECT_EQ(cache.lookup(Op::Xor, 2, 4), kInvalidNode);  // op is keyed
  cache.clear();
  EXPECT_EQ(cache.lookup(Op::And, 2, 4), kInvalidNode);
  EXPECT_EQ(cache.size(), ComputedCache::kMinSlots);  // no demand, no growth

  // One table's worth of inserts since the last resize doubles it.
  for (NodeIndex i = 0; i <= ComputedCache::kMinSlots; ++i) {
    cache.insert(Op::And, i, i + 2, i);
  }
  EXPECT_EQ(cache.size(), 2 * ComputedCache::kMinSlots);

  // A collection's live count is demand too; the table never shrinks and
  // never passes the cap.
  cache.clear(ComputedCache::kMinSlots * 5);
  EXPECT_EQ(cache.size(), 8 * ComputedCache::kMinSlots);
  cache.clear(10);
  EXPECT_EQ(cache.size(), 8 * ComputedCache::kMinSlots);
  cache.clear(ComputedCache::kMaxSlots * 4);
  EXPECT_EQ(cache.size(), ComputedCache::kMaxSlots);
  cache.insert(Op::Xor, 8, 10, 12);
  EXPECT_EQ(cache.lookup(Op::Xor, 8, 10), 12u);
}

/// Random functions of kVars variables, built by one fixed sequence of
/// operations so two managers build the same functions.
std::vector<Bdd> build_random_functions(Manager& mgr, std::uint64_t seed,
                                        std::size_t count, bool collect) {
  constexpr std::size_t kVars = 24;
  std::mt19937_64 rng(seed);
  std::vector<Bdd> pool;
  for (Var v = 0; v < kVars; ++v) pool.push_back(mgr.var(v));
  std::vector<Bdd> out;
  for (std::size_t i = 0; i < count; ++i) {
    const Bdd& a = pool[rng() % pool.size()];
    const Bdd& b = pool[rng() % pool.size()];
    Bdd f;
    switch (rng() % 5) {
      case 0: f = a & !b; break;
      case 1: f = a | b; break;
      case 2: f = a ^ b; break;
      case 3: f = a.exists(static_cast<Var>(rng() % kVars)); break;
      default: f = a.ite(b, pool[rng() % pool.size()]); break;
    }
    // Bounded pool of bounded functions: old or oversized functions drop
    // out and become garbage.
    if (mgr.dag_size(f.index()) > 200) continue;
    if (pool.size() < 200) {
      pool.push_back(f);
    } else {
      pool[kVars + rng() % (pool.size() - kVars)] = f;
    }
    if (i % 50 == 0) out.push_back(f);
    if (i % 400 == 399 && collect) mgr.gc();
  }
  return out;
}

TEST(ComputedCacheTest, GrowingCacheGivesTheSameFunctionsAsAFullSizeOne) {
  // `grown` starts at the minimum table and grows (and is collected)
  // while it builds; `full` is driven to the maximum table first by
  // unrelated work. The cache is only an accelerator, so every function
  // built afterwards must be the same in both: equal satcounts, equal
  // canonical DAG sizes, equal values on random assignments.
  Manager full(24);
  for (std::uint64_t seed = 1; full.cache_slots() < ComputedCache::kMaxSlots;
       ++seed) {
    ASSERT_LT(seed, 400u) << "warm-up never filled the table";
    build_random_functions(full, 1000 + seed, 2000, true);
  }
  full.gc();

  Manager grown(24);
  ASSERT_EQ(grown.cache_slots(), ComputedCache::kMinSlots);
  const std::vector<Bdd> a = build_random_functions(grown, 7, 3000, true);
  const std::vector<Bdd> b = build_random_functions(full, 7, 3000, true);
  EXPECT_GT(grown.cache_slots(), ComputedCache::kMinSlots);
  EXPECT_GT(grown.stats().gc_runs, 0u);
  EXPECT_EQ(full.cache_slots(), ComputedCache::kMaxSlots);

  ASSERT_EQ(a.size(), b.size());
  std::mt19937_64 rng(99);
  std::vector<bool> assignment(24);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].sat_count(24), b[i].sat_count(24)) << "function " << i;
    EXPECT_EQ(grown.dag_size(a[i].index()), full.dag_size(b[i].index()))
        << "function " << i;
    for (int k = 0; k < 16; ++k) {
      for (std::size_t v = 0; v < assignment.size(); ++v) {
        assignment[v] = rng() & 1;
      }
      EXPECT_EQ(grown.eval(a[i].index(), assignment),
                full.eval(b[i].index(), assignment))
          << "function " << i;
    }
  }
  grown.check_canonical();
}

TEST(BddCanonicityTest, DuplicateTripleCheckIsExact) {
  // Triples that differ in one field only are distinct however a digest
  // of them might collide; an equal pair is reported by its later slot.
  std::vector<SlotTriple> distinct = {
      {0, 2, 4, 1}, {0, 2, 5, 2}, {0, 3, 4, 3}, {1, 2, 4, 4}};
  EXPECT_EQ(find_duplicate_triple(distinct), kInvalidNode);
  std::vector<SlotTriple> repeated = {
      {3, 6, 9, 7}, {1, 2, 4, 8}, {3, 6, 9, 5}};
  EXPECT_EQ(find_duplicate_triple(repeated), 7u);
  std::vector<SlotTriple> empty;
  EXPECT_EQ(find_duplicate_triple(empty), kInvalidNode);
}

TEST_F(BddTest, IntersectsAgreesWithConjunctionOnFrozenAndPrivateOperands) {
  // Half of the operands come from a frozen forest, half are built
  // privately in the manager adopting it; every pair is tested in all
  // four polarities, so complement edges meet both node spaces.
  Manager source(24);
  const std::vector<Bdd> built = build_random_functions(source, 11, 3000, false);
  std::vector<NodeIndex> frozen_roots;
  for (const Bdd& f : built) frozen_roots.push_back(f.index());
  std::vector<NodeIndex> remapped;
  const auto forest = source.freeze(frozen_roots, &remapped);

  Manager adopter(forest);
  std::vector<Bdd> operands;
  for (const NodeIndex e : remapped) operands.push_back(adopter.make(e));
  for (const Bdd& f : build_random_functions(adopter, 12, 3000, true)) {
    operands.push_back(f);
  }
  operands.push_back(adopter.zero());
  operands.push_back(adopter.one());
  ASSERT_GT(operands.size(), 80u);

  std::size_t meeting = 0, disjoint = 0;
  for (std::size_t i = 0; i < operands.size(); ++i) {
    for (std::size_t j = i; j < operands.size(); ++j) {
      const Bdd& a = operands[i];
      const Bdd& b = operands[j];
      for (const Bdd& x : {a, !a}) {
        for (const Bdd& y : {b, !b}) {
          const bool expected = !(x & y).is_zero();
          ASSERT_EQ(x.intersects(y), expected);
          ASSERT_EQ(y.intersects(x), expected);
          ++(expected ? meeting : disjoint);
        }
      }
    }
  }
  EXPECT_GT(meeting, 0u);
  EXPECT_GT(disjoint, 0u);
  EXPECT_TRUE(x0.intersects(x1));
  EXPECT_FALSE(x0.intersects(!x0));
  EXPECT_FALSE((x0 & x1).intersects(!x1 | (x2 & !x2)));
  EXPECT_FALSE(mgr.zero().intersects(mgr.one()));
  // The combined node space this test grows (over a million private
  // nodes) is where a digest-based duplicate check reported a collision
  // as corruption; the exact check must accept it.
  EXPECT_NO_THROW(adopter.check_canonical());
}

}  // namespace
}  // namespace dp::bdd
