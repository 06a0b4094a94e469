// The frozen-forest contract: Manager::freeze() packs an immutable,
// canonically reduced snapshot; adopting managers splice it in as a
// read-only prefix without duplicating structure; and any number of
// threads, each adopting it in a private manager, read it lock-free.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "bdd/bdd.hpp"
#include "bdd/frozen_forest.hpp"
#include "bdd/manager.hpp"
#include "dp/good_functions.hpp"
#include "netlist/generators.hpp"

namespace dp::bdd {
namespace {

/// A small but non-trivial universe: three functions over four variables
/// with shared subgraphs and complemented roots.
struct SampleUniverse {
  Manager manager{4};
  std::vector<Bdd> funcs;

  SampleUniverse() {
    const Bdd a = manager.var(0), b = manager.var(1);
    const Bdd c = manager.var(2), d = manager.var(3);
    funcs.push_back((a & b) | (c & d));
    funcs.push_back(!(a ^ d) | (b & c));
    funcs.push_back(a | !b);
  }

  std::vector<NodeIndex> roots() const {
    std::vector<NodeIndex> r;
    for (const Bdd& f : funcs) r.push_back(f.index());
    return r;
  }
};

TEST(FrozenForestTest, FreezePreservesSemanticsAndCanonicity) {
  SampleUniverse u;
  std::vector<NodeIndex> remapped;
  const auto forest = u.manager.freeze(u.roots(), &remapped);
  ASSERT_EQ(remapped.size(), u.funcs.size());
  ASSERT_GT(forest->size(), 1u);
  EXPECT_EQ(forest->num_vars(), 4u);
  EXPECT_NO_THROW(forest->check_canonical());

  // Frozen edges are read through a manager that adopts the forest.
  Manager adopter(forest);
  for (std::size_t i = 0; i < u.funcs.size(); ++i) {
    const Bdd frozen = adopter.make(remapped[i]);
    EXPECT_DOUBLE_EQ(frozen.sat_count(4), u.funcs[i].sat_count(4));
    EXPECT_EQ(frozen.support(), u.funcs[i].support());
    EXPECT_EQ(frozen.dag_size(), u.funcs[i].dag_size());
    // Exhaustive evaluation: the frozen reading of every edge must match
    // the live manager on all 16 assignments.
    for (unsigned v = 0; v < 16; ++v) {
      std::vector<bool> point{(v & 1) != 0, (v & 2) != 0, (v & 4) != 0,
                              (v & 8) != 0};
      EXPECT_EQ(frozen.eval(point), u.funcs[i].eval(point))
          << "function " << i << " at vector " << v;
    }
  }
}

TEST(FrozenForestTest, AdoptionReusesFrozenStructure) {
  SampleUniverse u;
  std::vector<NodeIndex> remapped;
  const auto forest = u.manager.freeze(u.roots(), &remapped);

  Manager adopter(forest);
  EXPECT_EQ(adopter.frozen_nodes(), forest->size());
  EXPECT_TRUE(adopter.has_frozen_base());
  EXPECT_EQ(adopter.num_vars(), 4u);

  // Rebuilding a frozen function from scratch must resolve to the frozen
  // edge itself -- mk() probes the frozen unique index, so no private
  // node duplicates a frozen triple. Apply intermediates (and plain var
  // nodes absent from the frozen DAG) may allocate privately, but nothing
  // the result retains: once the handles drop, a sweep empties the
  // private pool because everything reachable is frozen.
  {
    const Bdd a = adopter.var(0), b = adopter.var(1);
    const Bdd c = adopter.var(2), d = adopter.var(3);
    const Bdd rebuilt = (a & b) | (c & d);
    EXPECT_EQ(rebuilt.index(), remapped[0]);
  }
  adopter.gc();
  EXPECT_EQ(adopter.live_nodes(), 0u)
      << "rebuilding frozen functions must not retain private nodes";

  // Private growth above the prefix stays canonical as a combined space.
  const Bdd a = adopter.var(0), b = adopter.var(1);
  const Bdd c = adopter.var(2), d = adopter.var(3);
  const Bdd priv = (a ^ b) & (c ^ d);
  EXPECT_GT(adopter.live_nodes(), 0u);
  EXPECT_NO_THROW(adopter.check_canonical());
  EXPECT_DOUBLE_EQ(priv.sat_count(4), 4.0);
}

TEST(FrozenForestTest, FrozenNodesSurvivePrivateGarbageCollection) {
  SampleUniverse u;
  std::vector<NodeIndex> remapped;
  const auto forest = u.manager.freeze(u.roots(), &remapped);

  Manager adopter(forest);
  adopter.set_gc_floor(1);
  const Bdd a = adopter.var(0), b = adopter.var(1);
  {
    // Churn: private garbage that GC will reclaim in full.
    const Bdd c = adopter.var(2), d = adopter.var(3);
    for (int i = 0; i < 8; ++i) {
      Bdd junk = (a ^ b) & (c ^ d) & (i % 2 ? a : !d);
      (void)junk;
    }
  }
  const std::size_t reclaimed = adopter.gc();
  EXPECT_GT(reclaimed, 0u);
  EXPECT_EQ(adopter.frozen_nodes(), forest->size());
  // The frozen prefix is immortal: its handles still denote the same
  // functions after a full private sweep.
  for (std::size_t i = 0; i < u.funcs.size(); ++i) {
    Bdd wrapped(adopter, remapped[i]);
    EXPECT_DOUBLE_EQ(wrapped.sat_count(4), u.funcs[i].sat_count(4));
  }
  EXPECT_NO_THROW(adopter.check_canonical());
}

TEST(FrozenForestTest, ReorderingAnAdoptingManagerThrows) {
  SampleUniverse u;
  const auto forest = u.manager.freeze(u.roots());
  Manager adopter(forest);
  EXPECT_THROW(adopter.sift_reorder(), BddError);
  EXPECT_THROW(adopter.swap_adjacent_levels(0), BddError);
}

TEST(FrozenForestTest, FreezingAnAdoptingManagerThrows) {
  SampleUniverse u;
  const auto forest = u.manager.freeze(u.roots());
  Manager adopter(forest);
  const Bdd f = adopter.var(0) & adopter.var(1);
  EXPECT_THROW(adopter.freeze({f.index()}), BddError);
}

TEST(FrozenForestTest, PackMergesManagersIntoOneCanonicalForest) {
  // Two managers adopt one forest and build the same private function
  // (and one each of their own); a standalone manager with the same
  // order adds a third copy. Packing dedupes them into one edge, keeps
  // polarity and meaning, and numbers slots by the functions alone.
  SampleUniverse u;
  std::vector<NodeIndex> remapped;
  const auto base = u.manager.freeze(u.roots(), &remapped);
  Manager w1(base), w2(base);
  auto shared_fn = [](Manager& m) {
    return (m.var(0) ^ m.var(2)) & !(m.var(1) & m.var(3));
  };
  const std::vector<Bdd> roots = {
      shared_fn(w1), !shared_fn(w2), shared_fn(u.manager),
      w1.make(remapped[1]), w2.var(3) | (w2.var(0) & w2.var(1)),
      w1.zero(), w2.one()};
  std::vector<NodeIndex> packed;
  const auto forest = FrozenForest::pack(roots, &packed);
  ASSERT_EQ(packed.size(), roots.size());
  EXPECT_NO_THROW(forest->check_canonical());
  EXPECT_EQ(forest->num_vars(), 4u);
  EXPECT_EQ(packed[1], edge_negate(packed[0]));
  EXPECT_EQ(packed[2], packed[0]);
  EXPECT_EQ(packed[5], kFalseNode);
  EXPECT_EQ(packed[6], kTrueNode);
  // An adopting manager reads packed handles like any frozen ones.
  Manager adopter(forest);
  for (std::size_t i = 0; i < roots.size(); ++i) {
    const Bdd frozen = adopter.make(packed[i]);
    EXPECT_EQ(frozen.dag_size(), roots[i].dag_size()) << i;
    for (unsigned v = 0; v < 16; ++v) {
      const std::vector<bool> point{(v & 1) != 0, (v & 2) != 0, (v & 4) != 0,
                                    (v & 8) != 0};
      EXPECT_EQ(frozen.eval(point), roots[i].eval(point))
          << "root " << i << " at vector " << v;
    }
  }

  // The same functions held by other managers pack to the same forest.
  std::vector<NodeIndex> again;
  const auto forest2 = FrozenForest::pack(
      {shared_fn(w2), !shared_fn(w1), shared_fn(w1), w2.make(remapped[1]),
       u.manager.var(3) | (u.manager.var(0) & u.manager.var(1)),
       u.manager.zero(), w1.one()},
      &again);
  EXPECT_EQ(again, packed);
  EXPECT_EQ(forest2->size(), forest->size());
  EXPECT_EQ(adopter.make(packed[0]), shared_fn(adopter));

  Manager other_order(4);
  other_order.swap_adjacent_levels(0);
  EXPECT_THROW(FrozenForest::pack({u.funcs[0], other_order.var(0)}),
               BddError);
  EXPECT_THROW(FrozenForest::pack({Bdd()}), BddError);
  const auto empty = FrozenForest::pack({});
  EXPECT_EQ(empty->size(), 1u);
  EXPECT_EQ(empty->num_vars(), 0u);
}

TEST(FrozenForestTest, ConcurrentReadersSeeIdenticalFunctions) {
  const netlist::Circuit circuit = netlist::make_benchmark("c17");
  core::SharedGoodFunctions shared(circuit);

  // Reference syndromes and satcounts from a private (unshared) build.
  Manager ref_manager(0);
  core::GoodFunctions ref(ref_manager, circuit);
  const std::size_t nvars = ref.num_vars();
  std::vector<double> expected;
  for (netlist::NetId n = 0; n < circuit.num_nets(); ++n) {
    expected.push_back(ref.syndrome(n));
    expected.push_back(ref.at(n).sat_count(nvars));
  }

  constexpr std::size_t kReaders = 4;
  std::vector<std::vector<double>> got(kReaders);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      // Each reader adopts the one forest through its own manager -- the
      // production sharing pattern -- and walks the frozen nodes through
      // handles that are the frozen roots themselves, not private copies.
      Manager m(shared.forest());
      core::GoodFunctions good(m, circuit, shared);
      for (netlist::NetId n = 0; n < circuit.num_nets(); ++n) {
        got[t].push_back(good.syndrome(n));
        got[t].push_back(good.at(n).sat_count(nvars));
        EXPECT_EQ(good.at(n).index(), shared.roots()[n]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t t = 0; t < kReaders; ++t) EXPECT_EQ(got[t], expected);
}

TEST(FrozenForestTest, SharedGoodFunctionsMatchesPrivateBuildOnAlu) {
  const netlist::Circuit circuit = netlist::make_alu181();
  core::SharedGoodFunctions shared(circuit);
  EXPECT_GT(shared.frozen_nodes(), 1u);
  EXPECT_NO_THROW(shared.forest()->check_canonical());

  Manager priv_manager(0);
  core::GoodFunctions priv(priv_manager, circuit);
  Manager adopt_manager(shared.forest());
  core::GoodFunctions adopted(adopt_manager, circuit, shared);
  ASSERT_EQ(adopted.num_vars(), priv.num_vars());
  for (netlist::NetId n = 0; n < circuit.num_nets(); ++n) {
    EXPECT_DOUBLE_EQ(adopted.syndrome(n), priv.syndrome(n)) << "net " << n;
  }
}

TEST(FrozenForestTest, AdoptionRejectsForeignManagerAndCircuit) {
  // Every parallel sweep adopts its good functions this way, so a
  // mismatched manager or circuit must fail loudly, never wrap the wrong
  // roots.
  const netlist::Circuit c17 = netlist::make_c17();
  const core::SharedGoodFunctions shared(c17);

  Manager fresh(0);
  EXPECT_THROW((core::GoodFunctions{fresh, c17, shared}), BddError);
  const core::SharedGoodFunctions other(c17);
  Manager adopts_other(other.forest());
  EXPECT_THROW((core::GoodFunctions{adopts_other, c17, shared}), BddError);

  const netlist::Circuit alu = netlist::make_alu181();
  ASSERT_NE(alu.num_nets(), c17.num_nets());
  Manager adopts_shared(shared.forest());
  EXPECT_THROW((core::GoodFunctions{adopts_shared, alu, shared}), BddError);
  EXPECT_NO_THROW((core::GoodFunctions{adopts_shared, c17, shared}));
}

}  // namespace
}  // namespace dp::bdd
