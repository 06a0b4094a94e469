// The persistent-artifact contracts: cache keys are stable and
// collision-shy, forests round-trip across managers (and across variable
// reorders) with strict rejection of corrupt bytes, the artifact store
// degrades to a miss instead of crashing, and the dp.profile.v1 /
// dp.checkpoint.v1 documents reproduce every scalar bit-for-bit.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/ndetect.hpp"
#include "analysis/profile_io.hpp"
#include "bdd/manager.hpp"
#include "fault/stuck_at.hpp"
#include "netlist/generators.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "store/artifact_store.hpp"
#include "store/bdd_io.hpp"
#include "store/hash.hpp"

namespace dp::store {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory under the ctest working dir.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = fs::temp_directory_path() /
            ("dp_store_test_" + tag + "_" + info->name());
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }
  fs::path path() const { return path_; }

 private:
  fs::path path_;
};

// ---- KeyBuilder / circuit hash ----------------------------------------

TEST(KeyBuilderTest, DeterministicAndBoundaryAware) {
  KeyBuilder a, b;
  a.str("ab").str("c").u64(7);
  b.str("ab").str("c").u64(7);
  EXPECT_EQ(a.hex(), b.hex());
  EXPECT_EQ(a.hex().size(), 32u);

  KeyBuilder shifted;
  shifted.str("a").str("bc").u64(7);  // same bytes, different boundaries
  EXPECT_NE(a.hex(), shifted.hex());

  KeyBuilder other;
  other.str("ab").str("c").u64(8);
  EXPECT_NE(a.hex(), other.hex());
}

TEST(KeyBuilderTest, F64HashesBitPattern) {
  KeyBuilder pos, neg;
  pos.f64(0.0);
  neg.f64(-0.0);
  EXPECT_NE(pos.hex(), neg.hex());
}

TEST(CircuitHashTest, StableAndNameBlind) {
  const netlist::Circuit a = netlist::make_benchmark("c432");
  const netlist::Circuit b = netlist::make_benchmark("c432");
  EXPECT_EQ(circuit_content_hash(a), circuit_content_hash(b));
  // A different structure must hash differently.
  const netlist::Circuit c = netlist::make_benchmark("c17");
  EXPECT_NE(circuit_content_hash(a), circuit_content_hash(c));
}

// ---- forest serialization ---------------------------------------------

/// Exhaustive semantic equality over all assignments of `nvars` inputs.
bool same_function(const bdd::Bdd& f, const bdd::Bdd& g, std::size_t nvars) {
  for (std::size_t bits = 0; bits < (1u << nvars); ++bits) {
    std::vector<bool> v(nvars);
    for (std::size_t i = 0; i < nvars; ++i) v[i] = (bits >> i) & 1;
    if (f.eval(v) != g.eval(v)) return false;
  }
  return true;
}

std::vector<bdd::Bdd> small_forest(bdd::Manager& mgr) {
  const bdd::Bdd x0 = mgr.var(0), x1 = mgr.var(1), x2 = mgr.var(2),
                 x3 = mgr.var(3);
  return {(x0 & x1) | (x2 & x3), x0 ^ (x1 | !x3), mgr.one(), mgr.zero(),
          bdd::Bdd()};  // invalid handle must round-trip as invalid
}

TEST(BddIoTest, RoundTripsAcrossManagers) {
  bdd::Manager src(4);
  const auto roots = small_forest(src);

  std::stringstream buf;
  save_forest(buf, src, roots);

  bdd::Manager dst(0);  // variables created on demand by the loader
  const auto loaded = load_forest(buf, dst);
  ASSERT_EQ(loaded.size(), roots.size());
  EXPECT_FALSE(loaded[4].valid());
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(loaded[i].valid());
    EXPECT_TRUE(same_function(roots[i], loaded[i], 4)) << "root " << i;
  }
}

TEST(BddIoTest, ForestSurvivesSiftReorderOnEitherSide) {
  bdd::Manager src(4);
  auto roots = small_forest(src);

  // Save, then reorder the SOURCE manager: the bytes already written must
  // stay loadable and denote the same functions the source still holds.
  std::stringstream before;
  save_forest(before, src, roots);
  src.sift_reorder();

  bdd::Manager fresh(0);
  const auto loaded = load_forest(before, fresh);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(same_function(roots[i], loaded[i], 4)) << "root " << i;
  }

  // And save AFTER the reorder (non-identity order in the header): a
  // fresh identity-ordered manager must still reconstruct the functions.
  std::stringstream after;
  save_forest(after, src, roots);
  bdd::Manager fresh2(0);
  const auto loaded2 = load_forest(after, fresh2);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(same_function(roots[i], loaded2[i], 4)) << "root " << i;
  }

  // restore_variable_order re-imposes the saved (sifted) order.
  std::stringstream again;
  save_forest(again, src, roots);
  bdd::Manager fresh3(0);
  ForestLoadOptions opt;
  opt.restore_variable_order = true;
  const auto loaded3 = load_forest(again, fresh3, opt);
  EXPECT_EQ(fresh3.variable_order(), src.variable_order());
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(same_function(roots[i], loaded3[i], 4)) << "root " << i;
  }
}

TEST(BddIoTest, RejectsTruncationCorruptionAndTrailingBytes) {
  bdd::Manager src(4);
  const auto roots = small_forest(src);
  std::stringstream buf;
  save_forest(buf, src, roots);
  const std::string bytes = buf.str();

  {  // truncation at every prefix length must throw, never misparse
    for (std::size_t cut : {std::size_t{0}, std::size_t{3}, bytes.size() / 2,
                            bytes.size() - 1}) {
      std::stringstream t(bytes.substr(0, cut));
      bdd::Manager m(0);
      EXPECT_THROW(load_forest(t, m), StoreError) << "cut=" << cut;
    }
  }
  {  // single flipped byte fails the checksum
    std::string corrupt = bytes;
    corrupt[corrupt.size() / 2] ^= 0x40;
    std::stringstream t(corrupt);
    bdd::Manager m(0);
    EXPECT_THROW(load_forest(t, m), StoreError);
  }
  {  // trailing garbage is rejected (a concatenated file is not a forest)
    std::stringstream t(bytes + "x");
    bdd::Manager m(0);
    EXPECT_THROW(load_forest(t, m), StoreError);
  }
  {  // wrong magic
    std::string corrupt = bytes;
    corrupt[0] ^= 0xff;
    std::stringstream t(corrupt);
    bdd::Manager m(0);
    EXPECT_THROW(load_forest(t, m), StoreError);
  }
}

/// Rewrites the version field of serialized forest bytes and restamps the
/// trailing FNV-1a checksum, simulating an artifact written by an older
/// kernel (v1 used two-terminal node ids; v2 uses complement-edge refs).
std::string with_format_version(std::string bytes, std::uint32_t version) {
  // Header layout: magic u32, endian u32, version u32 (offset 8).
  std::memcpy(bytes.data() + 8, &version, sizeof version);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i + 8 < bytes.size(); ++i) {
    h = (h ^ static_cast<unsigned char>(bytes[i])) * 0x100000001b3ull;
  }
  std::memcpy(bytes.data() + bytes.size() - 8, &h, sizeof h);
  return bytes;
}

TEST(BddIoTest, RejectsV1FormatVersion) {
  // A v1 artifact's node ids mean something different (two terminals, no
  // complement bit), so the loader must refuse the version outright
  // rather than misinterpret the refs.
  bdd::Manager src(4);
  const auto roots = small_forest(src);
  std::stringstream buf;
  save_forest(buf, src, roots);

  std::stringstream v1(with_format_version(buf.str(), 1));
  bdd::Manager m(0);
  try {
    load_forest(v1, m);
    FAIL() << "v1 forest bytes were accepted";
  } catch (const StoreError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("version 1"), std::string::npos);
  }
}

TEST(ArtifactStoreTest, V1ForestDegradesToCountedCorruptMiss) {
  // A warm cache directory written before the complement-edge kernel must
  // self-heal: the v1 artifact is a counted corrupt miss (no crash), and
  // the recomputed v2 artifact then round-trips.
  TempDir dir("v1cache");
  obs::MetricsRegistry metrics;
  ArtifactStore store(dir.str(), ArtifactStore::Options{}, &metrics);

  bdd::Manager src(4);
  const auto roots = small_forest(src);
  ASSERT_TRUE(store.store_forest("k", "good", src, roots));

  // Downgrade the cached artifact in place to format version 1.
  const std::string path = store.forest_path("k", "good");
  std::ifstream in(path, std::ios::binary);
  std::stringstream raw;
  raw << in.rdbuf();
  in.close();
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << with_format_version(raw.str(), 1);

  bdd::Manager dst(0);
  EXPECT_FALSE(store.load_forest("k", "good", dst).has_value());
  EXPECT_EQ(metrics.counter("store.good.corrupt").value(), 1u);

  // The recompute path overwrites the stale artifact with v2 bytes.
  ASSERT_TRUE(store.store_forest("k", "good", src, roots));
  bdd::Manager dst2(0);
  const auto reloaded = store.load_forest("k", "good", dst2);
  ASSERT_TRUE(reloaded.has_value());
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(same_function(roots[i], (*reloaded)[i], 4)) << "root " << i;
  }
}

TEST(BddIoTest, FileRoundTripIsAtomic) {
  TempDir dir("bddio");
  const std::string path = dir.str() + "/forest.bdd";
  bdd::Manager src(4);
  const auto roots = small_forest(src);
  save_forest_file(path, src, roots);

  bdd::Manager dst(0);
  const auto loaded = load_forest_file(path, dst);
  EXPECT_TRUE(same_function(roots[0], loaded[0], 4));

  // No temp droppings next to the artifact.
  std::size_t entries = 0;
  for (const auto& e : fs::directory_iterator(dir.path())) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);

  EXPECT_THROW(load_forest_file(dir.str() + "/absent.bdd", dst), StoreError);
}

// ---- artifact store ----------------------------------------------------

TEST(ArtifactStoreTest, DocumentHitMissCorrupt) {
  TempDir dir("store");
  obs::MetricsRegistry metrics;
  ArtifactStore store(dir.str(), ArtifactStore::Options{}, &metrics);

  EXPECT_FALSE(store.load_document("k1", "profile").has_value());
  EXPECT_EQ(metrics.counter("store.profile.misses").value(), 1u);

  obs::JsonValue doc = obs::JsonValue::object();
  doc["answer"] = 42;
  ASSERT_TRUE(store.store_document("k1", "profile", doc));
  const auto back = store.load_document("k1", "profile");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->at("answer").as_int(), 42);
  EXPECT_EQ(metrics.counter("store.profile.hits").value(), 1u);
  EXPECT_EQ(metrics.counter("store.profile.stores").value(), 1u);

  // Corrupt bytes degrade to a miss, never to a throw.
  std::ofstream(store.document_path("k2", "profile")) << "{not json";
  EXPECT_FALSE(store.load_document("k2", "profile").has_value());
  EXPECT_EQ(metrics.counter("store.profile.corrupt").value(), 1u);

  store.remove("k1", "profile");
  EXPECT_FALSE(store.load_document("k1", "profile").has_value());
}

TEST(ArtifactStoreTest, ForestRoundTripAndCorruptFallback) {
  TempDir dir("forest");
  obs::MetricsRegistry metrics;
  ArtifactStore store(dir.str(), ArtifactStore::Options{}, &metrics);

  bdd::Manager src(4);
  const auto roots = small_forest(src);
  ASSERT_TRUE(store.store_forest("k", "tests", src, roots));

  bdd::Manager dst(0);
  const auto loaded = store.load_forest("k", "tests", dst);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(same_function(roots[0], (*loaded)[0], 4));

  // Flip one byte in place: the next load must be a counted corrupt miss.
  const std::string path = store.forest_path("k", "tests");
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(20);
  f.put('\x7f');
  f.close();
  bdd::Manager dst2(0);
  EXPECT_FALSE(store.load_forest("k", "tests", dst2).has_value());
  EXPECT_EQ(metrics.counter("store.tests.corrupt").value(), 1u);
}

// One shared store hammered by writer, reader, remover and pruner
// threads at once (the dpserved worker-pool access pattern). Every load
// must return either a complete document or a miss -- a torn read would
// surface as a corrupt count or a wrong value -- and the store must not
// crash or deadlock. Run under the tsan preset this is the data-race
// gate for the striped entry locks.
TEST(ArtifactStoreTest, ConcurrentReadersWritersAndPrune) {
  TempDir dir("threads");
  ArtifactStore::Options opt;
  opt.max_bytes = 1u << 20;  // large enough that prune stays a no-op
  obs::MetricsRegistry metrics;
  ArtifactStore store(dir.str(), opt, &metrics);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 120;
  constexpr int kKeys = 5;  // deliberate same-stripe/same-entry collisions
  std::atomic<int> torn_reads{0};
  std::atomic<int> failures{0};

  auto worker = [&](int tid) {
    for (int i = 0; i < kOpsPerThread; ++i) {
      const std::string key = "k" + std::to_string((tid + i) % kKeys);
      switch (i % 4) {
        case 0: {
          obs::JsonValue doc = obs::JsonValue::object();
          // Both members carry the same value so a reader can detect a
          // mixed (torn) document.
          doc["a"] = tid * 1000 + i;
          doc["b"] = tid * 1000 + i;
          if (!store.store_document(key, "profile", doc)) ++failures;
          break;
        }
        case 1: {
          const auto back = store.load_document(key, "profile");
          if (back.has_value()) {
            if (back->at("a").as_int() != back->at("b").as_int()) {
              ++torn_reads;
            }
          }
          break;
        }
        case 2: store.remove(key, "profile"); break;
        case 3: store.prune(); break;
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();

  EXPECT_EQ(torn_reads.load(), 0);
  EXPECT_EQ(failures.load(), 0);
  // Corrupt loads would mean a reader saw a partial write.
  EXPECT_EQ(metrics.counter("store.profile.corrupt").value(), 0u);
  // The instrument totals must balance: every op was counted exactly once.
  const std::uint64_t loads = metrics.counter("store.profile.hits").value() +
                              metrics.counter("store.profile.misses").value();
  EXPECT_EQ(loads, static_cast<std::uint64_t>(kThreads * kOpsPerThread / 4));
}

TEST(ArtifactStoreTest, ConcurrentForestAccessSameEntry) {
  TempDir dir("forest_threads");
  obs::MetricsRegistry metrics;
  ArtifactStore store(dir.str(), ArtifactStore::Options{}, &metrics);

  constexpr int kThreads = 6;
  constexpr int kOpsPerThread = 30;
  std::atomic<int> bad{0};
  auto worker = [&](int tid) {
    bdd::Manager m(4);
    const auto roots = small_forest(m);
    for (int i = 0; i < kOpsPerThread; ++i) {
      if ((tid + i) % 2 == 0) {
        if (!store.store_forest("shared", "tests", m, roots)) ++bad;
      } else {
        bdd::Manager dst(0);
        const auto loaded = store.load_forest("shared", "tests", dst);
        if (loaded.has_value() &&
            !same_function(roots[0], (*loaded)[0], 4)) {
          ++bad;
        }
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();

  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(metrics.counter("store.tests.corrupt").value(), 0u);
}

TEST(ArtifactStoreTest, PruneEvictsOldestBeyondBudget) {
  TempDir dir("prune");
  ArtifactStore::Options opt;
  opt.max_bytes = 1;  // everything over one byte is evictable
  obs::MetricsRegistry metrics;
  ArtifactStore store(dir.str(), opt, &metrics);

  obs::JsonValue doc = obs::JsonValue::object();
  doc["x"] = 1;
  // store_document prunes after writing, so after both writes at most the
  // newest artifact survives each pass.
  store.store_document("a", "profile", doc);
  store.store_document("b", "profile", doc);
  EXPECT_LE(store.size_bytes(), static_cast<std::uintmax_t>(64));
  EXPECT_GE(metrics.counter("store.evictions").value(), 1u);
}

// ---- dp.profile.v1 / dp.checkpoint.v1 ---------------------------------

analysis::FaultRecord nasty_record() {
  analysis::FaultRecord r;
  r.detectable = true;
  r.detectability = 1.0 / 3.0;  // not representable in decimal
  r.upper_bound = 0.1 + 0.2;    // classic rounding trap
  r.adherence = 6.1e-17;
  r.pos_fed = 7;
  r.pos_observable = 5;
  r.max_levels_to_po = -1;
  r.level_from_pi = 12;
  r.branch_site = true;
  r.bridge_stuck_at = true;
  r.gates_evaluated = (1ull << 53) + 1;  // beyond exact double integers
  r.gates_skipped = 3;
  return r;
}

TEST(ProfileIoTest, ProfileRoundTripsBitIdentically) {
  analysis::CircuitProfile p;
  p.circuit = "toy";
  p.netlist_size = 9;
  p.num_inputs = 4;
  p.num_outputs = 2;
  p.faults = {nasty_record(), analysis::FaultRecord{}};

  const obs::JsonValue doc = analysis::profile_to_json(p, "key123");
  // Through text: serialize + reparse, as the artifact store does.
  const obs::JsonValue reparsed = obs::JsonValue::parse(doc.dump(2));
  const auto back = analysis::profile_from_json(reparsed, "key123");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->circuit, p.circuit);
  ASSERT_EQ(back->faults.size(), 2u);
  const analysis::FaultRecord& a = p.faults[0];
  const analysis::FaultRecord& b = back->faults[0];
  EXPECT_EQ(a.detectable, b.detectable);
  EXPECT_EQ(a.detectability, b.detectability);  // exact, not near
  EXPECT_EQ(a.upper_bound, b.upper_bound);
  EXPECT_EQ(a.adherence, b.adherence);
  EXPECT_EQ(a.pos_fed, b.pos_fed);
  EXPECT_EQ(a.pos_observable, b.pos_observable);
  EXPECT_EQ(a.max_levels_to_po, b.max_levels_to_po);
  EXPECT_EQ(a.level_from_pi, b.level_from_pi);
  EXPECT_EQ(a.branch_site, b.branch_site);
  EXPECT_EQ(a.bridge_stuck_at, b.bridge_stuck_at);
  EXPECT_EQ(a.gates_evaluated, b.gates_evaluated);
  EXPECT_EQ(a.gates_skipped, b.gates_skipped);

  // Wrong key and wrong schema are both strict rejections.
  EXPECT_FALSE(analysis::profile_from_json(reparsed, "other").has_value());
  obs::JsonValue wrong = reparsed;
  wrong["schema"] = "dp.profile.v999";
  EXPECT_FALSE(analysis::profile_from_json(wrong, "key123").has_value());
}

TEST(ProfileIoTest, CheckpointRejectsStaleness) {
  analysis::SweepCheckpoint ckpt;
  ckpt.key = "k";
  ckpt.total_faults = 10;
  ckpt.completed = {nasty_record()};
  const obs::JsonValue doc = analysis::checkpoint_to_json(ckpt);

  EXPECT_TRUE(analysis::checkpoint_from_json(doc, "k", 10).has_value());
  // Stale key (options or circuit changed since the checkpoint).
  EXPECT_FALSE(analysis::checkpoint_from_json(doc, "k2", 10).has_value());
  // Stale total (fault model changed).
  EXPECT_FALSE(analysis::checkpoint_from_json(doc, "k", 11).has_value());
  // Wrong schema entirely.
  obs::JsonValue wrong = doc;
  wrong["schema"] = "dp.metrics.v1";
  EXPECT_FALSE(analysis::checkpoint_from_json(wrong, "k", 10).has_value());
}

TEST(ProfileIoTest, CacheKeyTracksResultAffectingOptions) {
  const netlist::Circuit c = netlist::make_benchmark("c17");
  analysis::AnalysisOptions opt;
  const std::string base = analysis::profile_cache_key(c, "sa", opt);
  EXPECT_EQ(base, analysis::profile_cache_key(c, "sa", opt));  // stable

  analysis::AnalysisOptions jobs = opt;
  jobs.jobs = 8;  // value-neutral: results are bit-identical for any jobs
  EXPECT_EQ(base, analysis::profile_cache_key(c, "sa", jobs));

  analysis::AnalysisOptions full = opt;
  full.collapse = !full.collapse;
  EXPECT_NE(base, analysis::profile_cache_key(c, "sa", full));

  analysis::AnalysisOptions seed = opt;
  seed.sampling.seed += 1;
  EXPECT_NE(base, analysis::profile_cache_key(c, "sa", seed));

  EXPECT_NE(base, analysis::profile_cache_key(c, "bf.and", opt));
}

// ---- atomic JSON writes ------------------------------------------------

TEST(AtomicWriteTest, WritesWholeFileAndCleansUp) {
  TempDir dir("atomic");
  const std::string path = dir.str() + "/doc.json";
  ASSERT_TRUE(obs::atomic_write_file(path, "hello"));
  {
    std::ifstream is(path);
    std::string s;
    std::getline(is, s);
    EXPECT_EQ(s, "hello");
  }
  // Overwrite through the same path: the reader sees old or new, and
  // afterwards exactly one file remains (no temp droppings).
  ASSERT_TRUE(obs::atomic_write_file(path, "world"));
  std::size_t entries = 0;
  for (const auto& e : fs::directory_iterator(dir.path())) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);

  std::string error;
  EXPECT_FALSE(obs::atomic_write_file(
      dir.str() + "/no/such/dir/doc.json", "x", &error));
  EXPECT_FALSE(error.empty());
}

// ---- complete test sets (kind "tests") ---------------------------------

TEST(TestSetsStoreTest, RoundTripKeepsSetsSizesOrderAndTopUp) {
  TempDir dir("test_sets");
  obs::MetricsRegistry metrics;
  ArtifactStore store(dir.str(), ArtifactStore::Options{}, &metrics);
  for (const char* name : {"c17", "c95", "c432"}) {
    const netlist::Circuit c = netlist::make_benchmark(name);
    const auto faults = fault::collapse_checkpoint_faults(c);
    analysis::NDetectOptions options;
    options.jobs = 2;
    const auto built =
        std::make_shared<const analysis::TestSets>(c, faults, options);
    EXPECT_FALSE(analysis::load_test_sets(store, c, faults)) << name;
    ASSERT_TRUE(analysis::save_test_sets(store, c, *built)) << name;
    auto hit = analysis::load_test_sets(store, c, faults);
    ASSERT_TRUE(hit) << name;
    const auto loaded =
        std::make_shared<const analysis::TestSets>(std::move(*hit));

    ASSERT_EQ(loaded->faults(), built->faults()) << name;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      EXPECT_EQ(loaded->test_set(i), built->test_set(i)) << name << " " << i;
      EXPECT_EQ(loaded->cts_size(i), built->cts_size(i)) << name << " " << i;
    }
    EXPECT_EQ(loaded->order(), built->order()) << name;
    // The swept fault list is part of the key.
    const std::vector<fault::StuckAtFault> fewer(faults.begin() + 1,
                                                 faults.end());
    EXPECT_FALSE(analysis::load_test_sets(store, c, fewer)) << name;

    analysis::NDetectAnalyzer from_built(c, built);
    analysis::NDetectAnalyzer from_loaded(c, loaded);
    std::vector<std::vector<bool>> a, b;
    EXPECT_EQ(from_built.top_up(a, 3), from_loaded.top_up(b, 3)) << name;
    EXPECT_FALSE(a.empty()) << name;
    EXPECT_EQ(a, b) << name;
  }
  EXPECT_EQ(metrics.counter("store.tests.hits").value(), 3u);
  EXPECT_EQ(metrics.counter("store.tests.corrupt").value(), 0u);
}

TEST(TestSetsStoreTest, TruncatedOrCorruptArtifactIsACountedMiss) {
  TempDir dir("test_sets");
  obs::MetricsRegistry metrics;
  ArtifactStore store(dir.str(), ArtifactStore::Options{}, &metrics);
  const netlist::Circuit c = netlist::make_benchmark("c95");
  const auto faults = fault::collapse_checkpoint_faults(c);
  ASSERT_TRUE(
      analysis::save_test_sets(store, c, analysis::TestSets(c, faults)));
  fs::path path;
  for (const auto& e : fs::directory_iterator(dir.path())) {
    if (e.path().string().ends_with(".tests.bdd")) path = e.path();
  }
  ASSERT_FALSE(path.empty());
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    bytes = os.str();
  }
  const auto write = [&](const std::string& content) {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << content;
  };

  write(bytes.substr(0, bytes.size() / 2));
  EXPECT_FALSE(analysis::load_test_sets(store, c, faults));
  EXPECT_EQ(metrics.counter("store.tests.corrupt").value(), 1u);

  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x40;
  write(flipped);
  EXPECT_FALSE(analysis::load_test_sets(store, c, faults));
  EXPECT_EQ(metrics.counter("store.tests.corrupt").value(), 2u);

  write(bytes);
  EXPECT_TRUE(analysis::load_test_sets(store, c, faults));
  EXPECT_EQ(metrics.counter("store.tests.hits").value(), 1u);
}

}  // namespace
}  // namespace dp::store
