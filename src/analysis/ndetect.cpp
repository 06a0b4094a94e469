#include "analysis/ndetect.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "netlist/structure.hpp"
#include "store/artifact_store.hpp"
#include "store/hash.hpp"

namespace dp::analysis {

namespace {

/// The "tests" artifact key: everything the test sets depend on.
std::string test_sets_key(const netlist::Circuit& circuit,
                          const std::vector<fault::StuckAtFault>& faults) {
  store::KeyBuilder k;
  k.str(kTestSetsSchema);
  k.str(store::circuit_content_hash(circuit));
  k.u64(faults.size());
  for (const fault::StuckAtFault& f : faults) {
    k.u64(f.net).flag(f.stuck_value).flag(f.is_branch());
    if (f.branch) k.u64(f.branch->gate).u64(f.branch->pin);
  }
  return k.hex();
}

/// The minterm of `v` over variables [0, v.size()), built bottom-up.
/// PI i is BDD variable i -- the identity mapping every engine in the
/// repo uses for undecomposed good functions.
bdd::Bdd minterm(bdd::Manager& manager, const std::vector<bool>& v) {
  bdd::Bdd f = manager.one();
  for (std::size_t i = v.size(); i-- > 0;) {
    const bdd::Var var = static_cast<bdd::Var>(i);
    f = (v[i] ? manager.var(var) : manager.nvar(var)) & f;
  }
  return f;
}

/// B(V): the union of V's minterms -- the vector set as a function.
bdd::Bdd vector_set_bdd(bdd::Manager& manager,
                        const std::vector<std::vector<bool>>& vectors) {
  bdd::Bdd f = manager.zero();
  for (const auto& v : vectors) f = f | minterm(manager, v);
  return f;
}

std::vector<bool> vector_of_cube(const std::vector<signed char>& cube,
                                 std::size_t num_inputs) {
  std::vector<bool> v(num_inputs, false);
  for (std::size_t i = 0; i < num_inputs && i < cube.size(); ++i) {
    v[i] = cube[i] == 1;
  }
  return v;
}

}  // namespace

std::vector<std::vector<bool>> distinct_vectors(
    const std::vector<std::vector<bool>>& vectors) {
  std::vector<std::vector<bool>> out;
  std::set<std::vector<bool>> seen;
  out.reserve(vectors.size());
  for (const auto& v : vectors) {
    if (seen.insert(v).second) out.push_back(v);
  }
  return out;
}

std::size_t NDetectReport::detectable_faults() const {
  std::size_t count = 0;
  for (const NDetectFaultRecord& r : faults) count += r.detectable ? 1 : 0;
  return count;
}

std::size_t NDetectReport::faults_meeting_target() const {
  std::size_t count = 0;
  for (const NDetectFaultRecord& r : faults) count += r.meets_target() ? 1 : 0;
  return count;
}

std::uint64_t NDetectReport::total_detections() const {
  std::uint64_t sum = 0;
  for (const NDetectFaultRecord& r : faults) sum += r.detections;
  return sum;
}

double NDetectReport::mean_cts_coverage() const {
  double sum = 0.0;
  std::size_t detectable = 0;
  for (const NDetectFaultRecord& r : faults) {
    if (!r.detectable) continue;
    sum += r.cts_coverage;
    ++detectable;
  }
  return detectable ? sum / static_cast<double>(detectable) : 0.0;
}

bool NDetectReport::complete() const {
  return faults_meeting_target() == faults.size();
}

TestSets::TestSets(const netlist::Circuit& circuit,
                   std::vector<fault::StuckAtFault> faults,
                   const NDetectOptions& options)
    : faults_(std::move(faults)) {
  // An empty list sweeps nothing, so it builds no good functions either.
  if (faults_.empty()) {
    pack({}, circuit.num_inputs());
    return;
  }
  const netlist::Structure structure(circuit);
  core::ParallelEngine::Options popt;
  popt.jobs = options.jobs;
  popt.shared_good = options.shared_good;
  core::ParallelEngine engine(circuit, structure, popt);
  // Each worker hands over only its fault's test-set handle (the per-PO
  // differences die with the fault); then every test set moves into one
  // forest, and the workers and their managers go with the engine.
  std::vector<bdd::Bdd> roots(faults_.size());
  engine.analyze_each(faults_, [&](std::size_t i, core::FaultAnalysis&& a) {
    roots[i] = std::move(a.test_set);
  });
  stats_ = engine.stats();
  pack(roots, circuit.num_inputs());
}

TestSets::TestSets(std::vector<fault::StuckAtFault> faults,
                   const std::vector<bdd::Bdd>& roots, std::size_t num_inputs)
    : faults_(std::move(faults)) {
  if (roots.size() != faults_.size()) {
    throw std::invalid_argument("TestSets: one root per fault required");
  }
  pack(roots, num_inputs);
}

void TestSets::pack(const std::vector<bdd::Bdd>& roots,
                    std::size_t num_inputs) {
  forest_ = bdd::FrozenForest::pack(roots, &test_sets_);
  cts_sizes_.resize(roots.size());
  for (std::size_t i = 0; i < roots.size(); ++i) {
    cts_sizes_[i] = roots[i].sat_count(num_inputs);
  }
  order_.resize(roots.size());
  for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  std::stable_sort(order_.begin(), order_.end(),
                   [&](std::size_t a, std::size_t b) {
                     return cts_sizes_[a] < cts_sizes_[b];
                   });
}

bool save_test_sets(store::ArtifactStore& store,
                    const netlist::Circuit& circuit, const TestSets& sets) {
  bdd::Manager manager(sets.forest());
  std::vector<bdd::Bdd> roots;
  roots.reserve(sets.faults().size());
  for (std::size_t i = 0; i < sets.faults().size(); ++i) {
    roots.push_back(manager.make(sets.test_set(i)));
  }
  return store.store_forest(test_sets_key(circuit, sets.faults()), "tests",
                            manager, roots);
}

std::optional<TestSets> load_test_sets(
    store::ArtifactStore& store, const netlist::Circuit& circuit,
    std::vector<fault::StuckAtFault> faults) {
  bdd::Manager manager(0);
  const auto roots = store.load_forest(test_sets_key(circuit, faults),
                                       "tests", manager);
  // The key covers the fault list, so a well-formed artifact has one
  // valid root per fault; anything else is treated as a miss.
  if (!roots || roots->size() != faults.size() ||
      !std::all_of(roots->begin(), roots->end(),
                   [](const bdd::Bdd& r) { return r.valid(); })) {
    return std::nullopt;
  }
  return TestSets(std::move(faults), *roots, circuit.num_inputs());
}

NDetectAnalyzer::NDetectAnalyzer(const netlist::Circuit& circuit,
                                 std::vector<fault::StuckAtFault> faults,
                                 const NDetectOptions& options)
    : NDetectAnalyzer(circuit, std::make_shared<const TestSets>(
                                   circuit, std::move(faults), options)) {}

NDetectAnalyzer::NDetectAnalyzer(
    const netlist::Circuit& circuit,
    std::shared_ptr<const TestSets> test_sets)
    : circuit_(&circuit),
      sets_(std::move(test_sets)),
      manager_(sets_->forest()) {}

std::uint64_t NDetectAnalyzer::quota(std::size_t i, std::size_t n) const {
  const double cts = sets_->cts_size(i);
  if (!sets_->detectable(i) || cts <= 0.0) return 0;
  return static_cast<double>(n) <= cts ? static_cast<std::uint64_t>(n)
                                       : static_cast<std::uint64_t>(cts);
}

std::vector<std::uint64_t> NDetectAnalyzer::detection_counts(
    const std::vector<std::vector<bool>>& vectors) {
  std::vector<std::uint64_t> counts(num_faults(), 0);
  const auto distinct = distinct_vectors(vectors);
  if (distinct.empty() || counts.empty()) return counts;

  const std::size_t n = circuit_->num_inputs();
  const bdd::Bdd set = vector_set_bdd(manager_, distinct);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = static_cast<std::uint64_t>((cts(i) & set).sat_count(n));
  }
  return counts;
}

std::size_t NDetectAnalyzer::top_up(std::vector<std::vector<bool>>& vectors,
                                    std::size_t n) {
  if (n == 0 || num_faults() == 0) return 0;
  const std::size_t num_inputs = circuit_->num_inputs();

  // B(V), kept current as vectors are minted so every later fault's count
  // and residual see the full working set.
  bdd::Bdd used = vector_set_bdd(manager_, distinct_vectors(vectors));
  std::size_t minted = 0;
  for (const std::size_t idx : sets_->order()) {
    const std::uint64_t target = quota(idx, n);
    if (target == 0) continue;
    const bdd::Bdd test_set = cts(idx);
    std::uint64_t count =
        static_cast<std::uint64_t>((test_set & used).sat_count(num_inputs));
    if (count >= target) continue;
    // Residual: vectors the CTS accepts that the set does not yet
    // contain. Its satcount is |CTS| - count > 0 while count < target,
    // so sat_one always has a cube to mint.
    bdd::Bdd residual = test_set & !used;
    while (count < target) {
      const std::vector<bool> v =
          vector_of_cube(residual.sat_one(), num_inputs);
      vectors.push_back(v);
      ++minted;
      ++count;
      const bdd::Bdd m = minterm(manager_, v);
      used = used | m;
      residual = residual & !m;
    }
  }
  return minted;
}

NDetectReport NDetectAnalyzer::report(
    const std::vector<std::vector<bool>>& vectors, std::size_t n) {
  NDetectReport r;
  r.circuit = circuit_->name();
  r.n = n;
  r.num_inputs = circuit_->num_inputs();
  r.num_vectors = distinct_vectors(vectors).size();
  const std::vector<std::uint64_t> counts = detection_counts(vectors);
  r.faults.reserve(num_faults());
  for (std::size_t i = 0; i < num_faults(); ++i) {
    NDetectFaultRecord rec;
    rec.fault = faults()[i];
    rec.name = fault::describe(rec.fault, *circuit_);
    rec.detectable = detectable(i);
    rec.cts_size = cts_size(i);
    rec.detections = counts[i];
    rec.target = quota(i, n);
    rec.cts_coverage = rec.detectable && rec.cts_size > 0.0
                           ? static_cast<double>(rec.detections) / rec.cts_size
                           : 0.0;
    r.faults.push_back(std::move(rec));
  }
  return r;
}

obs::JsonValue ndetect_report_to_json(const NDetectReport& report,
                                      const std::string& key) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc["schema"] = kNDetectSchema;
  doc["circuit"] = report.circuit;
  doc["n"] = report.n;
  doc["num_inputs"] = report.num_inputs;
  doc["vectors"] = report.num_vectors;
  doc["minted"] = report.minted_vectors;
  if (!key.empty()) doc["key"] = key;

  obs::JsonValue summary = obs::JsonValue::object();
  summary["faults"] = report.faults.size();
  summary["detectable"] = report.detectable_faults();
  summary["meeting_target"] = report.faults_meeting_target();
  summary["detections"] = report.total_detections();
  summary["mean_cts_coverage"] = report.mean_cts_coverage();
  summary["complete"] = report.complete();
  doc["summary"] = std::move(summary);

  obs::JsonValue faults = obs::JsonValue::array();
  for (const NDetectFaultRecord& r : report.faults) {
    obs::JsonValue rec = obs::JsonValue::object();
    rec["fault"] = r.name;
    rec["detectable"] = r.detectable;
    rec["cts_size"] = r.cts_size;
    rec["detections"] = r.detections;
    rec["target"] = r.target;
    rec["coverage"] = r.cts_coverage;
    faults.push_back(std::move(rec));
  }
  doc["faults"] = std::move(faults);
  return doc;
}

}  // namespace dp::analysis
