#include "analysis/ndetect.hpp"

#include <algorithm>
#include <set>
#include <unordered_map>

namespace dp::analysis {

namespace {

/// Distinct vectors of `vectors`, first occurrence order.
std::vector<std::vector<bool>> dedupe(
    const std::vector<std::vector<bool>>& vectors) {
  std::vector<std::vector<bool>> out;
  std::set<std::vector<bool>> seen;
  out.reserve(vectors.size());
  for (const auto& v : vectors) {
    if (seen.insert(v).second) out.push_back(v);
  }
  return out;
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

NDetectAnalyzer::NDetectAnalyzer(const netlist::Circuit& circuit,
                                 std::vector<fault::StuckAtFault> faults,
                                 const NDetectOptions& options)
    : circuit_(&circuit),
      faults_(std::move(faults)),
      structure_(circuit),
      engine_(circuit, structure_, [&] {
        core::ParallelEngine::Options popt;
        popt.jobs = options.jobs;
        popt.shared_good = options.shared_good;
        return popt;
      }()) {
  analyses_ = engine_.analyze_all(faults_);
  const std::size_t n = circuit_->num_inputs();
  cts_sizes_.reserve(analyses_.size());
  for (const core::FaultAnalysis& a : analyses_) {
    cts_sizes_.push_back(a.detectable ? a.test_set.sat_count(n) : 0.0);
  }
  order_.resize(faults_.size());
  for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  std::stable_sort(order_.begin(), order_.end(),
                   [&](std::size_t a, std::size_t b) {
                     return cts_sizes_[a] < cts_sizes_[b];
                   });
}

bool NDetectAnalyzer::detectable(std::size_t i) const {
  return analyses_.at(i).detectable;
}

double NDetectAnalyzer::cts_size(std::size_t i) const {
  return cts_sizes_.at(i);
}

std::uint64_t NDetectAnalyzer::quota(std::size_t i, std::size_t n) const {
  const double cts = cts_sizes_.at(i);
  if (!analyses_.at(i).detectable || cts <= 0.0) return 0;
  return static_cast<double>(n) <= cts ? static_cast<std::uint64_t>(n)
                                       : static_cast<std::uint64_t>(cts);
}

std::vector<std::uint64_t> NDetectAnalyzer::detection_counts(
    const std::vector<std::vector<bool>>& vectors) {
  std::vector<std::uint64_t> counts(faults_.size(), 0);
  const auto distinct = dedupe(vectors);
  if (distinct.empty() || faults_.empty()) return counts;

  const std::size_t n = circuit_->num_inputs();
  // One vector-set BDD per worker manager: the handful of managers the
  // engine sharded the faults across each host B(V) once, and every
  // resident fault intersects against its manager's copy.
  std::unordered_map<bdd::Manager*, bdd::Bdd> sets;
  for (std::size_t i = 0; i < faults_.size(); ++i) {
    bdd::Manager* m = analyses_[i].test_set.manager();
    auto it = sets.find(m);
    if (it == sets.end()) {
      it = sets.emplace(m, vector_set_bdd(*m, distinct)).first;
    }
    counts[i] = static_cast<std::uint64_t>(
        (analyses_[i].test_set & it->second).sat_count(n));
  }
  return counts;
}

std::size_t NDetectAnalyzer::top_up(std::vector<std::vector<bool>>& vectors,
                                    std::size_t n) {
  if (n == 0 || faults_.empty()) return 0;
  const std::size_t num_inputs = circuit_->num_inputs();
  auto distinct = dedupe(vectors);

  // B(V) per worker manager, kept current as vectors are minted so every
  // later fault's count and residual see the full working set.
  std::unordered_map<bdd::Manager*, bdd::Bdd> sets;
  auto set_for = [&](bdd::Manager* m) -> bdd::Bdd& {
    auto it = sets.find(m);
    if (it == sets.end()) {
      it = sets.emplace(m, vector_set_bdd(*m, distinct)).first;
    }
    return it->second;
  };

  std::size_t minted = 0;
  for (const std::size_t idx : order_) {
    const core::FaultAnalysis& a = analyses_[idx];
    const std::uint64_t target = quota(idx, n);
    if (target == 0) continue;
    bdd::Manager* m = a.test_set.manager();
    bdd::Bdd& used = set_for(m);
    std::uint64_t count = static_cast<std::uint64_t>(
        (a.test_set & used).sat_count(num_inputs));
    if (count >= target) continue;
    // Residual: vectors the CTS accepts that the set does not yet
    // contain. Its satcount is |CTS| - count > 0 while count < target,
    // so sat_one always has a cube to mint.
    bdd::Bdd residual = a.test_set & !used;
    while (count < target) {
      const std::vector<bool> v =
          vector_of_cube(residual.sat_one(), num_inputs);
      vectors.push_back(v);
      distinct.push_back(v);
      ++minted;
      ++count;
      for (auto& [manager, set] : sets) {
        set = set | minterm(*manager, v);
      }
      residual = residual & !minterm(*m, v);
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
  r.num_vectors = dedupe(vectors).size();
  const std::vector<std::uint64_t> counts = detection_counts(vectors);
  r.faults.reserve(faults_.size());
  for (std::size_t i = 0; i < faults_.size(); ++i) {
    NDetectFaultRecord rec;
    rec.fault = faults_[i];
    rec.name = fault::describe(faults_[i], *circuit_);
    rec.detectable = analyses_[i].detectable;
    rec.cts_size = cts_sizes_[i];
    rec.detections = counts[i];
    rec.target = quota(i, n);
    rec.cts_coverage = rec.detectable && rec.cts_size > 0.0
                           ? static_cast<double>(rec.detections) / rec.cts_size
                           : 0.0;
    r.faults.push_back(std::move(rec));
  }
  return r;
}

NDetectReport analyze_ndetect(const netlist::Circuit& circuit,
                              const std::vector<fault::StuckAtFault>& faults,
                              const std::vector<std::vector<bool>>& vectors,
                              std::size_t n, const NDetectOptions& options) {
  NDetectAnalyzer analyzer(circuit, faults, options);
  return analyzer.report(vectors, n);
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
