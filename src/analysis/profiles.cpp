#include "analysis/profiles.hpp"

#include <algorithm>

#include "analysis/profile_io.hpp"
#include "netlist/layout.hpp"

namespace dp::analysis {

using core::FaultAnalysis;
using netlist::Circuit;
using netlist::Structure;

std::size_t CircuitProfile::detectable_count() const {
  return static_cast<std::size_t>(
      std::count_if(faults.begin(), faults.end(),
                    [](const FaultRecord& f) { return f.detectable; }));
}

double CircuitProfile::mean_detectability_detectable() const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const FaultRecord& f : faults) {
    if (f.detectable) {
      sum += f.detectability;
      ++n;
    }
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

double CircuitProfile::mean_detectability_per_po() const {
  return num_outputs ? mean_detectability_detectable() /
                           static_cast<double>(num_outputs)
                     : 0.0;
}

Histogram CircuitProfile::detectability_histogram(std::size_t bins) const {
  Histogram h(0.0, 1.0, bins);
  for (const FaultRecord& f : faults) {
    if (f.detectable) h.add(f.detectability);
  }
  return h;
}

Histogram CircuitProfile::adherence_histogram(std::size_t bins) const {
  Histogram h(0.0, 1.0, bins);
  for (const FaultRecord& f : faults) {
    if (f.detectable) h.add(f.adherence);
  }
  return h;
}

namespace {

std::map<int, double> mean_by_key(const std::vector<FaultRecord>& faults,
                                  int FaultRecord::* key) {
  std::map<int, std::pair<double, std::size_t>> acc;
  for (const FaultRecord& f : faults) {
    if (!f.detectable) continue;
    auto& [sum, n] = acc[f.*key];
    sum += f.detectability;
    ++n;
  }
  std::map<int, double> result;
  for (const auto& [k, v] : acc) {
    result[k] = v.first / static_cast<double>(v.second);
  }
  return result;
}

}  // namespace

std::map<int, double> CircuitProfile::detectability_by_po_distance() const {
  return mean_by_key(faults, &FaultRecord::max_levels_to_po);
}

std::map<int, double> CircuitProfile::detectability_by_pi_distance() const {
  return mean_by_key(faults, &FaultRecord::level_from_pi);
}

double CircuitProfile::po_fed_equals_observed_fraction() const {
  std::size_t eq = 0, n = 0;
  for (const FaultRecord& f : faults) {
    if (!f.detectable || f.branch_site) continue;
    ++n;
    if (f.pos_fed == f.pos_observable) ++eq;
  }
  return n ? static_cast<double>(eq) / static_cast<double>(n) : 0.0;
}

double CircuitProfile::bridge_stuck_at_fraction() const {
  if (faults.empty()) return 0.0;
  std::size_t n = 0;
  for (const FaultRecord& f : faults) n += f.bridge_stuck_at;
  return static_cast<double>(n) / static_cast<double>(faults.size());
}

namespace {

FaultRecord to_record(const FaultAnalysis& a, int max_levels_to_po,
                      int level_from_pi) {
  FaultRecord r;
  r.detectable = a.detectable;
  r.detectability = a.detectability;
  r.upper_bound = a.upper_bound;
  r.adherence = a.adherence;
  r.pos_fed = a.pos_fed;
  r.pos_observable = a.pos_observable;
  r.max_levels_to_po = max_levels_to_po;
  r.level_from_pi = level_from_pi;
  r.bridge_stuck_at = a.bridge_stuck_at;
  r.gates_evaluated = a.stats.gates_evaluated;
  r.gates_skipped = a.stats.gates_skipped;
  return r;
}

CircuitProfile make_profile(const Circuit& circuit) {
  CircuitProfile p;
  p.circuit = circuit.name();
  p.netlist_size = circuit.num_gates();
  p.num_inputs = circuit.num_inputs();
  p.num_outputs = circuit.num_outputs();
  return p;
}

/// Site distances for a stuck-at fault: a branch sits one level before the
/// gate it enters; a stem sits on its net.
std::pair<int, int> sa_site_distances(const Structure& s,
                                      const fault::StuckAtFault& f) {
  if (f.branch) {
    const int to_po = s.max_levels_to_po(f.branch->gate);
    return {to_po < 0 ? -1 : to_po + 1, s.level_from_pi(f.net)};
  }
  return {s.max_levels_to_po(f.net), s.level_from_pi(f.net)};
}

}  // namespace

FaultRecord make_stuck_at_record(const Structure& structure,
                                 const fault::StuckAtFault& fault,
                                 const core::FaultAnalysis& analysis) {
  const auto [to_po, from_pi] = sa_site_distances(structure, fault);
  FaultRecord r = to_record(analysis, to_po, from_pi);
  r.branch_site = fault.branch.has_value();
  return r;
}

namespace {

/// Runs the fault sweep for `profile`, honoring options.persistence:
/// serve a cached dp.profile.v1 when one matches, otherwise sweep in
/// checkpoint_interval batches, durably recording the completed prefix
/// after each batch and consuming a matching checkpoint on entry. With
/// no store attached this degenerates to one batch over all faults.
/// `make_record` maps (fault index, analysis) to the stored record; it
/// runs concurrently for distinct indices.
template <typename Fault, typename MakeRecord>
void run_sweep(const Circuit& circuit, const Structure& structure,
               const std::vector<Fault>& faults, const AnalysisOptions& options,
               const std::string& kind, CircuitProfile& profile,
               MakeRecord&& make_record) {
  profile.faults.resize(faults.size());

  store::ArtifactStore* cache = options.persistence.store;
  std::string key;
  if (cache) {
    key = profile_cache_key(circuit, kind, options);
    if (auto doc = cache->load_document(key, "profile")) {
      if (auto cached = profile_from_json(*doc, key)) {
        if (cached->faults.size() == faults.size()) {
          // Hit: no engine, no BDDs. engine_stats stays default (zero
          // faults analyzed), which downstream reporting prints as-is.
          profile.faults = std::move(cached->faults);
          return;
        }
      }
    }
  }

  std::size_t completed = 0;
  if (cache && options.persistence.resume) {
    if (auto doc = cache->load_document(key, "ckpt")) {
      if (auto ckpt = checkpoint_from_json(*doc, key, faults.size())) {
        completed = ckpt->completed.size();
        std::move(ckpt->completed.begin(), ckpt->completed.end(),
                  profile.faults.begin());
      }
    }
  }

  core::ParallelEngine::Options popt;
  popt.jobs = options.jobs;
  popt.shared_good = options.shared_good;
  core::ParallelEngine engine(circuit, structure, popt);
  core::ParallelStats totals;
  const std::size_t interval =
      cache ? std::max<std::size_t>(1, options.persistence.checkpoint_interval)
            : faults.size();
  while (completed < faults.size()) {
    const std::size_t end = std::min(faults.size(), completed + interval);
    const std::size_t base = completed;
    const std::vector<Fault> batch(faults.begin() + base, faults.begin() + end);
    // Streaming sink: the test-set BDDs are dropped fault by fault
    // (distinct indices, so concurrent writes into the pre-sized vector
    // are safe).
    engine.analyze_each(batch, [&](std::size_t i, core::FaultAnalysis&& a) {
      profile.faults[base + i] = make_record(base + i, a);
    });
    totals.merge(engine.stats());
    completed = end;
    if (cache && completed < faults.size()) {
      SweepCheckpoint ckpt;
      ckpt.key = key;
      ckpt.total_faults = faults.size();
      ckpt.completed.assign(profile.faults.begin(),
                            profile.faults.begin() + completed);
      cache->store_document(key, "ckpt", checkpoint_to_json(ckpt));
    }
  }
  profile.engine_stats = totals;
  if (cache) {
    cache->store_document(key, "profile", profile_to_json(profile, key));
    cache->remove(key, "ckpt");  // the profile supersedes the checkpoint
  }
}

}  // namespace

CircuitProfile analyze_stuck_at(const Circuit& circuit,
                                const AnalysisOptions& options) {
  Structure structure(circuit);
  const std::vector<fault::StuckAtFault> faults =
      options.collapse ? fault::collapse_checkpoint_faults(circuit)
                       : fault::checkpoint_faults(circuit);

  CircuitProfile profile = make_profile(circuit);
  run_sweep(circuit, structure, faults, options, "sa", profile,
            [&](std::size_t i, const core::FaultAnalysis& a) {
              return make_stuck_at_record(structure, faults[i], a);
            });
  return profile;
}

CircuitProfile analyze_bridging(const Circuit& circuit,
                                fault::BridgeType type,
                                const AnalysisOptions& options) {
  Structure structure(circuit);
  netlist::LayoutEstimate layout(circuit, structure);
  const std::vector<fault::BridgingFault> faults = fault::nfbf_fault_set(
      circuit, structure, layout, type, options.sampling);

  CircuitProfile profile = make_profile(circuit);
  const std::string kind =
      type == fault::BridgeType::And ? "bf.and" : "bf.or";
  run_sweep(circuit, structure, faults, options, kind, profile,
            [&](std::size_t i, const core::FaultAnalysis& a) {
              const fault::BridgingFault& f = faults[i];
              const int to_po = std::max(structure.max_levels_to_po(f.a),
                                         structure.max_levels_to_po(f.b));
              const int from_pi = std::max(structure.level_from_pi(f.a),
                                           structure.level_from_pi(f.b));
              return to_record(a, to_po, from_pi);
            });
  return profile;
}

}  // namespace dp::analysis
