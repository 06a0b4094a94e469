#include "analysis/diagnosis.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <stdexcept>

namespace dp::analysis {

FaultDictionary::FaultDictionary(
    const netlist::Circuit& c, const std::vector<fault::StuckAtFault>& faults,
    const std::vector<core::FaultAnalysis>& analyses,
    const std::vector<std::vector<bool>>& vectors)
    : faults_(faults), num_vectors_(vectors.size()) {
  if (c.num_outputs() > 64) {
    throw std::invalid_argument(
        "FaultDictionary: more than 64 POs (signature word too small)");
  }
  if (analyses.size() != faults.size()) {
    throw std::invalid_argument("FaultDictionary: one analysis per fault");
  }
  for (const auto& v : vectors) {
    if (v.size() != c.num_inputs()) {
      throw std::invalid_argument("FaultDictionary: vector width != #PIs");
    }
  }

  signatures_.reserve(faults.size());
  for (const core::FaultAnalysis& a : analyses) {
    // Bridge analyses leave po_differences empty (engine.hpp).
    if (a.po_differences.size() != c.num_outputs()) {
      throw std::invalid_argument("FaultDictionary: no per-PO differences");
    }
    std::vector<PoSignature> row(vectors.size(), 0);
    for (std::size_t p = 0; p < c.num_outputs(); ++p) {
      const bdd::Bdd& d = a.po_differences[p];
      if (!d.valid()) continue;
      for (std::size_t v = 0; v < vectors.size(); ++v) {
        if (d.eval(vectors[v])) row[v] |= PoSignature{1} << p;
      }
    }
    signatures_.push_back(std::move(row));
  }
}

std::vector<FaultDictionary::Candidate> FaultDictionary::diagnose(
    const std::vector<PoSignature>& observed) const {
  if (observed.size() != num_vectors_) {
    throw std::invalid_argument(
        "diagnose: observation length != dictionary vector count");
  }
  std::vector<Candidate> ranked;
  ranked.reserve(signatures_.size());
  for (std::size_t i = 0; i < signatures_.size(); ++i) {
    Candidate cand;
    cand.fault_index = i;
    for (std::size_t v = 0; v < num_vectors_; ++v) {
      cand.distance += static_cast<std::size_t>(
          std::popcount(signatures_[i][v] ^ observed[v]));
    }
    ranked.push_back(cand);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.distance < b.distance;
                   });
  return ranked;
}

std::vector<std::vector<std::size_t>>
FaultDictionary::indistinguishable_groups() const {
  std::map<std::vector<PoSignature>, std::vector<std::size_t>> by_signature;
  for (std::size_t i = 0; i < signatures_.size(); ++i) {
    by_signature[signatures_[i]].push_back(i);
  }
  std::vector<std::vector<std::size_t>> groups;
  for (auto& [sig, members] : by_signature) {
    groups.push_back(std::move(members));
  }
  return groups;
}

double FaultDictionary::resolution() const {
  if (signatures_.empty()) return 0.0;
  std::size_t unique = 0;
  for (const auto& group : indistinguishable_groups()) {
    if (group.size() == 1) ++unique;
  }
  return static_cast<double>(unique) / static_cast<double>(signatures_.size());
}

}  // namespace dp::analysis
