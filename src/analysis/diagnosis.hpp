// Fault dictionaries and cause-effect diagnosis.
//
// Difference Propagation yields, for every fault, the exact set of vectors
// that fail at each PO -- which is precisely a full-response fault
// dictionary (the cause-effect framework of Bossen & Hong [6], whose
// checkpoint faults the paper adopts). Given the observed failing
// (vector, PO) pairs from a defective unit, candidates are ranked by exact
// signature match, making location of modeled faults a lookup.
#pragma once

#include <cstdint>
#include <vector>

#include "dp/engine.hpp"
#include "fault/stuck_at.hpp"

namespace dp::analysis {

/// Failing-PO signature of one fault under one test vector: bit p set
/// means PO p shows the wrong value.
using PoSignature = std::uint64_t;

/// Dictionary over a fixed vector set: per fault, per vector, the failing
/// POs. Circuits with more than 64 POs are not supported (signature word).
class FaultDictionary {
 public:
  /// Builds the dictionary from every fault's analysis (analyses[i] is
  /// faults[i]'s, per-PO differences included): entry(f, v) has bit p set
  /// iff vector v is in fault f's test set at PO p (the per-PO difference
  /// function evaluates true). Requires exact good functions (no cut-point
  /// decomposition): difference functions over cut variables cannot be
  /// evaluated on PI vectors alone.
  FaultDictionary(const netlist::Circuit& circuit,
                  const std::vector<fault::StuckAtFault>& faults,
                  const std::vector<core::FaultAnalysis>& analyses,
                  const std::vector<std::vector<bool>>& vectors);

  std::size_t num_faults() const { return signatures_.size(); }
  std::size_t num_vectors() const { return num_vectors_; }

  const fault::StuckAtFault& fault_at(std::size_t i) const {
    return faults_.at(i);
  }
  PoSignature signature(std::size_t fault_index,
                        std::size_t vector_index) const {
    return signatures_.at(fault_index).at(vector_index);
  }

  /// Observed behavior of a unit under test: failing POs per vector
  /// (all-zero rows mean the vector passed).
  struct Candidate {
    std::size_t fault_index = 0;
    /// Hamming distance between observed and dictionary signatures,
    /// summed over vectors; 0 is a perfect match.
    std::size_t distance = 0;
  };

  /// Ranks all faults by signature distance to the observation
  /// (ascending; ties keep dictionary order). Perfect matches first.
  std::vector<Candidate> diagnose(
      const std::vector<PoSignature>& observed) const;

  /// Faults whose dictionary signatures are identical across all vectors
  /// (indistinguishable by this vector set), grouped.
  std::vector<std::vector<std::size_t>> indistinguishable_groups() const;

  /// Diagnostic resolution: fraction of faults uniquely distinguishable.
  double resolution() const;

 private:
  std::vector<fault::StuckAtFault> faults_;
  std::vector<std::vector<PoSignature>> signatures_;
  std::size_t num_vectors_ = 0;
};

}  // namespace dp::analysis
