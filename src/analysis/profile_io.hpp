// Durable formats for sweep results: the `dp.profile.v1` document (one
// complete CircuitProfile), the `dp.checkpoint.v1` document (a completed
// prefix of a sweep's fault records), and the cache-key derivation that
// addresses both in the artifact store.
//
// What a key covers -- and deliberately does not
// ----------------------------------------------
// profile_cache_key() hashes everything that influences the VALUES in a
// profile: the circuit's structural content hash, the fault-model kind,
// collapse, selective trace (it changes the per-fault gates
// evaluated/skipped records), decomposition and variable-order options,
// and (for bridging) the full sampling policy. It excludes knobs that
// are proven value-neutral: the worker count (sweeps are bit-identical
// for any --jobs) and the BDD node budget (exceeding it throws instead
// of changing results). A format-version salt makes every key change
// when the schema does; bridge kinds carry one more salt for the meaning
// of their work counters (per-bridge region steps).
//
// Determinism contract: profile -> JSON -> profile is exact, doubles
// included (the writer emits shortest-round-trip forms), so a profile
// served from cache is bit-identical to the sweep that produced it.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "analysis/hybrid.hpp"
#include "analysis/profiles.hpp"
#include "obs/json.hpp"

namespace dp::analysis {

inline constexpr const char* kProfileSchema = "dp.profile.v1";
inline constexpr const char* kCheckpointSchema = "dp.checkpoint.v1";
inline constexpr const char* kHybridProfileSchema = "dp.hybrid_profile.v1";

/// Stable artifact key for one (circuit, fault model, options) sweep.
/// `kind` is "sa", "bf.and", or "bf.or" (callers may mint new kinds).
std::string profile_cache_key(const netlist::Circuit& circuit,
                              const std::string& kind,
                              const AnalysisOptions& options);

/// Serializes everything except engine_stats (wall clock and worker
/// telemetry are observations of one run, not properties of the result).
obs::JsonValue profile_to_json(const CircuitProfile& profile,
                               const std::string& key);

/// Strict parse; nullopt when the document is not a well-formed
/// dp.profile.v1 for `key` (wrong schema, wrong key, missing fields).
std::optional<CircuitProfile> profile_from_json(const obs::JsonValue& doc,
                                                const std::string& key);

/// Serializes a hybrid sim/DP pipeline result (dp.hybrid_profile.v1).
/// Like profile_to_json, run observations are excluded: engine_stats and
/// the prefilter/dp wall-clock seconds are properties of one execution,
/// so two runs of the same workload -- any worker count, served or
/// in-process -- serialize to byte-identical documents. That identity is
/// what the serve layer's field-identity tests compare.
obs::JsonValue hybrid_profile_to_json(const HybridProfile& profile);

/// Strict parse; nullopt when `doc` is not a well-formed
/// dp.hybrid_profile.v1 document.
std::optional<HybridProfile> hybrid_profile_from_json(
    const obs::JsonValue& doc);

/// A checkpoint is the contiguous completed prefix of a sweep.
struct SweepCheckpoint {
  std::string key;
  std::size_t total_faults = 0;
  std::vector<FaultRecord> completed;  ///< records [0, completed.size())
};

obs::JsonValue checkpoint_to_json(const SweepCheckpoint& ckpt);

/// Strict parse + staleness check: nullopt unless the schema matches,
/// the embedded key equals `key`, the totals equal `total_faults`, and
/// the prefix is no longer than the total. A stale or corrupt
/// checkpoint therefore degrades to a full recompute, never to a crash
/// or a mixed result.
std::optional<SweepCheckpoint> checkpoint_from_json(const obs::JsonValue& doc,
                                                    const std::string& key,
                                                    std::size_t total_faults);

}  // namespace dp::analysis
