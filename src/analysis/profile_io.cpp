#include "analysis/profile_io.hpp"

#include "store/hash.hpp"

namespace dp::analysis {

using obs::JsonValue;

std::string profile_cache_key(const netlist::Circuit& circuit,
                              const std::string& kind,
                              const AnalysisOptions& options) {
  store::KeyBuilder k;
  k.str(kProfileSchema);  // format-version salt
  k.str(store::circuit_content_hash(circuit));
  k.str(kind);
  // Bridge records count per-bridge region steps in gates_evaluated and
  // gates_skipped, not whole-circuit sweeps; the salt keeps bridge
  // profiles stored with the old counters from being served.
  if (kind.starts_with("bf.")) k.str("bf.stem-observability");
  k.flag(options.collapse);
  // Sampling shapes the bridging fault set; harmless extra entropy for
  // stuck-at sweeps (constant given constant options).
  k.u64(options.sampling.target_count);
  k.f64(options.sampling.theta);
  k.u64(options.sampling.seed);
  return k.hex();
}

namespace {

JsonValue record_to_json(const FaultRecord& r) {
  JsonValue j = JsonValue::object();
  j["detectable"] = r.detectable;
  j["detectability"] = r.detectability;
  j["upper_bound"] = r.upper_bound;
  j["adherence"] = r.adherence;
  j["pos_fed"] = r.pos_fed;
  j["pos_observable"] = r.pos_observable;
  j["max_levels_to_po"] = r.max_levels_to_po;
  j["level_from_pi"] = r.level_from_pi;
  j["branch_site"] = r.branch_site;
  j["bridge_stuck_at"] = r.bridge_stuck_at;
  j["gates_evaluated"] = r.gates_evaluated;
  j["gates_skipped"] = r.gates_skipped;
  return j;
}

FaultRecord record_from_json(const JsonValue& j) {
  FaultRecord r;
  r.detectable = j.at("detectable").as_bool();
  r.detectability = j.at("detectability").as_double();
  r.upper_bound = j.at("upper_bound").as_double();
  r.adherence = j.at("adherence").as_double();
  r.pos_fed = static_cast<std::size_t>(j.at("pos_fed").as_int());
  r.pos_observable = static_cast<std::size_t>(j.at("pos_observable").as_int());
  r.max_levels_to_po = static_cast<int>(j.at("max_levels_to_po").as_int());
  r.level_from_pi = static_cast<int>(j.at("level_from_pi").as_int());
  r.branch_site = j.at("branch_site").as_bool();
  r.bridge_stuck_at = j.at("bridge_stuck_at").as_bool();
  r.gates_evaluated =
      static_cast<std::uint64_t>(j.at("gates_evaluated").as_int());
  r.gates_skipped = static_cast<std::uint64_t>(j.at("gates_skipped").as_int());
  return r;
}

JsonValue records_to_json(const std::vector<FaultRecord>& records) {
  JsonValue arr = JsonValue::array();
  for (const FaultRecord& r : records) arr.push_back(record_to_json(r));
  return arr;
}

std::vector<FaultRecord> records_from_json(const JsonValue& arr) {
  if (!arr.is_array()) throw obs::JsonError("fault records: not an array");
  std::vector<FaultRecord> records;
  records.reserve(arr.size());
  for (std::size_t i = 0; i < arr.size(); ++i) {
    records.push_back(record_from_json(arr.at(i)));
  }
  return records;
}

}  // namespace

JsonValue profile_to_json(const CircuitProfile& profile,
                          const std::string& key) {
  JsonValue doc = JsonValue::object();
  doc["schema"] = kProfileSchema;
  doc["key"] = key;
  doc["circuit"] = profile.circuit;
  doc["netlist_size"] = profile.netlist_size;
  doc["num_inputs"] = profile.num_inputs;
  doc["num_outputs"] = profile.num_outputs;
  doc["faults"] = records_to_json(profile.faults);
  return doc;
}

std::optional<CircuitProfile> profile_from_json(const JsonValue& doc,
                                                const std::string& key) {
  try {
    if (!doc.is_object()) return std::nullopt;
    const JsonValue* schema = doc.find("schema");
    if (!schema || !schema->is_string() ||
        schema->as_string() != kProfileSchema) {
      return std::nullopt;
    }
    if (doc.at("key").as_string() != key) return std::nullopt;
    CircuitProfile p;
    p.circuit = doc.at("circuit").as_string();
    p.netlist_size = static_cast<std::size_t>(doc.at("netlist_size").as_int());
    p.num_inputs = static_cast<std::size_t>(doc.at("num_inputs").as_int());
    p.num_outputs = static_cast<std::size_t>(doc.at("num_outputs").as_int());
    p.faults = records_from_json(doc.at("faults"));
    return p;
  } catch (const obs::JsonError&) {
    return std::nullopt;
  }
}

JsonValue hybrid_profile_to_json(const HybridProfile& profile) {
  JsonValue doc = JsonValue::object();
  doc["schema"] = kHybridProfileSchema;
  doc["circuit"] = profile.circuit;
  doc["netlist_size"] = profile.netlist_size;
  doc["num_inputs"] = profile.num_inputs;
  doc["num_outputs"] = profile.num_outputs;
  doc["prefilter_patterns"] = profile.prefilter_patterns;
  doc["prefilter_seed"] = profile.prefilter_seed;
  doc["sim_events"] = profile.sim_events;
  JsonValue levels = JsonValue::array();
  for (const std::uint64_t n : profile.sim_level_events) levels.push_back(n);
  doc["sim_level_events"] = std::move(levels);
  JsonValue faults = JsonValue::array();
  for (const HybridFaultRecord& r : profile.faults) {
    JsonValue j = JsonValue::object();
    j["resolved_by"] =
        r.resolved_by == ResolvedBy::Prefilter ? "prefilter" : "dp";
    j["detectable"] = r.detectable;
    j["detection_count"] = r.detection_count;
    // kNotDetected is ~0ull, which does not fit a JSON int exactly;
    // the wire form of "never detected" is -1.
    j["first_detection"] =
        r.first_detection == sim::WideFaultSimulator::kNotDetected
            ? static_cast<long long>(-1)
            : static_cast<long long>(r.first_detection);
    if (r.resolved_by == ResolvedBy::ExactDp) j["dp"] = record_to_json(r.dp);
    faults.push_back(std::move(j));
  }
  doc["faults"] = std::move(faults);
  return doc;
}

JsonValue checkpoint_to_json(const SweepCheckpoint& ckpt) {
  JsonValue doc = JsonValue::object();
  doc["schema"] = kCheckpointSchema;
  doc["key"] = ckpt.key;
  doc["total_faults"] = ckpt.total_faults;
  doc["completed"] = ckpt.completed.size();
  doc["faults"] = records_to_json(ckpt.completed);
  return doc;
}

std::optional<SweepCheckpoint> checkpoint_from_json(const JsonValue& doc,
                                                    const std::string& key,
                                                    std::size_t total_faults) {
  try {
    if (!doc.is_object()) return std::nullopt;
    const JsonValue* schema = doc.find("schema");
    if (!schema || !schema->is_string() ||
        schema->as_string() != kCheckpointSchema) {
      return std::nullopt;
    }
    if (doc.at("key").as_string() != key) return std::nullopt;
    SweepCheckpoint ckpt;
    ckpt.key = key;
    ckpt.total_faults =
        static_cast<std::size_t>(doc.at("total_faults").as_int());
    if (ckpt.total_faults != total_faults) return std::nullopt;
    const std::size_t completed =
        static_cast<std::size_t>(doc.at("completed").as_int());
    ckpt.completed = records_from_json(doc.at("faults"));
    if (ckpt.completed.size() != completed ||
        ckpt.completed.size() > ckpt.total_faults) {
      return std::nullopt;
    }
    return ckpt;
  } catch (const obs::JsonError&) {
    return std::nullopt;
  }
}

}  // namespace dp::analysis
