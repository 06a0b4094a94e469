#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "analysis/hybrid.hpp"
#include "analysis/ndetect.hpp"
#include "analysis/profile_io.hpp"
#include "analysis/profiles.hpp"
#include "fault/stuck_at.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/generators.hpp"
#include "obs/span.hpp"
#include "serve/protocol.hpp"
#include "sim/wide_sim.hpp"
#include "store/hash.hpp"

namespace dp::serve {

using obs::JsonValue;

namespace {

/// Thrown for anything the client got wrong; handle() maps it to a
/// bad_request response (engine exceptions stay "internal").
class BadRequest : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

long long request_id(const JsonValue& request) {
  const JsonValue* id = request.find("id");
  if (!id) return 0;
  if (!id->is_number()) throw BadRequest("'id' must be an integer");
  return id->as_int();
}

std::string require_string(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  if (!v || !v->is_string()) {
    throw BadRequest(std::string("missing string field '") + key + "'");
  }
  return v->as_string();
}

/// Typed option readers: wrong types are client errors, not crashes.
bool opt_bool(const JsonValue& obj, const char* key, bool fallback) {
  const JsonValue* v = obj.find(key);
  if (!v) return fallback;
  if (v->kind() != JsonValue::Kind::Bool) {
    throw BadRequest(std::string("option '") + key + "' must be a boolean");
  }
  return v->as_bool();
}

std::uint64_t opt_u64(const JsonValue& obj, const char* key,
                      std::uint64_t fallback) {
  const JsonValue* v = obj.find(key);
  if (!v) return fallback;
  if (!v->is_number() || v->as_int() < 0) {
    throw BadRequest(std::string("option '") + key +
                     "' must be a non-negative integer");
  }
  return static_cast<std::uint64_t>(v->as_int());
}

double opt_double(const JsonValue& obj, const char* key, double fallback) {
  const JsonValue* v = obj.find(key);
  if (!v) return fallback;
  if (!v->is_number()) {
    throw BadRequest(std::string("option '") + key + "' must be a number");
  }
  return v->as_double();
}

/// Every option object is closed: an unknown key is a bad_request, so a
/// typo like "colapse" can never silently run with defaults.
void reject_unknown_keys(const JsonValue& obj,
                         std::initializer_list<const char*> allowed) {
  if (obj.is_null()) return;
  if (!obj.is_object()) throw BadRequest("'options' must be an object");
  for (const auto& [key, value] : obj.members()) {
    bool ok = false;
    for (const char* a : allowed) {
      if (key == a) {
        ok = true;
        break;
      }
    }
    if (!ok) throw BadRequest("unknown option '" + key + "'");
  }
}

const JsonValue& options_of(const JsonValue& request) {
  static const JsonValue kNull;
  const JsonValue* v = request.find("options");
  return v ? *v : kNull;
}

/// The optional ndetect "vectors" field: an array of '0'/'1' bit-strings,
/// each exactly the circuit's input count long, character i = PI i.
std::vector<std::vector<bool>> parse_bit_vectors(const JsonValue& request,
                                                 std::size_t num_inputs) {
  std::vector<std::vector<bool>> out;
  const JsonValue* v = request.find("vectors");
  if (!v) return out;
  if (!v->is_array()) {
    throw BadRequest("'vectors' must be an array of bit-strings");
  }
  out.reserve(v->size());
  for (std::size_t i = 0; i < v->size(); ++i) {
    const JsonValue& e = v->at(i);
    if (!e.is_string()) {
      throw BadRequest("'vectors' must be an array of bit-strings");
    }
    const std::string& s = e.as_string();
    if (s.size() != num_inputs) {
      throw BadRequest("vector " + std::to_string(i) + " has length " +
                       std::to_string(s.size()) + ", expected " +
                       std::to_string(num_inputs) +
                       " (one character per primary input)");
    }
    std::vector<bool> bits(num_inputs);
    for (std::size_t c = 0; c < s.size(); ++c) {
      if (s[c] != '0' && s[c] != '1') {
        throw BadRequest("vector " + std::to_string(i) +
                         " must contain only '0' and '1'");
      }
      bits[c] = s[c] == '1';
    }
    out.push_back(std::move(bits));
  }
  return out;
}

std::string bit_string_of(const std::vector<bool>& v) {
  std::string s(v.size(), '0');
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i]) s[i] = '1';
  }
  return s;
}

/// The text of one object holding `envelope`'s members, then those of
/// the serialized object `members`: the cached payload is copied in once,
/// never parsed.
std::string splice(const JsonValue& envelope, const std::string& members) {
  const std::string head = envelope.dump(0);
  std::string frame;
  frame.reserve(head.size() + members.size());
  frame.append(head, 0, head.size() - 1);  // drop the closing brace
  frame += ',';
  frame.append(members, 1);  // drop the opening brace
  return frame;
}

}  // namespace

/// One cached payload: the compact JSON text of an object whose members
/// follow the response envelope, plus the circuit name (evict-by-circuit)
/// and its key (unlink on LRU eviction).
struct Service::CacheEntry {
  std::string key;
  std::string circuit;
  std::shared_ptr<const std::string> payload;
};

Service::Service(const ServiceOptions& options, obs::MetricsRegistry* metrics)
    : options_(options), metrics_(metrics) {
  if (!options_.cache_dir.empty()) {
    store_ = std::make_unique<store::ArtifactStore>(
        options_.cache_dir, store::ArtifactStore::Options{}, metrics_);
  }
}

Service::~Service() = default;

std::size_t Service::profile_cache_size() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return cache_.size();
}

Service::ResidentCounts Service::resident_counts() const {
  std::lock_guard<std::mutex> lock(residents_mutex_);
  ResidentCounts counts;
  for (const auto& [key, r] : residents_) {
    ++counts.circuits;
    {
      std::lock_guard<std::mutex> forest_lock(r->forest_mutex);
      counts.forests += r->forest ? 1 : 0;
      counts.observabilities += r->forest && r->forest->layered() ? 1 : 0;
    }
    std::lock_guard<std::mutex> sets_lock(r->test_sets_mutex);
    for (const auto& sets : r->test_sets) counts.test_sets += sets ? 1 : 0;
  }
  return counts;
}

std::shared_ptr<const std::string> Service::cached_payload(
    const std::string& key, const std::string& circuit,
    const std::function<JsonValue()>& compute, bool* hit) {
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    if (auto it = cache_.find(key); it != cache_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      if (metrics_) metrics_->counter("serve.profile_cache.hits").add();
      *hit = true;
      return it->second->payload;
    }
    if (metrics_) metrics_->counter("serve.profile_cache.misses").add();
  }
  *hit = false;
  auto payload = std::make_shared<const std::string>(compute().dump(0));
  std::lock_guard<std::mutex> lock(cache_mutex_);
  if (auto it = cache_.find(key); it != cache_.end()) {
    // A concurrent request computed the same payload; results are
    // deterministic, so either copy is THE result. Keep the incumbent.
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->payload;
  }
  lru_.push_front(CacheEntry{key, circuit, payload});
  cache_[key] = lru_.begin();
  while (cache_.size() > options_.profile_cache_entries && !lru_.empty()) {
    cache_.erase(lru_.back().key);
    lru_.pop_back();
    if (metrics_) metrics_->counter("serve.profile_cache.evictions").add();
  }
  return payload;
}

std::shared_ptr<Service::Resident> Service::resident_for(
    const JsonValue& request) {
  const JsonValue* bench = request.find("bench");
  std::string key;
  if (bench) {
    if (!bench->is_string()) throw BadRequest("'bench' must be a string");
    // Inline netlists are keyed by text hash, so re-sending the same
    // .bench body hits the resident parse.
    key = "bench:" + store::KeyBuilder().str(bench->as_string()).hex();
  } else {
    key = "name:" + require_string(request, "circuit");
  }
  {
    std::lock_guard<std::mutex> lock(residents_mutex_);
    auto it = residents_.find(key);
    if (it != residents_.end()) return it->second;
  }
  // Parse outside the lock; a duplicate racing parse is wasted work but
  // harmless (first insert wins below, so both requests share one entry).
  auto entry = std::make_shared<Resident>();
  try {
    if (bench) {
      entry->circuit = std::make_shared<netlist::Circuit>(
          netlist::read_bench_string(bench->as_string(), "inline"));
    } else {
      const std::string name = require_string(request, "circuit");
      for (const std::string& known : netlist::benchmark_names()) {
        if (known == name) {
          entry->circuit = std::make_shared<netlist::Circuit>(
              netlist::make_benchmark(name));
          break;
        }
      }
      if (!entry->circuit) {
        throw BadRequest("unknown circuit '" + name +
                         "' (send a built-in benchmark name, or the "
                         "netlist text in 'bench')");
      }
    }
  } catch (const netlist::NetlistError& e) {
    throw BadRequest(std::string("netlist: ") + e.what());
  }
  std::lock_guard<std::mutex> lock(residents_mutex_);
  return residents_.emplace(key, std::move(entry)).first->second;
}

std::shared_ptr<const core::SharedGoodFunctions> Service::forest_of(
    Resident& r, bool layered, std::size_t jobs) {
  // The second of two racing requests for a cold circuit (or a plain
  // universe) blocks here until the first finishes building, then adopts
  // that universe instead of building a duplicate.
  std::lock_guard<std::mutex> lock(r.forest_mutex);
  if (r.forest) {
    if (metrics_) metrics_->counter("serve.forest.reuses").add();
  } else {
    // Defaults mirror what handle_analyze's AnalysisOptions would make
    // the engine build itself: default GoodFunctionOptions and node
    // budget (neither is client-settable), so adoption preserves
    // bit-identity.
    r.forest = std::make_shared<const core::SharedGoodFunctions>(*r.circuit);
    if (metrics_) metrics_->counter("serve.forest.builds").add();
  }
  if (!layered) return r.forest;
  if (r.forest->layered()) {
    if (metrics_) metrics_->counter("serve.observabilities.reuses").add();
    return r.forest;
  }
  obs::ScopedSpan span(obs::SpanCollector::current(),
                       "serve.observabilities.build");
  span.attr("circuit", r.circuit->name()).attr("jobs", jobs);
  const netlist::Structure structure(*r.circuit);
  r.forest = std::make_shared<const core::SharedGoodFunctions>(
      *r.forest, structure, core::every_net(*r.circuit), jobs);
  if (metrics_) metrics_->counter("serve.observabilities.builds").add();
  return r.forest;
}

std::shared_ptr<const analysis::TestSets> Service::test_sets_of(
    Resident& r, bool collapse, std::size_t jobs) {
  // Lock order: test sets, then (inside forest_of) the forest.
  std::lock_guard<std::mutex> lock(r.test_sets_mutex);
  std::shared_ptr<const analysis::TestSets>& sets =
      r.test_sets[collapse ? 1 : 0];
  if (sets) {
    if (metrics_) metrics_->counter("serve.ndetect.test_sets.reuses").add();
    return sets;
  }
  analysis::NDetectOptions options;
  options.jobs = jobs;
  options.shared_good = forest_of(r);
  obs::ScopedSpan span(obs::SpanCollector::current(), "serve.ndetect.build");
  span.attr("circuit", r.circuit->name()).attr("jobs", jobs);
  sets = std::make_shared<const analysis::TestSets>(
      *r.circuit,
      collapse ? fault::collapse_checkpoint_faults(*r.circuit)
               : fault::checkpoint_faults(*r.circuit),
      options);
  if (metrics_) metrics_->counter("serve.ndetect.test_sets.builds").add();
  return sets;
}

std::string Service::handle(const JsonValue& request) noexcept {
  long long id = 0;
  try {
    if (!request.is_object()) throw BadRequest("request must be an object");
    id = request_id(request);
    const std::string type = require_string(request, "type");
    obs::ScopedSpan span(obs::SpanCollector::current(), "serve." + type);
    if (type == "analyze") return handle_analyze(id, request);
    if (type == "ndetect") return handle_ndetect(id, request);
    if (type == "grade") return handle_grade(id, request).dump(0);
    if (type == "hash") return handle_hash(id, request).dump(0);
    if (type == "evict") return handle_evict(id, request).dump(0);
    if (type == "metrics") return handle_metrics(id).dump(0);
    if (type == "sleep") return handle_sleep(id, request).dump(0);
    if (type == "ping") return make_ok_response(id, "ping").dump(0);
    throw BadRequest("unknown request type '" + type + "'");
  } catch (const BadRequest& e) {
    if (metrics_) metrics_->counter("serve.errors.bad_request").add();
    return make_error_response(id, ErrorCode::BadRequest, e.what()).dump(0);
  } catch (const std::exception& e) {
    if (metrics_) metrics_->counter("serve.errors.internal").add();
    return make_error_response(id, ErrorCode::Internal, e.what()).dump(0);
  }
}

std::string Service::handle_analyze(long long id, const JsonValue& request) {
  const JsonValue& opts = options_of(request);
  reject_unknown_keys(opts, {"model", "jobs", "collapse", "bridge_count",
                             "bridge_theta", "bridge_seed",
                             "prefilter_patterns", "prefilter_seed",
                             "persist"});
  const std::shared_ptr<Resident> resident = resident_for(request);
  const std::shared_ptr<const netlist::Circuit>& circuit = resident->circuit;

  std::string model = "sa";
  if (const JsonValue* m = opts.find("model")) {
    if (!m->is_string()) throw BadRequest("option 'model' must be a string");
    model = m->as_string();
  }
  if (model != "sa" && model != "bf.and" && model != "bf.or" &&
      model != "hybrid") {
    throw BadRequest("option 'model' must be sa, bf.and, bf.or or hybrid");
  }

  analysis::AnalysisOptions a;
  a.collapse = opt_bool(opts, "collapse", true);
  a.jobs = static_cast<std::size_t>(opt_u64(opts, "jobs", options_.jobs));
  a.sampling.target_count = static_cast<std::size_t>(
      opt_u64(opts, "bridge_count", a.sampling.target_count));
  a.sampling.theta = opt_double(opts, "bridge_theta", a.sampling.theta);
  a.sampling.seed = opt_u64(opts, "bridge_seed", a.sampling.seed);
  const bool persist = opt_bool(opts, "persist", true);
  if (store_ && persist) a.persistence.store = store_.get();

  analysis::HybridOptions h;
  h.prefilter_patterns = static_cast<std::size_t>(
      opt_u64(opts, "prefilter_patterns", h.prefilter_patterns));
  h.prefilter_seed = opt_u64(opts, "prefilter_seed", h.prefilter_seed);

  // One key addresses both caches. For sa/bf it IS the artifact-store
  // key; hybrid extends it with the prefilter policy (jobs stays
  // excluded -- results are worker-count invariant end to end).
  std::string key;
  if (model == "hybrid") {
    key = store::KeyBuilder()
              .str(analysis::profile_cache_key(*circuit, "sa", a))
              .str("hybrid")
              .u64(h.prefilter_patterns)
              .u64(h.prefilter_seed)
              .flag(h.drop_detected)
              .hex();
  } else {
    key = analysis::profile_cache_key(*circuit, model, a);
  }

  if (metrics_) metrics_->counter("serve.requests.analyze").add();
  bool hit = false;
  const std::shared_ptr<const std::string> payload = cached_payload(
      key, circuit->name(),
      [&] {
        // Cache miss: the sweep will run, so pin (or build) the resident
        // universe, layered for a bridge sweep, and hand it to the engine.
        // Concurrent analyzes of the same circuit adopt the same
        // immutable node pool.
        a.shared_good = forest_of(*resident,
                                  model == "bf.and" || model == "bf.or",
                                  a.jobs);
        obs::ScopedSpan span(obs::SpanCollector::current(),
                             "serve.analyze." + model);
        span.attr("circuit", circuit->name()).attr("jobs", a.jobs);
        JsonValue members = JsonValue::object();
        if (model == "sa") {
          members["profile"] = analysis::profile_to_json(
              analysis::analyze_stuck_at(*circuit, a), key);
        } else if (model == "bf.and" || model == "bf.or") {
          const fault::BridgeType bt = model == "bf.and"
                                           ? fault::BridgeType::And
                                           : fault::BridgeType::Or;
          members["profile"] = analysis::profile_to_json(
              analysis::analyze_bridging(*circuit, bt, a), key);
        } else {
          members["profile"] = analysis::hybrid_profile_to_json(
              analysis::analyze_stuck_at_hybrid(*circuit, a, h));
        }
        return members;
      },
      &hit);

  JsonValue resp = make_ok_response(id, "analyze");
  resp["model"] = model;
  resp["circuit"] = circuit->name();
  resp["cached"] = hit;
  resp["key"] = key;
  return splice(resp, *payload);
}

std::string Service::handle_ndetect(long long id, const JsonValue& request) {
  const JsonValue& opts = options_of(request);
  reject_unknown_keys(opts, {"n", "jobs", "topup", "collapse"});
  const std::shared_ptr<Resident> resident = resident_for(request);
  const std::shared_ptr<const netlist::Circuit>& circuit = resident->circuit;

  const std::size_t n = static_cast<std::size_t>(opt_u64(opts, "n", 1));
  const std::size_t jobs =
      static_cast<std::size_t>(opt_u64(opts, "jobs", options_.jobs));
  const bool topup = opt_bool(opts, "topup", true);
  const bool collapse = opt_bool(opts, "collapse", true);
  std::vector<std::vector<bool>> vectors =
      parse_bit_vectors(request, circuit->num_inputs());

  // The key covers everything the result depends on -- circuit content,
  // target n, the top-up/collapse policy, and the client's vector set.
  // jobs stays excluded: counts are satcounts of canonical functions,
  // identical for any worker count.
  store::KeyBuilder kb;
  kb.str(analysis::kNDetectSchema);
  kb.str(store::circuit_content_hash(*circuit));
  kb.u64(n);
  kb.flag(topup);
  kb.flag(collapse);
  kb.u64(vectors.size());
  for (const auto& v : vectors) kb.str(bit_string_of(v));
  const std::string key = kb.hex();

  if (metrics_) metrics_->counter("serve.requests.ndetect").add();
  bool hit = false;
  const std::shared_ptr<const std::string> payload = cached_payload(
      key, circuit->name(),
      [&] {
        // Cache miss: count against the circuit's resident test sets (the
        // DP sweep runs only for the first ndetect on a circuit and flag).
        obs::ScopedSpan span(obs::SpanCollector::current(), "serve.ndetect");
        span.attr("circuit", circuit->name()).attr("jobs", jobs);
        analysis::NDetectAnalyzer analyzer(
            *circuit, test_sets_of(*resident, collapse, jobs));
        const std::size_t given = vectors.size();
        std::size_t minted = 0;
        if (topup) minted = analyzer.top_up(vectors, n);
        analysis::NDetectReport report = analyzer.report(vectors, n);
        report.minted_vectors = minted;
        JsonValue members = JsonValue::object();
        members["report"] = analysis::ndetect_report_to_json(report, key);
        JsonValue minted_vectors = JsonValue::array();
        for (std::size_t i = given; i < vectors.size(); ++i) {
          minted_vectors.push_back(bit_string_of(vectors[i]));
        }
        members["minted_vectors"] = std::move(minted_vectors);
        return members;
      },
      &hit);

  JsonValue resp = make_ok_response(id, "ndetect");
  resp["circuit"] = circuit->name();
  resp["cached"] = hit;
  resp["key"] = key;
  return splice(resp, *payload);
}

JsonValue Service::handle_grade(long long id, const JsonValue& request) {
  const JsonValue& opts = options_of(request);
  reject_unknown_keys(opts,
                      {"patterns", "seed", "collapse", "drop_detected"});
  const std::shared_ptr<Resident> resident = resident_for(request);
  const netlist::Circuit& circuit = *resident->circuit;
  const std::size_t patterns =
      static_cast<std::size_t>(opt_u64(opts, "patterns", 1024));
  const std::uint64_t seed = opt_u64(opts, "seed", 0x5eedb10cull);
  const bool collapse = opt_bool(opts, "collapse", true);

  if (metrics_) metrics_->counter("serve.requests.grade").add();
  const std::vector<fault::StuckAtFault> faults =
      collapse ? fault::collapse_checkpoint_faults(circuit)
               : fault::checkpoint_faults(circuit);
  sim::WideFaultSimulator sim(circuit);
  sim::WideSimOptions wopts;
  wopts.drop_detected = opt_bool(opts, "drop_detected", true);
  const auto grade = sim.grade_random(faults, patterns, seed, wopts);

  JsonValue resp = make_ok_response(id, "grade");
  resp["circuit"] = circuit.name();
  resp["total"] = grade.total;
  resp["detected"] = grade.detected();
  resp["num_patterns"] = grade.num_patterns;
  resp["coverage"] =
      grade.total == 0 ? 0.0
                       : static_cast<double>(grade.detected()) /
                             static_cast<double>(grade.total);
  resp["events"] = grade.events();
  return resp;
}

JsonValue Service::handle_hash(long long id, const JsonValue& request) {
  const std::shared_ptr<Resident> resident = resident_for(request);
  JsonValue resp = make_ok_response(id, "hash");
  resp["circuit"] = resident->circuit->name();
  resp["hash"] = store::circuit_content_hash(*resident->circuit);
  return resp;
}

JsonValue Service::handle_evict(long long id, const JsonValue& request) {
  // With "circuit": drop that circuit's cached profiles and its resident
  // entry. Without: drop everything (a full cache reset between load
  // phases). The artifact store on disk is never touched.
  std::size_t evicted = 0;
  const JsonValue* which = request.find("circuit");
  if (which && !which->is_string()) {
    throw BadRequest("'circuit' must be a string");
  }
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    for (auto it = lru_.begin(); it != lru_.end();) {
      if (!which || it->circuit == which->as_string()) {
        cache_.erase(it->key);
        it = lru_.erase(it);
        ++evicted;
      } else {
        ++it;
      }
    }
  }
  {
    // Dropping an entry only unpins its circuit, universe and test sets;
    // an in-flight request keeps its references until it completes.
    std::lock_guard<std::mutex> lock(residents_mutex_);
    std::erase_if(residents_, [&](const auto& entry) {
      return !which || entry.second->circuit->name() == which->as_string();
    });
  }
  if (metrics_) metrics_->counter("serve.requests.evict").add();
  JsonValue resp = make_ok_response(id, "evict");
  resp["evicted"] = evicted;
  return resp;
}

JsonValue Service::handle_metrics(long long id) {
  JsonValue resp = make_ok_response(id, "metrics");
  // Shaped exactly like a CLI --metrics-json file, so a client can dump
  // it to disk and validate_metrics accepts it unchanged.
  JsonValue doc = JsonValue::object();
  doc["tool"] = "dpserved";
  doc["schema"] = "dp.metrics.v1";
  doc["metrics"] = metrics_ ? metrics_->to_json() : JsonValue::object();
  resp["document"] = std::move(doc);
  return resp;
}

JsonValue Service::handle_sleep(long long id, const JsonValue& request) {
  // Deterministic busy-worker stand-in for deadline/backpressure tests
  // and load shaping; capped so a client cannot park a worker for long.
  const JsonValue& opts = options_of(request);
  reject_unknown_keys(opts, {"ms"});
  const std::uint64_t ms = std::min<std::uint64_t>(
      opt_u64(opts, "ms", 10), 10'000);
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  JsonValue resp = make_ok_response(id, "sleep");
  resp["slept_ms"] = ms;
  return resp;
}

}  // namespace dp::serve
