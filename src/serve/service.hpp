// Request execution for dpserved: maps one parsed protocol request to
// the in-process analysis engines and keeps the expensive state resident
// between requests.
//
// Resident state and what "warm" means
// ------------------------------------
// Four layers stay hot across requests, which is the entire point of a
// daemon over a CLI-per-request workflow. The first two are circuit-only
// state and live in one resident entry per circuit:
//   1. Circuits -- parsed netlists (built-in benchmarks or inline .bench
//      text) are constructed once and shared by reference afterwards.
//   2. Frozen state -- the circuit's one immutable universe
//      (core::SharedGoodFunctions), built on first analyze or ndetect,
//      and its n-detect test sets per collapse flag (analysis::TestSets),
//      built on first ndetect. The first bridge analyze that misses the
//      profile cache (never warm-up) replaces the universe with the
//      layered one built over it: the same good functions plus the stem
//      observabilities of every region root. Later requests of every
//      kind, concurrent ones included, adopt the resident universe
//      read-only: an analyze that misses the profile cache still skips
//      the entire good-function build, a bridge analyze with a fresh
//      sample chases no observability, and an ndetect with a fresh vector
//      set skips the DP sweep. Each part is built at most once, under its
//      entry's own lock, so a build never stalls requests for other
//      circuits. Held by shared_ptr, so an evict during an in-flight
//      request only unpins the entry; the request keeps its references
//      until done.
//   3. Profile cache -- a bounded in-memory LRU of analyze and ndetect
//      payloads, each held as the JSON text it was serialized to once
//      (shared_ptr<const std::string>), keyed exactly like the artifact
//      store (profile_cache_key + model-specific extras). A hit skips BDD
//      construction, DP and serialization entirely: the cached text is
//      spliced after the response's small envelope. The response's
//      "cached" flag is what dpload uses to split warm from cold
//      latencies.
//   4. Artifact store (optional) -- when a cache directory is attached,
//      sweeps run with persistence enabled, so profiles survive restarts
//      and interrupted sweeps resume from checkpoints. The store is
//      lock-striped (see store/artifact_store.hpp), so concurrent
//      workers use it without external locking.
//
// Identity contract: a served "analyze" response's profile document is
// byte-identical to serializing the corresponding in-process
// analyze_stuck_at / analyze_bridging / analyze_hybrid result, for any
// worker count -- sweeps are jobs-invariant and the serializers emit
// exact round-trip doubles. A hit and a miss for the same key differ
// only in "cached". tests/serve_test.cpp pins both.
//
// handle() returns the response frame's text and never throws: engine
// exceptions become {"ok":false, code "internal"}, option mistakes
// become "bad_request". Thread safety: handle() may be called from any
// number of worker threads concurrently.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "dp/good_functions.hpp"
#include "netlist/circuit.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "store/artifact_store.hpp"

namespace dp::analysis {
class TestSets;
}

namespace dp::serve {

struct ServiceOptions {
  /// Default engine worker count for requests that do not send
  /// options.jobs (fault-partition sharding inside one request).
  std::size_t jobs = 1;
  /// Non-empty: open an ArtifactStore here and persist sweeps.
  std::string cache_dir;
  /// In-memory LRU capacity, in cached analyze responses.
  std::size_t profile_cache_entries = 64;
};

class Service {
 public:
  Service(const ServiceOptions& options, obs::MetricsRegistry* metrics);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Executes one request object and returns the response object's
  /// compact JSON text, ready to frame.
  /// Request types: analyze, ndetect, grade, hash, evict, metrics, sleep,
  /// ping. ("shutdown" is intercepted by the Server before reaching here.)
  std::string handle(const obs::JsonValue& request) noexcept;

  /// Current in-memory profile-cache entry count (tests).
  std::size_t profile_cache_size() const;

  /// What the resident entries currently hold (tests).
  struct ResidentCounts {
    std::size_t circuits = 0;
    std::size_t forests = 0;
    std::size_t test_sets = 0;  ///< n-detect test sets, per collapse flag
    /// Resident universes that carry a bridge observability layer.
    std::size_t observabilities = 0;
  };
  ResidentCounts resident_counts() const;

 private:
  struct CacheEntry;

  /// One circuit's resident state. The circuit is fixed at creation; the
  /// universe and the test sets are built on first use, each under its
  /// own mutex. Test sets never change afterwards; the universe changes
  /// once at most, when the first bridge sweep layers it.
  struct Resident {
    std::shared_ptr<const netlist::Circuit> circuit;
    std::mutex forest_mutex;
    std::shared_ptr<const core::SharedGoodFunctions> forest;
    std::mutex test_sets_mutex;
    /// Indexed by the collapse flag.
    std::shared_ptr<const analysis::TestSets> test_sets[2];
  };

  /// The resident entry of the request's circuit ("circuit" name or
  /// inline "bench" text), parsing the netlist on first use.
  std::shared_ptr<Resident> resident_for(const obs::JsonValue& request);

  /// The entry's universe, built on first use; later requests for the
  /// circuit adopt the same immutable one. With `layered`, a universe
  /// without an observability layer is first replaced by the layered one
  /// built over it (every region root, so any bridge sample is covered)
  /// at `jobs` workers (the layer is jobs-invariant).
  std::shared_ptr<const core::SharedGoodFunctions> forest_of(
      Resident& r, bool layered = false, std::size_t jobs = 1);

  /// The entry's n-detect test sets for the collapse flag, built on first
  /// use over its forest at `jobs` workers (the sets are jobs-invariant).
  std::shared_ptr<const analysis::TestSets> test_sets_of(
      Resident& r, bool collapse, std::size_t jobs);

  std::string handle_analyze(long long id, const obs::JsonValue& request);
  std::string handle_ndetect(long long id, const obs::JsonValue& request);
  obs::JsonValue handle_grade(long long id, const obs::JsonValue& request);
  obs::JsonValue handle_hash(long long id, const obs::JsonValue& request);
  obs::JsonValue handle_evict(long long id, const obs::JsonValue& request);
  obs::JsonValue handle_metrics(long long id);
  obs::JsonValue handle_sleep(long long id, const obs::JsonValue& request);

  /// The serialized payload cached under `key`, moved to the LRU head
  /// (`*hit` true). On a miss, `compute()` runs outside the lock, its
  /// result is serialized once and cached for `circuit` (`*hit` false).
  std::shared_ptr<const std::string> cached_payload(
      const std::string& key, const std::string& circuit,
      const std::function<obs::JsonValue()>& compute, bool* hit);

  ServiceOptions options_;
  obs::MetricsRegistry* metrics_;
  std::unique_ptr<store::ArtifactStore> store_;

  /// Keyed "name:<circuit>" or "bench:<text hash>".
  mutable std::mutex residents_mutex_;
  std::unordered_map<std::string, std::shared_ptr<Resident>> residents_;

  mutable std::mutex cache_mutex_;
  std::list<CacheEntry> lru_;  ///< front = most recently used
  std::unordered_map<std::string, std::list<CacheEntry>::iterator> cache_;
};

}  // namespace dp::serve
