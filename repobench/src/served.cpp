// served: a spawned dpserved (2 workers, engine jobs 1, Unix socket)
// driven by an open-loop generator at one fixed rate over at most 4
// connections (or closed loop with --rate 0, to measure saturation).
// The mix:
//   warm_sa  analyze sa on circuits made resident during set-up (hits);
//   bf       cold analyze bf.and / bf.or with a fresh bridge_seed -- the
//            only workload that drives two-site bridging difference seeds;
//   grade    simulation-only fault grading with a fresh seed;
//   hybrid   cold analyze hybrid with a fresh prefilter_seed;
//   ndetect  cold ndetect with a fresh vector set.
// This is the only workload that measures serve: framing, the admission
// queue, the profile LRU and the resident forest. The warm path sets the
// p50 and the cold mix sets the p99.
//
// Every request is timed from its DUE time, not from when a connection
// got free to send it, so a stall shows up in every request it delays;
// the generator's own lateness is reported as load.late_p99_ms.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "analysis/hybrid.hpp"
#include "analysis/ndetect.hpp"
#include "analysis/profile_io.hpp"
#include "analysis/profiles.hpp"
#include "harness.hpp"
#include "serve/client.hpp"
#include "sim/wide_sim.hpp"
#include "store/hash.hpp"

namespace repobench {

namespace {

using dp::obs::JsonValue;

/// Offered requests per second: a third of this mix's lowest measured
/// saturation throughput (closed loop, `--rate 0`; see ../README.md).
/// Queueing stays small, so p99 measures the cold path, and a server
/// slowdown of 2x moves the latencies before requests fail.
constexpr double kRate = 200.0;
/// The measured phase is cut into this many windows of consecutive
/// requests; op_p50_ms and op_p99_ms are the medians of the windows'
/// quantiles, so a burst of host noise confined to one window does not
/// move them. At 200 req/s for 45 s a window holds 1,800 requests and its
/// p99 has eighteen beyond it.
constexpr std::size_t kWindows = 5;
/// Closed loop schedules this many requests per second of budget; far
/// above what 2 workers answer, so the budget, not the schedule, ends it.
constexpr double kClosedLoopCeiling = 2000.0;
constexpr std::size_t kConnections = 4;
constexpr std::size_t kServerWorkers = 2;
constexpr std::uint64_t kStream = 0x5356;  // "SV"
constexpr std::size_t kNDetectVectors = 8;
constexpr std::size_t kNDetectTarget = 4;

/// Resident (warm) circuits and the small circuits cold requests run on.
/// c95 and alu181 appear twice in the warm rotation so that their ~1.5 ms
/// hits span the middle of the latency distribution: the p50 then sits
/// inside one dense cluster instead of on the edge between two.
/// Bridging skips alu181: its 1000-fault sampled sets cost ~150 ms each,
/// enough to queue warm requests behind them and make the p99 a measure
/// of queueing luck rather than of the cold path.
const std::vector<std::string> kWarmCircuits = {"c17", "c95", "alu181", "c95", "alu181"};
const std::vector<std::string> kColdCircuits = {"fulladder", "c17", "c95", "alu181"};
const std::vector<std::string> kBridgeCircuits = {"fulladder", "c17", "c95"};
const std::vector<std::string> kGradeCircuits = {"c432", "c499", "c1355", "c1908"};

enum class Kind { WarmSa, Bf, Grade, Hybrid, NDetect };
constexpr int kKinds = 5;
const char* const kKindName[kKinds] = {"warm_sa", "bf", "grade", "hybrid", "ndetect"};
/// Designed shares of the schedule, per mille (exact per run). Warm is
/// 70%: above half with margin, so the overall p50 is the warm path's
/// 71st percentile rather than its tail. The other 30% is split evenly
/// over the four cold kinds, so each kind's own p99 rests on the same
/// number of requests and the overall top 1% comes from the cold mix.
constexpr int kSharePerMille[kKinds] = {700, 75, 75, 75, 75};

bool is_cold(Kind k) { return k == Kind::Bf || k == Kind::Hybrid || k == Kind::NDetect; }

/// One scheduled request: what was asked, and what came back.
struct Slot {
  Kind kind = Kind::WarmSa;
  std::string circuit;
  JsonValue request;
  // Filled by the sender that served the slot.
  bool ok = false;
  bool cached = false;
  std::string error;       ///< error code, or "transport: ..."
  std::string key;         ///< the response's cache key
  std::string digest;      ///< hash of the response's result payload
  double latency_ms = 0.0; ///< from the due time
  double late_ms = 0.0;    ///< send time minus due time
};

std::string digest_of(const std::string& text) {
  return dp::store::KeyBuilder().str(text).hex();
}

/// The part of a response that must equal the in-process result.
std::string payload_digest(Kind kind, const JsonValue& response) {
  switch (kind) {
    case Kind::WarmSa:
    case Kind::Bf:
    case Kind::Hybrid:
      return digest_of(response.at("profile").dump(0));
    case Kind::NDetect:
      return digest_of(response.at("report").dump(0) + response.at("minted_vectors").dump(0));
    case Kind::Grade: {
      JsonValue g = JsonValue::object();
      for (const char* f : {"total", "detected", "num_patterns", "events"}) g[f] = response.at(f);
      return digest_of(g.dump(0));
    }
  }
  return "";
}

std::string bit_string(const std::vector<bool>& v) {
  std::string s(v.size(), '0');
  for (std::size_t i = 0; i < v.size(); ++i) s[i] = v[i] ? '1' : '0';
  return s;
}

/// The seeded schedule: exact class counts, shuffled; circuits assigned
/// round-robin within each class.
std::vector<Slot> make_schedule(std::uint64_t seed, std::size_t count,
                                const std::map<std::string, const dp::netlist::Circuit*>& circuits) {
  std::vector<Kind> kinds;
  for (int k = 0; k < kKinds; ++k) {
    const std::size_t n = count * static_cast<std::size_t>(kSharePerMille[k]) / 1000;
    kinds.insert(kinds.end(), n, static_cast<Kind>(k));
  }
  while (kinds.size() < count) kinds.push_back(Kind::WarmSa);
  Rng rng(derive(seed, kStream, 0));
  for (std::size_t i = kinds.size(); i > 1; --i) std::swap(kinds[i - 1], kinds[rng.below(i)]);

  std::size_t turn[kKinds] = {};
  std::vector<Slot> slots(count);
  for (std::size_t i = 0; i < count; ++i) {
    Slot& s = slots[i];
    s.kind = kinds[i];
    const std::size_t t = turn[static_cast<int>(s.kind)]++;
    const std::uint64_t fresh = derive(seed, kStream, 1, i);  // unique per request
    JsonValue opts = JsonValue::object();
    s.request = JsonValue::object();
    s.request["id"] = static_cast<long long>(i);
    switch (s.kind) {
      case Kind::WarmSa:
        s.circuit = kWarmCircuits[t % kWarmCircuits.size()];
        s.request["type"] = "analyze";
        opts["model"] = "sa";
        break;
      case Kind::Bf:
        s.circuit = kBridgeCircuits[(t / 2) % kBridgeCircuits.size()];
        s.request["type"] = "analyze";
        opts["model"] = t % 2 ? "bf.or" : "bf.and";
        opts["bridge_seed"] = fresh >> 1;  // the protocol's integers are signed
        break;
      case Kind::Grade:
        s.circuit = kGradeCircuits[t % kGradeCircuits.size()];
        s.request["type"] = "grade";
        opts["seed"] = fresh >> 1;
        break;
      case Kind::Hybrid:
        s.circuit = kColdCircuits[t % kColdCircuits.size()];
        s.request["type"] = "analyze";
        opts["model"] = "hybrid";
        opts["prefilter_seed"] = fresh >> 1;
        break;
      case Kind::NDetect: {
        s.circuit = kColdCircuits[t % kColdCircuits.size()];
        s.request["type"] = "ndetect";
        opts["n"] = kNDetectTarget;
        Rng bits(fresh);
        JsonValue vectors = JsonValue::array();
        const std::size_t inputs = circuits.at(s.circuit)->num_inputs();
        for (std::size_t v = 0; v < kNDetectVectors; ++v) {
          std::vector<bool> bitv(inputs);
          for (std::size_t b = 0; b < inputs; ++b) bitv[b] = bits.next() & 1u;
          vectors.push_back(bit_string(bitv));
        }
        s.request["vectors"] = std::move(vectors);
        break;
      }
    }
    s.request["circuit"] = s.circuit;
    s.request["options"] = std::move(opts);
  }
  return slots;
}

/// A dpserved child process on a Unix socket inside the checkout.
class SpawnedServer {
 public:
  SpawnedServer(const std::string& exe, const std::string& socket) : socket_(socket) {
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGTERM);  // never outlive the benchmark
      const std::string workers = std::to_string(kServerWorkers);
      ::execl(exe.c_str(), exe.c_str(), "--unix", socket.c_str(), "--workers",
              workers.c_str(), "--jobs", "1", "--quiet", static_cast<char*>(nullptr));
      ::_exit(127);
    }
    for (int attempt = 0; attempt < 1000; ++attempt) {
      std::string error;
      if (auto client = dp::serve::Client::connect_unix(socket_, &error)) {
        JsonValue ping = JsonValue::object(), response;
        ping["type"] = "ping";
        if (client->call(ping, &response, &error)) return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stop();
    throw std::runtime_error("dpserved never became ready on " + socket_);
  }
  ~SpawnedServer() { stop(); }
  SpawnedServer(const SpawnedServer&) = delete;
  SpawnedServer& operator=(const SpawnedServer&) = delete;

  /// Peak resident set of the server (VmHWM), MiB; 0 if unreadable.
  double peak_rss_mb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::stod(line.substr(6)) / 1024.0;  // reported in kB
      }
    }
    return 0.0;
  }

  /// SIGTERM and wait; true when the server drained and exited 0.
  bool stop() {
    if (pid_ <= 0) return exited_clean_;
    ::kill(pid_, SIGTERM);
    int status = 0;
    exited_clean_ = ::waitpid(pid_, &status, 0) == pid_ && WIFEXITED(status) &&
                    WEXITSTATUS(status) == 0;
    pid_ = -1;
    ::unlink(socket_.c_str());
    return exited_clean_;
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
  bool exited_clean_ = false;
};

JsonValue call_or_throw(const std::string& socket, const JsonValue& request) {
  std::string error;
  auto client = dp::serve::Client::connect_unix(socket, &error);
  JsonValue response;
  if (!client || !client->call(request, &response, &error)) {
    throw std::runtime_error("served call failed: " + error);
  }
  if (!response.find("ok") || !response.at("ok").as_bool()) {
    throw std::runtime_error("served call not ok: " + response.dump(0));
  }
  return response;
}

/// Makes the warm set resident: one analyze sa per warm circuit.
void warm_up(const std::string& socket) {
  for (const std::string& name : std::set<std::string>(kWarmCircuits.begin(), kWarmCircuits.end())) {
    JsonValue request = JsonValue::object();
    request["type"] = "analyze";
    request["circuit"] = name;
    JsonValue opts = JsonValue::object();
    opts["model"] = "sa";
    request["options"] = std::move(opts);
    call_or_throw(socket, request);
  }
}

/// The generator. Open loop (rate > 0): slot i is due at start + i / rate;
/// senders claim slots in order, sleep until due, and time from the due
/// instant. Closed loop (rate == 0): each sender claims the next slot as
/// soon as its last one was answered, until `seconds` have passed; slots
/// never claimed are dropped. Returns the measured phase's wall seconds.
double drive(const std::string& socket, std::vector<Slot>& slots, double rate,
             double seconds, Tracer& tracer) {
  std::atomic<std::size_t> next{0};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  const bool closed = rate == 0.0;
  std::vector<std::thread> senders;
  for (std::size_t c = 0; c < kConnections; ++c) {
    senders.emplace_back([&] {
      std::optional<dp::serve::Client> client;
      std::string error;
      std::this_thread::sleep_until(start);
      for (std::size_t i; !(closed && Clock::now() >= end) &&
                          (i = next.fetch_add(1)) < slots.size();) {
        Slot& s = slots[i];
        const Clock::time_point due =
            closed ? Clock::now()
                   : start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(static_cast<double>(i) / rate));
        std::this_thread::sleep_until(due);
        dp::obs::ScopedSpan span =
            tracer.span(std::string("serve.") + kKindName[static_cast<int>(s.kind)]);
        span.attr("circuit", s.circuit).attr("id", i);
        if (const JsonValue* model = s.request.at("options").find("model")) {
          span.attr("model", model->as_string());
        }
        const Clock::time_point sent = Clock::now();
        s.late_ms = std::chrono::duration<double, std::milli>(sent - due).count();
        if (!client) client = dp::serve::Client::connect_unix(socket, &error);
        JsonValue response;
        if (!client || !client->call(s.request, &response, &error)) {
          s.error = "transport: " + error;
          client.reset();  // reconnect for the next slot
          continue;
        }
        s.latency_ms = std::chrono::duration<double, std::milli>(Clock::now() - due).count();
        span.stop();
        try {
          if (!response.at("ok").as_bool()) {
            s.error = response.at("error").at("code").as_string();
            continue;
          }
          if (const JsonValue* cached = response.find("cached")) s.cached = cached->as_bool();
          if (const JsonValue* key = response.find("key")) s.key = key->as_string();
          s.digest = payload_digest(s.kind, response);
          s.ok = true;
        } catch (const std::exception& e) {
          s.error = std::string("malformed response: ") + e.what();
        }
      }
    });
  }
  for (std::thread& t : senders) t.join();
  slots.resize(std::min(next.load(), slots.size()));
  return seconds_since(start);
}

/// In-process result for one request: the digest the server's response
/// must equal (and, for analyze, the key it must carry).
struct Expected {
  std::string digest;
  std::string key;  ///< empty when the key is not derived here
};

Expected in_process(const Slot& s, const dp::netlist::Circuit& circuit) {
  const JsonValue& opts = s.request.at("options");
  dp::analysis::AnalysisOptions a;
  Expected out;
  switch (s.kind) {
    case Kind::WarmSa:
      out.key = dp::analysis::profile_cache_key(circuit, "sa", a);
      out.digest = digest_of(dp::analysis::profile_to_json(
          dp::analysis::analyze_stuck_at(circuit, a), out.key).dump(0));
      break;
    case Kind::Bf: {
      const bool is_and = opts.at("model").as_string() == "bf.and";
      a.sampling.seed = static_cast<std::uint64_t>(opts.at("bridge_seed").as_int());
      out.key = dp::analysis::profile_cache_key(circuit, is_and ? "bf.and" : "bf.or", a);
      out.digest = digest_of(dp::analysis::profile_to_json(
          dp::analysis::analyze_bridging(
              circuit, is_and ? dp::fault::BridgeType::And : dp::fault::BridgeType::Or, a),
          out.key).dump(0));
      break;
    }
    case Kind::Hybrid: {
      dp::analysis::HybridOptions h;
      h.prefilter_seed = static_cast<std::uint64_t>(opts.at("prefilter_seed").as_int());
      out.digest = digest_of(dp::analysis::hybrid_profile_to_json(
          dp::analysis::analyze_stuck_at_hybrid(circuit, a, h)).dump(0));
      break;
    }
    case Kind::Grade: {
      const auto faults = dp::fault::collapse_checkpoint_faults(circuit);
      const auto grade = dp::sim::WideFaultSimulator(circuit).grade_random(
          faults, 1024, static_cast<std::uint64_t>(opts.at("seed").as_int()));
      JsonValue g = JsonValue::object();
      g["total"] = grade.total;
      g["detected"] = grade.detected();
      g["num_patterns"] = grade.num_patterns;
      g["events"] = grade.events();
      out.digest = digest_of(g.dump(0));
      break;
    }
    case Kind::NDetect: {
      std::vector<std::vector<bool>> vectors;
      const JsonValue& given = s.request.at("vectors");
      for (std::size_t v = 0; v < given.size(); ++v) {
        std::vector<bool> bits;
        for (const char ch : given.at(v).as_string()) bits.push_back(ch == '1');
        vectors.push_back(std::move(bits));
      }
      dp::analysis::NDetectAnalyzer analyzer(circuit,
                                             dp::fault::collapse_checkpoint_faults(circuit));
      const std::size_t n = static_cast<std::size_t>(opts.at("n").as_int());
      const std::size_t before = vectors.size();
      const std::size_t minted = analyzer.top_up(vectors, n);
      dp::analysis::NDetectReport report = analyzer.report(vectors, n);
      report.minted_vectors = minted;
      JsonValue minted_vectors = JsonValue::array();
      for (std::size_t v = before; v < vectors.size(); ++v) {
        minted_vectors.push_back(bit_string(vectors[v]));
      }
      // The report embeds the server's key, which hashes the request's
      // inputs; the counts and minted vectors are what is compared.
      out.digest = digest_of(dp::analysis::ndetect_report_to_json(report, s.key).dump(0) +
                             minted_vectors.dump(0));
      break;
    }
  }
  return out;
}

std::uint64_t counter_of(const JsonValue& metrics_doc, const std::string& name) {
  const JsonValue* counters = metrics_doc.at("document").at("metrics").find("counters");
  const JsonValue* c = counters ? counters->find(name) : nullptr;
  return c ? static_cast<std::uint64_t>(c->as_int()) : 0;
}

}  // namespace

void run_served(const Config& config, Tracer& tracer, Result& result) {
  // In-process copies of every circuit the mix touches, for the checks.
  std::vector<std::string> names;
  for (const auto* list : {&kWarmCircuits, &kColdCircuits, &kGradeCircuits}) {
    for (const std::string& n : *list) {
      if (std::find(names.begin(), names.end(), n) == names.end()) names.push_back(n);
    }
  }
  CircuitSetup local(names, /*forests=*/false, tracer);
  const std::vector<LoadedCircuit> loaded = local.initial();
  // The netlist and fault layers; setup_s is the server's, set below.
  local.report(loaded, result);
  std::map<std::string, const dp::netlist::Circuit*> circuits;
  for (const LoadedCircuit& c : loaded) circuits[c.name] = c.circuit.get();

  // Set-up: spawn the server and make the warm set resident. Timed
  // kSetupMinRepeats times before the measured phase, whose server is the
  // last of them, and as many times after it (see kSetupInterval).
  const std::string socket = config.out_dir + "/dpserved-" + std::to_string(::getpid()) + ".sock";
  std::vector<double> setup_s;
  std::unique_ptr<SpawnedServer> server;
  const auto set_up = [&] {
    if (server) result.check(server->stop(), "dpserved did not drain cleanly after set-up");
    server.reset();
    dp::obs::ScopedSpan span = tracer.span("setup");
    const Clock::time_point t0 = Clock::now();
    server = std::make_unique<SpawnedServer>(config.server_exe, socket);
    warm_up(socket);
    setup_s.push_back(seconds_since(t0));
  };
  for (int repeat = 0; repeat < kSetupMinRepeats; ++repeat) set_up();

  const double rate = config.rate.value_or(kRate);
  std::vector<Slot> slots = make_schedule(
      config.seed,
      static_cast<std::size_t>(config.seconds * (rate > 0.0 ? rate : kClosedLoopCeiling)),
      circuits);
  double run_s = 0.0;
  {
    dp::obs::ScopedSpan span = tracer.span("pass");
    run_s = drive(socket, slots, rate, config.seconds, tracer);
  }
  const JsonValue server_metrics = [&] {
    JsonValue request = JsonValue::object();
    request["type"] = "metrics";
    return call_or_throw(socket, request);
  }();
  result.e2e("peak_rss_mb", server->peak_rss_mb());
  result.check(server->stop(), "dpserved did not drain cleanly");
  for (int repeat = 0; repeat < kSetupMinRepeats; ++repeat) set_up();
  result.check(server->stop(), "dpserved did not drain cleanly after set-up");
  result.e2e("setup_s", median(setup_s));

  // Latency and failure accounting. A request that failed or was never
  // answered counts as failed.
  std::vector<double> late_ms, warm_ms, cold_ms;
  std::vector<double> kind_ms[kKinds], window_ms[kWindows];
  std::size_t ok = 0, cached = 0, cacheable = 0;
  std::map<std::string, std::size_t> errors;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const Slot& s = slots[i];
    ++result.attempted;
    late_ms.push_back(s.late_ms);
    if (!s.ok) {
      ++result.failed;
      ++errors[s.error.empty() ? "unanswered" : s.error];
      continue;
    }
    ++ok;
    window_ms[i * kWindows / slots.size()].push_back(s.latency_ms);
    kind_ms[static_cast<int>(s.kind)].push_back(s.latency_ms);
    if (s.kind == Kind::WarmSa) warm_ms.push_back(s.latency_ms);
    if (is_cold(s.kind)) cold_ms.push_back(s.latency_ms);
    if (s.kind != Kind::Grade) {
      ++cacheable;
      cached += s.cached;
    }
    // The designed mix: warm requests hit, cold ones miss. A warm miss
    // means cold inserts pushed the warm set out of the LRU.
    if (s.kind == Kind::WarmSa) {
      result.check(s.cached, "warm request " + s.circuit + " missed the profile cache");
    } else if (is_cold(s.kind)) {
      result.check(!s.cached, "cold request hit the profile cache");
    }
  }
  for (const auto& [code, n] : errors) {
    std::cerr << "served: " << n << " requests failed: " << code << "\n";
  }

  // Served results must equal the in-process results for the same
  // request: every warm response against one in-process sweep per
  // circuit, and every cold and grade response individually.
  {
    dp::obs::ScopedSpan span = tracer.span("check");
    std::map<std::string, Expected> warm_expected;
    std::vector<const Slot*> to_check;
    for (const Slot& s : slots) {
      if (!s.ok) continue;
      if (s.kind == Kind::WarmSa) {
        if (!warm_expected.count(s.circuit)) {
          warm_expected[s.circuit] = in_process(s, *circuits.at(s.circuit));
        }
        const Expected& e = warm_expected[s.circuit];
        result.check(s.digest == e.digest && s.key == e.key,
                     "warm " + s.circuit + " profile differs from the in-process sweep");
      } else {
        to_check.push_back(&s);
      }
    }
    std::atomic<std::size_t> next{0};
    std::mutex mismatch_mutex;
    std::vector<std::string> mismatches;
    std::vector<std::thread> checkers;
    for (int t = 0; t < 4; ++t) {
      checkers.emplace_back([&] {
        for (std::size_t i; (i = next.fetch_add(1)) < to_check.size();) {
          const Slot& s = *to_check[i];
          std::string problem;
          try {
            const Expected e = in_process(s, *circuits.at(s.circuit));
            if (s.digest != e.digest || (!e.key.empty() && s.key != e.key)) {
              problem = std::string(kKindName[static_cast<int>(s.kind)]) + " request " +
                        std::to_string(s.request.at("id").as_int()) + " on " + s.circuit +
                        " differs from the in-process result";
            }
          } catch (const std::exception& ex) {
            problem = std::string("in-process recompute threw: ") + ex.what();
          }
          if (!problem.empty()) {
            std::lock_guard<std::mutex> lock(mismatch_mutex);
            mismatches.push_back(problem);
          }
        }
      });
    }
    for (std::thread& t : checkers) t.join();
    for (const std::string& m : mismatches) result.fail(m);
  }

  result.e2e("run_s", run_s);
  result.e2e("ops_per_s", static_cast<double>(ok) / run_s);
  std::vector<double> p50_ms, p99_ms;
  for (const std::vector<double>& w : window_ms) {
    p50_ms.push_back(quantile(w, 0.50));
    p99_ms.push_back(quantile(w, 0.99));
  }
  result.e2e("op_p50_ms", median(p50_ms));
  result.e2e("op_p99_ms", median(p99_ms));
  result.layer("serve.warm_p50_ms", quantile(warm_ms, 0.50));
  result.layer("serve.cold_p50_ms", quantile(cold_ms, 0.50));
  for (int k = 0; k < kKinds; ++k) {
    result.layer(std::string("serve.") + kKindName[k] + ".p99_ms", quantile(kind_ms[k], 0.99));
  }
  result.layer("serve.cache_hit_frac",
               cacheable ? static_cast<double>(cached) / static_cast<double>(cacheable) : 0.0);
  result.layer("serve.queue_full",
               static_cast<double>(counter_of(server_metrics, "serve.rejected.queue_full")));
  result.layer("serve.deadline_exceeded",
               static_cast<double>(counter_of(server_metrics, "serve.rejected.deadline")));
  result.layer("load.late_p99_ms", quantile(late_ms, 0.99));
  std::cout << "served: " << ok << "/" << slots.size() << " ok, "
            << (rate > 0.0 ? std::to_string(rate) + " req/s offered" : std::string("closed loop"))
            << ", " << static_cast<double>(ok) / run_s << " req/s answered; p50 warm " << quantile(warm_ms, 0.5) << " ms, cold "
            << quantile(cold_ms, 0.5) << " ms\n";
}

}  // namespace repobench
