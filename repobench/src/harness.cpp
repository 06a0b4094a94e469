#include "harness.hpp"

#include <sys/resource.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>

#include "analysis/profile_io.hpp"
#include "netlist/generators.hpp"
#include "obs/json.hpp"
#include "store/hash.hpp"

namespace repobench {

using dp::obs::JsonValue;

namespace {

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t derive(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                     std::uint64_t c) {
  return splitmix(splitmix(splitmix(splitmix(seed) ^ a) ^ b) ^ c);
}

std::uint64_t Rng::next() {
  const std::uint64_t z = splitmix(state_);
  state_ += 0x9e3779b97f4a7c15ull;
  return z;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least q * n values at or
  // below it, i.e. index ceil(q * n) - 1.
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(v.size() - 1, i)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

void release_free_heap() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

double self_peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Result::fail(const std::string& what) {
  ++failures_;
  std::cerr << "CHECK FAILED: " << what << "\n";
}

Tracer::Tracer(bool on)
    : spans_(on ? std::make_unique<dp::obs::SpanCollector>() : nullptr) {}

std::uint64_t Tracer::recorded() const {
  return spans_ ? spans_->snapshot().recorded : 0;
}

bool Tracer::write(const std::string& path, const std::string& run_id,
                   double wall_seconds) const {
  if (!spans_) return true;
  const JsonValue doc = dp::obs::make_trace_document(
      "run", run_id, 1, *spans_, JsonValue(), wall_seconds);
  std::string error;
  if (!dp::obs::write_json_file_atomic(path, doc, &error)) {
    std::cerr << "trace: " << error << "\n";
    return false;
  }
  return true;
}

void PassFigures::add(double seconds, double ops_per_s,
                      const std::vector<double>& latency_ms) {
  seconds_.push_back(seconds);
  ops_per_s_.push_back(ops_per_s);
  peak_rss_mb_.push_back(self_peak_rss_mb());
  if (!latency_ms.empty()) p50_ms_.push_back(quantile(latency_ms, 0.50));
}

void PassFigures::report(Result& result, Peak peak) const {
  // The first pass is a warm-up (first touches of the allocator's memory,
  // cold caches) and is left out whenever a later pass exists.
  const auto counted = [](const std::vector<double>& v) {
    return v.size() > 1 ? std::vector<double>(v.begin() + 1, v.end()) : v;
  };
  result.e2e("run_s", median(counted(seconds_)));
  result.e2e("ops_per_s", median(counted(ops_per_s_)));
  result.e2e("peak_rss_mb",
             peak == Peak::First ? peak_rss_mb_.front() : median(counted(peak_rss_mb_)));
  if (!p50_ms_.empty()) result.e2e("op_p50_ms", median(counted(p50_ms_)));
}

void EngineTotals::add(const dp::core::ParallelStats& stats) {
  sweep_s += stats.wall_seconds;
  busy_s += stats.total_analyze_seconds();
  capacity_s += static_cast<double>(stats.jobs) * stats.wall_seconds;
  gates_evaluated += stats.total_gates_evaluated();
  gates_skipped += stats.total_gates_skipped();
  apply_calls += stats.total_apply_calls();
  cache_hits += stats.total_cache_hits();
  gc_runs += stats.total_gc_runs();
  for (const dp::core::WorkerStats& w : stats.workers) {
    peak_live_nodes = std::max(peak_live_nodes, w.peak_live_nodes);
  }
  for (const double s : stats.all_fault_seconds()) fault_ms.push_back(s * 1e3);
}

void EngineTotals::report_layers(Result& result, std::size_t passes) const {
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const double per_pass = 1.0 / static_cast<double>(std::max<std::size_t>(1, passes));
  result.layer("dp.sweep_s", sweep_s * per_pass);
  result.layer("dp.busy_s", busy_s * per_pass);
  result.layer("dp.idle_frac", capacity_s > 0.0 ? 1.0 - busy_s / capacity_s : 0.0);
  result.layer("dp.gates_evaluated", static_cast<double>(gates_evaluated) * per_pass);
  result.layer("dp.gates_skipped", static_cast<double>(gates_skipped) * per_pass);
  result.layer("bdd.apply_calls", static_cast<double>(apply_calls) * per_pass);
  result.layer("bdd.apply_per_gate", ratio(static_cast<double>(apply_calls),
                                           static_cast<double>(gates_evaluated)));
  result.layer("bdd.cache_hit_rate", ratio(static_cast<double>(cache_hits),
                                           static_cast<double>(apply_calls)));
  result.layer("bdd.gc_runs", static_cast<double>(gc_runs) * per_pass);
  result.layer("bdd.peak_live_nodes", static_cast<double>(peak_live_nodes));
}

std::vector<LoadedCircuit> CircuitSetup::build() {
  dp::obs::ScopedSpan span = tracer_.span("setup");
  std::vector<LoadedCircuit> loaded;
  double net = 0.0, flt = 0.0, fst = 0.0;
  for (const std::string& name : names_) {
    LoadedCircuit c;
    c.name = name;
    net += timed(tracer_, "netlist.make_benchmark", name, [&] {
      c.circuit = std::make_unique<dp::netlist::Circuit>(dp::netlist::make_benchmark(name));
    });
    flt += timed(tracer_, "fault.collapse_checkpoint_faults", name, [&] {
      c.faults = dp::fault::collapse_checkpoint_faults(*c.circuit);
    });
    if (forests_) {
      fst += timed(tracer_, "dp.SharedGoodFunctions", name, [&] {
        c.forest = std::make_shared<const dp::core::SharedGoodFunctions>(*c.circuit);
      });
    }
    loaded.push_back(std::move(c));
  }
  netlist_s_.push_back(net);
  fault_s_.push_back(flt);
  forest_s_.push_back(fst);
  total_s_.push_back(net + flt + fst);
  last_ = Clock::now();
  return loaded;
}

std::vector<LoadedCircuit> CircuitSetup::initial() {
  std::vector<LoadedCircuit> loaded;
  for (int repeat = 0; repeat < kSetupMinRepeats; ++repeat) loaded = build();
  return loaded;
}

void CircuitSetup::between_passes() {
  if (seconds_since(last_) >= kSetupInterval) build();
}

void CircuitSetup::report(const std::vector<LoadedCircuit>& loaded, Result& result) const {
  std::size_t faults = 0, frozen = 0;
  for (const LoadedCircuit& c : loaded) {
    faults += c.faults.size();
    if (c.forest) frozen += c.forest->frozen_nodes();
  }
  result.e2e("setup_s", median(total_s_));
  result.layer("netlist.build_s", median(netlist_s_));
  result.layer("fault.list_s", median(fault_s_));
  result.layer("fault.count", static_cast<double>(faults));
  result.layer("dp.forest_build_s", median(forest_s_));
  result.layer("dp.frozen_nodes", static_cast<double>(frozen));
}

std::map<std::string, CircuitReference> load_reference(const std::string& path) {
  const JsonValue doc = dp::obs::read_json_file(path);
  std::map<std::string, CircuitReference> out;
  for (const auto& [name, c] : doc.at("circuits").members()) {
    CircuitReference r;
    r.faults = static_cast<std::size_t>(c.at("faults").as_int());
    r.digest = c.at("digest").as_string();
    for (std::size_t i = 0; i < c.at("undetectable").size(); ++i) {
      r.undetectable.push_back(
          static_cast<std::size_t>(c.at("undetectable").at(i).as_int()));
    }
    r.gates_evaluated = static_cast<std::uint64_t>(c.at("gates_evaluated").as_int());
    r.gates_skipped = static_cast<std::uint64_t>(c.at("gates_skipped").as_int());
    out.emplace(name, std::move(r));
  }
  return out;
}

std::string profile_digest(const dp::analysis::CircuitProfile& profile) {
  return dp::store::KeyBuilder()
      .str(dp::analysis::profile_to_json(profile, "").dump(0))
      .hex();
}

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},         {"run_s", "s"},          {"ops_per_s", "1/s"},
    {"op_p50_ms", "ms"},      {"op_p99_ms", "ms"},     {"peak_rss_mb", "MiB"},
    {"ok_frac", "ratio"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"netlist.build_s", "s"},
    {"fault.list_s", "s"},
    {"fault.count", "count"},
    {"dp.forest_build_s", "s"},
    {"dp.frozen_nodes", "count"},
    {"dp.sweep_s", "s"},
    {"dp.busy_s", "s"},
    {"dp.idle_frac", "ratio"},
    {"dp.gates_evaluated", "count"},
    {"dp.gates_skipped", "count"},
    {"dp.faults_failed", "count"},
    {"bdd.apply_calls", "count"},
    {"bdd.apply_per_gate", "ratio"},
    {"bdd.cache_hit_rate", "ratio"},
    {"bdd.gc_runs", "count"},
    {"bdd.peak_live_nodes", "count"},
    {"sim.prefilter_s", "s"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.resolved_frac", "ratio"},
    {"hybrid.dp_remainder_s", "s"},
    {"hybrid.remainder_faults", "count"},
    {"ndetect.sweep_s", "s"},
    {"ndetect.count_s", "s"},
    {"ndetect.topup_s", "s"},
    {"ndetect.minted_vectors", "count"},
    {"ndetect.detections", "count"},
    {"serve.warm_p50_ms", "ms"},
    {"serve.cold_p50_ms", "ms"},
    {"serve.warm_sa.p99_ms", "ms"},
    {"serve.bf.p99_ms", "ms"},
    {"serve.grade.p99_ms", "ms"},
    {"serve.hybrid.p99_ms", "ms"},
    {"serve.ndetect.p99_ms", "ms"},
    {"serve.cache_hit_frac", "ratio"},
    {"serve.queue_full", "count"},
    {"serve.deadline_exceeded", "count"},
    {"load.late_p99_ms", "ms"},
    {"trace.run_s", "s"},
    {"trace.op_p50_ms", "ms"},
    {"trace.spans", "count"},
};

}  // namespace repobench
