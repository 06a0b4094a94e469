// Validator/aggregator for dp.metrics.v1, dp.fuzzreport.v1, dp.trace.v1,
// dp.served.v1, dp.ndetect.v1 and dp.perf_trajectory.v1 documents (the
// bench_smoke backstop):
// every file must parse
// with the obs JSON parser and carry the required keys, so a refactor
// that silently breaks an exporter fails the smoke suite instead of
// producing unreadable telemetry. A fuzz report additionally fails
// validation outright when it records any discrepancy — a red fuzz
// campaign must never pass the smoke tier just because its JSON was
// well-formed. Dropped trace events/spans (ring-buffer wrap) surface in
// the summary totals and fail the run under --strict — a smoke tier must
// never silently report partial attribution as complete.
//
//   validate_metrics [--summary PATH]
//                    [--baseline PATH [--tolerance X] [--node-tolerance Y]
//                     [--strict]] FILE...
//
// With --summary, an aggregate document (one record per input file plus
// cross-bench totals) is written to PATH.
//
// With --baseline, every input document whose "bench" id matches the
// baseline document's is additionally diffed against it as a perf
// regression guard: lower-is-better gauges (ns_per_op, peak_live_nodes,
// kernel wall clock) may grow at most `tolerance`-fold, higher-is-better
// gauges (ops_per_second, cache_hit_rate) may shrink at most
// `tolerance`-fold. The timing tolerance is deliberately generous
// (default 3x) because smoke runs share the machine with the build.
// Node-count gauges (peak/frozen/per-worker live nodes) are load-
// independent, so they get their own much tighter `--node-tolerance`
// (default 1.5x) -- a shared-forest regression that doubles the node
// footprint cannot hide inside the timing slack. Violations WARN by
// default and only fail the run with --strict.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "obs/json.hpp"

using dp::obs::JsonValue;

namespace {

int g_failures = 0;

void fail(const std::string& file, const std::string& what) {
  std::cerr << "FAIL " << file << ": " << what << "\n";
  ++g_failures;
}

/// dp.fuzzreport.v1: the dpfuzz campaign document. Shape-checked key by
/// key, and the discrepancy count doubles as a result gate.
JsonValue validate_fuzz_report(const std::string& file,
                               const JsonValue& doc) {
  for (const char* key : {"tool", "seed", "cases", "cases_run",
                          "faults_checked", "vectors_checked",
                          "discrepancies", "jobs"}) {
    const JsonValue* v = doc.find(key);
    if (!v) {
      fail(file, std::string("missing required key '") + key + "'");
    } else if (key == std::string("tool") ? !v->is_string()
                                          : !v->is_number()) {
      fail(file, std::string("key '") + key + "' has the wrong type");
    }
  }
  const JsonValue* failures = doc.find("failures");
  if (!failures || !failures->is_array()) {
    fail(file, "missing 'failures' array");
  }
  const JsonValue* oracles = doc.find("oracles");
  if (!oracles || !oracles->is_object()) {
    fail(file, "missing 'oracles' object");
  }

  long long discrepancies = 0;
  if (const JsonValue* d = doc.find("discrepancies")) {
    if (d->is_number()) discrepancies = d->as_int();
  }
  if (discrepancies > 0) {
    fail(file, "fuzz campaign recorded " + std::to_string(discrepancies) +
                   " discrepancy(ies)");
  }
  if (failures && failures->is_array() && failures->size() > 0 &&
      discrepancies == 0) {
    fail(file, "failures present but discrepancy count is zero");
  }

  JsonValue rec = JsonValue::object();
  rec["file"] = file;
  if (const JsonValue* tool = doc.find("tool")) rec["tool"] = *tool;
  for (const char* key :
       {"cases_run", "faults_checked", "vectors_checked", "discrepancies"}) {
    if (const JsonValue* v = doc.find(key)) {
      rec[std::string("fuzz.") + key] = *v;
    }
  }
  return rec;
}

/// dp.trace.v1: the --trace-out span/profile document. Shape-checked so
/// Perfetto-bound traces and the dptrace analyzer always see the same
/// contract: identity, wall clock, a spans section with drop accounting,
/// and the Chrome trace-event mirror.
JsonValue validate_trace(const std::string& file, const JsonValue& doc) {
  const bool is_bench = doc.contains("bench");
  if (!is_bench && !doc.contains("tool")) {
    fail(file, "missing required key 'bench' (or 'tool')");
  }
  const JsonValue* wall = doc.find("wall_seconds");
  if (!wall || !wall->is_number()) {
    fail(file, "missing number key 'wall_seconds'");
  }
  const JsonValue* spans = doc.find("spans");
  if (!spans || !spans->is_object()) {
    fail(file, "missing 'spans' object");
    return JsonValue();
  }
  for (const char* key : {"capacity", "threads", "recorded", "dropped"}) {
    const JsonValue* v = spans->find(key);
    if (!v || !v->is_number()) {
      fail(file, std::string("spans.") + key + " missing or non-numeric");
    }
  }
  const JsonValue* events = spans->find("events");
  if (!events || !events->is_array()) {
    fail(file, "missing 'spans.events' array");
  }
  const JsonValue* trace_events = doc.find("traceEvents");
  if (!trace_events || !trace_events->is_array()) {
    fail(file, "missing 'traceEvents' array (Perfetto mirror)");
  }

  JsonValue rec = JsonValue::object();
  rec["file"] = file;
  if (const JsonValue* id = doc.find(is_bench ? "bench" : "tool")) {
    rec[is_bench ? "bench" : "tool"] = *id;
  }
  if (wall && wall->is_number()) rec["wall_seconds"] = *wall;
  if (const JsonValue* recorded = spans->find("recorded")) {
    rec["trace.spans"] = *recorded;
  }
  if (const JsonValue* dropped = spans->find("dropped")) {
    rec["trace.dropped"] = *dropped;
  }
  return rec;
}

/// dp.served.v1: dpload's serving-bench document. The shape gate covers
/// the load parameters, the warm/cold latency split (both blocks must
/// carry count/p50/p99), and the structured error tally -- the contract
/// the serving quickstart and CI dashboards read. A dpload run that
/// completed zero requests fails outright: an all-errors run must not
/// pass the smoke tier on JSON well-formedness alone.
JsonValue validate_served(const std::string& file, const JsonValue& doc) {
  const JsonValue* tool = doc.find("tool");
  if (!tool || !tool->is_string()) {
    fail(file, "missing string key 'tool'");
  }
  for (const char* key : {"target_qps", "achieved_qps", "requests", "ok"}) {
    const JsonValue* v = doc.find(key);
    if (!v || !v->is_number()) {
      fail(file, std::string("missing number key '") + key + "'");
    }
  }
  const JsonValue* latency = doc.find("latency");
  if (!latency || !latency->is_object()) {
    fail(file, "missing 'latency' object");
    return JsonValue();
  }
  for (const char* phase : {"cold", "warm"}) {
    const JsonValue* block = latency->find(phase);
    if (!block || !block->is_object()) {
      fail(file, std::string("missing 'latency.") + phase + "' object");
      continue;
    }
    for (const char* key : {"count", "p50_ms", "p99_ms"}) {
      const JsonValue* v = block->find(key);
      if (!v || !v->is_number()) {
        fail(file, std::string("latency.") + phase + "." + key +
                       " missing or non-numeric");
      }
    }
  }
  const JsonValue* errors = doc.find("errors");
  if (!errors || !errors->is_object()) {
    fail(file, "missing 'errors' object");
  }
  if (const JsonValue* ok = doc.find("ok")) {
    if (ok->is_number() && ok->as_int() == 0) {
      fail(file, "load run completed zero requests");
    }
  }

  JsonValue rec = JsonValue::object();
  rec["file"] = file;
  if (tool && tool->is_string()) rec["tool"] = *tool;
  for (const char* key : {"requests", "ok", "target_qps", "achieved_qps"}) {
    if (const JsonValue* v = doc.find(key)) {
      rec[std::string("served.") + key] = *v;
    }
  }
  for (const char* phase : {"cold", "warm"}) {
    if (const JsonValue* block = latency->find(phase)) {
      if (block->is_object()) {
        if (const JsonValue* p50 = block->find("p50_ms")) {
          rec[std::string("served.") + phase + "_p50_ms"] = *p50;
        }
      }
    }
  }
  return rec;
}

/// A finite, positive number at `v` (a timing or a size), else a failure
/// naming `where`.
bool positive_number(const std::string& file, const JsonValue* v,
                     const std::string& where) {
  if (!v || !v->is_number() || !std::isfinite(v->as_double()) ||
      v->as_double() <= 0.0) {
    fail(file, where + " missing or not a finite positive number");
    return false;
  }
  return true;
}

/// The median of `values` (the mean of the middle two when even).
double median_of(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// dp.perf_trajectory.v1: the repository's record of claimed performance
/// changes, one entry per change: its title (the EXPERIMENTS.md section),
/// the workload and metric it claims, the seeds of its interleaved runs,
/// each pair's parent and change values (aligned with the seeds), and the
/// medians of both sides, which must equal the medians of the pairs -- a
/// hand-edited summary that drifts from its own data fails here.
/// Optional "held_out" pairs (seed, parent, change) get the same value
/// checks.
JsonValue validate_perf_trajectory(const std::string& file,
                                   const JsonValue& doc) {
  const JsonValue* entries = doc.find("entries");
  if (!entries || !entries->is_array() || entries->size() == 0) {
    fail(file, "missing or empty 'entries' array");
    return JsonValue();
  }
  for (std::size_t i = 0; i < entries->size(); ++i) {
    const JsonValue& e = entries->at(i);
    const std::string where = "entries[" + std::to_string(i) + "]";
    if (!e.is_object()) {
      fail(file, where + " is not an object");
      continue;
    }
    for (const char* key : {"title", "workload", "metric", "better"}) {
      const JsonValue* v = e.find(key);
      if (!v || !v->is_string()) {
        fail(file, where + " missing string key '" + key + "'");
      }
    }
    if (const JsonValue* b = e.find("better");
        b && b->is_string() && b->as_string() != "lower" &&
        b->as_string() != "higher") {
      fail(file, where + ".better must be \"lower\" or \"higher\"");
    }
    const JsonValue* seeds = e.find("seeds");
    const JsonValue* pairs = e.find("pairs");
    if (!seeds || !seeds->is_array() || !pairs || !pairs->is_array() ||
        pairs->size() == 0 || seeds->size() != pairs->size()) {
      fail(file, where + " needs non-empty 'seeds' and 'pairs' arrays of "
                         "equal length");
      continue;
    }
    std::vector<double> sides[2];
    const char* const side_names[2] = {"parent", "change"};
    bool complete = true;
    for (std::size_t k = 0; k < pairs->size(); ++k) {
      if (!seeds->at(k).is_number()) {
        fail(file, where + ".seeds[" + std::to_string(k) +
                       "] is not a number");
      }
      const JsonValue& pair = pairs->at(k);
      for (int s = 0; s < 2; ++s) {
        const std::string at =
            where + ".pairs[" + std::to_string(k) + "]." + side_names[s];
        const JsonValue* v = pair.is_object() ? pair.find(side_names[s])
                                              : nullptr;
        if (positive_number(file, v, at)) {
          sides[s].push_back(v->as_double());
        } else {
          complete = false;
        }
      }
    }
    const JsonValue* median = e.find("median");
    if (!median || !median->is_object()) {
      fail(file, where + " missing 'median' object");
    } else {
      for (int s = 0; s < 2; ++s) {
        const std::string at = where + ".median." + side_names[s];
        const JsonValue* v = median->find(side_names[s]);
        if (!positive_number(file, v, at) || !complete) continue;
        const double want = median_of(sides[s]);
        if (std::fabs(v->as_double() - want) > 1e-9 * std::fabs(want)) {
          fail(file, at + " (" + v->dump(0) +
                         ") != median of its pairs (" +
                         JsonValue(want).dump(0) + ")");
        }
      }
    }
    if (const JsonValue* held = e.find("held_out")) {
      if (!held->is_array()) {
        fail(file, where + ".held_out is not an array");
        continue;
      }
      for (std::size_t k = 0; k < held->size(); ++k) {
        const JsonValue& pair = held->at(k);
        const std::string at = where + ".held_out[" + std::to_string(k) + "]";
        const JsonValue* seed = pair.is_object() ? pair.find("seed") : nullptr;
        if (!seed || !seed->is_number()) fail(file, at + ".seed missing");
        for (const char* side : side_names) {
          positive_number(file, pair.is_object() ? pair.find(side) : nullptr,
                          at + "." + side);
        }
      }
    }
  }
  JsonValue rec = JsonValue::object();
  rec["file"] = file;
  rec["trajectory.entries"] = entries->size();
  return rec;
}

/// dp.ndetect.v1: the exact n-detection report (dpcli atpg --ndetect-json,
/// dpserved's ndetect handler). Beyond key shape, the per-fault detection
/// counts are re-summed and must equal the summary total exactly -- every
/// number in the document is an integer BDD satcount, so any drift is a
/// real bug, not rounding. The target-meeting tally is likewise
/// recomputed from the per-fault records (note an undetectable fault
/// meets its quota of min(n, |CTS|) = 0 vacuously, so the tally can
/// legitimately exceed summary.detectable).
JsonValue validate_ndetect(const std::string& file, const JsonValue& doc) {
  const JsonValue* circuit = doc.find("circuit");
  if (!circuit || !circuit->is_string()) {
    fail(file, "missing string key 'circuit'");
  }
  for (const char* key : {"n", "num_inputs", "vectors", "minted"}) {
    const JsonValue* v = doc.find(key);
    if (!v || !v->is_number()) {
      fail(file, std::string("missing number key '") + key + "'");
    }
  }
  const JsonValue* summary = doc.find("summary");
  if (!summary || !summary->is_object()) {
    fail(file, "missing 'summary' object");
    return JsonValue();
  }
  for (const char* key :
       {"faults", "detectable", "meeting_target", "detections"}) {
    const JsonValue* v = summary->find(key);
    if (!v || !v->is_number()) {
      fail(file, std::string("summary.") + key + " missing or non-numeric");
    }
  }
  const JsonValue* faults = doc.find("faults");
  if (!faults || !faults->is_array()) {
    fail(file, "missing 'faults' array");
    return JsonValue();
  }

  // Exact cross-checks: integer satcounts admit no tolerance.
  long long detections_sum = 0;
  long long meeting_count = 0;
  for (std::size_t i = 0; i < faults->size(); ++i) {
    const JsonValue& f = faults->at(i);
    const JsonValue* d = f.is_object() ? f.find("detections") : nullptr;
    const JsonValue* t = f.is_object() ? f.find("target") : nullptr;
    if (!d || !d->is_number() || !t || !t->is_number()) {
      fail(file, "faults[" + std::to_string(i) +
                     "].detections/target missing or non-numeric");
      return JsonValue();
    }
    detections_sum += d->as_int();
    // An undetectable fault's quota is min(n, |CTS|) = 0, met vacuously,
    // so meeting_target is recomputed per record, not bounded by
    // summary.detectable.
    if (d->as_int() >= t->as_int()) ++meeting_count;
  }
  if (const JsonValue* count = summary->find("faults")) {
    if (count->is_number() &&
        count->as_int() != static_cast<long long>(faults->size())) {
      fail(file, "summary.faults disagrees with the faults array length");
    }
  }
  if (const JsonValue* total = summary->find("detections")) {
    if (total->is_number() && total->as_int() != detections_sum) {
      fail(file, "summary.detections (" + std::to_string(total->as_int()) +
                     ") != sum of per-fault counts (" +
                     std::to_string(detections_sum) + ")");
    }
  }
  if (const JsonValue* meeting = summary->find("meeting_target")) {
    if (meeting->is_number() && meeting->as_int() != meeting_count) {
      fail(file, "summary.meeting_target (" +
                     std::to_string(meeting->as_int()) +
                     ") != count of faults with detections >= target (" +
                     std::to_string(meeting_count) + ")");
    }
  }

  JsonValue rec = JsonValue::object();
  rec["file"] = file;
  if (circuit && circuit->is_string()) rec["circuit"] = *circuit;
  for (const char* key : {"n", "vectors", "minted"}) {
    if (const JsonValue* v = doc.find(key)) {
      rec[std::string("ndetect.") + key] = *v;
    }
  }
  for (const char* key : {"faults", "detectable", "meeting_target",
                          "detections"}) {
    if (const JsonValue* v = summary->find(key)) {
      rec[std::string("ndetect.") + key] = *v;
    }
  }
  return rec;
}

/// Checks one document; returns a summary record (null on hard failure).
JsonValue validate(const std::string& file) {
  JsonValue doc;
  try {
    doc = dp::obs::read_json_file(file);
  } catch (const std::exception& e) {
    fail(file, e.what());
    return JsonValue();
  }
  if (!doc.is_object()) {
    fail(file, "top-level value is not an object");
    return JsonValue();
  }

  // Schema gate first, and hard: a document from a different (or future)
  // schema must be rejected outright, not best-effort scanned -- every
  // downstream check here assumes the dp.metrics.v1 shape.
  const JsonValue* schema = doc.find("schema");
  if (!schema || !schema->is_string()) {
    fail(file, "missing string key 'schema' (expected \"dp.metrics.v1\")");
    return JsonValue();
  }
  if (schema->as_string() == "dp.fuzzreport.v1") {
    return validate_fuzz_report(file, doc);
  }
  if (schema->as_string() == "dp.trace.v1") {
    return validate_trace(file, doc);
  }
  if (schema->as_string() == "dp.served.v1") {
    return validate_served(file, doc);
  }
  if (schema->as_string() == "dp.ndetect.v1") {
    return validate_ndetect(file, doc);
  }
  if (schema->as_string() == "dp.perf_trajectory.v1") {
    return validate_perf_trajectory(file, doc);
  }
  if (schema->as_string() != "dp.metrics.v1") {
    fail(file, "unsupported schema \"" + schema->as_string() +
                   "\" (this validator understands \"dp.metrics.v1\", "
                   "\"dp.fuzzreport.v1\", \"dp.trace.v1\", "
                   "\"dp.served.v1\", \"dp.ndetect.v1\", and "
                   "\"dp.perf_trajectory.v1\")");
    return JsonValue();
  }

  // Benches write "bench", the example CLIs write "tool".
  const bool is_bench = doc.contains("bench");
  if (!is_bench && !doc.contains("tool")) {
    fail(file, "missing required key 'bench' (or 'tool')");
  }
  if (is_bench && !doc.contains("jobs")) fail(file, "missing key 'jobs'");

  const JsonValue* metrics = doc.find("metrics");
  if (!metrics || !metrics->is_object()) {
    fail(file, "missing 'metrics' object");
    return JsonValue();
  }
  for (const char* section :
       {"counters", "gauges", "timers", "histograms"}) {
    const JsonValue* s = metrics->find(section);
    if (!s || !s->is_object()) {
      fail(file, std::string("metrics.") + section + " missing");
    }
  }
  if (is_bench) {
    const JsonValue* timers = metrics->find("timers");
    if (timers && timers->is_object() && !timers->contains("phase.total")) {
      fail(file, "timers lack the mandatory 'phase.total' entry");
    }
    const JsonValue* circuits = doc.find("circuits");
    if (!circuits || !circuits->is_array()) {
      fail(file, "missing 'circuits' array");
    }
  }

  // Summary record: identity, workload counters, total wall clock.
  JsonValue rec = JsonValue::object();
  rec["file"] = file;
  if (const JsonValue* id = doc.find(is_bench ? "bench" : "tool")) {
    rec[is_bench ? "bench" : "tool"] = *id;
  }
  if (const JsonValue* jobs = doc.find("jobs")) rec["jobs"] = *jobs;
  if (const JsonValue* circuits = doc.find("circuits")) {
    rec["circuits"] = circuits->size();
  }
  if (const JsonValue* timers = metrics->find("timers")) {
    if (const JsonValue* total = timers->find("phase.total")) {
      rec["wall_seconds"] = total->at("total_s");
    }
  }
  if (const JsonValue* counters = metrics->find("counters")) {
    for (const char* key : {"dp.faults_analyzed", "dp.gates_evaluated",
                            "dp.gates_skipped", "dp.observe.roots"}) {
      if (const JsonValue* c = counters->find(key)) rec[key] = *c;
    }
  }
  // Shared-forest footprint gauges (exact keys): whole-engine peak live
  // nodes, the frozen universe size, and the largest per-worker private
  // pool. Lifted so the summary totals expose the memory story the
  // shared-kernel optimisation is about.
  if (const JsonValue* gauges = metrics->find("gauges")) {
    for (const char* key : {"dp.peak_live_nodes", "dp.frozen_nodes",
                            "dp.private_nodes_per_worker_max"}) {
      if (const JsonValue* v = gauges->find(key)) {
        if (v->is_number()) rec[key] = *v;
      }
    }
  }
  // Complement-edge kernel gauges, summed across exporters (the DP
  // engine's "dp." prefix, perf_bdd_ops's "bdd." prefix): O(1) negations
  // and commutative cache canonicalization swaps.
  if (const JsonValue* gauges = metrics->find("gauges")) {
    for (const char* suffix :
         {"negations_constant_time", "cache_canonical_swaps"}) {
      double sum = 0.0;
      bool present = false;
      for (const auto& [key, value] : gauges->members()) {
        if (!value.is_number()) continue;
        const std::string want = std::string(".") + suffix;
        if (key.size() > want.size() &&
            key.compare(key.size() - want.size(), want.size(), want) == 0) {
          sum += value.as_double();
          present = true;
        }
      }
      if (present) rec[suffix] = sum;
    }
  }
  return rec;
}

/// Suffix-based direction rules for the regression guard. Keys that match
/// neither direction are not compared.
enum class Direction { LowerBetter, HigherBetter, Skip };

bool key_ends_with(const std::string& key, const char* suffix) {
  const std::string s(suffix);
  return key.size() >= s.size() &&
         key.compare(key.size() - s.size(), s.size(), s) == 0;
}

Direction direction_of(const std::string& key) {
  auto ends_with = [&](const char* suffix) {
    return key_ends_with(key, suffix);
  };
  if (ends_with(".ns_per_op") || ends_with(".peak_live_nodes") ||
      ends_with(".total_nodes") || ends_with(".kernel_wall_seconds") ||
      ends_with(".frozen_nodes") ||
      ends_with(".private_nodes_per_worker_max")) {
    return Direction::LowerBetter;
  }
  if (ends_with(".ops_per_second") || ends_with(".cache_hit_rate")) {
    return Direction::HigherBetter;
  }
  return Direction::Skip;
}

/// Node-count gauges are deterministic per workload (no machine-load
/// noise), so the guard holds them to the tighter --node-tolerance.
bool is_node_gauge(const std::string& key) {
  return key_ends_with(key, ".peak_live_nodes") ||
         key_ends_with(key, ".total_nodes") ||
         key_ends_with(key, ".frozen_nodes") ||
         key_ends_with(key, ".private_nodes_per_worker_max");
}

/// Diffs the comparable gauges of `fresh` against `baseline`. Returns the
/// number of tolerance violations (all are printed either way).
int compare_gauges(const std::string& file, const JsonValue& fresh,
                   const JsonValue& baseline, double tolerance,
                   double node_tolerance) {
  const JsonValue* base_metrics = baseline.find("metrics");
  const JsonValue* fresh_metrics = fresh.find("metrics");
  const JsonValue* base_gauges =
      base_metrics ? base_metrics->find("gauges") : nullptr;
  const JsonValue* fresh_gauges =
      fresh_metrics ? fresh_metrics->find("gauges") : nullptr;
  if (!base_gauges || !base_gauges->is_object() || !fresh_gauges ||
      !fresh_gauges->is_object()) {
    fail(file, "baseline comparison needs metrics.gauges in both documents");
    return 0;
  }

  int violations = 0, compared = 0;
  for (const auto& [key, base_value] : base_gauges->members()) {
    const Direction dir = direction_of(key);
    if (dir == Direction::Skip || !base_value.is_number()) continue;
    const JsonValue* fresh_value = fresh_gauges->find(key);
    if (!fresh_value || !fresh_value->is_number()) continue;
    const double base = base_value.as_double();
    const double now = fresh_value->as_double();
    if (!(base > 0.0)) continue;  // degenerate baseline: nothing to guard
    ++compared;
    const double tol = is_node_gauge(key) ? node_tolerance : tolerance;
    const bool ok = dir == Direction::LowerBetter ? now <= base * tol
                                                  : now >= base / tol;
    std::cout << (ok ? "perf ok   " : "perf WARN ") << key << ": baseline "
              << base << ", fresh " << now << " ("
              << (dir == Direction::LowerBetter ? "lower" : "higher")
              << " is better, tolerance " << tol << "x)\n";
    if (!ok) ++violations;
  }
  if (compared == 0) {
    fail(file, "baseline comparison matched no gauges (stale baseline?)");
  }
  return violations;
}

}  // namespace

int main(int argc, char** argv) {
  std::string summary_path, baseline_path;
  double tolerance = 3.0;
  double node_tolerance = 1.5;
  bool strict = false;
  std::vector<std::string> files;
  auto value_of = [&](int& i, const std::string& flag) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "error: " << flag << " requires a value\n";
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--summary") {
      summary_path = value_of(i, a);
    } else if (a == "--baseline") {
      baseline_path = value_of(i, a);
    } else if (a == "--tolerance") {
      tolerance = std::atof(value_of(i, a));
      if (!(tolerance >= 1.0)) {
        std::cerr << "error: --tolerance must be >= 1.0\n";
        return 2;
      }
    } else if (a == "--node-tolerance") {
      node_tolerance = std::atof(value_of(i, a));
      if (!(node_tolerance >= 1.0)) {
        std::cerr << "error: --node-tolerance must be >= 1.0\n";
        return 2;
      }
    } else if (a == "--strict") {
      strict = true;
    } else {
      files.push_back(a);
    }
  }
  if (files.empty()) {
    std::cerr << "usage: validate_metrics [--summary PATH] "
                 "[--baseline PATH [--tolerance X] [--node-tolerance Y] "
                 "[--strict]] FILE...\n";
    return 2;
  }

  JsonValue baseline;
  std::string baseline_bench;
  if (!baseline_path.empty()) {
    try {
      baseline = dp::obs::read_json_file(baseline_path);
      baseline_bench = baseline.at("bench").as_string();
    } catch (const std::exception& e) {
      std::cerr << "error: unreadable baseline " << baseline_path << ": "
                << e.what() << "\n";
      return 2;
    }
  }

  JsonValue documents = JsonValue::array();
  long long faults = 0, evaluated = 0, skipped = 0;
  long long fuzz_cases = 0, fuzz_faults = 0, fuzz_discrepancies = 0;
  long long trace_spans = 0, trace_dropped = 0;
  long long served_requests = 0, served_ok = 0;
  long long ndetect_faults = 0, ndetect_detections = 0, ndetect_minted = 0;
  double negations = 0.0, canonical_swaps = 0.0;
  double peak_nodes = 0.0, frozen_nodes = 0.0, private_worker_max = 0.0;
  int perf_violations = 0;
  for (const std::string& file : files) {
    const int failures_before = g_failures;
    JsonValue rec = validate(file);
    if (rec.is_null()) continue;
    if (const JsonValue* v = rec.find("fuzz.cases_run")) {
      fuzz_cases += v->as_int();
    }
    if (const JsonValue* v = rec.find("fuzz.faults_checked")) {
      fuzz_faults += v->as_int();
    }
    if (const JsonValue* v = rec.find("fuzz.discrepancies")) {
      fuzz_discrepancies += v->as_int();
    }
    if (const JsonValue* v = rec.find("trace.spans")) {
      trace_spans += v->as_int();
    }
    if (const JsonValue* v = rec.find("trace.dropped")) {
      trace_dropped += v->as_int();
    }
    if (const JsonValue* v = rec.find("served.requests")) {
      served_requests += v->as_int();
    }
    if (const JsonValue* v = rec.find("served.ok")) {
      served_ok += v->as_int();
    }
    if (const JsonValue* v = rec.find("ndetect.faults")) {
      ndetect_faults += v->as_int();
    }
    if (const JsonValue* v = rec.find("ndetect.detections")) {
      ndetect_detections += v->as_int();
    }
    if (const JsonValue* v = rec.find("ndetect.minted")) {
      ndetect_minted += v->as_int();
    }
    if (const JsonValue* v = rec.find("dp.faults_analyzed")) {
      faults += v->as_int();
    }
    if (const JsonValue* v = rec.find("dp.gates_evaluated")) {
      evaluated += v->as_int();
    }
    if (const JsonValue* v = rec.find("dp.gates_skipped")) {
      skipped += v->as_int();
    }
    if (const JsonValue* v = rec.find("negations_constant_time")) {
      negations += v->as_double();
    }
    if (const JsonValue* v = rec.find("cache_canonical_swaps")) {
      canonical_swaps += v->as_double();
    }
    if (const JsonValue* v = rec.find("dp.peak_live_nodes")) {
      peak_nodes += v->as_double();
    }
    if (const JsonValue* v = rec.find("dp.frozen_nodes")) {
      frozen_nodes += v->as_double();
    }
    if (const JsonValue* v = rec.find("dp.private_nodes_per_worker_max")) {
      private_worker_max += v->as_double();
    }
    if (!baseline_bench.empty()) {
      const JsonValue* bench = rec.find("bench");
      if (bench && bench->is_string() &&
          bench->as_string() == baseline_bench) {
        perf_violations += compare_gauges(file, dp::obs::read_json_file(file),
                                          baseline, tolerance,
                                          node_tolerance);
      }
    }
    documents.push_back(std::move(rec));
    if (g_failures == failures_before) std::cout << "ok   " << file << "\n";
  }

  if (trace_dropped > 0) {
    std::cerr << trace_dropped << " trace event(s)/span(s) dropped to ring "
              << "wrap across " << files.size() << " file(s)"
              << (strict ? "" : " (warning only; pass --strict to fail)")
              << "\n";
    if (strict) ++g_failures;
  }
  if (perf_violations > 0) {
    std::cerr << perf_violations << " perf gauge(s) beyond " << tolerance
              << "x of baseline " << baseline_path
              << (strict ? "" : " (warning only; pass --strict to fail)")
              << "\n";
    if (strict) g_failures += perf_violations;
  }

  if (!summary_path.empty()) {
    JsonValue summary = JsonValue::object();
    summary["schema"] = "dp.metrics.summary.v1";
    summary["documents"] = documents.size();
    summary["failures"] = g_failures;
    JsonValue totals = JsonValue::object();
    totals["dp.faults_analyzed"] = faults;
    totals["dp.gates_evaluated"] = evaluated;
    totals["dp.gates_skipped"] = skipped;
    totals["negations_constant_time"] = negations;
    totals["cache_canonical_swaps"] = canonical_swaps;
    totals["dp.peak_live_nodes"] = peak_nodes;
    totals["dp.frozen_nodes"] = frozen_nodes;
    totals["dp.private_nodes_per_worker_max"] = private_worker_max;
    totals["trace.spans"] = trace_spans;
    totals["trace.dropped"] = trace_dropped;
    totals["fuzz.cases_run"] = fuzz_cases;
    totals["fuzz.faults_checked"] = fuzz_faults;
    totals["fuzz.discrepancies"] = fuzz_discrepancies;
    totals["served.requests"] = served_requests;
    totals["served.ok"] = served_ok;
    totals["ndetect.faults"] = ndetect_faults;
    totals["ndetect.detections"] = ndetect_detections;
    totals["ndetect.minted"] = ndetect_minted;
    summary["totals"] = std::move(totals);
    summary["benches"] = std::move(documents);
    std::string error;
    if (!dp::obs::write_json_file_atomic(summary_path, summary, &error)) {
      std::cerr << "FAIL writing summary " << summary_path << ": " << error
                << "\n";
      ++g_failures;
    } else {
      std::cout << "[metrics] wrote " << summary_path << "\n";
    }
  }

  if (g_failures > 0) {
    std::cerr << g_failures << " validation failure(s)\n";
    return 1;
  }
  return 0;
}
