#include "dp/parallel_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <iomanip>
#include <limits>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>

namespace dp::core {

namespace {

using Clock = std::chrono::steady_clock;

/// GC trigger floor for sweep-worker managers (see the constructor): small
/// enough that per-fault churn is collected, large enough that the
/// trigger's adaptive max(floor, 2x live) term governs real circuits.
constexpr std::size_t kWorkerGcFloor = 1u << 16;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string human_count(std::uint64_t n) {
  std::ostringstream os;
  os << std::fixed;
  if (n >= 10'000'000ull) {
    os << std::setprecision(1) << static_cast<double>(n) / 1e6 << "M";
  } else if (n >= 10'000ull) {
    os << std::setprecision(1) << static_cast<double>(n) / 1e3 << "k";
  } else {
    os << n;
  }
  return os.str();
}

/// Nearest-rank quantile; reorders `v` in place. 0.0 when empty.
double quantile_of(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (rank > 0) --rank;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

}  // namespace

double ParallelStats::total_analyze_seconds() const {
  double s = 0.0;
  for (const WorkerStats& w : workers) s += w.analyze_seconds;
  return s;
}

double ParallelStats::faults_per_second() const {
  return wall_seconds > 0.0 ? static_cast<double>(faults) / wall_seconds : 0.0;
}

std::uint64_t ParallelStats::total_gates_evaluated() const {
  std::uint64_t n = 0;
  for (const WorkerStats& w : workers) n += w.gates_evaluated;
  return n;
}

std::uint64_t ParallelStats::total_gates_skipped() const {
  std::uint64_t n = 0;
  for (const WorkerStats& w : workers) n += w.gates_skipped;
  return n;
}

std::uint64_t ParallelStats::total_roots_observed() const {
  std::uint64_t n = 0;
  for (const WorkerStats& w : workers) n += w.roots_observed;
  return n;
}

std::uint64_t ParallelStats::total_gc_runs() const {
  std::uint64_t n = 0;
  for (const WorkerStats& w : workers) n += w.gc_runs;
  return n;
}

std::uint64_t ParallelStats::total_apply_calls() const {
  std::uint64_t n = 0;
  for (const WorkerStats& w : workers) n += w.apply_calls;
  return n;
}

std::uint64_t ParallelStats::total_cache_hits() const {
  std::uint64_t n = 0;
  for (const WorkerStats& w : workers) n += w.cache_hits;
  return n;
}

std::uint64_t ParallelStats::total_negations_constant_time() const {
  std::uint64_t n = 0;
  for (const WorkerStats& w : workers) n += w.negations_constant_time;
  return n;
}

std::uint64_t ParallelStats::total_cache_canonical_swaps() const {
  std::uint64_t n = 0;
  for (const WorkerStats& w : workers) n += w.cache_canonical_swaps;
  return n;
}

std::uint64_t ParallelStats::total_ref_underflows() const {
  std::uint64_t n = 0;
  for (const WorkerStats& w : workers) n += w.ref_underflows;
  return n;
}

double ParallelStats::cache_hit_rate() const {
  const std::uint64_t calls = total_apply_calls();
  return calls > 0
             ? static_cast<double>(total_cache_hits()) /
                   static_cast<double>(calls)
             : 0.0;
}

std::vector<double> ParallelStats::all_fault_seconds() const {
  std::vector<double> all;
  for (const WorkerStats& w : workers) {
    all.insert(all.end(), w.fault_seconds.begin(), w.fault_seconds.end());
  }
  return all;
}

void ParallelStats::merge(const ParallelStats& other) {
  jobs = std::max(jobs, other.jobs);
  faults += other.faults;
  wall_seconds += other.wall_seconds;
  // One shared forest serves every batch of a chunked sweep: built once,
  // same size throughout -- both fold with max, not sum.
  shared_build_seconds = std::max(shared_build_seconds,
                                  other.shared_build_seconds);
  frozen_nodes = std::max(frozen_nodes, other.frozen_nodes);
  if (workers.size() < other.workers.size()) {
    workers.resize(other.workers.size());
  }
  for (std::size_t i = 0; i < other.workers.size(); ++i) {
    WorkerStats& w = workers[i];
    const WorkerStats& o = other.workers[i];
    w.faults_analyzed += o.faults_analyzed;
    w.gates_evaluated += o.gates_evaluated;
    w.gates_skipped += o.gates_skipped;
    w.roots_observed += o.roots_observed;
    w.analyze_seconds += o.analyze_seconds;
    w.max_fault_seconds = std::max(w.max_fault_seconds, o.max_fault_seconds);
    w.build_seconds = std::max(w.build_seconds, o.build_seconds);
    w.fault_seconds.insert(w.fault_seconds.end(), o.fault_seconds.begin(),
                           o.fault_seconds.end());
    w.live_nodes = o.live_nodes;  // end-of-sweep gauge: latest wins
    w.peak_live_nodes = std::max(w.peak_live_nodes, o.peak_live_nodes);
    w.gc_runs += o.gc_runs;
    w.apply_calls += o.apply_calls;
    w.cache_hits += o.cache_hits;
    w.negations_constant_time += o.negations_constant_time;
    w.cache_canonical_swaps += o.cache_canonical_swaps;
    w.ref_underflows += o.ref_underflows;
  }
}

void ParallelStats::print(std::ostream& os) const {
  os << "parallel DP sweep: " << faults << " faults on " << jobs
     << (jobs == 1 ? " worker, " : " workers, ") << std::fixed
     << std::setprecision(3) << wall_seconds << " s wall ("
     << std::setprecision(1) << faults_per_second() << " faults/s, busy "
     << std::setprecision(3) << total_analyze_seconds() << " s, cache hit "
     << std::setprecision(1) << 100.0 * cache_hit_rate() << "%, "
     << total_gc_runs() << " GC runs, gates " << human_count(
            total_gates_evaluated()) << " eval / "
     << human_count(total_gates_skipped()) << " skip, "
     << total_ref_underflows() << " ref underflows)\n";
  if (frozen_nodes > 0) {
    os << "  shared forest: " << human_count(frozen_nodes)
       << " frozen nodes, built once in " << std::setprecision(3)
       << shared_build_seconds << " s\n";
  }
  std::vector<double> lat = all_fault_seconds();
  if (!lat.empty()) {
    os << "  fault latency: p50 " << std::setprecision(3)
       << 1e3 * quantile_of(lat, 0.50) << " ms, p90 "
       << 1e3 * quantile_of(lat, 0.90) << " ms, p99 "
       << 1e3 * quantile_of(lat, 0.99) << " ms over " << lat.size()
       << " faults\n";
  }
  os << "  worker   faults   busy(s)   max(ms)   build(s)  peak nodes  "
        "gc   apply    cache-hit\n";
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const WorkerStats& w = workers[i];
    os << "  " << std::left << std::setw(9) << i << std::setw(9)
       << w.faults_analyzed << std::right << std::setw(8)
       << std::setprecision(3) << w.analyze_seconds << std::setw(10)
       << std::setprecision(2) << 1e3 * w.max_fault_seconds << std::setw(10)
       << std::setprecision(3) << w.build_seconds << std::setw(11)
       << w.peak_live_nodes << std::setw(5) << w.gc_runs << std::setw(9)
       << human_count(w.apply_calls) << std::setw(10) << std::setprecision(1)
       << 100.0 * w.cache_hit_rate() << "%\n";
  }
  if (total_ref_underflows() > 0) {
    os << "  WARNING: " << total_ref_underflows()
       << " refcount underflows (double releases) detected\n";
  }
  os.unsetf(std::ios::floatfield);
}

std::ostream& operator<<(std::ostream& os, const ParallelStats& stats) {
  stats.print(os);
  return os;
}

void ParallelStats::export_metrics(obs::MetricsRegistry& registry,
                                   const std::string& prefix) const {
  // Deterministic workload totals -> counters (see the header comment).
  registry.counter(prefix + ".faults_analyzed")
      .add(static_cast<std::uint64_t>(faults));
  registry.counter(prefix + ".gates_evaluated").add(total_gates_evaluated());
  registry.counter(prefix + ".gates_skipped").add(total_gates_skipped());

  // Schedule/machine-dependent values -> gauges. Accumulating gauges use
  // add() so repeated sweeps (multi-circuit benches) sum up; level gauges
  // use set()/set_max().
  registry.gauge(prefix + ".jobs")
      .set_max(static_cast<double>(jobs));
  obs::Gauge& apply = registry.gauge(prefix + ".apply_calls");
  obs::Gauge& hits = registry.gauge(prefix + ".cache_hits");
  apply.add(static_cast<double>(total_apply_calls()));
  hits.add(static_cast<double>(total_cache_hits()));
  registry.gauge(prefix + ".cache_hit_rate")
      .set(apply.value() > 0.0 ? hits.value() / apply.value() : 0.0);
  registry.gauge(prefix + ".negations_constant_time")
      .add(static_cast<double>(total_negations_constant_time()));
  registry.gauge(prefix + ".cache_canonical_swaps")
      .add(static_cast<double>(total_cache_canonical_swaps()));
  registry.gauge(prefix + ".gc_runs")
      .add(static_cast<double>(total_gc_runs()));
  registry.gauge(prefix + ".roots_observed")
      .add(static_cast<double>(total_roots_observed()));
  registry.gauge(prefix + ".ref_underflows")
      .add(static_cast<double>(total_ref_underflows()));

  double worker_peak_max = 0.0, peak_total = 0.0, live = 0.0;
  for (const WorkerStats& w : workers) {
    worker_peak_max =
        std::max(worker_peak_max, static_cast<double>(w.peak_live_nodes));
    peak_total += static_cast<double>(w.peak_live_nodes);
    live += static_cast<double>(w.live_nodes);
    registry.histogram(prefix + ".worker_busy_seconds")
        .observe(w.analyze_seconds);
    obs::Histogram& lat = registry.histogram(prefix + ".fault_seconds");
    for (const double dt : w.fault_seconds) lat.observe(dt);
  }
  // Memory gauges of the sweep. peak_live_nodes is the engine's whole
  // footprint -- the shared frozen prefix (counted once) plus every
  // worker's private high-water mark. The per-worker max and the frozen
  // size are broken out so a regression in either side is attributable
  // on its own.
  registry.gauge(prefix + ".peak_live_nodes")
      .set_max(static_cast<double>(frozen_nodes) + peak_total);
  registry.gauge(prefix + ".frozen_nodes")
      .set_max(static_cast<double>(frozen_nodes));
  registry.gauge(prefix + ".private_nodes_per_worker_max")
      .set_max(worker_peak_max);
  registry.gauge(prefix + ".live_nodes").set(live);

  registry.timer(prefix + ".sweep").record(wall_seconds);
  if (shared_build_seconds > 0.0) {
    registry.timer(prefix + ".shared_build").record(shared_build_seconds);
  }
  registry.timer(prefix + ".worker_build")
      .record(workers.empty()
                  ? 0.0
                  : std::max_element(workers.begin(), workers.end(),
                                     [](const WorkerStats& a,
                                        const WorkerStats& b) {
                                       return a.build_seconds <
                                              b.build_seconds;
                                     })
                        ->build_seconds);
}

/// A worker owns its private analysis stack over the shared frozen
/// forest: the forest is immutable, and no other BDD state is shared
/// between workers, so no locks are needed anywhere on the hot path.
struct ParallelEngine::Worker {
  std::unique_ptr<bdd::Manager> manager;
  std::unique_ptr<GoodFunctions> good;
  std::unique_ptr<DifferencePropagator> propagator;
};

ParallelEngine::ParallelEngine(const netlist::Circuit& circuit,
                               const netlist::Structure& structure,
                               Options options) {
  std::size_t jobs = options.jobs;
  if (jobs == 0) {
    jobs = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }

  obs::SpanCollector* const spans = obs::SpanCollector::current();
  obs::ScopedSpan build_span(spans, "dp.build");
  build_span.attr("jobs", jobs);

  // Build (or adopt) the good-function universe once; exceptions from the
  // build (e.g. OutOfNodes) propagate directly.
  std::shared_ptr<const SharedGoodFunctions> shared = options.shared_good;
  {
    obs::ScopedSpan freeze_span(spans, "dp.shared_build", build_span.id());
    if (!shared) {
      shared = std::make_shared<SharedGoodFunctions>(
          circuit, options.good, options.bdd_node_limit);
    }
    freeze_span.attr("frozen_nodes", shared->frozen_nodes());
  }

  // Every worker splices the forest in read-only and wraps its root
  // handles, so all workers see structurally identical BDDs (same node
  // budget, same variable order).
  stats_.jobs = jobs;
  stats_.workers.resize(jobs);
  stats_.shared_build_seconds = shared->build_seconds();
  stats_.frozen_nodes = shared->frozen_nodes();
  workers_.reserve(jobs);
  for (std::size_t slot = 0; slot < jobs; ++slot) {
    obs::ScopedSpan span(spans, "dp.build_worker", build_span.id());
    span.attr("worker", slot);
    const auto start = Clock::now();
    auto w = std::make_unique<Worker>();
    w->manager = std::make_unique<bdd::Manager>(shared->forest(),
                                                options.bdd_node_limit);
    w->good = std::make_unique<GoodFunctions>(*w->manager, circuit, *shared);
    // Sweep workers build and drop one test-set BDD per fault; with the
    // default (throughput-oriented) GC floor that churn is never
    // collected, so a worker's memory footprint -- and its
    // peak_live_nodes accounting -- would grow with the fault count
    // instead of the working set. An aggressive floor keeps both
    // tracking the live data. Results are unaffected (GC is invisible
    // to canonical BDD semantics).
    w->manager->set_gc_floor(kWorkerGcFloor);
    w->propagator = std::make_unique<DifferencePropagator>(*w->good, structure);
    stats_.workers[slot].build_seconds = seconds_since(start);
    workers_.push_back(std::move(w));
  }
}

ParallelEngine::~ParallelEngine() = default;

template <typename Fault>
void ParallelEngine::run(const std::vector<Fault>& faults,
                         const ResultSink& sink) {
  const auto sweep_start = Clock::now();
  obs::SpanCollector* const spans = obs::SpanCollector::current();
  obs::ScopedSpan sweep_span(spans, "dp.sweep");
  sweep_span.attr("jobs", workers_.size());
  sweep_span.attr("faults", faults.size());

  // Dynamic sharding: workers pull the next unclaimed fault index, so an
  // expensive fault does not stall the rest of the list. Each index is
  // claimed by exactly one worker, so a sink that writes slot i of a
  // pre-sized vector yields a deterministic input-order merge for free.
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::size_t error_index = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;

  auto work = [&](std::size_t slot) {
    // Explicit parent: the sweep span lives on the calling thread's stack,
    // not this worker thread's. Per-fault dp.fault spans (opened inside
    // the propagator) nest under this one via the worker's own TLS stack.
    obs::ScopedSpan worker_span(spans, "dp.worker", sweep_span.id());
    worker_span.attr("worker", slot);
    Worker& w = *workers_[slot];
    WorkerStats& ws = stats_.workers[slot];
    ws.faults_analyzed = 0;
    ws.gates_evaluated = 0;
    ws.gates_skipped = 0;
    ws.analyze_seconds = 0.0;
    ws.max_fault_seconds = 0.0;
    ws.fault_seconds.clear();
    const bdd::ManagerStats before = w.manager->stats();
    const std::uint64_t roots_before = w.propagator->roots_observed();
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= faults.size()) break;
      const auto fault_start = Clock::now();
      try {
        FaultAnalysis a = w.propagator->analyze(faults[i]);
        ws.gates_evaluated += a.stats.gates_evaluated;
        ws.gates_skipped += a.stats.gates_skipped;
        sink(i, std::move(a));
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
        // Stop handing out work; indices already claimed finish normally.
        next.store(faults.size(), std::memory_order_relaxed);
        break;
      }
      const double dt = seconds_since(fault_start);
      ++ws.faults_analyzed;
      ws.analyze_seconds += dt;
      ws.max_fault_seconds = std::max(ws.max_fault_seconds, dt);
      ws.fault_seconds.push_back(dt);
    }
    const bdd::ManagerStats after = w.manager->stats();
    ws.roots_observed = w.propagator->roots_observed() - roots_before;
    ws.gc_runs = after.gc_runs - before.gc_runs;
    ws.apply_calls = after.apply_calls - before.apply_calls;
    ws.cache_hits = after.cache_hits - before.cache_hits;
    ws.negations_constant_time =
        after.negations_constant_time - before.negations_constant_time;
    ws.cache_canonical_swaps =
        after.cache_canonical_swaps - before.cache_canonical_swaps;
    ws.ref_underflows = after.ref_underflows - before.ref_underflows;
    ws.live_nodes = w.manager->live_nodes();
    ws.peak_live_nodes = after.peak_live_nodes;
    worker_span.attr("faults", ws.faults_analyzed);
    worker_span.attr("busy_seconds", ws.analyze_seconds);
  };

  if (workers_.size() == 1) {
    work(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(workers_.size());
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      threads.emplace_back(work, i);
    }
    // The barrier span measures how long the calling thread sat waiting
    // for the slowest worker -- end-of-sweep skew shows up as its width.
    obs::ScopedSpan barrier(spans, "dp.merge_barrier", sweep_span.id());
    for (std::thread& t : threads) t.join();
  }

  stats_.faults = faults.size();
  stats_.wall_seconds = seconds_since(sweep_start);
  if (error) std::rethrow_exception(error);
}

template <typename Fault>
std::vector<FaultAnalysis> ParallelEngine::run_collect(
    const std::vector<Fault>& faults) {
  std::vector<FaultAnalysis> results(faults.size());
  run(faults, [&results](std::size_t i, FaultAnalysis&& a) {
    results[i] = std::move(a);
  });
  return results;
}

std::vector<FaultAnalysis> ParallelEngine::analyze_all(
    const std::vector<fault::StuckAtFault>& faults) {
  return run_collect(faults);
}

std::vector<FaultAnalysis> ParallelEngine::analyze_all(
    const std::vector<fault::BridgingFault>& faults) {
  return run_collect(faults);
}

std::vector<FaultAnalysis> ParallelEngine::analyze_all(
    const std::vector<fault::MultipleStuckAtFault>& faults) {
  return run_collect(faults);
}

void ParallelEngine::analyze_each(
    const std::vector<fault::StuckAtFault>& faults, const ResultSink& sink) {
  run(faults, sink);
}

void ParallelEngine::analyze_each(
    const std::vector<fault::BridgingFault>& faults, const ResultSink& sink) {
  run(faults, sink);
}

void ParallelEngine::analyze_each(
    const std::vector<fault::MultipleStuckAtFault>& faults,
    const ResultSink& sink) {
  run(faults, sink);
}

}  // namespace dp::core
