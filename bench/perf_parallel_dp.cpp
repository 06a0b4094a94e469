// Fault-parallel sweep performance: serial DifferencePropagator loop vs
// ParallelEngine on the C432-class circuit's collapsed checkpoint faults.
// Verifies the parallel results are bit-identical to serial, then reports
// the wall-clock speedup. A second section measures the shared frozen
// forest on c1355/c1908: whole-engine peak live nodes and frozen nodes,
// plus a warm re-sweep on the resident engine. Usage:
// perf_parallel_dp [--jobs N] (default 4; DP_BENCH_JOBS env honored).
#include <chrono>
#include <cmath>
#include <thread>

#include "common.hpp"
#include "dp/parallel_engine.hpp"
#include "fault/stuck_at.hpp"

using namespace dp;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The scalar outputs every sweep must agree on exactly.
struct Scalars {
  bool detectable;
  double detectability, upper_bound, adherence;
  std::size_t pos_fed, pos_observable;

  bool operator==(const Scalars&) const = default;
};

Scalars scalars(const core::FaultAnalysis& a) {
  return {a.detectable, a.detectability, a.upper_bound,
          a.adherence,  a.pos_fed,       a.pos_observable};
}

/// Whole-engine node footprint: the frozen universe (counted once) plus
/// every worker's private peak -- what the engine's dp.peak_live_nodes
/// gauge reports.
std::size_t footprint(const core::ParallelStats& s) {
  std::size_t total = s.frozen_nodes;
  for (const core::WorkerStats& w : s.workers) total += w.peak_live_nodes;
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  // Document id "parallel_dp" -> BENCH_parallel_dp.json under
  // DP_BENCH_METRICS_DIR: the repo's parallel-sweep perf trajectory.
  bench::Session session("parallel_dp", argc, argv);
  bench::banner("Perf -- fault-parallel Difference Propagation (C432-class)",
                "Per-fault analyses are independent; a private-manager "
                "worker pool scales the sweep with cores, bit-identically.");

  // Default to 4 workers so the speedup check is meaningful even when the
  // common flags leave jobs at the serial default.
  std::size_t jobs = session.jobs_explicit() ? session.options().jobs : 4;
  if (jobs == 0) {
    jobs = std::max(1u, std::thread::hardware_concurrency());
  }

  const netlist::Circuit circuit = netlist::make_benchmark("c432");
  const netlist::Structure structure(circuit);
  const std::vector<fault::StuckAtFault> faults =
      fault::collapse_checkpoint_faults(circuit);
  std::cout << "\nCircuit " << circuit.name() << ": " << circuit.num_gates()
            << " gates, " << faults.size()
            << " collapsed checkpoint faults\n";

  // Serial baseline: the pre-engine loop, one manager, one thread.
  obs::ScopedTimer serial_timer = session.phase("serial");
  const auto serial_start = Clock::now();
  std::vector<Scalars> serial;
  serial.reserve(faults.size());
  {
    bdd::Manager manager(0, 32u * 1024 * 1024);
    core::GoodFunctions good(manager, circuit);
    core::DifferencePropagator propagator(good, structure);
    for (const fault::StuckAtFault& f : faults) {
      serial.push_back(scalars(propagator.analyze(f)));
    }
  }
  serial_timer.stop();
  const double serial_s = seconds_since(serial_start);
  std::cout << "serial sweep:   " << analysis::TextTable::num(serial_s, 3)
            << " s (" << analysis::TextTable::num(faults.size() / serial_s, 1)
            << " faults/s)\n";

  // Parallel sweep (engine construction included: building and freezing
  // the shared forest is part of the price of the pool).
  obs::ScopedTimer par_timer = session.phase("parallel");
  const auto par_start = Clock::now();
  std::vector<Scalars> parallel(faults.size(),
                                Scalars{false, 0, 0, 0, 0, 0});
  core::ParallelEngine::Options popt;
  popt.jobs = jobs;
  core::ParallelEngine engine(circuit, structure, popt);
  engine.analyze_each(faults, [&](std::size_t i, core::FaultAnalysis&& a) {
    parallel[i] = scalars(a);
  });
  par_timer.stop();
  const double par_s = seconds_since(par_start);
  std::cout << "parallel sweep: " << analysis::TextTable::num(par_s, 3)
            << " s with --jobs " << jobs << "\n\n";
  engine.stats().print(std::cout);
  session.record_engine(circuit.name(), circuit.num_gates(),
                        circuit.num_inputs(), circuit.num_outputs(),
                        faults.size(),
                        par_s > 0 ? faults.size() / par_s : 0.0,
                        engine.stats());

  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (!(serial[i] == parallel[i])) ++mismatches;
  }
  const double speedup = par_s > 0 ? serial_s / par_s : 0.0;
  std::cout << "\ncsv:jobs,serial_s,parallel_s,speedup,mismatches\n";
  analysis::write_csv_row(
      std::cout,
      {std::to_string(jobs), analysis::TextTable::num(serial_s, 3),
       analysis::TextTable::num(par_s, 3),
       analysis::TextTable::num(speedup, 2), std::to_string(mismatches)});

  bench::shape_check(mismatches == 0,
                     "parallel scalars bit-identical to serial (" +
                         std::to_string(mismatches) + " mismatches)");
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw >= 2 && jobs >= 2) {
    bench::shape_check(speedup >= 2.0,
                       "speedup >= 2x with --jobs " + std::to_string(jobs) +
                           " (" + analysis::TextTable::num(speedup, 2) +
                           "x on " + std::to_string(hw) + " hw threads)");
  } else {
    std::cout << "[shape SKIP] speedup check needs >= 2 hardware threads "
                 "and --jobs >= 2 (have "
              << hw << " thread(s), jobs " << jobs << "); measured "
              << analysis::TextTable::num(speedup, 2) << "x\n";
  }

  // ---- Shared frozen forest: node footprint at N workers ----------------
  // The engine's footprint is forest + jobs x deltas. A bounded fault
  // slice keeps the smoke run cheap -- the footprint is dominated by the
  // frozen forest, not by how many faults the sweep then analyzes.
  constexpr std::size_t kFootprintFaults = 128;
  std::cout << "\nShared frozen forest, --jobs " << jobs << " ("
            << kFootprintFaults << "-fault slice per circuit):\n";
  std::cout << "csv:circuit,shared_nodes,frozen_nodes,cold_s,warm_s\n";
  for (const char* name : {"c1355", "c1908"}) {
    const netlist::Circuit c = netlist::make_benchmark(name);
    const netlist::Structure s(c);
    std::vector<fault::StuckAtFault> fs = fault::collapse_checkpoint_faults(c);
    if (fs.size() > kFootprintFaults) fs.resize(kFootprintFaults);

    core::ParallelEngine::Options sopt;
    sopt.jobs = jobs;
    // Results are dropped as they arrive, so the footprint is the sweep's
    // working set rather than every kept test set.
    const auto discard = [](std::size_t, core::FaultAnalysis&&) {};
    const auto cold_start = Clock::now();
    core::ParallelEngine shared(c, s, sopt);
    shared.analyze_each(fs, discard);
    const double cold_s = seconds_since(cold_start);
    const std::size_t shared_nodes = footprint(shared.stats());
    const std::size_t frozen = shared.stats().frozen_nodes;
    session.record_engine(c.name(), c.num_gates(), c.num_inputs(),
                          c.num_outputs(), fs.size(),
                          cold_s > 0 ? fs.size() / cold_s : 0.0,
                          shared.stats());

    // Warm re-sweep: the engine (forest, workers, caches) is resident, as
    // in the serving daemon; only the per-fault work repeats.
    const auto warm_start = Clock::now();
    shared.analyze_each(fs, discard);
    const double warm_s = seconds_since(warm_start);

    analysis::write_csv_row(
        std::cout, {name, std::to_string(shared_nodes), std::to_string(frozen),
                    analysis::TextTable::num(cold_s, 3),
                    analysis::TextTable::num(warm_s, 3)});

    const std::string prefix = std::string("parallel_dp.") + name;
    session.metrics().gauge(prefix + ".shared.peak_live_nodes")
        .set(static_cast<double>(shared_nodes));
    session.metrics().gauge(prefix + ".shared.frozen_nodes")
        .set(static_cast<double>(frozen));
    session.metrics().gauge(prefix + ".warm.ops_per_second")
        .set(warm_s > 0 ? fs.size() / warm_s : 0.0);
  }
  return 0;
}
