// n-detect cost curve: how many vectors does an exact n-detect test set
// need as n grows? For each circuit the 1-detect compact set is built
// first (greedy over the complete test sets), then topped up cumulatively
// to n = 2, 3, ... --max-n by minting witnesses from each fault's
// residual CTS BDD. Every per-fault count is re-derived by the wide
// fault simulator and compared with exact == before the curve is
// reported. Usage: fig_ndetect [--circuits a,b,c] [--max-n N] [--jobs N]
// (defaults c432,c499,c1355,c1908 / 5 / 4; DP_BENCH_JOBS env honored).
#include <chrono>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/ndetect.hpp"
#include "common.hpp"
#include "fault/stuck_at.hpp"
#include "sim/wide_sim.hpp"

using namespace dp;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : text) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Document id "ndetect" -> BENCH_ndetect.json under
  // DP_BENCH_METRICS_DIR. Passthrough mode for the bench-specific
  // --circuits/--max-n flags.
  bench::Session session("ndetect", argc, argv, /*passthrough_unknown=*/true);
  bench::banner("n-detect cost curve -- vectors needed for n detections",
                "Exact n-detect test sets from complete test sets: the "
                "vector count grows sublinearly in n because minted "
                "witnesses are shared across faults.");

  std::vector<std::string> circuits = {"c432", "c499", "c1355", "c1908"};
  std::size_t max_n = 5;
  const auto& extra = session.passthrough_argv();
  for (std::size_t i = 0; i < extra.size(); ++i) {
    const std::string a = extra[i];
    auto value_of = [&]() -> const char* {
      if (i + 1 >= extra.size()) {
        std::cerr << "error: " << a << " requires a value\n";
        std::exit(2);
      }
      return extra[++i];
    };
    if (a == "--circuits") {
      circuits = split_commas(value_of());
    } else if (a == "--max-n") {
      max_n = static_cast<std::size_t>(std::atoll(value_of()));
    } else {
      std::cerr << "error: unknown option '" << a << "'\n";
      return 2;
    }
  }
  if (max_n == 0) max_n = 1;
  std::size_t jobs = session.jobs_explicit() ? session.options().jobs : 4;
  if (jobs == 0) jobs = std::max(1u, std::thread::hardware_concurrency());
  session.options().jobs = jobs;

  std::cout << "\ncsv:circuit,n,vectors,minted,cumulative_seconds\n";
  bool all_complete = true;
  bool all_exact = true;
  for (const std::string& name : circuits) {
    const netlist::Circuit circuit = netlist::make_benchmark(name);
    const auto faults = fault::collapse_checkpoint_faults(circuit);

    obs::ScopedTimer sweep_timer = session.phase("sweep." + name);
    const auto sweep_start = Clock::now();
    analysis::NDetectOptions nopt;
    nopt.jobs = jobs;
    analysis::NDetectAnalyzer analyzer(circuit, faults, nopt);
    sweep_timer.stop();
    const double sweep_s = seconds_since(sweep_start);

    std::cout << "\n" << name << ": " << circuit.num_gates() << " gates, "
              << faults.size() << " collapsed faults, DP sweep "
              << analysis::TextTable::num(sweep_s, 3) << " s (--jobs "
              << jobs << ")\n";

    // Cumulative top-up: the n-detect set for n is the (n-1)-detect set
    // plus whatever the residuals still owe -- exactly how a test house
    // would grow an existing set.
    obs::ScopedTimer topup_timer = session.phase("topup." + name);
    const auto topup_start = Clock::now();
    std::vector<std::vector<bool>> vectors;
    std::size_t minted_total = 0;
    for (std::size_t n = 1; n <= max_n; ++n) {
      minted_total += analyzer.top_up(vectors, n);
      const double s = seconds_since(topup_start);
      session.metrics().gauge("ndetect." + name + ".n" + std::to_string(n) +
                              ".vectors")
          .set(static_cast<double>(vectors.size()));
      analysis::write_csv_row(
          std::cout,
          {name, std::to_string(n), std::to_string(vectors.size()),
           std::to_string(minted_total), analysis::TextTable::num(s, 3)});
    }
    topup_timer.stop();

    analysis::NDetectReport report = analyzer.report(vectors, max_n);
    report.minted_vectors = minted_total;
    all_complete = all_complete && report.complete();

    // Independent recount: the wide simulator grades the same vectors
    // (duplicate-free by construction) and every per-fault count must
    // equal the satcount exactly.
    const sim::WideFaultSimulator wide(circuit);
    sim::WideFaultSimulator::Options wopt;
    wopt.drop_detected = false;
    wopt.jobs = jobs;
    const auto regrade = wide.grade_vectors(faults, vectors, wopt);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (regrade.detection_counts[i] != report.faults[i].detections) {
        ++mismatches;
      }
    }
    all_exact = all_exact && mismatches == 0;
    std::cout << name << ": " << vectors.size() << " vectors at n=" << max_n
              << " (" << minted_total << " minted), mean CTS coverage "
              << analysis::TextTable::num(report.mean_cts_coverage(), 6)
              << ", sim recount mismatches " << mismatches << "\n";

    const double total_s = sweep_s + seconds_since(topup_start);
    session.record_engine(circuit.name(), circuit.num_gates(),
                          circuit.num_inputs(), circuit.num_outputs(),
                          faults.size(),
                          total_s > 0 ? faults.size() / total_s : 0.0,
                          analyzer.stats());
  }

  bench::shape_check(all_complete,
                     "every detectable fault reaches min(n, |CTS|) "
                     "detections at n=" + std::to_string(max_n));
  bench::shape_check(all_exact,
                     "simulator recounts equal DP satcounts exactly on "
                     "every circuit");
  return all_complete && all_exact ? 0 : 1;
}
