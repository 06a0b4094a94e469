// Hughes & McCluskey's question (the paper's ref [2]), answered exactly:
// how well does a COMPLETE single-stuck-at test set cover multiple
// stuck-at faults? DP gives every multiple fault's complete test set, so
// coverage is a membership check instead of a simulation estimate.
#include "common.hpp"
#include "dp/engine.hpp"
#include "fault/multiple.hpp"
#include "netlist/structure.hpp"

using namespace dp;

namespace {

/// Greedy single-SA ATPG in fault order (the compaction behind
/// `dpcli diagnose`; `dpcli atpg` compacts hardest fault first).
std::vector<std::vector<bool>> single_sa_test_set(
    const netlist::Circuit& c, core::DifferencePropagator& dp) {
  std::vector<std::vector<bool>> vectors;
  for (const auto& f : fault::collapse_checkpoint_faults(c)) {
    const core::FaultAnalysis a = dp.analyze(f);
    if (!a.detectable) continue;
    bool covered = false;
    for (const auto& v : vectors) {
      if (a.test_set.eval(v)) {
        covered = true;
        break;
      }
    }
    if (covered) continue;
    const auto cube = a.test_set.sat_one();
    std::vector<bool> v(c.num_inputs(), false);
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = cube[i] == 1;
    vectors.push_back(std::move(v));
  }
  return vectors;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Session session("obs_multiple_fault_coverage", argc, argv);
  bench::banner("Observation -- multiple-fault coverage of single-SA test "
                "sets (ref [2])",
                "Complete single stuck-at test sets detect nearly all -- "
                "but not provably all -- multiple stuck-at faults.");

  analysis::TextTable table({"circuit", "vectors", "multiplicity",
                             "sampled faults", "detectable", "covered",
                             "coverage"});
  std::cout << "csv:circuit,multiplicity,detectable,covered,coverage\n";
  double min_cov = 1.0;
  for (const char* name : {"c95", "alu181", "c432"}) {
    obs::ScopedTimer timer = session.phase(name);
    const netlist::Circuit c = netlist::make_benchmark(name);
    netlist::Structure st(c);
    bdd::Manager mgr(0);
    core::GoodFunctions good(mgr, c);
    core::DifferencePropagator dp(good, st);
    const auto vectors = single_sa_test_set(c, dp);

    for (std::size_t multiplicity : {2u, 3u}) {
      const auto faults =
          fault::sample_multiple_faults(c, multiplicity, 300, 1990);
      session.metrics().counter("mf.faults_sampled").add(faults.size());
      std::size_t detectable = 0, covered = 0;
      for (const auto& mf : faults) {
        const core::FaultAnalysis a = dp.analyze(mf);
        if (!a.detectable) continue;
        ++detectable;
        for (const auto& v : vectors) {
          if (a.test_set.eval(v)) {
            ++covered;
            break;
          }
        }
      }
      const double cov =
          detectable ? static_cast<double>(covered) /
                           static_cast<double>(detectable)
                     : 1.0;
      min_cov = std::min(min_cov, cov);
      table.add_row({name, std::to_string(vectors.size()),
                     std::to_string(multiplicity),
                     std::to_string(faults.size()),
                     std::to_string(detectable), std::to_string(covered),
                     analysis::TextTable::num(cov)});
      analysis::write_csv_row(
          std::cout, {name, std::to_string(multiplicity),
                      std::to_string(detectable), std::to_string(covered),
                      analysis::TextTable::num(cov)});
    }
  }
  std::cout << "\n";
  table.print(std::cout);

  bench::shape_check(min_cov > 0.9,
                     "single-SA-complete sets cover >90% of detectable "
                     "multiple faults (worst " +
                         analysis::TextTable::num(min_cov) + ")");
  return 0;
}
