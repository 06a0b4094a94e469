// Application of the exact profiles: predicted random-pattern test length
// per circuit, cross-checked against actual random-pattern fault grading.
// The paper's introduction motivates exact detectability data with the
// PPM-level quality demands of deterministic testing; this bench shows the
// profiles predicting test length, and the falling detectabilities of
// figure 2 translating into super-linear pattern-count growth.
#include "common.hpp"
#include "analysis/random_pattern.hpp"
#include "sim/wide_sim.hpp"

using namespace dp;

int main(int argc, char** argv) {
  bench::Session session("obs_random_pattern_length", argc, argv);
  bench::banner("Application -- random-pattern test length from exact "
                "profiles",
                "Expected coverage from exact detectabilities matches "
                "simulated random grading; larger circuits need more "
                "patterns per fault.");

  analysis::TextTable table({"circuit", "N for 95%", "N for 99%",
                             "predicted cov @256", "simulated cov @256"});
  std::cout << "csv:circuit,n95,n99,predicted256,simulated256\n";
  double worst_gap = 0.0;
  for (const char* name : {"c17", "c95", "alu181", "c432", "c499"}) {
    obs::ScopedTimer timer = session.phase(name);
    const analysis::CircuitProfile p =
        analysis::analyze_stuck_at(netlist::make_benchmark(name),
                                   session.options());
    session.record_profile(p);
    const netlist::Circuit c = netlist::make_benchmark(name);

    const std::size_t n95 = analysis::patterns_for_coverage(p, 0.95);
    const std::size_t n99 = analysis::patterns_for_coverage(p, 0.99);
    const double predicted = analysis::expected_random_coverage(p, 256);

    // Simulated: grade 256 random patterns over the same collapsed set,
    // averaged across seeds to damp sampling noise.
    const sim::WideFaultSimulator grader(c);
    const auto faults = fault::collapse_checkpoint_faults(c);
    double simulated = 0.0;
    constexpr int kSeeds = 5;
    for (int seed = 0; seed < kSeeds; ++seed) {
      const auto grade = grader.grade_random(faults, 256, 1000 + seed);
      simulated += static_cast<double>(grade.detected()) / grade.total;
    }
    simulated /= kSeeds;
    // Normalize the prediction to all faults (it covers detectable only).
    const double det_frac =
        static_cast<double>(p.detectable_count()) /
        static_cast<double>(p.faults.size());
    const double predicted_all = predicted * det_frac;

    table.add_row({name, std::to_string(n95), std::to_string(n99),
                   analysis::TextTable::num(predicted_all),
                   analysis::TextTable::num(simulated)});
    analysis::write_csv_row(std::cout,
                            {name, std::to_string(n95), std::to_string(n99),
                             analysis::TextTable::num(predicted_all),
                             analysis::TextTable::num(simulated)});
    worst_gap = std::max(worst_gap, std::abs(predicted_all - simulated));
  }
  std::cout << "\n";
  table.print(std::cout);

  bench::shape_check(worst_gap < 0.05,
                     "profile-based prediction within 5% of simulation "
                     "(worst gap " + analysis::TextTable::num(worst_gap, 4) +
                         ")");
  return 0;
}
