// Ablation (paper §4.2): "For the circuits C499 and larger, functional
// decomposition was used to speed up Difference Propagation [21], so the
// fractions of NFBFs which are also double stuck-at faults for those
// circuits may not be completely accurate due to the decomposition masking
// some functional interactions."
//
// This bench quantifies that trade on the C499-class circuit: BDD nodes
// and wall time saved by cut-point decomposition, against the fraction of
// bridging-fault stuck-at classifications that change.
#include <chrono>

#include "common.hpp"
#include "dp/engine.hpp"
#include "dp/observabilities.hpp"
#include "fault/sampling.hpp"
#include "netlist/layout.hpp"
#include "netlist/structure.hpp"

using namespace dp;

namespace {

struct RunResult {
  std::vector<bool> stuck_at_like;
  std::size_t good_nodes = 0;
  std::size_t cuts = 0;
  long long millis = 0;
};

RunResult classify(const netlist::Circuit& c,
                   const std::vector<fault::BridgingFault>& faults,
                   std::size_t cut_threshold) {
  const auto t0 = std::chrono::steady_clock::now();
  netlist::Structure st(c);
  core::GoodFunctionOptions opt;
  opt.cut_threshold = cut_threshold;
  const core::SharedGoodFunctions layered(core::SharedGoodFunctions(c, opt),
                                          st, core::bridge_wires(faults));
  const core::AdoptedPropagator dp(layered, st);
  RunResult r;
  r.good_nodes = dp.good.total_nodes();
  r.cuts = dp.good.cut_nets().size();
  for (const auto& f : faults) {
    r.stuck_at_like.push_back(dp.propagator.analyze(f).bridge_stuck_at);
  }
  r.millis = std::chrono::duration_cast<std::chrono::milliseconds>(
                 std::chrono::steady_clock::now() - t0)
                 .count();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Session session("abl_decomposition", argc, argv);
  bench::banner("Ablation -- cut-point functional decomposition (C499)",
                "Decomposition trades exactness for node count: cheaper "
                "analysis, but some BF stuck-at classifications change "
                "('masked functional interactions').");

  const netlist::Circuit c = netlist::make_benchmark("c499");
  netlist::Structure st(c);
  netlist::LayoutEstimate layout(c, st);
  fault::SamplingOptions sampling;
  sampling.target_count = 400;
  const auto faults = fault::nfbf_fault_set(c, st, layout,
                                            fault::BridgeType::And, sampling);

  obs::ScopedTimer exact_timer = session.phase("exact");
  const RunResult exact = classify(c, faults, 0);
  exact_timer.stop();
  session.metrics().counter("decomp.faults").add(faults.size());
  session.metrics().gauge("decomp.exact_nodes").set(
      static_cast<double>(exact.good_nodes));
  analysis::TextTable table({"cut threshold", "cut nets", "good-fn nodes",
                             "time (ms)", "stuck-at-like frac",
                             "classification changes"});
  auto frac = [&](const RunResult& r) {
    std::size_t n = 0;
    for (bool b : r.stuck_at_like) n += b;
    return static_cast<double>(n) / static_cast<double>(r.stuck_at_like.size());
  };
  table.add_row({"exact", "0", std::to_string(exact.good_nodes),
                 std::to_string(exact.millis),
                 analysis::TextTable::num(frac(exact)), "-"});

  std::cout << "csv:threshold,cuts,nodes,ms,changes\n";
  bool nodes_drop = false;
  std::size_t min_changes = faults.size();
  for (std::size_t threshold : {512u, 128u, 32u}) {
    obs::ScopedTimer timer = session.phase("cut" + std::to_string(threshold));
    const RunResult r = classify(c, faults, threshold);
    timer.stop();
    std::size_t changes = 0;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      changes += (r.stuck_at_like[i] != exact.stuck_at_like[i]);
    }
    table.add_row({std::to_string(threshold), std::to_string(r.cuts),
                   std::to_string(r.good_nodes), std::to_string(r.millis),
                   analysis::TextTable::num(frac(r)),
                   std::to_string(changes)});
    analysis::write_csv_row(
        std::cout, {std::to_string(threshold), std::to_string(r.cuts),
                    std::to_string(r.good_nodes), std::to_string(r.millis),
                    std::to_string(changes)});
    nodes_drop = nodes_drop || r.good_nodes < exact.good_nodes;
    min_changes = std::min(min_changes, changes);
  }
  std::cout << "\n";
  table.print(std::cout);

  bench::shape_check(nodes_drop, "decomposition shrinks good-function BDDs");
  bench::shape_check(min_changes < faults.size() / 4,
                     "classifications mostly survive decomposition "
                     "(the paper's 'may not be completely accurate', not "
                     "'wrong')");
  return 0;
}
