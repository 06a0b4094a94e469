// Quickstart: build C17, analyze one stuck-at fault and one bridging
// fault with Difference Propagation, print everything the library derives.
//
//   $ ./quickstart
#include <iostream>

#include "cli_common.hpp"
#include "dp/engine.hpp"
#include "dp/observabilities.hpp"
#include "fault/stuck_at.hpp"
#include "netlist/generators.hpp"
#include "netlist/structure.hpp"

int main(int argc, char** argv) {
  dp::cli::handle_version_flag(
      std::vector<std::string>(argv + 1, argv + argc), "quickstart");
  using namespace dp;

  // 1. A circuit. Generators cover the paper's suite; read_bench_file()
  //    loads ISCAS-85 netlists if you have them.
  netlist::Circuit c17 = netlist::make_c17();
  netlist::Structure structure(c17);

  // 2. Good functions: one OBDD per net over the PI variables.
  bdd::Manager manager(0);
  core::GoodFunctions good(manager, c17);
  std::cout << "Circuit " << c17.name() << ": " << c17.num_gates()
            << " gates, " << c17.num_inputs() << " PIs, " << c17.num_outputs()
            << " POs\n";
  std::cout << "Syndrome of net 16 (signal probability): "
            << good.syndrome(*c17.find_net("16")) << "\n\n";

  // 3. Difference Propagation.
  core::DifferencePropagator dp(good, structure);

  // A stuck-at fault on the fanout branch of net 11 into gate 16.
  fault::StuckAtFault sa{*c17.find_net("11"),
                         netlist::PinRef{*c17.find_net("16"), 1}, true};
  core::FaultAnalysis a = dp.analyze(sa);
  std::cout << "Fault " << describe(sa, c17) << ":\n";
  std::cout << "  detectable      : " << (a.detectable ? "yes" : "no") << "\n";
  std::cout << "  detectability   : " << a.detectability
            << " (exact, = |test set| / 2^" << c17.num_inputs() << ")\n";
  std::cout << "  excitation bound: " << a.upper_bound << "\n";
  std::cout << "  adherence       : " << a.adherence << "\n";
  std::cout << "  POs fed/observed: " << a.pos_fed << "/" << a.pos_observable
            << "\n";

  // The complete test set is a Boolean function; pull one test vector.
  const auto cube = a.test_set.sat_one();
  std::cout << "  one test vector : ";
  for (std::size_t i = 0; i < cube.size(); ++i) {
    std::cout << c17.net_name(c17.inputs()[i]) << "="
              << (cube[i] < 0 ? 'x' : static_cast<char>('0' + cube[i]))
              << (i + 1 < cube.size() ? ' ' : '\n');
  }
  std::cout << "  test vectors    : "
            << a.test_set.sat_count(c17.num_inputs()) << " of "
            << (1u << c17.num_inputs()) << "\n\n";

  // 4. A bridging fault between two internal wires. A bridge is analyzed
  // from stem observabilities that every bridge of a circuit shares; they
  // are built once into a layer of the frozen universe, which the
  // propagator reads through a manager that adopts it.
  fault::BridgingFault bf{*c17.find_net("10"), *c17.find_net("19"),
                          fault::BridgeType::And};
  const core::SharedGoodFunctions layered(core::SharedGoodFunctions(c17),
                                          structure, core::bridge_wires({bf}));
  const core::AdoptedPropagator bridged(layered, structure);
  core::FaultAnalysis b = bridged.propagator.analyze(bf);
  std::cout << "Fault " << describe(bf, c17) << ":\n";
  std::cout << "  detectability   : " << b.detectability << "\n";
  std::cout << "  stuck-at-like   : " << (b.bridge_stuck_at ? "yes" : "no")
            << "\n";
  return 0;
}
