#include "analysis/hybrid.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "obs/span.hpp"

namespace dp::analysis {

using netlist::Circuit;
using netlist::Structure;

std::size_t HybridProfile::prefilter_resolved() const {
  std::size_t n = 0;
  for (const HybridFaultRecord& r : faults) {
    n += r.resolved_by == ResolvedBy::Prefilter;
  }
  return n;
}

std::size_t HybridProfile::dp_resolved() const {
  return faults.size() - prefilter_resolved();
}

std::size_t HybridProfile::detectable_count() const {
  std::size_t n = 0;
  for (const HybridFaultRecord& r : faults) n += r.detectable;
  return n;
}

std::size_t HybridProfile::redundant_count() const {
  return faults.size() - detectable_count();
}

double HybridProfile::prefilter_fraction() const {
  return faults.empty() ? 0.0
                        : static_cast<double>(prefilter_resolved()) /
                              static_cast<double>(faults.size());
}

void HybridProfile::export_metrics(obs::MetricsRegistry& registry) const {
  registry.timer("phase.prefilter").record(prefilter_seconds);
  registry.timer("phase.dp_remainder").record(dp_seconds);
  registry.counter("hybrid.faults").add(faults.size());
  registry.counter("hybrid.prefilter_resolved").add(prefilter_resolved());
  registry.counter("hybrid.dp_resolved").add(dp_resolved());
  registry.counter("sim.patterns").add(prefilter_patterns);
  registry.counter("sim.events").add(sim_events);
  for (std::size_t level = 0; level < sim_level_events.size(); ++level) {
    if (sim_level_events[level] == 0) continue;
    // Zero-padded so the registry's sorted export lists levels in order.
    std::string suffix = std::to_string(level);
    while (suffix.size() < 3) suffix.insert(suffix.begin(), '0');
    registry.counter("sim.level_events." + suffix)
        .add(sim_level_events[level]);
  }
}

HybridProfile analyze_hybrid(const Circuit& circuit,
                             const std::vector<fault::StuckAtFault>& faults,
                             const AnalysisOptions& options,
                             const HybridOptions& hybrid) {
  using clock = std::chrono::steady_clock;

  HybridProfile p;
  p.circuit = circuit.name();
  p.netlist_size = circuit.num_gates();
  p.num_inputs = circuit.num_inputs();
  p.num_outputs = circuit.num_outputs();
  p.prefilter_patterns = hybrid.prefilter_patterns;
  p.prefilter_seed = hybrid.prefilter_seed;
  p.faults.resize(faults.size());

  // Both phases share the one --jobs budget (0 = all hardware threads).
  const std::size_t jobs =
      options.jobs != 0
          ? options.jobs
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());

  obs::SpanCollector* const spans = obs::SpanCollector::current();
  const auto t0 = clock::now();
  sim::WideFaultSimulator::Grade grade;
  {
    obs::ScopedSpan span(spans, "hybrid.prefilter");
    span.attr("faults", faults.size());
    span.attr("patterns", hybrid.prefilter_patterns);
    const sim::WideFaultSimulator wide(circuit);
    sim::WideSimOptions wopt;
    wopt.drop_detected = hybrid.drop_detected;
    wopt.jobs = jobs;
    grade = wide.grade_random(faults, hybrid.prefilter_patterns,
                              hybrid.prefilter_seed, wopt);
    span.attr("resolved", grade.detected());
  }
  const auto t1 = clock::now();
  p.prefilter_seconds = std::chrono::duration<double>(t1 - t0).count();
  p.sim_events = grade.events();
  p.sim_level_events = grade.level_events;

  std::vector<std::size_t> remainder;
  std::vector<fault::StuckAtFault> remainder_faults;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    HybridFaultRecord& r = p.faults[i];
    r.detection_count = grade.detection_counts[i];
    r.first_detection = grade.first_detection[i];
    if (r.detection_count > 0) {
      // Sound by construction: a concrete pattern flipped a PO.
      r.resolved_by = ResolvedBy::Prefilter;
      r.detectable = true;
    } else {
      r.resolved_by = ResolvedBy::ExactDp;
      remainder.push_back(i);
      remainder_faults.push_back(faults[i]);
    }
  }

  if (!remainder_faults.empty()) {
    obs::ScopedSpan span(spans, "hybrid.dp_remainder");
    span.attr("faults", remainder_faults.size());
    const Structure structure(circuit);
    // A worker per remainder fault at most: a 3-fault remainder gets 3
    // workers, not the whole pool and its per-worker managers.
    core::ParallelEngine::Options popt;
    popt.jobs = std::min(jobs, remainder_faults.size());
    popt.shared_good = options.shared_good;
    core::ParallelEngine engine(circuit, structure, popt);
    // Distinct indices into the pre-sized vector, so the concurrent sink
    // writes are safe (same shape as run_sweep in profiles.cpp).
    engine.analyze_each(
        remainder_faults, [&](std::size_t k, core::FaultAnalysis&& a) {
          HybridFaultRecord& r = p.faults[remainder[k]];
          r.detectable = a.detectable;
          r.dp = make_stuck_at_record(structure, remainder_faults[k], a);
        });
    p.engine_stats = engine.stats();
  }
  p.dp_seconds = std::chrono::duration<double>(clock::now() - t1).count();
  return p;
}

HybridProfile analyze_stuck_at_hybrid(const Circuit& circuit,
                                      const AnalysisOptions& options,
                                      const HybridOptions& hybrid) {
  const std::vector<fault::StuckAtFault> faults =
      options.collapse ? fault::collapse_checkpoint_faults(circuit)
                       : fault::checkpoint_faults(circuit);
  return analyze_hybrid(circuit, faults, options, hybrid);
}

}  // namespace dp::analysis
