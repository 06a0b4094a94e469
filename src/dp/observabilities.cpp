#include "dp/observabilities.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

#include "dp/engine.hpp"
#include "obs/span.hpp"

namespace dp::core {

using netlist::NetId;
using netlist::Regions;

void ObserveStats::merge(const ObserveStats& other) {
  roots_chased += other.roots_chased;
  frozen_nodes += other.frozen_nodes;
  apply_calls += other.apply_calls;
  build_seconds += other.build_seconds;
}

void ObserveStats::export_metrics(obs::MetricsRegistry& registry,
                                  const std::string& prefix) const {
  if (frozen_nodes == 0) return;
  registry.counter(prefix + ".observe.roots").add(roots_chased);
  registry.gauge(prefix + ".observe.frozen_nodes")
      .set_max(static_cast<double>(frozen_nodes));
  registry.gauge(prefix + ".observe.apply_calls")
      .add(static_cast<double>(apply_calls));
  registry.timer(prefix + ".observe").record(build_seconds);
}

std::vector<NetId> bridge_wires(
    const std::vector<fault::BridgingFault>& faults) {
  std::vector<NetId> wires;
  wires.reserve(2 * faults.size());
  for (const fault::BridgingFault& f : faults) {
    wires.push_back(f.a);
    wires.push_back(f.b);
  }
  return wires;
}

std::vector<NetId> every_net(const netlist::Circuit& circuit) {
  std::vector<NetId> nets(circuit.num_nets());
  for (NetId id = 0; id < nets.size(); ++id) nets[id] = id;
  return nets;
}

SharedGoodFunctions::SharedGoodFunctions(const SharedGoodFunctions& plain,
                                         const netlist::Structure& structure,
                                         const std::vector<NetId>& wires,
                                         std::size_t jobs)
    : order_(plain.order_),
      cut_nets_(plain.cut_nets_),
      syndromes_(plain.syndromes_),
      num_vars_(plain.num_vars_),
      max_nodes_(plain.max_nodes_),
      build_seconds_(plain.build_seconds_) {
  const auto start = std::chrono::steady_clock::now();
  const netlist::Circuit& c = structure.circuit();
  const Regions& regions = structure.regions();
  const std::size_t num_regions = regions.num_regions();
  const std::size_t num_outputs = c.num_outputs();

  // The closure: every wire's region, and down each post-dominator chain
  // every region whose root a chase stops in.
  std::vector<bool> needed(num_regions, false);
  for (const NetId w : wires) {
    for (std::uint32_t r = regions.region_of(w); !needed[r];) {
      needed[r] = true;
      const NetId d = regions.ipdom(regions.root(r));
      if (d == Regions::kSink || d == Regions::kUnobservable) break;
      r = regions.region_of(d);
    }
  }
  // The trees: a chase that stops at d runs after the chase of d's region,
  // on the same worker, and every chain ends at a root chased to the POs.
  // A post-dominator's region has the lower index, so ascending order
  // visits each region after the one it waits for. An unobservable root
  // is zero and chases nothing.
  std::vector<std::uint32_t> tree_of(num_regions);
  std::vector<std::vector<std::uint32_t>> trees(num_regions);
  for (std::uint32_t r = 0; r < num_regions; ++r) {
    const NetId d = regions.ipdom(regions.root(r));
    if (!needed[r] || d == Regions::kUnobservable) continue;
    tree_of[r] = d == Regions::kSink ? r : tree_of[regions.region_of(d)];
    trees[tree_of[r]].push_back(r);
    ++observe_.roots_chased;
  }
  // Widest cone first: higher region indices root nearer the PIs.
  std::vector<std::uint32_t> order;
  for (std::uint32_t r = num_regions; r-- > 0;) {
    if (!trees[r].empty()) order.push_back(r);
  }

  obs::SpanCollector* const spans = obs::SpanCollector::current();
  obs::ScopedSpan build_span(spans, "dp.observabilities");
  if (jobs == 0) {
    jobs = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  jobs = std::clamp<std::size_t>(order.size(), 1, jobs);
  build_span.attr("roots", observe_.roots_chased).attr("jobs", jobs);

  std::vector<std::unique_ptr<AdoptedPropagator>> workers;
  for (std::size_t i = 0; i < jobs; ++i) {
    workers.push_back(std::make_unique<AdoptedPropagator>(plain, structure));
  }

  // O(r, .) per region, in the manager of the worker that ran r's tree.
  struct Observed {
    std::vector<bdd::Bdd> po;  ///< invalid == zero
    bdd::Bdd any;
  };
  std::vector<Observed> observed(num_regions);
  auto chase = [&](const DifferencePropagator& dp, std::uint32_t region) {
    // Every path from the root to a PO crosses its post-dominator d, and
    // nothing the root reaches past d is reachable except through d. So
    // the root's flip is observed at PO p exactly where it arrives at d
    // and d's flip is observed at p: d's difference pushed along d's
    // region path, AND the observability of d's region root.
    obs::ScopedSpan span(spans, "dp.observe", build_span.id());
    bdd::Manager& mgr = dp.good().manager();
    const NetId root = regions.root(region);
    const NetId d = regions.ipdom(root);
    Observed& out = observed[region];
    out.po.resize(num_outputs);
    out.any = mgr.zero();
    DifferencePropagator::Seeds seeds;
    seeds.nets.push_back(DifferencePropagator::NetSeed{root, mgr.one()});
    if (d != Regions::kSink) seeds.stop = d;
    std::vector<bdd::Bdd> diff(c.num_nets());
    PropagationStats stats = dp.propagate(seeds, diff);
    if (d == Regions::kSink) {
      for (std::size_t i = 0; i < num_outputs; ++i) {
        const bdd::Bdd& o = diff[c.outputs()[i]];
        if (!o.valid()) continue;
        out.po[i] = o;
        out.any = out.any | o;
      }
    } else if (diff[d].valid()) {
      const bdd::Bdd through = dp.to_root(d, diff[d], stats);
      const Observed& next = observed[regions.region_of(d)];
      for (std::size_t i = 0; i < num_outputs; ++i) {
        if (!next.po[i].valid()) continue;
        bdd::Bdd o = through & next.po[i];
        if (!o.is_zero()) out.po[i] = std::move(o);
      }
      out.any = through & next.any;
    }
    if (span.enabled()) {
      span.attr("root", c.net_name(root));
      span.attr("stop", d == Regions::kSink ? std::string("sink")
                                            : c.net_name(d));
      span.attr("gates_evaluated", stats.gates_evaluated);
    }
  };

  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  auto work = [&](std::size_t slot) {
    const DifferencePropagator& dp = workers[slot]->propagator;
    for (;;) {
      const std::size_t t = next.fetch_add(1, std::memory_order_relaxed);
      if (t >= order.size()) break;
      try {
        for (const std::uint32_t r : trees[order[t]]) chase(dp, r);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
        next.store(order.size(), std::memory_order_relaxed);
        break;
      }
    }
  };
  if (jobs == 1) {
    work(0);
  } else {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < jobs; ++i) threads.emplace_back(work, i);
    for (std::thread& t : threads) t.join();
  }
  if (error) std::rethrow_exception(error);
  for (const auto& w : workers) {
    observe_.apply_calls += w->manager.stats().apply_calls;
  }

  // Pack the good roots, then every closure region's edges in region
  // order; a region that chased nothing packs as zero.
  const GoodFunctions& good0 = workers[0]->good;
  const bdd::Bdd zero = good0.manager().zero();
  std::vector<bdd::Bdd> roots;
  for (NetId id = 0; id < c.num_nets(); ++id) roots.push_back(good0.at(id));
  first_edge_.assign(num_regions, kNone);
  for (std::uint32_t r = 0; r < num_regions; ++r) {
    if (!needed[r]) continue;
    first_edge_[r] =
        static_cast<std::uint32_t>(roots.size() - c.num_nets());
    const Observed& o = observed[r];
    for (std::size_t i = 0; i < num_outputs; ++i) {
      roots.push_back(i < o.po.size() && o.po[i].valid() ? o.po[i] : zero);
    }
    roots.push_back(o.any.valid() ? o.any : zero);
  }
  std::vector<bdd::NodeIndex> packed;
  forest_ = bdd::FrozenForest::pack(roots, &packed);
  edges_.assign(packed.begin() + static_cast<std::ptrdiff_t>(c.num_nets()),
                packed.end());
  packed.resize(c.num_nets());
  roots_ = std::move(packed);
  observe_.frozen_nodes = frozen_nodes();
  observe_.build_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  build_span.attr("frozen_nodes", observe_.frozen_nodes);
}

}  // namespace dp::core
