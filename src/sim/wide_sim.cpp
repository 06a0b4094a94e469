#include "sim/wide_sim.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <bit>
#include <functional>
#include <numeric>
#include <random>
#include <stdexcept>
#include <thread>

#include "obs/span.hpp"

namespace dp::sim {

using netlist::GateType;

namespace {

inline void wide_apply(GateType base, WideWord& acc, const WideWord& b) {
  switch (base) {
    case GateType::And:
      for (std::size_t j = 0; j < kWideWords; ++j) acc.w[j] &= b.w[j];
      break;
    case GateType::Or:
      for (std::size_t j = 0; j < kWideWords; ++j) acc.w[j] |= b.w[j];
      break;
    case GateType::Xor:
      for (std::size_t j = 0; j < kWideWords; ++j) acc.w[j] ^= b.w[j];
      break;
    default:
      break;  // Buf is unary and never combines two operands
  }
}

}  // namespace

WideFaultSimulator::WideFaultSimulator(const Circuit& circuit)
    : circuit_(&circuit), regions_(circuit) {
  // Flatten the levelized order once: the topological order lists every
  // gate after its fanins, so a linear walk over `schedule_` is a full
  // good-circuit sweep with no per-gate indirection through the netlist.
  schedule_index_.assign(circuit.num_nets(), kNotScheduled);
  schedule_.reserve(circuit.num_nets());
  net_level_.assign(circuit.num_nets(), 0);
  for (NetId id : circuit.topo_order()) {
    if (circuit.type(id) == GateType::Input) continue;
    const auto& fi = circuit.fanins(id);
    GateRef g;
    g.net = id;
    g.type = circuit.type(id);
    g.fanin_begin = static_cast<std::uint32_t>(fanin_flat_.size());
    g.fanin_count = static_cast<std::uint32_t>(fi.size());
    fanin_flat_.insert(fanin_flat_.end(), fi.begin(), fi.end());
    schedule_index_[id] = static_cast<std::uint32_t>(schedule_.size());
    schedule_.push_back(g);
    std::uint32_t level = 0;
    for (const NetId f : fi) level = std::max(level, net_level_[f] + 1);
    net_level_[id] = level;
    num_levels_ = std::max<std::size_t>(num_levels_, level + 1);
  }
  if (num_levels_ == 0) num_levels_ = 1;  // PI-only circuit

  fanout_begin_.reserve(circuit.num_nets() + 1);
  is_output_.assign(circuit.num_nets(), 0);
  for (NetId id = 0; id < circuit.num_nets(); ++id) {
    fanout_begin_.push_back(static_cast<std::uint32_t>(fanout_flat_.size()));
    for (const netlist::PinRef& pin : circuit.fanouts(id)) {
      fanout_flat_.push_back(schedule_index_[pin.gate]);
    }
  }
  fanout_begin_.push_back(static_cast<std::uint32_t>(fanout_flat_.size()));
  for (const NetId po : circuit.outputs()) is_output_[po] = 1;
}

template <typename FaninValue>
WideWord WideFaultSimulator::eval_entry(const GateRef& g,
                                        FaninValue&& fanin_value) {
  switch (g.type) {
    case GateType::Const0: return WideWord{};
    case GateType::Const1: {
      WideWord v;
      for (std::size_t j = 0; j < kWideWords; ++j) v.w[j] = ~Word{0};
      return v;
    }
    default: break;
  }
  WideWord acc = fanin_value(0);
  const GateType base = netlist::base_of(g.type);
  for (std::uint32_t k = 1; k < g.fanin_count; ++k) {
    wide_apply(base, acc, fanin_value(k));
  }
  if (netlist::is_inverting(g.type)) {
    for (std::size_t j = 0; j < kWideWords; ++j) acc.w[j] = ~acc.w[j];
  }
  return acc;
}

void WideFaultSimulator::check_fault(const StuckAtFault& f) const {
  const std::size_t num_nets = circuit_->num_nets();
  if (f.net >= num_nets) {
    throw netlist::NetlistError("stuck-at fault on net " +
                                std::to_string(f.net) + " of a " +
                                std::to_string(num_nets) + "-net circuit");
  }
  if (!f.branch) return;
  const NetId gate = f.branch->gate;
  const std::uint32_t si =
      gate < num_nets ? schedule_index_[gate] : kNotScheduled;
  if (si == kNotScheduled || f.branch->pin >= schedule_[si].fanin_count) {
    throw netlist::NetlistError(
        "branch fault pin " + std::to_string(f.branch->pin) +
        " out of range on zero-fanin or input gate " +
        (gate < num_nets ? "'" + circuit_->net_name(gate) + "'"
                         : std::to_string(gate)));
  }
  const NetId source = fanin_flat_[schedule_[si].fanin_begin + f.branch->pin];
  if (source != f.net) {
    throw netlist::NetlistError(
        "branch fault on net '" + circuit_->net_name(f.net) + "' names pin " +
        std::to_string(f.branch->pin) + " of gate '" +
        circuit_->net_name(gate) + "', which '" +
        circuit_->net_name(source) + "' drives");
  }
}

WideWord WideFaultSimulator::side_lanes(const GateRef& g, std::uint32_t pin,
                                        const WideWord* good) const {
  WideWord s;
  for (std::size_t j = 0; j < kWideWords; ++j) s.w[j] = ~Word{0};
  // AND/NAND side inputs must be 1 and OR/NOR side inputs 0; a flip on
  // any XOR/XNOR/BUF/NOT input always reaches the output.
  const GateType base = netlist::base_of(g.type);
  if (base != GateType::And && base != GateType::Or) return s;
  const Word invert = base == GateType::Or ? ~Word{0} : 0;
  for (std::uint32_t k = 0; k < g.fanin_count; ++k) {
    if (k == pin) continue;
    const WideWord& v = good[fanin_flat_[g.fanin_begin + k]];
    for (std::size_t j = 0; j < kWideWords; ++j) s.w[j] &= v.w[j] ^ invert;
  }
  return s;
}

void WideFaultSimulator::trace_region(std::uint32_t region,
                                      std::uint32_t trace_len,
                                      const WideWord& root_obs,
                                      const WideWord* good,
                                      Worker& w) const {
  // Members are listed after the gate they feed, so each one's sink is
  // traced before it; an FFR has one path from a member to its root.
  const NetId* member = regions_.members(region);
  w.crit[member[0]] = root_obs;
  for (std::uint32_t k = 1; k < trace_len; ++k) {
    const NetId net = member[k];
    const GateRef& sink = schedule_[fanout_flat_[fanout_begin_[net]]];
    const WideWord side = side_lanes(sink, regions_.sink_pin(net), good);
    const WideWord& down = w.crit[sink.net];
    for (std::size_t j = 0; j < kWideWords; ++j) {
      w.crit[net].w[j] = down.w[j] & side.w[j];
    }
  }
}

WideWord WideFaultSimulator::propagate(NetId root, const WideWord& flip,
                                       const WideWord* good, Worker& w,
                                       NetId stop) const {
  if (++w.epoch == 0) {  // epoch wrap: invalidate every queue mark once
    std::fill(w.queued.begin(), w.queued.end(), 0u);
    w.epoch = 1;
  }
  const std::uint32_t epoch = w.epoch;
  std::vector<WideWord>& faulty = w.faulty;

  // Event-driven chase: a net whose faulty value differs from its good
  // value queues the gates it feeds, by level, and only queued gates are
  // evaluated. Levels are drained in increasing order, so every gate sees
  // its fanins' final values; a gate whose faulty value equals its good
  // value kills the difference on that path. Gates that reach no PO are
  // never queued. Below a post-dominator `stop`, every other gate that
  // reaches a PO feeds `stop`, so gates at or past its level are not
  // queued either. A differing net's faulty value overwrites its good
  // value in w.faulty and is restored when the chase ends.
  w.changed.clear();
  const std::size_t last =
      stop == kSink ? num_levels_ : std::size_t{net_level_[stop]};
  std::size_t top = net_level_[root];
  auto differs = [&](NetId net, const WideWord& value) {
    faulty[net] = value;
    w.changed.push_back(net);
    for (std::uint32_t k = fanout_begin_[net]; k < fanout_begin_[net + 1];
         ++k) {
      const std::uint32_t si = fanout_flat_[k];
      const NetId gate = schedule_[si].net;
      const std::uint32_t level = net_level_[gate];
      if (w.queued[gate] == epoch || regions_.ipdom(gate) == kUnobservable ||
          level > last || (level == last && gate != stop)) {
        continue;
      }
      w.queued[gate] = epoch;
      w.pending[level].push_back(si);
      top = std::max<std::size_t>(top, level);
    }
  };
  WideWord v;
  for (std::size_t j = 0; j < kWideWords; ++j) {
    v.w[j] = good[root].w[j] ^ flip.w[j];
  }
  ++w.stem_propagations;
  ++w.level_events[net_level_[root]];
  differs(root, v);
  for (std::size_t level = net_level_[root] + 1; level <= top; ++level) {
    std::vector<std::uint32_t>& queue = w.pending[level];
    w.level_events[level] += queue.size();
    for (const std::uint32_t si : queue) {
      const GateRef& gr = schedule_[si];
      const WideWord fv =
          eval_entry(gr, [&](std::uint32_t k) -> const WideWord& {
            return faulty[fanin_flat_[gr.fanin_begin + k]];
          });
      if (!(fv == good[gr.net])) differs(gr.net, fv);
    }
    queue.clear();
  }

  WideWord diff{};
  for (const NetId net : w.changed) {
    if (stop == kSink ? is_output_[net] != 0 : net == stop) {
      for (std::size_t j = 0; j < kWideWords; ++j) {
        diff.w[j] |= faulty[net].w[j] ^ good[net].w[j];
      }
    }
    faulty[net] = good[net];
  }
  return diff;
}

void WideFaultSimulator::observe_block(
    const std::vector<std::uint32_t>& needed, const WideWord& mask,
    const WideWord* good, WideWord* obs, Worker& w) const {
  // A root's post-dominator d lies in a region with a lower index (regions
  // are numbered in reverse topological order), so ascending order
  // computes obs for d's region before the roots that need it. Every path
  // from the root to a PO crosses d, and nothing past d is reachable from
  // the root except through d, so the root is observed exactly on the
  // lanes where its flip arrives at d and d's flip is observed. Those are
  // the lanes of d's critical path to its region root and of that root's
  // observability: the side inputs on that path cannot be in the root's
  // cone, because a net on the path feeds only the next gate of the path.
  // The flip is restricted to those lanes up front; lanes are
  // independent, so the arrival at d is the observability itself.
  std::copy(good, good + circuit_->num_nets(), w.faulty.begin());
  for (const std::uint32_t region : needed) {
    const NetId root = regions_.root(region);
    const NetId d = regions_.ipdom(root);
    WideWord& o = obs[region];
    if (is_output_[root]) {
      o = mask;
    } else if (d == kUnobservable) {
      o = WideWord{};
    } else if (d == kSink) {
      o = propagate(root, mask, good, w);
    } else {
      const NetId d_root = regions_.root_of(d);
      WideWord through = obs[regions_.region_of(d)];
      for (NetId n = d; n != d_root && !(through == WideWord{});) {
        const GateRef& sink = schedule_[fanout_flat_[fanout_begin_[n]]];
        const WideWord side = side_lanes(sink, regions_.sink_pin(n), good);
        for (std::size_t j = 0; j < kWideWords; ++j) {
          through.w[j] &= side.w[j];
        }
        n = sink.net;
      }
      if (through == WideWord{}) {
        o = WideWord{};
        continue;
      }
      ++w.dominated_stems;
      o = propagate(root, through, good, w, d);
    }
  }
}

template <typename LoadBlock>
WideFaultSimulator::Grade WideFaultSimulator::run(
    const std::vector<StuckAtFault>& faults, std::size_t num_patterns,
    const Options& options, LoadBlock&& load_block) const {
  const Circuit& c = *circuit_;
  const std::size_t num_nets = c.num_nets();
  obs::ScopedSpan span(obs::SpanCollector::current(), "sim.grade");
  Grade g;
  g.total = faults.size();
  g.num_patterns = num_patterns;
  g.detection_counts.assign(faults.size(), 0);
  g.first_detection.assign(faults.size(), kNotDetected);

  for (const StuckAtFault& f : faults) check_fault(f);

  // Group the faults by the region of their site, regions in index order
  // and each region's faults in input order.
  auto region_of_fault = [&](std::uint32_t fi) {
    return regions_.region_of(site_of(faults[fi]));
  };
  std::vector<std::uint32_t> order(faults.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return region_of_fault(a) < region_of_fault(b);
                   });
  std::vector<RegionRun> regions;
  for (std::uint32_t k = 0; k < order.size(); ++k) {
    const std::uint32_t r = region_of_fault(order[k]);
    if (regions.empty() || regions.back().region != r) {
      regions.push_back({r, 0, k, k});
    }
    RegionRun& rr = regions.back();
    rr.fault_end = k + 1;
    rr.trace_len = std::max(rr.trace_len,
                            regions_.member_pos(site_of(faults[order[k]])) + 1);
  }

  std::size_t jobs = options.jobs;
  if (jobs == 0) {
    jobs = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  jobs = std::max<std::size_t>(1, std::min(jobs, regions.size()));

  // Blocks are graded in groups: a group's good values are evaluated once,
  // up front, then phase A fills every needed root's observability for
  // each of the group's blocks, and phase B grades every region against
  // all of them. A group holds at most as many blocks as fit kGroupBytes,
  // so the default 4096-pattern prefilter without dropping is one group on
  // every benchmark circuit. With dropping, groups start at one block and
  // double, so that phase A stops soon after the faults that need a root
  // are detected.
  constexpr std::size_t kGroupBytes = std::size_t{8} << 20;
  const std::size_t num_regions = regions_.num_regions();
  const std::size_t num_blocks = (num_patterns + kWideLanes - 1) / kWideLanes;
  const std::size_t group_cap = std::clamp<std::size_t>(
      kGroupBytes / ((num_nets + num_regions) * sizeof(WideWord)), 1,
      std::max<std::size_t>(1, num_blocks));

  // All scratch is allocated here; in the grading loop only the level
  // queues and the changed-net lists allocate, while they first grow to
  // their high-water marks.
  std::vector<Worker> workers(jobs);
  for (Worker& w : workers) {
    w.faulty.resize(num_nets);
    w.queued.assign(num_nets, 0);
    w.pending.resize(num_levels_);
    w.crit.resize(num_nets);
    w.level_events.assign(num_levels_, 0);
  }
  std::vector<WideWord> good(group_cap * num_nets);  // block-major
  std::vector<WideWord> obs(group_cap * num_regions);  // block-major
  std::vector<WideWord> masks(group_cap);
  // Regions still graded, in region order; with dropping, a region whose
  // faults are all detected leaves between groups.
  std::vector<std::uint32_t> alive(regions.size());
  std::iota(alive.begin(), alive.end(), 0u);
  // Regions whose root observability phase A computes: those of `alive`
  // and, transitively, those of their roots' post-dominators; ascending.
  std::vector<std::uint32_t> needed;
  std::vector<std::uint8_t> need(num_regions);
  auto dropped = [&](std::uint32_t fi) {
    return options.drop_detected && g.first_detection[fi] != kNotDetected;
  };
  auto all_dropped = [&](const RegionRun& rr) {
    return std::all_of(order.begin() + rr.fault_begin,
                       order.begin() + rr.fault_end, dropped);
  };

  // Phases are separated by a barrier whose completion step -- run by
  // exactly one thread while the others wait -- either opens phase B or
  // drops finished regions and loads and evaluates the next group. Within
  // a phase, threads claim blocks (A) or regions (B) from `next`; a root's
  // observability goes to its own slot, a fault's outcome to its own
  // slots and level events to the claiming thread's counters, which are
  // summed at the end, so the schedule never shows in a result.
  std::atomic<std::size_t> next{0};
  std::size_t first_block = 0;  // of the current group
  std::size_t group_blocks = 0;
  std::size_t groups = 0;
  bool phase_b = true;  // the first completion step loads the first group
  bool done = false;

  auto next_group = [&]() noexcept {
    first_block += group_blocks;
    if (options.drop_detected) {
      std::erase_if(alive,
                    [&](std::uint32_t k) { return all_dropped(regions[k]); });
    }
    done = first_block >= num_blocks || alive.empty();
    if (done) return;
    group_blocks = std::min(
        options.drop_detected ? std::min(group_cap, std::max<std::size_t>(
                                                        1, 2 * group_blocks))
                              : group_cap,
        num_blocks - first_block);
    ++groups;
    for (std::size_t b = 0; b < group_blocks; ++b) {
      WideWord* values = &good[b * num_nets];
      load_block(first_block + b, values);
      for (const GateRef& gr : schedule_) {
        values[gr.net] =
            eval_entry(gr, [&](std::uint32_t k) -> const WideWord& {
              return values[fanin_flat_[gr.fanin_begin + k]];
            });
      }
      const std::size_t remaining =
          num_patterns - (first_block + b) * kWideLanes;
      for (std::size_t j = 0; j < kWideWords; ++j) {
        const std::size_t lo = j * 64;
        masks[b].w[j] = remaining >= lo + 64
                            ? ~Word{0}
                            : remaining <= lo
                                  ? 0
                                  : ((Word{1} << (remaining - lo)) - 1);
      }
    }
    // A post-dominator's region has a lower index than the root's, so one
    // descending pass closes `need` under post-dominator regions.
    std::fill(need.begin(), need.end(), 0);
    for (const std::uint32_t k : alive) need[regions[k].region] = 1;
    for (std::size_t r = num_regions; r-- > 0;) {
      const NetId d = regions_.ipdom(regions_.root(r));
      if (need[r] && d < num_nets) need[regions_.region_of(d)] = 1;
    }
    needed.clear();
    for (std::uint32_t r = 0; r < num_regions; ++r) {
      if (need[r]) needed.push_back(r);
    }
  };
  auto step = [&]() noexcept {
    phase_b = !phase_b;
    if (!phase_b) next_group();
    next.store(0, std::memory_order_relaxed);
  };
  std::barrier sync(static_cast<std::ptrdiff_t>(jobs), step);

  // Grades one region against every block of the current group. Tracing
  // from the root's observability gives each member's lanes on which its
  // flip reaches a PO (the region has no reconvergence, and lanes are
  // independent). A fault is detected on the lanes where it is activated
  // (good value != stuck value), its branch's side inputs let it through,
  // and its site's flip is observed.
  auto grade_region = [&](const RegionRun& rr, Worker& w) {
    const std::uint32_t* region_faults = &order[rr.fault_begin];
    const std::uint32_t count = rr.fault_end - rr.fault_begin;
    for (std::size_t b = 0; b < group_blocks; ++b) {
      if (all_dropped(rr)) return;
      const WideWord& root_obs = obs[b * num_regions + rr.region];
      if (root_obs == WideWord{}) continue;
      const WideWord* gv = &good[b * num_nets];
      trace_region(rr.region, rr.trace_len, root_obs, gv, w);
      for (std::uint32_t k = 0; k < count; ++k) {
        const std::uint32_t fi = region_faults[k];
        if (dropped(fi)) continue;
        const StuckAtFault& f = faults[fi];
        const Word stuck = f.stuck_value ? ~Word{0} : 0;
        WideWord side;
        if (f.branch) {
          side = side_lanes(schedule_[schedule_index_[f.branch->gate]],
                            f.branch->pin, gv);
        } else {
          for (std::size_t j = 0; j < kWideWords; ++j) side.w[j] = ~Word{0};
        }
        const WideWord& crit = w.crit[site_of(f)];
        std::uint64_t hits = 0;
        WideWord detect;
        for (std::size_t j = 0; j < kWideWords; ++j) {
          detect.w[j] = (gv[f.net].w[j] ^ stuck) & side.w[j] & crit.w[j];
          hits += static_cast<std::uint64_t>(std::popcount(detect.w[j]));
        }
        if (hits == 0) continue;
        g.detection_counts[fi] += hits;
        if (g.first_detection[fi] == kNotDetected) {
          for (std::size_t j = 0; j < kWideWords; ++j) {
            if (detect.w[j]) {
              g.first_detection[fi] =
                  (first_block + b) * kWideLanes + j * 64 +
                  static_cast<std::uint64_t>(std::countr_zero(detect.w[j]));
              break;
            }
          }
        }
      }
    }
  };

  auto work = [&](Worker& w) {
    sync.arrive_and_wait();  // the first group is loaded
    while (!done) {
      for (;;) {  // phase A
        const std::size_t b = next.fetch_add(1, std::memory_order_relaxed);
        if (b >= group_blocks) break;
        observe_block(needed, masks[b], &good[b * num_nets],
                      &obs[b * num_regions], w);
      }
      sync.arrive_and_wait();
      for (;;) {  // phase B
        const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
        if (k >= alive.size()) break;
        grade_region(regions[alive[k]], w);
      }
      sync.arrive_and_wait();
    }
  };

  {
    std::vector<std::thread> threads;
    threads.reserve(jobs - 1);
    for (std::size_t t = 1; t < jobs; ++t) {
      threads.emplace_back(work, std::ref(workers[t]));
    }
    work(workers[0]);
    for (std::thread& t : threads) t.join();
  }

  g.level_events.assign(num_levels_, 0);
  std::uint64_t stem_propagations = 0;
  std::uint64_t dominated_stems = 0;
  for (const Worker& w : workers) {
    for (std::size_t level = 0; level < num_levels_; ++level) {
      g.level_events[level] += w.level_events[level];
    }
    stem_propagations += w.stem_propagations;
    dominated_stems += w.dominated_stems;
  }
  if (span.enabled()) {
    span.attr("faults", g.total);
    span.attr("patterns", g.num_patterns);
    span.attr("regions", regions.size());
    span.attr("groups", groups);
    span.attr("stem_propagations", stem_propagations);
    span.attr("dominated_stems", dominated_stems);
    span.attr("events", g.events());
    span.attr("detected", g.detected());
    span.attr("jobs", jobs);
  }
  return g;
}

WideFaultSimulator::Grade WideFaultSimulator::grade_random(
    const std::vector<StuckAtFault>& faults, std::size_t num_patterns,
    std::uint64_t seed, const Options& options) const {
  std::mt19937_64 rng(seed);
  const auto& pis = circuit_->inputs();
  return run(faults, num_patterns, options,
             [&](std::uint64_t /*block*/, WideWord* values) {
               // Draw order matches the legacy 64-wide grader (one word
               // per PI per 64-pattern slice, slices in order), so the
               // detected set is bit-identical to the narrow engine for
               // every pattern count and seed.
               for (std::size_t j = 0; j < kWideWords; ++j) {
                 for (std::size_t i = 0; i < pis.size(); ++i) {
                   values[pis[i]].w[j] = rng();
                 }
               }
             });
}

WideFaultSimulator::Grade WideFaultSimulator::grade_vectors(
    const std::vector<StuckAtFault>& faults,
    const std::vector<std::vector<bool>>& vectors,
    const Options& options) const {
  const auto& pis = circuit_->inputs();
  for (const auto& vec : vectors) {
    if (vec.size() != pis.size()) {
      throw std::invalid_argument("grade_vectors: vector width != #PIs");
    }
  }
  return run(faults, vectors.size(), options,
             [&](std::uint64_t block, WideWord* values) {
               const std::size_t base = block * kWideLanes;
               const std::size_t lanes =
                   std::min(kWideLanes, vectors.size() - base);
               for (std::size_t i = 0; i < pis.size(); ++i) {
                 values[pis[i]] = WideWord{};
               }
               for (std::size_t l = 0; l < lanes; ++l) {
                 const auto& vec = vectors[base + l];
                 for (std::size_t i = 0; i < pis.size(); ++i) {
                   if (vec[i]) {
                     values[pis[i]].w[l / 64] |= Word{1} << (l % 64);
                   }
                 }
               }
             });
}

std::vector<std::vector<bool>> WideFaultSimulator::random_patterns(
    std::size_t num_patterns, std::uint64_t seed) const {
  std::mt19937_64 rng(seed);
  const std::size_t num_pis = circuit_->num_inputs();
  std::vector<std::vector<bool>> vectors(num_patterns,
                                         std::vector<bool>(num_pis, false));
  for (std::size_t base = 0; base < num_patterns; base += kWideLanes) {
    for (std::size_t j = 0; j < kWideWords; ++j) {
      for (std::size_t i = 0; i < num_pis; ++i) {
        const Word word = rng();
        for (std::size_t l = 0; l < 64; ++l) {
          const std::size_t p = base + j * 64 + l;
          if (p < num_patterns && ((word >> l) & 1u)) vectors[p][i] = true;
        }
      }
    }
  }
  return vectors;
}

std::size_t WideFaultSimulator::Grade::detected() const {
  std::size_t n = 0;
  for (const std::uint64_t count : detection_counts) n += count > 0;
  return n;
}

std::uint64_t WideFaultSimulator::Grade::events() const {
  std::uint64_t n = 0;
  for (const std::uint64_t e : level_events) n += e;
  return n;
}

}  // namespace dp::sim
