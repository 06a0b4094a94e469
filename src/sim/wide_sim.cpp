#include "sim/wide_sim.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <bit>
#include <functional>
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
    : circuit_(&circuit) {
  if (!circuit.finalized()) {
    throw netlist::NetlistError(
        "WideFaultSimulator: circuit must be finalized");
  }
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
  if (!f.branch) return;
  const std::uint32_t si = schedule_index_[f.branch->gate];
  if (si == kNotScheduled || f.branch->pin >= schedule_[si].fanin_count) {
    throw netlist::NetlistError(
        "branch fault pin " + std::to_string(f.branch->pin) +
        " out of range on zero-fanin or input gate '" +
        circuit_->net_name(f.branch->gate) + "'");
  }
}

WideWord WideFaultSimulator::propagate(const StuckAtFault& f,
                                       const WideWord* good,
                                       Worker& w) const {
  if (++w.epoch == 0) {  // stamp wrap: invalidate everything once
    std::fill(w.stamp.begin(), w.stamp.end(), 0u);
    std::fill(w.queued.begin(), w.queued.end(), 0u);
    w.epoch = 1;
  }
  const std::uint32_t epoch = w.epoch;
  std::vector<WideWord>& scratch = w.scratch;
  std::vector<std::uint32_t>& stamp = w.stamp;

  // Inject the difference at the site: the stem net, or for a branch the
  // gate it feeds, evaluated with the faulty pin forced.
  WideWord forced;
  for (std::size_t j = 0; j < kWideWords; ++j) {
    forced.w[j] = f.stuck_value ? ~Word{0} : 0;
  }
  NetId site = f.net;
  WideWord v = forced;
  if (f.branch) {
    site = f.branch->gate;
    const GateRef& gr = schedule_[schedule_index_[site]];
    v = eval_entry(gr, [&](std::uint32_t k) -> const WideWord& {
      return k == f.branch->pin ? forced
                                : good[fanin_flat_[gr.fanin_begin + k]];
    });
  }
  WideWord diff{};
  if (v == good[site]) return diff;  // no lane differs under this block

  // Event-driven chase: a net whose faulty value differs from its good
  // value queues the gates it feeds, by level, and only queued gates are
  // evaluated. Levels are drained in increasing order, so every gate sees
  // its fanins' final values; a gate whose faulty value equals its good
  // value kills the difference on that path.
  w.reached_pos.clear();
  std::size_t top = net_level_[site];
  auto differs = [&](NetId net, const WideWord& value) {
    scratch[net] = value;
    stamp[net] = epoch;
    if (is_output_[net]) w.reached_pos.push_back(net);
    for (std::uint32_t k = fanout_begin_[net]; k < fanout_begin_[net + 1];
         ++k) {
      const std::uint32_t si = fanout_flat_[k];
      const NetId gate = schedule_[si].net;
      if (w.queued[gate] == epoch) continue;
      w.queued[gate] = epoch;
      const std::uint32_t level = net_level_[gate];
      w.pending[level].push_back(si);
      top = std::max<std::size_t>(top, level);
    }
  };
  ++w.level_events[net_level_[site]];
  differs(site, v);
  for (std::size_t level = net_level_[site] + 1; level <= top; ++level) {
    std::vector<std::uint32_t>& queue = w.pending[level];
    w.level_events[level] += queue.size();
    for (const std::uint32_t si : queue) {
      const GateRef& gr = schedule_[si];
      const WideWord fv =
          eval_entry(gr, [&](std::uint32_t k) -> const WideWord& {
            const NetId n = fanin_flat_[gr.fanin_begin + k];
            return stamp[n] == epoch ? scratch[n] : good[n];
          });
      if (!(fv == good[gr.net])) differs(gr.net, fv);
    }
    queue.clear();
  }

  for (const NetId po : w.reached_pos) {
    for (std::size_t j = 0; j < kWideWords; ++j) {
      diff.w[j] |= scratch[po].w[j] ^ good[po].w[j];
    }
  }
  return diff;
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

  std::size_t jobs = options.jobs;
  if (jobs == 0) {
    jobs = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  jobs = std::max<std::size_t>(1, std::min(jobs, faults.size()));

  // Blocks are graded in groups: a group's good values are evaluated once,
  // up front, and every fault is then chased through all of the group's
  // blocks in turn. A group holds as many blocks as fit kGroupBytes, so the
  // default 4096-pattern prefilter is one group on every benchmark circuit.
  constexpr std::size_t kGroupBytes = std::size_t{8} << 20;
  const std::size_t num_blocks = (num_patterns + kWideLanes - 1) / kWideLanes;
  const std::size_t group_cap = std::clamp<std::size_t>(
      kGroupBytes / (std::max<std::size_t>(1, num_nets) * sizeof(WideWord)),
      1, std::max<std::size_t>(1, num_blocks));

  // All scratch is allocated here; in the grading loop only the level
  // queues allocate, while they first grow to their high-water marks.
  std::vector<Worker> workers(jobs);
  for (Worker& w : workers) {
    w.scratch.resize(num_nets);
    w.stamp.assign(num_nets, 0);
    w.queued.assign(num_nets, 0);
    w.pending.resize(num_levels_);
    w.level_events.assign(num_levels_, 0);
  }
  std::vector<WideWord> good(group_cap * num_nets);  // block-major
  std::vector<WideWord> masks(group_cap);
  // Faults still graded, in input order; dropped faults leave between
  // groups.
  std::vector<std::uint32_t> alive(faults.size());
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    alive[fi] = static_cast<std::uint32_t>(fi);
  }

  // Groups are separated by a barrier whose completion step -- run by
  // exactly one thread while the others wait -- drops detected faults and
  // loads and evaluates the next group. Within a group, threads claim
  // small runs of faults from `next`; a fault's outcome goes to its own
  // slots and level events to the claiming thread's counters, which are
  // summed at the end, so the schedule never shows in a result.
  std::atomic<std::size_t> next{0};
  std::size_t first_block = 0;  // of the current group
  std::size_t group_blocks = 0;
  bool done = false;

  auto next_group = [&]() noexcept {
    first_block += group_blocks;
    if (options.drop_detected) {
      std::erase_if(alive, [&](std::uint32_t fi) {
        return g.first_detection[fi] != kNotDetected;
      });
    }
    done = first_block >= num_blocks ||
           (options.drop_detected && alive.empty());
    if (done) return;
    group_blocks = std::min(group_cap, num_blocks - first_block);
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
    next.store(0, std::memory_order_relaxed);
  };
  std::barrier sync(static_cast<std::ptrdiff_t>(jobs), next_group);

  // Grades fault `fi` against every block of the current group.
  auto grade_fault = [&](std::uint32_t fi, Worker& w) {
    for (std::size_t b = 0; b < group_blocks; ++b) {
      const WideWord diff = propagate(faults[fi], &good[b * num_nets], w);
      std::uint64_t hits = 0;
      for (std::size_t j = 0; j < kWideWords; ++j) {
        hits += static_cast<std::uint64_t>(
            std::popcount(diff.w[j] & masks[b].w[j]));
      }
      if (hits == 0) continue;
      g.detection_counts[fi] += hits;
      if (g.first_detection[fi] == kNotDetected) {
        for (std::size_t j = 0; j < kWideWords; ++j) {
          const Word masked = diff.w[j] & masks[b].w[j];
          if (masked) {
            g.first_detection[fi] =
                (first_block + b) * kWideLanes + j * 64 +
                static_cast<std::uint64_t>(std::countr_zero(masked));
            break;
          }
        }
      }
      if (options.drop_detected) return;
    }
  };

  auto work = [&](Worker& w) {
    sync.arrive_and_wait();  // the first group is loaded
    while (!done) {
      // Runs of kClaim faults per claim keep the shared counter cool
      // while still balancing cones of very different sizes.
      constexpr std::size_t kClaim = 4;
      for (;;) {
        const std::size_t lo =
            next.fetch_add(kClaim, std::memory_order_relaxed);
        if (lo >= alive.size()) break;
        const std::size_t hi = std::min(alive.size(), lo + kClaim);
        for (std::size_t k = lo; k < hi; ++k) grade_fault(alive[k], w);
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
  for (const Worker& w : workers) {
    for (std::size_t level = 0; level < num_levels_; ++level) {
      g.level_events[level] += w.level_events[level];
    }
  }
  if (span.enabled()) {
    span.attr("faults", g.total);
    span.attr("patterns", g.num_patterns);
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
