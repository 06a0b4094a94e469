// Direct-mapped computed table for BDD operations (CUDD-style).
//
// Collisions silently evict: the cache is an accelerator, never a source of
// truth, so a lost entry only costs recomputation.
//
// Keys are (op, a, b) with a and b full *edges* -- the complement bit is
// part of the key, so f&g and f&¬g occupy distinct entries. Callers
// canonicalize commutative operands (a <= b) before keying; the slot mix
// below keeps `op` in its own bit range so an op id can never alias into
// an operand's bits (the old packing XORed op into b's low byte, which
// collided (op=And, b) with (op=Xor, b^2) systematically).
//
// Sizing: the table starts at kMinSlots and doubles, up to kMaxSlots,
// whenever demand outgrows it. Demand is the larger of two signals -- the
// inserts made since the last resize (a table written through once over
// is thrashing) and the live node count a collection reports (a table
// much smaller than the working set cannot hold it). A manager that
// analyzes a handful of faults never pays for a table sized for a sweep.
// Growing drops every entry: the old table is released before the new one
// is mapped, so peak memory never holds both. Tables are mapped directly
// from the OS (not the heap), so a released table is returned at once
// instead of lingering in an allocator arena, and a fresh mapping is
// zero-filled -- the empty encoding is all-zero bytes. The mapping is
// populated up front: lookups hit random slots, and faulting pages in one
// at a time from inside the apply recursion costs far more than one bulk
// fill.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <cstring>
#include <new>

#include "bdd/bdd_types.hpp"

namespace dp::bdd {

class ComputedCache {
 public:
  static constexpr std::size_t kMinSlots = std::size_t{1} << 14;
  static constexpr std::size_t kMaxSlots = std::size_t{1} << 20;

  ComputedCache() { map(kMinSlots); }
  ~ComputedCache() { unmap(); }
  ComputedCache(const ComputedCache&) = delete;
  ComputedCache& operator=(const ComputedCache&) = delete;

  /// Returns kInvalidNode on miss.
  NodeIndex lookup(Op op, NodeIndex a, NodeIndex b) const {
    const Entry& e = entries_[slot(op, a, b)];
    if (e.tag == tag_of(op) && e.a == a && e.b == b) return e.result;
    return kInvalidNode;
  }

  void insert(Op op, NodeIndex a, NodeIndex b, NodeIndex result) {
    if (++inserts_ > size_ && size_ < kMaxSlots) grow_to(inserts_);
    entries_[slot(op, a, b)] = Entry{a, b, result, tag_of(op)};
  }

  /// Drops every entry. The table keeps its size unless `live_nodes` (the
  /// surviving working set after a collection) asks for a larger one.
  void clear(std::size_t live_nodes = 0) {
    if (!grow_to(live_nodes)) std::memset(entries_, 0, size_ * sizeof(Entry));
  }

  std::size_t size() const { return size_; }

 private:
  struct Entry {
    NodeIndex a;
    NodeIndex b;
    NodeIndex result;
    std::uint8_t tag;  ///< 1 + op; 0 marks an empty slot
  };

  static std::uint8_t tag_of(Op op) {
    return static_cast<std::uint8_t>(static_cast<std::uint8_t>(op) + 1);
  }

  /// The one sizing rule: the smallest power of two >= `demand`, never
  /// below the current size nor above kMaxSlots. Returns true (with every
  /// entry dropped) when the table was replaced.
  bool grow_to(std::size_t demand) {
    std::size_t n = size_;
    while (n < demand && n < kMaxSlots) n <<= 1;
    if (n == size_) return false;
    unmap();
    map(n);
    return true;
  }

  void map(std::size_t slots) {
    void* p = ::mmap(nullptr, slots * sizeof(Entry), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    entries_ = static_cast<Entry*>(p);
    size_ = slots;
    mask_ = slots - 1;
    inserts_ = 0;
  }

  void unmap() {
    if (entries_ != nullptr) ::munmap(entries_, size_ * sizeof(Entry));
    entries_ = nullptr;
  }

  std::size_t slot(Op op, NodeIndex a, NodeIndex b) const {
    // The operands fill the low 64 bits; a first multiplicative mix
    // diffuses them, then `op` lands in bits 56..63 -- a range no operand
    // bit occupies pre-mix -- and a second multiply spreads it. Two
    // finalizer-style rounds keep the high bits (the ones the slot index
    // is drawn from) sensitive to every key bit.
    std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) |
                        static_cast<std::uint64_t>(b);
    key *= 0x9e3779b97f4a7c15ull;
    key ^= static_cast<std::uint64_t>(op) << 56;
    key *= 0xff51afd7ed558ccdull;
    key ^= key >> 33;
    return static_cast<std::size_t>(key >> 32) & mask_;
  }

  Entry* entries_ = nullptr;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  std::size_t inserts_ = 0;  ///< since the table was last mapped
};

}  // namespace dp::bdd
