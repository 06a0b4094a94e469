// Canonical binary serialization of BDD forests.
//
// A forest is any set of root handles from ONE manager; the shared DAG
// under all roots is written once, in child-before-parent order, with a
// header recording the format version and the manager's variable order
// at save time. Loading reconstructs every node with ITE in the target
// manager, so a forest round-trips into a manager with a DIFFERENT
// variable order (e.g. after sift_reorder on either side) and still
// denotes the same functions -- the on-disk order is a witness for
// validation, not a constraint on the reader.
//
// Layout (host-endian; an endianness tag in the header rejects foreign
// files), all integers fixed-width:
//
//   u32 magic 'DPBF'   u32 endian tag 0x01020304   u32 version (=2)
//   u64 num_vars       num_vars x u32 variable order (level -> var)
//   u64 node_count     u64 root_count
//   node_count x { u32 var, u32 lo, u32 hi }   -- lo/hi/root values are
//       *refs* mirroring the in-memory complement-edge encoding:
//       ref = (id << 1) | complement, where id 0 is the single TRUE
//       terminal (so ref 0 = TRUE, ref 1 = FALSE) and ids 1.. are nodes
//       in file order; children always precede parents, and the lo ref
//       of every node is regular (complement bit clear), mirroring the
//       canonical regular-else invariant
//   root_count x u32 refs  -- 0xFFFFFFFF encodes an empty/invalid handle
//   u64 checksum       -- FNV-1a-64 over every preceding byte
//
// Version 1 (two-terminal, polarity-free ids) is NOT readable by this
// loader; it throws the same "unsupported version" StoreError any foreign
// format hits, which the ArtifactStore layer degrades to a counted
// corrupt-miss and a recompute -- stale caches self-heal.
//
// Loading is strict: truncation, checksum mismatch, unknown version,
// non-permutation orders, forward/self references, unreduced nodes
// (lo == hi), complemented else refs, and level-order violations all
// throw StoreError rather than yielding a silently wrong BDD.
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"

namespace dp::store {

/// Thrown on malformed/corrupt artifacts and on save-side I/O failures.
class StoreError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct ForestLoadOptions {
  /// Re-impose the saved variable order on the target manager (adjacent
  /// swaps) before reconstruction, making the load linear in the node
  /// count. Off by default: the common case is loading into a fresh
  /// manager whose identity order is what downstream code expects.
  bool restore_variable_order = false;
};

/// Serializes `roots` (handles into `manager`; invalid handles allowed
/// and round-trip as invalid). Throws StoreError on stream failure or on
/// a root from a different manager.
void save_forest(std::ostream& os, bdd::Manager& manager,
                 const std::vector<bdd::Bdd>& roots);

/// Reconstructs a forest saved by save_forest. Missing variables are
/// created in `manager` (so a fresh Manager(0) works); a manager that
/// already holds functions is fine too -- the loaded nodes are built
/// through the unique table and share structure with existing BDDs.
std::vector<bdd::Bdd> load_forest(std::istream& is, bdd::Manager& manager,
                                  const ForestLoadOptions& options = {});

/// save_forest to `path` via the crash-safe temp-file + atomic-rename
/// write, so a reader never observes a partially written forest.
void save_forest_file(const std::string& path, bdd::Manager& manager,
                      const std::vector<bdd::Bdd>& roots);

/// Throws StoreError when the file is absent, truncated, or corrupt.
std::vector<bdd::Bdd> load_forest_file(const std::string& path,
                                       bdd::Manager& manager,
                                       const ForestLoadOptions& options = {});

/// Copies one function into another manager (memoized over the shared
/// DAG), translating across different variable orders. Invalid handles
/// copy to invalid handles. The managers must agree on what a variable
/// id MEANS; missing variables are created in `dst`.
bdd::Bdd transfer(bdd::Manager& dst, const bdd::Bdd& src);

/// Rearranges `manager` so its level order equals `order` (order[level]
/// = variable id, a permutation of all ids) using adjacent swaps. All
/// live handles remain valid.
void apply_variable_order(bdd::Manager& manager,
                          const std::vector<bdd::Var>& order);

}  // namespace dp::store
