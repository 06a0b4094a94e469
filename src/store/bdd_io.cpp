#include "store/bdd_io.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "obs/json.hpp"  // atomic_write_file

namespace dp::store {

namespace {

constexpr std::uint32_t kMagic = 0x46424450u;      // "DPBF" little-endian
constexpr std::uint32_t kEndianTag = 0x01020304u;  // rejects foreign endianness
// v2: complement-edge refs ((id << 1) | complement, single TRUE terminal
// at id 0). v1 files (two-terminal ids) are rejected as unsupported.
constexpr std::uint32_t kVersion = 2u;
constexpr std::uint32_t kInvalidRoot = 0xffffffffu;

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : std::string_view(bytes)) {
    h = (h ^ c) * 0x100000001b3ull;
  }
  return h;
}

void put_u32(std::string& out, std::uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, sizeof v);
  out.append(buf, sizeof v);
}

void put_u64(std::string& out, std::uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, sizeof v);
  out.append(buf, sizeof v);
}

/// Bounds-checked read cursor over the loaded byte buffer.
class Cursor {
 public:
  explicit Cursor(const std::string& bytes) : bytes_(bytes) {}

  std::uint32_t u32() { return read<std::uint32_t>(); }
  std::uint64_t u64() { return read<std::uint64_t>(); }
  std::size_t pos() const { return pos_; }

 private:
  template <typename T>
  T read() {
    if (bytes_.size() - pos_ < sizeof(T)) {
      throw StoreError("BDD forest file truncated at byte " +
                       std::to_string(pos_));
    }
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof v);
    pos_ += sizeof v;
    return v;
  }

  const std::string& bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

void save_forest(std::ostream& os, bdd::Manager& manager,
                 const std::vector<bdd::Bdd>& roots) {
  for (const bdd::Bdd& r : roots) {
    if (r.valid() && r.manager() != &manager) {
      throw StoreError("save_forest: root from a different manager");
    }
  }

  // Child-before-parent emission order over the shared DAG (iterative
  // post-order). The walk is over *regular* edges -- both polarities of a
  // node serialize once -- and refs re-attach the complement bit, so the
  // file mirrors the in-memory sharing exactly (terminal refs 0/1 equal
  // the in-memory kTrueNode/kFalseNode edges).
  std::unordered_map<bdd::NodeIndex, std::uint32_t> id;  // regular edge -> id
  std::vector<bdd::NodeIndex> order;
  std::vector<bdd::NodeIndex> stack;
  for (const bdd::Bdd& r : roots) {
    if (r.valid() && !manager.is_terminal(r.index())) {
      stack.push_back(bdd::edge_regular(r.index()));
    }
  }
  while (!stack.empty()) {
    const bdd::NodeIndex n = stack.back();
    if (id.count(n)) {
      stack.pop_back();
      continue;
    }
    bool ready = true;
    for (const bdd::NodeIndex c : {manager.lo(n), manager.hi(n)}) {
      const bdd::NodeIndex cr = bdd::edge_regular(c);
      if (!manager.is_terminal(cr) && !id.count(cr)) {
        stack.push_back(cr);
        ready = false;
      }
    }
    if (ready) {
      id.emplace(n, static_cast<std::uint32_t>(1 + order.size()));
      order.push_back(n);
      stack.pop_back();
    }
  }

  auto ref_of = [&](bdd::NodeIndex e) -> std::uint32_t {
    if (manager.is_terminal(e)) return static_cast<std::uint32_t>(e);
    return (id.at(bdd::edge_regular(e)) << 1) | bdd::edge_complemented(e);
  };

  std::string buf;
  buf.reserve(64 + 4 * manager.num_vars() + 12 * order.size() +
              4 * roots.size());
  put_u32(buf, kMagic);
  put_u32(buf, kEndianTag);
  put_u32(buf, kVersion);
  put_u64(buf, manager.num_vars());
  for (bdd::Var v : manager.variable_order()) put_u32(buf, v);
  put_u64(buf, order.size());
  put_u64(buf, roots.size());
  for (const bdd::NodeIndex n : order) {
    // n is regular, so lo(n)/hi(n) are the stored child edges and the lo
    // ref inherits the canonical regular-else form.
    put_u32(buf, manager.var_of(n));
    put_u32(buf, ref_of(manager.lo(n)));
    put_u32(buf, ref_of(manager.hi(n)));
  }
  for (const bdd::Bdd& r : roots) {
    put_u32(buf, r.valid() ? ref_of(r.index()) : kInvalidRoot);
  }
  put_u64(buf, fnv1a(buf));

  os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  if (!os) throw StoreError("save_forest: stream write failed");
}

std::vector<bdd::Bdd> load_forest(std::istream& is, bdd::Manager& manager,
                                  const ForestLoadOptions& options) {
  std::ostringstream raw;
  raw << is.rdbuf();
  const std::string bytes = raw.str();

  if (bytes.size() < 8) throw StoreError("BDD forest file truncated (header)");
  const std::string payload = bytes.substr(0, bytes.size() - 8);
  std::uint64_t stored_sum;
  std::memcpy(&stored_sum, bytes.data() + payload.size(), sizeof stored_sum);
  if (fnv1a(payload) != stored_sum) {
    throw StoreError("BDD forest checksum mismatch (corrupt or truncated)");
  }

  Cursor cur(payload);
  if (cur.u32() != kMagic) throw StoreError("not a BDD forest file (bad magic)");
  if (cur.u32() != kEndianTag) {
    throw StoreError("BDD forest written with a different byte order");
  }
  const std::uint32_t version = cur.u32();
  if (version != kVersion) {
    throw StoreError("unsupported BDD forest format version " +
                     std::to_string(version));
  }

  const std::uint64_t num_vars = cur.u64();
  std::vector<bdd::Var> saved_order(num_vars);
  std::vector<std::size_t> saved_level(num_vars, num_vars);
  for (std::uint64_t level = 0; level < num_vars; ++level) {
    const bdd::Var v = cur.u32();
    if (v >= num_vars || saved_level[v] != num_vars) {
      throw StoreError("BDD forest variable order is not a permutation");
    }
    saved_order[level] = v;
    saved_level[v] = level;
  }
  const std::uint64_t node_count = cur.u64();
  const std::uint64_t root_count = cur.u64();

  while (manager.num_vars() < num_vars) manager.new_var();
  if (options.restore_variable_order && num_vars > 0) {
    // The manager may hold more variables than the forest; only impose
    // the saved relative order when the counts match exactly.
    if (manager.num_vars() != num_vars) {
      throw StoreError(
          "restore_variable_order requires a manager with exactly the "
          "forest's variable count");
    }
    apply_variable_order(manager, saved_order);
  }

  // built[id] = reconstructed handle for the *regular* polarity; id 0 is
  // the TRUE terminal and a ref's complement bit negates on use (O(1)).
  // ITE through the unique table re-canonicalizes every node under the
  // TARGET manager's order, so functions survive order changes.
  std::vector<bdd::Bdd> built;
  built.reserve(1 + node_count);
  built.push_back(manager.one());
  std::vector<bdd::Var> var_of(1 + node_count, bdd::kTerminalVar);
  auto deref = [&](std::uint32_t ref) -> bdd::Bdd {
    const bdd::Bdd& b = built[ref >> 1];
    return (ref & 1u) ? !b : b;
  };
  for (std::uint64_t i = 0; i < node_count; ++i) {
    const std::uint32_t self = static_cast<std::uint32_t>(1 + i);
    const bdd::Var var = cur.u32();
    const std::uint32_t lo = cur.u32();
    const std::uint32_t hi = cur.u32();
    if (var >= num_vars) {
      throw StoreError("BDD forest node " + std::to_string(self) +
                       " has out-of-range variable " + std::to_string(var));
    }
    if ((lo >> 1) >= self || (hi >> 1) >= self) {
      throw StoreError("BDD forest node " + std::to_string(self) +
                       " has a forward or self reference");
    }
    if ((lo & 1u) != 0) {
      throw StoreError("BDD forest node " + std::to_string(self) +
                       " has a complemented else ref (non-canonical)");
    }
    if (lo == hi) {
      throw StoreError("BDD forest node " + std::to_string(self) +
                       " is unreduced (lo == hi)");
    }
    for (const std::uint32_t child : {lo >> 1, hi >> 1}) {
      if (var_of[child] != bdd::kTerminalVar &&
          saved_level[var_of[child]] <= saved_level[var]) {
        throw StoreError("BDD forest node " + std::to_string(self) +
                         " violates the recorded variable order");
      }
    }
    var_of[self] = var;
    built.push_back(manager.var(var).ite(deref(hi), deref(lo)));
  }

  std::vector<bdd::Bdd> roots;
  roots.reserve(root_count);
  for (std::uint64_t i = 0; i < root_count; ++i) {
    const std::uint32_t r = cur.u32();
    if (r == kInvalidRoot) {
      roots.emplace_back();
    } else if ((r >> 1) < built.size()) {
      roots.push_back(deref(r));
    } else {
      throw StoreError("BDD forest root " + std::to_string(i) +
                       " references a missing node");
    }
  }
  if (cur.pos() != payload.size()) {
    throw StoreError("BDD forest has trailing bytes after the root table");
  }
  return roots;
}

void save_forest_file(const std::string& path, bdd::Manager& manager,
                      const std::vector<bdd::Bdd>& roots) {
  std::ostringstream os;
  save_forest(os, manager, roots);
  std::string error;
  if (!obs::atomic_write_file(path, os.str(), &error)) {
    throw StoreError("save_forest_file: " + error);
  }
}

std::vector<bdd::Bdd> load_forest_file(const std::string& path,
                                       bdd::Manager& manager,
                                       const ForestLoadOptions& options) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw StoreError("cannot open '" + path + "' for reading");
  return load_forest(is, manager, options);
}

namespace {

bdd::Bdd transfer_rec(bdd::Manager& dst, bdd::Manager& src, bdd::NodeIndex n,
                      std::unordered_map<bdd::NodeIndex, bdd::Bdd>& memo) {
  // Memoize on the regular edge and re-apply the polarity on exit, so
  // both polarities of a shared node translate through one entry.
  const bool c = bdd::edge_complemented(n) != 0;
  const bdd::NodeIndex nr = bdd::edge_regular(n);
  if (nr == bdd::kTrueNode) return c ? dst.zero() : dst.one();
  const auto it = memo.find(nr);
  if (it != memo.end()) return c ? !it->second : it->second;
  const bdd::Bdd lo = transfer_rec(dst, src, src.lo(nr), memo);
  const bdd::Bdd hi = transfer_rec(dst, src, src.hi(nr), memo);
  bdd::Bdd r = dst.var(src.var_of(nr)).ite(hi, lo);
  memo.emplace(nr, r);
  return c ? !r : r;
}

}  // namespace

bdd::Bdd transfer(bdd::Manager& dst, const bdd::Bdd& src) {
  if (!src.valid()) return {};
  bdd::Manager& sm = *src.manager();
  if (&sm == &dst) return src;
  while (dst.num_vars() < sm.num_vars()) dst.new_var();
  std::unordered_map<bdd::NodeIndex, bdd::Bdd> memo;
  return transfer_rec(dst, sm, src.index(), memo);
}

void apply_variable_order(bdd::Manager& manager,
                          const std::vector<bdd::Var>& order) {
  const std::size_t n = manager.num_vars();
  if (order.size() != n) {
    throw StoreError("apply_variable_order: order size mismatch");
  }
  std::vector<bool> seen(n, false);
  for (bdd::Var v : order) {
    if (v >= n || seen[v]) {
      throw StoreError("apply_variable_order: order is not a permutation");
    }
    seen[v] = true;
  }
  // Selection sort by adjacent swaps: settle each level left to right.
  for (std::size_t level = 0; level < n; ++level) {
    std::size_t from = manager.level_of(order[level]);
    for (; from > level; --from) {
      manager.swap_adjacent_levels(from - 1);
    }
  }
}

}  // namespace dp::store
