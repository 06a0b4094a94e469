#include "store/artifact_store.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "store/bdd_io.hpp"

namespace dp::store {

namespace fs = std::filesystem;

ArtifactStore::ArtifactStore(std::string dir)
    : ArtifactStore(std::move(dir), Options{}, nullptr) {}

ArtifactStore::ArtifactStore(std::string dir, Options options,
                             obs::MetricsRegistry* metrics)
    : dir_(std::move(dir)), options_(options), metrics_(metrics) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  // A failed mkdir surfaces naturally as load misses / store failures;
  // the store itself stays usable (a cache is always optional).
}

std::string ArtifactStore::document_path(const std::string& key,
                                         const std::string& kind) const {
  return dir_ + "/" + key + "." + kind + ".json";
}

std::string ArtifactStore::forest_path(const std::string& key,
                                       const std::string& kind) const {
  return dir_ + "/" + key + "." + kind + ".bdd";
}

void ArtifactStore::count(const std::string& name, std::uint64_t n) {
  if (metrics_) metrics_->counter(name).add(n);
}

std::mutex& ArtifactStore::stripe(const std::string& key,
                                  const std::string& kind) const {
  // '\0' keeps ("ab","c") and ("a","bc") on independent stripes.
  const std::size_t h = std::hash<std::string>{}(key + '\0' + kind);
  return stripes_[h % kLockStripes];
}

std::optional<std::string> ArtifactStore::read_file(const std::string& path,
                                                    const std::string& kind) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    count("store." + kind + ".misses");
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  if (!is && !is.eof()) {
    count("store." + kind + ".corrupt");
    return std::nullopt;
  }
  std::string bytes = buf.str();
  count("store.bytes_read", bytes.size());
  return bytes;
}

std::optional<obs::JsonValue> ArtifactStore::load_document(
    const std::string& key, const std::string& kind) {
  obs::ScopedSpan span(obs::SpanCollector::current(), "store.load");
  span.attr("kind", kind);
  span.attr("key", key);
  std::lock_guard<std::mutex> entry_lock(stripe(key, kind));
  const auto timer =
      metrics_ ? std::optional<obs::ScopedTimer>(
                     metrics_->scoped_timer("store.load_seconds"))
               : std::nullopt;
  const auto bytes = read_file(document_path(key, kind), kind);
  if (!bytes) {
    span.attr("hit", 0);
    return std::nullopt;
  }
  try {
    obs::JsonValue doc = obs::JsonValue::parse(*bytes);
    count("store." + kind + ".hits");
    span.attr("hit", 1);
    span.attr("bytes", bytes->size());
    return doc;
  } catch (const obs::JsonError&) {
    count("store." + kind + ".corrupt");
    span.attr("hit", 0);
    return std::nullopt;
  }
}

bool ArtifactStore::store_document(const std::string& key,
                                   const std::string& kind,
                                   const obs::JsonValue& doc,
                                   std::string* error) {
  obs::ScopedSpan span(obs::SpanCollector::current(), "store.store");
  span.attr("kind", kind);
  span.attr("key", key);
  std::lock_guard<std::mutex> entry_lock(stripe(key, kind));
  const auto timer =
      metrics_ ? std::optional<obs::ScopedTimer>(
                     metrics_->scoped_timer("store.store_seconds"))
               : std::nullopt;
  const std::string bytes = doc.dump(2) + '\n';
  span.attr("bytes", bytes.size());
  if (!obs::atomic_write_file(document_path(key, kind), bytes, error)) {
    return false;
  }
  count("store.bytes_written", bytes.size());
  count("store." + kind + ".stores");
  prune();
  return true;
}

std::optional<std::vector<bdd::Bdd>> ArtifactStore::load_forest(
    const std::string& key, const std::string& kind, bdd::Manager& manager) {
  obs::ScopedSpan span(obs::SpanCollector::current(), "store.load");
  span.attr("kind", kind);
  span.attr("key", key);
  std::lock_guard<std::mutex> entry_lock(stripe(key, kind));
  const auto timer =
      metrics_ ? std::optional<obs::ScopedTimer>(
                     metrics_->scoped_timer("store.load_seconds"))
               : std::nullopt;
  const std::string path = forest_path(key, kind);
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    count("store." + kind + ".misses");
    span.attr("hit", 0);
    return std::nullopt;
  }
  try {
    std::vector<bdd::Bdd> roots = load_forest_file(path, manager);
    std::error_code ec;
    const auto sz = fs::file_size(path, ec);
    if (!ec) {
      count("store.bytes_read", sz);
      span.attr("bytes", static_cast<std::uint64_t>(sz));
    }
    count("store." + kind + ".hits");
    span.attr("hit", 1);
    return roots;
  } catch (const StoreError&) {
    count("store." + kind + ".corrupt");
    span.attr("hit", 0);
    return std::nullopt;
  }
}

bool ArtifactStore::store_forest(const std::string& key,
                                 const std::string& kind,
                                 bdd::Manager& manager,
                                 const std::vector<bdd::Bdd>& roots,
                                 std::string* error) {
  obs::ScopedSpan span(obs::SpanCollector::current(), "store.store");
  span.attr("kind", kind);
  span.attr("key", key);
  std::lock_guard<std::mutex> entry_lock(stripe(key, kind));
  const auto timer =
      metrics_ ? std::optional<obs::ScopedTimer>(
                     metrics_->scoped_timer("store.store_seconds"))
               : std::nullopt;
  try {
    const std::string path = forest_path(key, kind);
    save_forest_file(path, manager, roots);
    std::error_code ec;
    const auto sz = fs::file_size(path, ec);
    if (!ec) {
      count("store.bytes_written", sz);
      span.attr("bytes", static_cast<std::uint64_t>(sz));
    }
    count("store." + kind + ".stores");
    prune();
    return true;
  } catch (const StoreError& e) {
    if (error) *error = e.what();
    return false;
  }
}

void ArtifactStore::remove(const std::string& key, const std::string& kind) {
  std::lock_guard<std::mutex> entry_lock(stripe(key, kind));
  std::error_code ec;
  fs::remove(document_path(key, kind), ec);
  fs::remove(forest_path(key, kind), ec);
}

std::uintmax_t ArtifactStore::size_bytes() const {
  std::uintmax_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

std::size_t ArtifactStore::prune() {
  if (options_.max_bytes == 0) return 0;
  // One sweep at a time: concurrent size-triggered prunes would each
  // compute a stale total and together evict far below the budget.
  std::lock_guard<std::mutex> prune_lock(prune_mutex_);
  return prune_locked();
}

std::size_t ArtifactStore::prune_locked() {
  struct File {
    fs::path path;
    std::uintmax_t size;
    fs::file_time_type mtime;
  };
  std::vector<File> files;
  std::uintmax_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    File f{entry.path(), entry.file_size(ec), entry.last_write_time(ec)};
    total += f.size;
    files.push_back(std::move(f));
  }
  if (total <= options_.max_bytes) return 0;

  std::sort(files.begin(), files.end(),
            [](const File& a, const File& b) { return a.mtime < b.mtime; });
  std::size_t evicted = 0;
  for (const File& f : files) {
    if (total <= options_.max_bytes) break;
    if (fs::remove(f.path, ec)) {
      total -= f.size;
      ++evicted;
    }
  }
  count("store.evictions", evicted);
  return evicted;
}

}  // namespace dp::store
