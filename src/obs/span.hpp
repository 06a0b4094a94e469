// Hierarchical span tracing: structured wall-clock intervals with parent
// links, thread ids and key=value attributes, recorded into per-thread
// rings and merged chronologically at export.
//
// Design goals, in order:
//   1. Near-zero cost when disabled. Instrumented code asks
//      SpanCollector::current() -- one relaxed atomic load -- and a
//      ScopedSpan built from a null collector does nothing at all, so
//      the hot engines stay un-plumbed: no options threading, no #ifdef.
//   2. No cross-thread contention when enabled. Every recording thread
//      owns a private ring; the ring's mutex is only ever contended by
//      the exporter at snapshot time, so workers never serialize on each
//      other (lock-free in effect on the hot path).
//   3. Bounded memory. Rings are fixed-capacity; when one wraps, the
//      oldest spans on that thread are dropped and counted.
//
// Parenting: each thread keeps a stack of open span ids, so nested
// ScopedSpans parent automatically. A span that logically belongs under
// a parent on ANOTHER thread (a worker under its sweep) takes the parent
// id explicitly; its own children then nest under it via the local
// stack. Moving a ScopedSpan across threads is not supported (the open
// stack is thread-local); moving within a thread is.
//
// Export: dp.trace.v1 (make_trace_document) embeds the merged spans plus
// an optional profiler section, and mirrors every span into a Chrome
// trace-event array ("traceEvents", ph "X"/"C"/"M") so the same file
// loads directly in about:tracing and ui.perfetto.dev.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "obs/json.hpp"

namespace dp::obs {

/// One key=value span annotation (small closed variant -- spans are
/// recorded on hot paths, JsonValue would be needless weight there).
struct SpanAttr {
  enum class Kind : std::uint8_t { Int, Float, Text };
  std::string key;
  Kind kind = Kind::Int;
  std::int64_t i = 0;
  double f = 0.0;
  std::string text;
};

/// One finished span. Timestamps are nanoseconds since the collector's
/// epoch (its construction time).
struct SpanRecord {
  std::uint64_t id = 0;      ///< unique per collector, 1-based
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint32_t tid = 0;     ///< dense per-collector thread id
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::string name;
  std::vector<SpanAttr> attrs;
};

/// Owns the per-thread rings and the id allocator. Install one as the
/// process-wide current() collector to turn tracing on; instrumentation
/// sites pick it up with no plumbing.
class SpanCollector {
 public:
  /// `per_thread_capacity` bounds each thread's ring (spans, not bytes).
  explicit SpanCollector(std::size_t per_thread_capacity = 1u << 16);
  ~SpanCollector();
  SpanCollector(const SpanCollector&) = delete;
  SpanCollector& operator=(const SpanCollector&) = delete;

  /// The installed collector, or nullptr when tracing is off. One
  /// relaxed atomic load -- cheap enough for per-fault hot paths.
  static SpanCollector* current();
  /// Installs `collector` as current() (nullptr turns tracing off). The
  /// destructor uninstalls itself automatically if still current.
  static void install(SpanCollector* collector);

  std::uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  /// Nanoseconds since this collector's epoch.
  std::uint64_t now_ns() const;
  double elapsed_seconds() const;

  /// Appends one finished span to the calling thread's ring (assigning
  /// rec.tid). Thread-safe; uncontended except against snapshot().
  void record(SpanRecord&& rec);

  struct Snapshot {
    std::vector<SpanRecord> spans;  ///< merged, start_ns ascending
    std::uint64_t recorded = 0;     ///< spans ever recorded (incl. dropped)
    std::uint64_t dropped = 0;      ///< lost to ring wrap, summed over rings
    std::size_t threads = 0;        ///< rings (== distinct recording threads)
  };
  Snapshot snapshot() const;

  std::size_t per_thread_capacity() const { return capacity_; }
  /// Unique per collector instance; guards thread-local caches against
  /// address reuse after a collector is destroyed.
  std::uint64_t serial() const { return serial_; }

  /// {"capacity":N,"threads":N,"recorded":N,"dropped":N,"events":[
  ///   {"id","parent","tid","name","ts_us","dur_us","args":{...}}...]}
  /// -- events chronological by start time.
  JsonValue to_json() const;

 private:
  friend class ScopedSpan;

  struct Ring {
    std::uint32_t tid = 0;
    mutable std::mutex mutex;
    std::vector<SpanRecord> events;
    std::size_t next = 0;  ///< slot the next span lands in once full
    std::uint64_t total = 0;
  };

  Ring& ring_for_this_thread();

  const std::size_t capacity_;
  const std::uint64_t serial_;
  std::atomic<std::uint64_t> next_id_{0};
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex rings_mutex_;  ///< guards the ring list, not the rings
  std::vector<std::unique_ptr<Ring>> rings_;
};

/// RAII span: opens on construction, records into the collector when it
/// goes out of scope (or at an explicit stop()). Move-only; a moved-from
/// span is disarmed, and stop() is idempotent -- mirroring ScopedTimer.
/// Built from a null collector it is a no-op with id() == 0.
class ScopedSpan {
 public:
  ScopedSpan() = default;
  /// Parent inferred from this thread's innermost open span.
  ScopedSpan(SpanCollector* collector, std::string_view name);
  /// Explicit parent id, for spans whose logical parent lives on another
  /// thread (a worker span under the main thread's sweep span).
  ScopedSpan(SpanCollector* collector, std::string_view name,
             std::uint64_t parent_id);
  ScopedSpan(ScopedSpan&& other) noexcept;
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan& operator=(ScopedSpan&&) = delete;
  ~ScopedSpan() { stop(); }

  /// True when a collector is attached (attrs will actually be kept).
  bool enabled() const { return collector_ != nullptr; }
  /// 0 when disabled or moved-from.
  std::uint64_t id() const { return rec_.id; }

  ScopedSpan& attr(std::string_view key, double v);
  ScopedSpan& attr(std::string_view key, std::string_view v);
  ScopedSpan& attr(std::string_view key, const char* v) {
    return attr(key, std::string_view(v));
  }
  template <typename T,
            typename = std::enable_if_t<std::is_integral_v<T>>>
  ScopedSpan& attr(std::string_view key, T v) {
    return attr_int(key, static_cast<std::int64_t>(v));
  }

  /// Records now and disarms (no-op when disabled or already stopped).
  void stop();

 private:
  ScopedSpan& attr_int(std::string_view key, std::int64_t v);
  void open(SpanCollector* collector, std::string_view name,
            std::uint64_t parent_id, bool infer_parent);

  SpanCollector* collector_ = nullptr;
  SpanRecord rec_;
};

/// Assembles the dp.trace.v1 document: identity, the merged span section,
/// an optional sampling-profiler section (pass a null JsonValue to omit),
/// and a Chrome trace-event mirror under "traceEvents" -- extra top-level
/// keys are ignored by Perfetto/about:tracing, so one file serves both
/// the dptrace tooling and interactive timeline viewers.
JsonValue make_trace_document(const std::string& id_key, const std::string& id,
                              std::size_t jobs, const SpanCollector& spans,
                              JsonValue profile, double wall_seconds);

}  // namespace dp::obs
