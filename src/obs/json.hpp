// Minimal JSON document model for the observability layer: an ordered
// value tree, a writer with full string escaping, and a strict
// recursive-descent parser. Hand-rolled on purpose -- the repo takes no
// third-party dependencies, and the metrics exporter plus the bench_smoke
// validator need both directions (write and parse) of the same dialect.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dp::obs {

/// Thrown by JsonValue::parse on malformed input (message carries the
/// byte offset) and by the typed accessors on kind mismatches.
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class JsonParser;

/// One JSON value. Objects preserve insertion order so exported metric
/// documents are deterministic and diffable run to run.
class JsonValue {
 public:
  enum class Kind { Null, Bool, Int, Double, String, Array, Object };

  JsonValue() = default;                      // null
  JsonValue(bool b) : kind_(Kind::Bool), bool_(b) {}
  JsonValue(int v) : kind_(Kind::Int), int_(v) {}
  JsonValue(long v) : kind_(Kind::Int), int_(v) {}
  JsonValue(long long v) : kind_(Kind::Int), int_(v) {}
  JsonValue(unsigned v) : kind_(Kind::Int), int_(static_cast<long long>(v)) {}
  JsonValue(unsigned long v) : JsonValue(static_cast<unsigned long long>(v)) {}
  JsonValue(unsigned long long v);  ///< beyond long long: a Double
  JsonValue(double v) : kind_(Kind::Double), double_(v) {}
  JsonValue(const char* s) : kind_(Kind::String), string_(s) {}
  JsonValue(std::string s) : kind_(Kind::String), string_(std::move(s)) {}

  static JsonValue array() { return JsonValue(Kind::Array); }
  static JsonValue object() { return JsonValue(Kind::Object); }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }
  bool is_number() const {
    return kind_ == Kind::Int || kind_ == Kind::Double;
  }
  bool is_object() const { return kind_ == Kind::Object; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_string() const { return kind_ == Kind::String; }

  bool as_bool() const;
  /// Int values convert exactly; Double values truncate.
  long long as_int() const;
  double as_double() const;
  const std::string& as_string() const;

  // ---- array interface -------------------------------------------------
  void push_back(JsonValue v);
  std::size_t size() const;  ///< element count (array) or member count (object)
  const JsonValue& at(std::size_t i) const;

  // ---- object interface ------------------------------------------------
  /// Insert-or-fetch a member; turns a Null value into an Object first.
  JsonValue& operator[](std::string_view key);
  bool contains(std::string_view key) const;
  /// Throws JsonError when the key is absent.
  const JsonValue& at(std::string_view key) const;
  /// nullptr when absent (no throw).
  const JsonValue* find(std::string_view key) const;
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  // ---- serialization ---------------------------------------------------
  /// Pretty-prints with `indent` spaces per level; indent 0 = compact.
  std::string dump(int indent = 2) const;

  /// Strict parser: exactly one JSON value plus trailing whitespace.
  /// Rejects NaN/Infinity literals (not JSON) and containers nested
  /// deeper than 192 levels (the recursion bound that keeps a hostile
  /// "[[[[..." document -- e.g. a malicious serve-protocol frame -- from
  /// exhausting the stack).
  static JsonValue parse(std::string_view text);

 private:
  friend class JsonParser;

  explicit JsonValue(Kind k) : kind_(k) {}
  void write_rec(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::Null;
  bool bool_ = false;
  long long int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Serializes `value` to `path`; returns false (and fills `error`) on I/O
/// failure instead of throwing, so CLI exit paths stay simple.
bool write_json_file(const std::string& path, const JsonValue& value,
                     std::string* error = nullptr);

/// Writes `bytes` to `path` crash-safely: the content goes to a unique
/// temp file in the same directory (so the rename cannot cross
/// filesystems) and is moved into place with one atomic rename. Readers
/// -- and concurrent writers of the same path -- therefore never observe
/// a torn file; the worst outcome of a crash is a leftover *.tmp.* file.
bool atomic_write_file(const std::string& path, std::string_view bytes,
                       std::string* error = nullptr);

/// write_json_file via the atomic temp-file + rename path above. Used by
/// every writer whose output may be read by another process (the bench
/// metrics documents, the artifact store, sweep checkpoints).
bool write_json_file_atomic(const std::string& path, const JsonValue& value,
                            std::string* error = nullptr);

/// Reads and parses `path`; throws JsonError on I/O or parse failure.
JsonValue read_json_file(const std::string& path);

}  // namespace dp::obs
