#include "obs/json.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>

namespace dp::obs {

JsonValue::JsonValue(unsigned long long v) : kind_(Kind::Int) {
  if (v > static_cast<unsigned long long>(
              std::numeric_limits<long long>::max())) {
    kind_ = Kind::Double;
    double_ = static_cast<double>(v);
  } else {
    int_ = static_cast<long long>(v);
  }
}

bool JsonValue::as_bool() const {
  if (kind_ != Kind::Bool) throw JsonError("not a bool");
  return bool_;
}

long long JsonValue::as_int() const {
  if (kind_ == Kind::Int) return int_;
  if (kind_ == Kind::Double) return static_cast<long long>(double_);
  throw JsonError("not a number");
}

double JsonValue::as_double() const {
  if (kind_ == Kind::Int) return static_cast<double>(int_);
  if (kind_ == Kind::Double) return double_;
  throw JsonError("not a number");
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::String) throw JsonError("not a string");
  return string_;
}

void JsonValue::push_back(JsonValue v) {
  if (kind_ == Kind::Null) kind_ = Kind::Array;
  if (kind_ != Kind::Array) throw JsonError("push_back on non-array");
  array_.push_back(std::move(v));
}

std::size_t JsonValue::size() const {
  if (kind_ == Kind::Array) return array_.size();
  if (kind_ == Kind::Object) return object_.size();
  throw JsonError("size() on non-container");
}

const JsonValue& JsonValue::at(std::size_t i) const {
  if (kind_ != Kind::Array) throw JsonError("at(index) on non-array");
  if (i >= array_.size()) throw JsonError("array index out of range");
  return array_[i];
}

JsonValue& JsonValue::operator[](std::string_view key) {
  if (kind_ == Kind::Null) kind_ = Kind::Object;
  if (kind_ != Kind::Object) throw JsonError("operator[] on non-object");
  for (auto& [k, v] : object_) {
    if (k == key) return v;
  }
  object_.emplace_back(std::string(key), JsonValue());
  return object_.back().second;
}

bool JsonValue::contains(std::string_view key) const {
  return find(key) != nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  if (const JsonValue* v = find(key)) return *v;
  throw JsonError("missing key '" + std::string(key) + "'");
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  if (kind_ != Kind::Object) throw JsonError("members() on non-object");
  return object_;
}

namespace {

/// Appends `s` quoted and escaped; each escape-free run goes in with one
/// append.
void append_quoted(std::string& out, std::string_view s) {
  out += '"';
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char u[6] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 15]};
        out.append(u, sizeof u);
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
  out += '"';
}

/// Integers in decimal; doubles in their shortest round-trip form.
template <typename Number>
void append_number(std::string& out, Number v) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, end);
}

void append_newline_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

}  // namespace

void JsonValue::write_rec(std::string& out, int indent, int depth) const {
  switch (kind_) {
    case Kind::Null: out += "null"; break;
    case Kind::Bool: out += bool_ ? "true" : "false"; break;
    case Kind::Int: append_number(out, int_); break;
    case Kind::Double:
      // JSON has no inf/nan literals; null is the conventional stand-in.
      if (std::isfinite(double_)) {
        append_number(out, double_);
      } else {
        out += "null";
      }
      break;
    case Kind::String: append_quoted(out, string_); break;
    case Kind::Array: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i) out += ',';
        append_newline_indent(out, indent, depth + 1);
        array_[i].write_rec(out, indent, depth + 1);
      }
      append_newline_indent(out, indent, depth);
      out += ']';
      break;
    }
    case Kind::Object: {
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i) out += ',';
        append_newline_indent(out, indent, depth + 1);
        append_quoted(out, object_[i].first);
        out += indent > 0 ? ": " : ":";
        object_[i].second.write_rec(out, indent, depth + 1);
      }
      append_newline_indent(out, indent, depth);
      out += '}';
      break;
    }
  }
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  write_rec(out, indent, 0);
  return out;
}

// ---- parser ------------------------------------------------------------

/// A friend of JsonValue: parsed containers are filled in place.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  /// Containers may nest at most this deep. The parser recurses once per
  /// level, so without a bound a hostile document ("[[[[..." from a
  /// network peer -- the serve protocol feeds frames straight in here)
  /// turns into stack exhaustion instead of a clean JsonError.
  static constexpr int kMaxDepth = 192;

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError("JSON parse error at offset " + std::to_string(pos_) +
                    ": " + what);
  }

  void skip_ws() {
    pos_ = std::min(text_.find_first_not_of(" \t\n\r", pos_), text_.size());
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case 'N':
      case 'I':
      case 'i':
        // "NaN" / "Infinity" / "inf": some printf-style writers emit
        // these, but they are not JSON; name them in the error instead of
        // the generic bad-number path ("-Infinity" still lands there).
        fail("NaN/Infinity literals are not valid JSON");
      case '-':
        if (pos_ + 1 < text_.size() &&
            (text_[pos_ + 1] == 'I' || text_[pos_ + 1] == 'i')) {
          fail("NaN/Infinity literals are not valid JSON");
        }
        return parse_number();
      case '"': return JsonValue(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return JsonValue(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return JsonValue(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue();
      default: return parse_number();
    }
  }

  /// RAII depth tick for the two recursive productions.
  struct DepthGuard {
    explicit DepthGuard(JsonParser& p) : p_(p) {
      if (++p_.depth_ > kMaxDepth) p_.fail("containers nested too deeply");
    }
    ~DepthGuard() { --p_.depth_; }
    JsonParser& p_;
  };

  // Members and elements gather on the parser's stacks, then move into
  // their container once, at its final size.
  JsonValue parse_object() {
    const DepthGuard guard(*this);
    expect('{');
    JsonValue obj = JsonValue::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    const std::size_t base = members_.size();
    for (char c = ','; c != '}'; ++pos_) {
      if (c != ',') fail("expected ',' or '}' in object");
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      JsonValue value = parse_value();
      // A repeated key keeps its first position and takes the last value.
      const auto dup = std::find_if(
          members_.begin() + static_cast<std::ptrdiff_t>(base), members_.end(),
          [&](const auto& member) { return member.first == key; });
      if (dup != members_.end()) {
        dup->second = std::move(value);
      } else {
        members_.emplace_back(std::move(key), std::move(value));
      }
      skip_ws();
      c = peek();
    }
    move_top(members_, base, obj.object_);
    return obj;
  }

  JsonValue parse_array() {
    const DepthGuard guard(*this);
    expect('[');
    JsonValue arr = JsonValue::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    const std::size_t base = elements_.size();
    for (char c = ','; c != ']'; ++pos_) {
      if (c != ',') fail("expected ',' or ']' in array");
      elements_.push_back(parse_value());
      skip_ws();
      c = peek();
    }
    move_top(elements_, base, arr.array_);
    return arr;
  }

  /// Moves `stack`'s entries from `base` up into `out` and pops them.
  template <typename T>
  static void move_top(std::vector<T>& stack, std::size_t base,
                       std::vector<T>& out) {
    const auto first = stack.begin() + static_cast<std::ptrdiff_t>(base);
    out.assign(std::make_move_iterator(first),
               std::make_move_iterator(stack.end()));
    stack.erase(first, stack.end());
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      // Everything up to the next quote or backslash in one append.
      const std::size_t run = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"' &&
             text_[pos_] != '\\') {
        ++pos_;
      }
      out.append(text_.data() + run, pos_ - run);
      if (pos_ >= text_.size()) fail("unterminated string");
      if (text_[pos_++] == '"') return out;
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("short \\u escape");
          unsigned code = 0;
          const char* hex = text_.data() + pos_;
          if (std::from_chars(hex, hex + 4, code, 16).ptr != hex + 4) {
            fail("bad hex digit in \\u escape");
          }
          pos_ += 4;
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // produced by our writer; decode them permissively as-is).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (tok.empty() || tok == "-") fail("bad number");
    const char* tb = tok.data();
    const char* te = tok.data() + tok.size();
    if (integral) {
      long long v = 0;
      const auto [p, ec] = std::from_chars(tb, te, v);
      if (ec == std::errc() && p == te) return JsonValue(v);
      // fall through to double on overflow
    }
    double d = 0.0;
    const auto [p, ec] = std::from_chars(tb, te, d);
    if (ec != std::errc() || p != te) fail("bad number");
    return JsonValue(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::vector<std::pair<std::string, JsonValue>> members_;
  std::vector<JsonValue> elements_;
};

JsonValue JsonValue::parse(std::string_view text) {
  return JsonParser(text).parse_document();
}

bool write_json_file(const std::string& path, const JsonValue& value,
                     std::string* error) {
  std::ofstream os(path);
  if (!os) {
    if (error) *error = "cannot open '" + path + "' for writing";
    return false;
  }
  os << value.dump(2) << '\n';
  os.flush();
  if (!os) {
    if (error) *error = "write to '" + path + "' failed";
    return false;
  }
  return true;
}

bool atomic_write_file(const std::string& path, std::string_view bytes,
                       std::string* error) {
  // Unique per process AND per call, so two concurrent writers of the
  // same destination each stage their own temp file; the final renames
  // race benignly (one complete file wins, never a torn mix).
  static std::atomic<std::uint64_t> serial{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid())) + "." +
      std::to_string(serial.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) {
      if (error) *error = "cannot open '" + tmp + "' for writing";
      return false;
    }
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
    os.flush();
    if (!os) {
      if (error) *error = "write to '" + tmp + "' failed";
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    if (error) *error = "rename '" + tmp + "' -> '" + path + "' failed";
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool write_json_file_atomic(const std::string& path, const JsonValue& value,
                            std::string* error) {
  return atomic_write_file(path, value.dump(2) + '\n', error);
}

JsonValue read_json_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw JsonError("cannot open '" + path + "' for reading");
  return JsonValue::parse(std::string(std::istreambuf_iterator<char>(is), {}));
}

}  // namespace dp::obs
