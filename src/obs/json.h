#ifndef LAMP_OBS_JSON_H_
#define LAMP_OBS_JSON_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/// \file
/// A minimal, dependency-free JSON document model: an ordered value tree
/// with a writer (deterministic key order — whatever order keys were set
/// in) and a strict recursive-descent parser. This is the wire format of
/// the observability layer: bench records (obs/bench_report.h), metric
/// snapshots (obs/metrics.h) and trace dumps (obs/trace.h) all serialise
/// through JsonValue, and tools/lamp_obs reads them back.
///
/// Numbers are stored as double plus an exact-int64 side channel so that
/// counters (tuple counts, loads) round-trip without losing precision.

namespace lamp::obs {

/// Deepest array/object nesting JsonValue::Parse accepts. The documents
/// the repo writes nest fewer than ten levels; the bound only stops
/// hostile input from recursing the parser off the stack.
inline constexpr std::size_t kMaxJsonDepth = 256;

/// One JSON value: null, bool, number, string, array, or object.
/// Objects preserve insertion order (diff-friendly output).
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : type_(Type::kNull) {}
  JsonValue(bool b) : type_(Type::kBool), bool_(b) {}  // NOLINT(runtime/explicit)
  JsonValue(double d) : type_(Type::kNumber), num_(d) {}
  JsonValue(std::int64_t i)
      : type_(Type::kNumber), num_(static_cast<double>(i)), int_(i) {}
  JsonValue(int i) : JsonValue(static_cast<std::int64_t>(i)) {}
  JsonValue(std::size_t u) : JsonValue(static_cast<std::int64_t>(u)) {}
  JsonValue(std::string s) : type_(Type::kString), str_(std::move(s)) {}
  JsonValue(std::string_view s) : type_(Type::kString), str_(s) {}
  JsonValue(const char* s) : type_(Type::kString), str_(s) {}

  static JsonValue Array() {
    JsonValue v;
    v.type_ = Type::kArray;
    return v;
  }
  static JsonValue Object() {
    JsonValue v;
    v.type_ = Type::kObject;
    return v;
  }

  Type type() const { return type_; }
  bool IsNull() const { return type_ == Type::kNull; }
  bool IsBool() const { return type_ == Type::kBool; }
  bool IsNumber() const { return type_ == Type::kNumber; }
  bool IsString() const { return type_ == Type::kString; }
  bool IsArray() const { return type_ == Type::kArray; }
  bool IsObject() const { return type_ == Type::kObject; }

  bool AsBool() const { return bool_; }
  double AsDouble() const { return num_; }
  /// Exact integer when the value was produced from one; otherwise the
  /// truncated double, saturated to the int64 range (NaN reads as 0).
  /// Outside documents may hold any number, and casting an out-of-range
  /// double is undefined behaviour.
  std::int64_t AsInt() const {
    if (int_.has_value()) return *int_;
    constexpr double kTwo63 = 9223372036854775808.0;
    if (std::isnan(num_)) return 0;
    if (num_ >= kTwo63) return std::numeric_limits<std::int64_t>::max();
    if (num_ < -kTwo63) return std::numeric_limits<std::int64_t>::min();
    return static_cast<std::int64_t>(num_);
  }
  const std::string& AsString() const { return str_; }

  // --- Array operations -------------------------------------------------
  void PushBack(JsonValue v) { items_.push_back(std::move(v)); }
  std::size_t size() const {
    return IsObject() ? members_.size() : items_.size();
  }
  const JsonValue& at(std::size_t i) const { return items_[i]; }

  // --- Object operations ------------------------------------------------
  /// Sets (or replaces) a member, preserving first-insertion order.
  void Set(std::string_view key, JsonValue v);
  /// Member lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  /// Serialises. \p indent < 0 means compact one-line output; >= 0 is the
  /// number of spaces per nesting level.
  std::string Dump(int indent = -1) const;

  /// Strict parser (no comments, no trailing commas). Returns nullopt on
  /// any syntax error, trailing garbage, or nesting deeper than
  /// kMaxJsonDepth.
  static std::optional<JsonValue> Parse(std::string_view text);

 private:
  void DumpTo(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double num_ = 0.0;
  std::optional<std::int64_t> int_;
  std::string str_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Reads the whole file at \p path (a JSON document or JSON lines);
/// nullopt when it cannot be opened.
std::optional<std::string> ReadTextFile(const std::string& path);

/// Escapes \p s for inclusion inside a JSON string literal (no quotes
/// added). Control characters become \uXXXX; UTF-8 bytes pass through.
std::string EscapeJson(std::string_view s);

}  // namespace lamp::obs

#endif  // LAMP_OBS_JSON_H_
