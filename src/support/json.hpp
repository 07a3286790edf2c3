// The one JSON codec of the repo. Reading: a minimal value model and
// recursive-descent parser for every JSON line the program takes in (the
// serve NDJSON wire, the WAL and its snapshots, the sweep journal). Scope
// is deliberately small — objects, arrays, strings, doubles, bools, null —
// but the grammar it accepts is real JSON: strict escapes (including
// \uXXXX surrogate pairs), full-token numbers via from_chars, no trailing
// garbage, and nesting bounded at 64 levels so a hostile line cannot
// overflow the stack. Malformed input throws ParseError with
// source/line/column, matching the rest of the repo's line-oriented
// readers.
//
// Writing stays string-based: json_escape/json_quote for strings and
// json_exact_number for numbers that must re-read to the identical double.
// Telemetry writes its numbers with obs::json_number (%.10g, null for
// non-finite values) instead.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace tvnep {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const std::vector<JsonValue>& as_array() const { return array_; }
  const std::map<std::string, JsonValue>& as_object() const { return object_; }

  /// Object member lookup; nullptr when absent (or not an object).
  const JsonValue* find(const std::string& key) const;

  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double x);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(std::map<std::string, JsonValue> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Parses exactly one JSON value from `text` (the whole string must be
/// consumed apart from surrounding whitespace). `source` and `line` seed
/// the ParseError location; columns are 1-based offsets into `text`.
JsonValue parse_json(const std::string& text, const std::string& source,
                     long line = 1);

/// Escapes a string for embedding between JSON quotes.
std::string json_escape(const std::string& value);

/// An integral number within int's range, else nullopt: readers meet
/// untrusted bytes, and a cast from outside that range is undefined.
std::optional<int> json_int(const JsonValue& value);

/// `value` escaped and wrapped in quotes.
std::string json_quote(const std::string& value);

/// %.17g: re-reads to the identical double, so journaled and wired values
/// survive a write/parse round trip bit for bit. Non-finite values render
/// as inf/nan, which is not JSON; callers that can meet them map them
/// first.
std::string json_exact_number(double value);

}  // namespace tvnep
