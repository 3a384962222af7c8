// Minimal JSON support shared by the telemetry exporters, the bench report
// writer, and the antarex-report tool.
//
// Two halves:
//  - writing: json_escape()/json_quote() are the one escaping implementation
//    every hand-rolled JSON emitter in the tree must go through, so a metric
//    name or bench label containing quotes, backslashes, or control bytes can
//    never produce an invalid document;
//  - reading: a small recursive-descent parser for the documents this repo
//    itself produces (Chrome traces, metrics dumps, BENCH_*.json). It accepts
//    standard JSON, keeps object keys in insertion order, and throws
//    antarex::Error with an offset on malformed input. Not a general-purpose
//    library: no streaming, no \u surrogate pairs (escapes decode to '?'),
//    numbers as double.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "support/common.hpp"

namespace antarex {

/// Escape a string for inclusion inside JSON double quotes.
std::string json_escape(const std::string& s);

/// The escaped string wrapped in double quotes.
std::string json_quote(const std::string& s);

/// A parsed JSON document node.
class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }
  bool is_object() const { return kind_ == Kind::Object; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_number() const { return kind_ == Kind::Number; }
  bool is_string() const { return kind_ == Kind::String; }
  bool is_bool() const { return kind_ == Kind::Bool; }

  /// Typed accessors; throw antarex::Error on kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;

  /// Object lookup: nullptr when absent.
  const JsonValue* get(const std::string& key) const;
  /// Object members in document order.
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Convenience: number at `key`, or `fallback` when absent/not a number.
  double number_or(const std::string& key, double fallback) const;

  // Construction (used by the parser; handy for tests).
  static JsonValue null();
  static JsonValue boolean(bool b);
  static JsonValue number(double v);
  static JsonValue string(std::string s);
  static JsonValue array(std::vector<JsonValue> items);
  static JsonValue object(std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parse a complete JSON document; throws antarex::Error on syntax errors or
/// trailing garbage.
JsonValue parse_json(const std::string& text);

}  // namespace antarex
