#include "support/json.hpp"

#include <cctype>
#include <cstdlib>

#include "support/strings.hpp"

namespace antarex {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20)
          out += format("\\u%04x", static_cast<unsigned>(c));
        else
          out += c;
    }
  }
  return out;
}

std::string json_quote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  out += json_escape(s);
  out += '"';
  return out;
}

// --- JsonValue accessors ----------------------------------------------------

bool JsonValue::as_bool() const {
  ANTAREX_REQUIRE(kind_ == Kind::Bool, "json: value is not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  ANTAREX_REQUIRE(kind_ == Kind::Number, "json: value is not a number");
  return num_;
}

const std::string& JsonValue::as_string() const {
  ANTAREX_REQUIRE(kind_ == Kind::String, "json: value is not a string");
  return str_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  ANTAREX_REQUIRE(kind_ == Kind::Array, "json: value is not an array");
  return items_;
}

const JsonValue* JsonValue::get(const std::string& key) const {
  ANTAREX_REQUIRE(kind_ == Kind::Object, "json: value is not an object");
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members() const {
  ANTAREX_REQUIRE(kind_ == Kind::Object, "json: value is not an object");
  return members_;
}

double JsonValue::number_or(const std::string& key, double fallback) const {
  if (kind_ != Kind::Object) return fallback;
  const JsonValue* v = get(key);
  return (v && v->is_number()) ? v->as_number() : fallback;
}

JsonValue JsonValue::null() { return JsonValue(); }

JsonValue JsonValue::boolean(bool b) {
  JsonValue v;
  v.kind_ = Kind::Bool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::number(double n) {
  JsonValue v;
  v.kind_ = Kind::Number;
  v.num_ = n;
  return v;
}

JsonValue JsonValue::string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::String;
  v.str_ = std::move(s);
  return v;
}

JsonValue JsonValue::array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::Array;
  v.items_ = std::move(items);
  return v;
}

JsonValue JsonValue::object(
    std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue v;
  v.kind_ = Kind::Object;
  v.members_ = std::move(members);
  return v;
}

// --- Parser -----------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    skip_ws();
    JsonValue v = value();
    skip_ws();
    ANTAREX_REQUIRE(pos_ == s_.size(), err("trailing characters"));
    return v;
  }

 private:
  std::string err(const std::string& what) const {
    return format("json: %s at offset %zu", what.c_str(), pos_);
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  void expect(char c) {
    ANTAREX_REQUIRE(peek() == c, err(format("expected '%c'", c)));
    ++pos_;
  }

  bool consume_word(const char* word) {
    std::size_t i = 0;
    while (word[i]) {
      if (pos_ + i >= s_.size() || s_[pos_ + i] != word[i]) return false;
      ++i;
    }
    pos_ += i;
    return true;
  }

  JsonValue value() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return JsonValue::string(string_body());
      case 't':
        ANTAREX_REQUIRE(consume_word("true"), err("bad literal"));
        return JsonValue::boolean(true);
      case 'f':
        ANTAREX_REQUIRE(consume_word("false"), err("bad literal"));
        return JsonValue::boolean(false);
      case 'n':
        ANTAREX_REQUIRE(consume_word("null"), err("bad literal"));
        return JsonValue::null();
      default: return number();
    }
  }

  JsonValue object() {
    expect('{');
    std::vector<std::pair<std::string, JsonValue>> members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue::object(std::move(members));
    }
    while (true) {
      skip_ws();
      std::string key = string_body();
      skip_ws();
      expect(':');
      skip_ws();
      members.emplace_back(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue::object(std::move(members));
    }
  }

  JsonValue array() {
    expect('[');
    std::vector<JsonValue> items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue::array(std::move(items));
    }
    while (true) {
      skip_ws();
      items.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue::array(std::move(items));
    }
  }

  std::string string_body() {
    expect('"');
    std::string out;
    while (true) {
      ANTAREX_REQUIRE(pos_ < s_.size(), err("unterminated string"));
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      ANTAREX_REQUIRE(pos_ < s_.size(), err("unterminated escape"));
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          ANTAREX_REQUIRE(pos_ + 4 <= s_.size(), err("short \\u escape"));
          const std::string hex = s_.substr(pos_, 4);
          pos_ += 4;
          char* end = nullptr;
          const long cp = std::strtol(hex.c_str(), &end, 16);
          ANTAREX_REQUIRE(end && *end == '\0', err("bad \\u escape"));
          // ASCII decodes exactly; anything wider is out of scope here.
          out += (cp >= 0 && cp < 0x80) ? static_cast<char>(cp) : '?';
          break;
        }
        default: throw Error(err("unknown escape"));
      }
    }
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    ANTAREX_REQUIRE(pos_ > start, err("expected a value"));
    char* end = nullptr;
    const std::string text = s_.substr(start, pos_ - start);
    const double v = std::strtod(text.c_str(), &end);
    ANTAREX_REQUIRE(end && *end == '\0', err("malformed number"));
    return JsonValue::number(v);
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(const std::string& text) { return Parser(text).parse(); }

}  // namespace antarex
