#include "vm/value.hpp"

#include "support/strings.hpp"

namespace antarex::vm {

Value Value::from_str(std::string v) {
  Value out;
  out.kind_ = Kind::Str;
  out.payload_ = std::make_shared<std::string>(std::move(v));
  return out;
}

Value Value::from_int_array(std::shared_ptr<std::vector<i64>> v) {
  ANTAREX_REQUIRE(v != nullptr, "Value: null int array");
  Value out;
  out.kind_ = Kind::IntArr;
  out.payload_ = std::move(v);
  return out;
}

Value Value::from_float_array(std::shared_ptr<std::vector<double>> v) {
  ANTAREX_REQUIRE(v != nullptr, "Value: null float array");
  Value out;
  out.kind_ = Kind::FloatArr;
  out.payload_ = std::move(v);
  return out;
}

void Value::not_convertible(const char* to) const {
  throw Error(std::string("Value: not convertible to ") + to + ": " + to_string());
}

void Value::wrong_kind(const char* expected) {
  throw Error(std::string("Value: not ") + expected);
}

std::string Value::to_string() const {
  switch (kind_) {
    case Kind::Int: return format("%lld", static_cast<long long>(i_));
    case Kind::Float: return format("%g", f_);
    case Kind::Str: return as_str();
    case Kind::IntArr: return format("int[%zu]", int_array().size());
    case Kind::FloatArr: return format("double[%zu]", float_array().size());
  }
  return "?";
}

}  // namespace antarex::vm
