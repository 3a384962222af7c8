// Runtime values for the split-compilation VM.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "support/common.hpp"

namespace antarex::vm {

/// Dynamically typed runtime value. Arrays are shared buffers so that host
/// code and mini-C code can exchange data without copies (the VM plays the
/// role of the "OpenCL host runtime" box in the paper's Figure 1: kernels get
/// handed buffers).
///
/// Layout: a one-byte kind, one word holding the int or the double, and one
/// shared pointer to the string or array payload. Numbers leave the pointer
/// null, so copying them never touches a reference count.
class Value {
 public:
  enum class Kind : u8 { Int, Float, Str, IntArr, FloatArr };

  Value() : kind_(Kind::Int), i_(0) {}
  static Value from_int(i64 v) {
    Value out;
    out.i_ = v;
    return out;
  }
  static Value from_float(double v) {
    Value out;
    out.kind_ = Kind::Float;
    out.f_ = v;
    return out;
  }
  static Value from_str(std::string v);
  static Value from_int_array(std::shared_ptr<std::vector<i64>> v);
  static Value from_float_array(std::shared_ptr<std::vector<double>> v);

  Kind kind() const { return kind_; }
  bool is_int() const { return kind_ == Kind::Int; }
  bool is_float() const { return kind_ == Kind::Float; }
  bool is_numeric() const { return is_int() || is_float(); }
  bool is_str() const { return kind_ == Kind::Str; }
  bool is_array() const { return kind_ == Kind::IntArr || kind_ == Kind::FloatArr; }

  i64 as_int() const {
    if (kind_ == Kind::Int) return i_;
    if (kind_ == Kind::Float) return static_cast<i64>(f_);
    not_convertible("int");
  }
  /// Numeric coercion: int -> double.
  double as_float() const {
    if (kind_ == Kind::Float) return f_;
    if (kind_ == Kind::Int) return static_cast<double>(i_);
    not_convertible("float");
  }
  const std::string& as_str() const {
    if (kind_ != Kind::Str) wrong_kind("a string");
    return *static_cast<const std::string*>(payload_.get());
  }
  std::vector<i64>& int_array() const {
    if (kind_ != Kind::IntArr) wrong_kind("an int array");
    return *static_cast<std::vector<i64>*>(payload_.get());
  }
  std::vector<double>& float_array() const {
    if (kind_ != Kind::FloatArr) wrong_kind("a float array");
    return *static_cast<std::vector<double>*>(payload_.get());
  }

  /// Truthiness: nonzero numeric; arrays/strings are always true.
  bool truthy() const {
    switch (kind_) {
      case Kind::Int: return i_ != 0;
      case Kind::Float: return f_ != 0.0;
      default: return true;
    }
  }

  std::string to_string() const;

 private:
  friend class Engine;  // the interpreter updates int operands in place

  [[noreturn]] void not_convertible(const char* to) const;
  [[noreturn]] static void wrong_kind(const char* expected);

  Kind kind_;
  union {
    i64 i_;
    double f_;
  };
  std::shared_ptr<void> payload_;  ///< std::string, or the shared array
};

static_assert(sizeof(Value) <= 32, "vm::Value must stay a compact 32-byte cell");

}  // namespace antarex::vm
