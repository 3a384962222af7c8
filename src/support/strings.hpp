// Small string helpers shared by the DSL/C frontends and report printers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace antarex {

/// Split on a single-character delimiter; keeps empty fields.
std::vector<std::string> split(std::string_view s, char delim);

/// Strip ASCII whitespace from both ends.
std::string trim(std::string_view s);

/// Join with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Replace every occurrence of `from` (non-empty) with `to`.
std::string replace_all(std::string s, std::string_view from, std::string_view to);

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Human-readable double with fixed decimals (benches/report tables).
std::string fmt_double(double v, int decimals = 2);

}  // namespace antarex
