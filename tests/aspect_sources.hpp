// The LARA aspects that the benches, the examples and the CLI samples weave,
// read from their source files: every raw string literal R"(...)" in
// bench/, bench/perf/ and examples/ that holds an `aspectdef`, and every
// tools/samples/*.lara file. Shared by the DSL token-stream pin (test_dsl)
// and the front-end mutation properties (front_end_props.hpp).
#pragma once

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

namespace antarex {

struct AspectSource {
  std::string origin;  ///< "<relative path>#<literal index>"
  std::string text;
};

/// Needs ANTAREX_SOURCE_DIR (the repository root) as a compile definition.
inline std::vector<AspectSource> workload_aspects() {
  namespace fs = std::filesystem;
  const fs::path root = ANTAREX_SOURCE_DIR;
  std::vector<fs::path> files;
  const std::pair<const char*, const char*> dirs[] = {
      {"bench", ".cpp"}, {"bench/perf", ".cpp"}, {"examples", ".cpp"},
      {"tools/samples", ".lara"}};
  for (const auto& [dir, ext] : dirs)
    for (const auto& entry : fs::directory_iterator(root / dir))
      if (entry.is_regular_file() && entry.path().extension() == ext)
        files.push_back(entry.path());
  std::sort(files.begin(), files.end());

  std::vector<AspectSource> out;
  for (const auto& path : files) {
    std::ifstream in(path, std::ios::binary);
    const std::string text{std::istreambuf_iterator<char>(in), {}};
    const std::string rel = fs::relative(path, root).generic_string();
    if (path.extension() == ".lara") {
      out.push_back({rel, text});
      continue;
    }
    int index = 0;
    for (std::size_t open = text.find("R\"("); open != std::string::npos;
         open = text.find("R\"(", open)) {
      const std::size_t body = open + 3;
      const std::size_t close = text.find(")\"", body);
      if (close == std::string::npos) break;
      std::string literal = text.substr(body, close - body);
      if (literal.find("aspectdef") != std::string::npos)
        out.push_back({rel + "#" + std::to_string(index), std::move(literal)});
      ++index;
      open = close + 2;
    }
  }
  return out;
}

}  // namespace antarex
