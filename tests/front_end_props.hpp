// Shared malformed-input property suite for the two front ends of Figure 1,
// the mini-C parser and the LARA aspect parser.
//
// Each seed takes one ProgramGen program and one workload aspect (see
// aspect_sources.hpp) and derives kMutantsPerSeed mutants of each with a
// seeded mutator: one to three byte flips, truncations, splices (a slice of
// another input of the same language pasted in) and erasures. Invariant:
//   every mutant either parses -- a mini-C mutant then also goes through
//   cir::check_module -- or throws antarex::Error. Any other exception fails
//   the test; a crash or a hang fails the binary.
//
// The suite is instantiated twice: test_fuzz.cpp pulls a 48-seed range into
// the default tier; test_front_end_long.cpp instantiates a 1k-seed sweep
// behind the `long` ctest label.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "aspect_sources.hpp"
#include "cir/analysis.hpp"
#include "cir/parser.hpp"
#include "dsl/ast.hpp"
#include "program_gen.hpp"
#include "support/rng.hpp"

namespace antarex {

inline constexpr int kMutantsPerSeed = 20;

/// One to three random edits of `src`; `donor` supplies spliced slices.
inline std::string mutate(std::string src, const std::string& donor, Rng& rng) {
  static const std::string kBytes = "{}()[];,'\"%$/*\\\n\t .e0123456789+-=<>!&|_aZ";
  const int edits = static_cast<int>(rng.uniform_int(1, 3));
  for (int e = 0; e < edits; ++e) {
    const std::size_t pos = rng.index(src.size() + 1);
    switch (rng.uniform_int(0, 3)) {
      case 0:  // byte flip: one bit, or a byte the lexers give meaning to
        if (pos < src.size())
          src[pos] = rng.bernoulli(0.5)
                         ? static_cast<char>(src[pos] ^ (1 << rng.index(8)))
                         : kBytes[rng.index(kBytes.size())];
        break;
      case 1:  // truncation
        src.resize(pos);
        break;
      case 2: {  // splice
        const std::size_t from = rng.index(donor.size() + 1);
        const std::size_t len = rng.index(donor.size() - from + 1);
        src.insert(pos, donor, from, len);
        break;
      }
      default:  // erasure
        src.erase(pos, rng.index(src.size() - pos + 1));
        break;
    }
  }
  return src;
}

/// Parses `src` as mini-C and checks it; false when the parser threw.
inline bool mini_c_accepts(const std::string& src) {
  try {
    const auto m = cir::parse_module(src);
    cir::check_module(*m);
    return true;
  } catch (const Error&) {
    return false;
  }
}

/// Parses `src` as a LARA aspect library; false when the parser threw.
inline bool lara_accepts(const std::string& src) {
  try {
    dsl::parse_aspects(src);
    return true;
  } catch (const Error&) {
    return false;
  }
}

class FrontEndProps : public ::testing::TestWithParam<u64> {};

TEST_P(FrontEndProps, MutatedMiniCParsesOrThrowsError) {
  const u64 seed = GetParam();
  const std::string base = ProgramGen(seed).generate();
  const std::string donor = ProgramGen(seed + 7919).generate();
  ASSERT_TRUE(mini_c_accepts(base));
  Rng rng(seed);
  for (int i = 0; i < kMutantsPerSeed; ++i) mini_c_accepts(mutate(base, donor, rng));
}

TEST_P(FrontEndProps, MutatedAspectParsesOrThrowsError) {
  static const std::vector<AspectSource> aspects = workload_aspects();
  ASSERT_FALSE(aspects.empty());
  const u64 seed = GetParam();
  const std::string& base = aspects[seed % aspects.size()].text;
  const std::string& donor = aspects[(seed / aspects.size()) % aspects.size()].text;
  ASSERT_TRUE(lara_accepts(base));
  Rng rng(seed);
  for (int i = 0; i < kMutantsPerSeed; ++i) lara_accepts(mutate(base, donor, rng));
}

}  // namespace antarex
