// Nightly 1000-seed sweep of the front-end malformed-input suite
// (tests/front_end_props.hpp): mutated mini-C programs and LARA aspects
// either parse or throw antarex::Error. Runs behind the `long` ctest label;
// test_fuzz.cpp carries the CI-fast 48-seed slice.
#include "front_end_props.hpp"

namespace antarex {

INSTANTIATE_TEST_SUITE_P(ThousandSeeds, FrontEndProps,
                         ::testing::Range<u64>(1000, 2000));

}  // namespace antarex
