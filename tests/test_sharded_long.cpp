// The nightly-tier sharded-equivalence sweep: 1000 randomized heterogeneous
// scenarios through the shared property suite (tests/sharded_props.hpp) —
// energy conservation, no lost jobs, monotone virtual time, and byte-exact
// shard-merge determinism across shard/worker counts. Registered with the
// `long` ctest label — the default tier runs `ctest -LE long`, CI's nightly
// job runs `ctest -L long`. The same tier runs the power cache's exactness
// property (tests/power_cache_props.hpp) over 1000 seeds.
#include "power_cache_props.hpp"
#include "sharded_props.hpp"

namespace antarex::rtrm {

INSTANTIATE_TEST_SUITE_P(ThousandSeeds, ShardedClusterProps,
                         ::testing::Range<u64>(1000, 2000));

INSTANTIATE_TEST_SUITE_P(ThousandSeeds, PowerCacheProps,
                         ::testing::Range<u64>(1000, 2000));

}  // namespace antarex::rtrm
