/**
 * @file
 * Large-mesh exactness pin for the instruction partitioner: life at
 * 128 tiles and cholesky at 64, compiled serially and with four
 * workers, must evaluate exactly the recorded number of placement
 * swaps and simulate to exactly the recorded cycle counts.  Any
 * change to a clustering or placement decision moves at least one of
 * them, so a partitioner speedup that claims identical output is held
 * to it here.
 */

#include <gtest/gtest.h>

#include "harness/harness.hpp"

namespace raw {
namespace {

struct Pin
{
    const char *bench;
    int tiles;
    int64_t placement_swaps;
    int64_t cycles;
};

void
expect_pinned(const Pin &pin)
{
    for (int jobs : {1, 4}) {
        SCOPED_TRACE(testing::Message()
                     << pin.bench << " n=" << pin.tiles
                     << " jobs=" << jobs);
        CompilerOptions opts;
        opts.orch.jobs = jobs;
        CompileOutput out =
            compile_source(benchmark(pin.bench).source,
                           MachineConfig::base(pin.tiles), opts);
        EXPECT_EQ(out.stats.placement_swaps, pin.placement_swaps);
        Simulator sim(out.program, {}, {}, SimBackend::kThreaded);
        EXPECT_EQ(sim.run().cycles, pin.cycles);
    }
}

TEST(PartitionScale, Life128TilesExact)
{
    expect_pinned({"life", 128, 12777627, 251437});
}

TEST(PartitionScale, Cholesky64TilesExact)
{
    expect_pinned({"cholesky", 64, 2888807, 225199});
}

} // namespace
} // namespace raw
