/**
 * @file
 * Large-mesh exactness pin for the instruction partitioner and the
 * event scheduler: life at 128 tiles, cholesky at 64 and mxm at 64
 * (the schedule-bound point), compiled serially and with four
 * workers, must evaluate exactly the recorded number of placement
 * swaps, emit exactly the recorded number of static machine
 * instructions and simulate to exactly the recorded cycle counts.
 * Any change to a clustering, placement or scheduling decision moves
 * at least one of them, so a compile-time speedup that claims
 * identical output is held to it here.
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
    int64_t static_instrs;
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
        EXPECT_EQ(out.stats.static_instrs, pin.static_instrs);
        Simulator sim(out.program, {}, {}, SimBackend::kThreaded);
        EXPECT_EQ(sim.run().cycles, pin.cycles);
    }
}

TEST(PartitionScale, Life128TilesExact)
{
    expect_pinned({"life", 128, 12777627, 517339, 251437});
}

TEST(PartitionScale, Cholesky64TilesExact)
{
    expect_pinned({"cholesky", 64, 2888807, 464890, 225199});
}

TEST(PartitionScale, Mxm64TilesExact)
{
    expect_pinned({"mxm", 64, 15402, 224355, 108827});
}

} // namespace
} // namespace raw
