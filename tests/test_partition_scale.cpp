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
 * identical output is held to it here.  cholesky also stays fully
 * static (no dynamic-network reference) at 64 and 128 tiles.
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
    expect_pinned({"cholesky", 64, 2914722, 425743, 11640});
}

// Most of cholesky's 128 partitions are empty in most blocks, so this
// is where greedy placement skips the most idle pairs.
TEST(PartitionScale, Cholesky128TilesExact)
{
    expect_pinned({"cholesky", 128, 23464862, 1373702, 9018});
}

// Peeling folds cholesky's triangular guards, so its nests fit the
// peel limits and every reference stays static past 32 tiles.
TEST(PartitionScale, CholeskyFullyStaticAt64And128Tiles)
{
    for (int tiles : {64, 128}) {
        CompileOutput out = compile_source(benchmark("cholesky").source,
                                           MachineConfig::base(tiles));
        EXPECT_EQ(out.stats.dynamic_refs, 0) << tiles;
    }
}

TEST(PartitionScale, Mxm64TilesExact)
{
    expect_pinned({"mxm", 64, 15402, 224355, 108827});
}

} // namespace
} // namespace raw
