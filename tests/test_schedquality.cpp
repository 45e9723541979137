/**
 * @file
 * Schedule-quality optimizer tests (SchedOptions::sched_iters,
 * CompilerOptions::pgo):
 *
 *  - best-of-N rescheduling never produces a longer block schedule
 *    than the single greedy pass, on randomized task graphs over
 *    2/4/16-tile meshes;
 *  - optimized schedules stay structurally valid (slot exclusivity,
 *    end-to-end contiguous paths along the XY route tree);
 *  - the scheduler's estimated block length tracks the simulator's
 *    achieved fault-free length on straight-line programs;
 *  - fifo_priority mode orders node and path tasks by one global
 *    ready sequence (imports complete eagerly), pinned by value;
 *  - --pgo (measured best-of portfolio) never loses cycles, never
 *    changes program semantics, and keeps the pinned winner at each
 *    of five benchmark points.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "analysis/liveness.hpp"
#include "analysis/replication.hpp"
#include "analysis/taskgraph.hpp"
#include "frontend/lower.hpp"
#include "frontend/parser.hpp"
#include "harness/harness.hpp"
#include "schedule/event_scheduler.hpp"
#include "sim/profile.hpp"
#include "transform/congruence.hpp"
#include "transform/constfold.hpp"
#include "transform/rename.hpp"

namespace raw {
namespace {

// Same harness as test_schedule.cpp: lower, fold, rename, analyze,
// round-robin homes, build the task graph for one block, partition,
// derive paths, schedule with the given options.
struct Ctx
{
    Function fn;
    std::unique_ptr<ReplicationAnalysis> repl;
    std::unique_ptr<VarLiveness> live;
    HomeMap homes;
    std::unique_ptr<TaskGraph> graph;
    Partition part;
    std::vector<CommPath> paths;
    BlockSchedule sched;
    MachineConfig machine;
};

Ctx
schedule(const std::string &src, int n_tiles, const SchedOptions &so)
{
    Ctx c;
    c.fn = lower_program(parse_program(src));
    constfold_function(c.fn);
    rename_function(c.fn);
    c.repl = std::make_unique<ReplicationAnalysis>(c.fn, 8, 12, true);
    c.live = std::make_unique<VarLiveness>(c.fn);
    c.homes.n_tiles = n_tiles;
    c.homes.var_home.assign(c.fn.values.size(), 0);
    int next = 0;
    for (ValueId v : c.fn.var_ids())
        if (!c.repl->var_replicated(v)) {
            c.homes.var_home[v] = next;
            next = (next + 1) % n_tiles;
        }
    int64_t off = 0;
    for (const ArrayInfo &a : c.fn.arrays) {
        c.homes.array_base.push_back(off);
        off += a.size();
    }
    c.machine = MachineConfig::base(n_tiles);
    CongruenceMap cong(c.fn, 0);
    c.graph = std::make_unique<TaskGraph>(c.fn, 0, c.machine, cong,
                                          *c.repl, *c.live, c.homes);
    c.part = partition_taskgraph(*c.graph, c.machine,
                                 PartitionOptions{});
    c.paths = build_comm_paths(*c.graph, c.part, c.machine, -1, {});
    c.sched =
        schedule_block(*c.graph, c.part, c.machine, c.paths, so);
    return c;
}

const char *kSpread = R"(
float A[8];
float B[8];
A[0] = 1.0; A[1] = 2.0; A[2] = 3.0; A[3] = 4.0;
A[4] = 5.0; A[5] = 6.0; A[6] = 7.0; A[7] = 8.0;
B[0] = A[0] * A[1] + A[2];
B[1] = A[3] * A[4] + A[5];
B[2] = A[6] * A[7] + A[0];
B[3] = A[1] + A[4] + A[7];
)";

/**
 * Deterministic pseudo-random straight-line program: @p k statements
 * mixing wide independent expressions with occasional chains through
 * earlier results, so the task graph has both breadth (many ready
 * tasks competing for slots) and depth (critical paths crossing
 * tiles).  Pure LCG so every run sees the same graphs.
 */
std::string
random_program(uint32_t seed, int k)
{
    uint32_t s = seed * 2654435761u + 1u;
    auto rnd = [&s](int m) {
        s = s * 1664525u + 1013904223u;
        return static_cast<int>((s >> 16) % m);
    };
    std::string src = "float A[16];\nfloat B[32];\n";
    for (int i = 0; i < 16; i++)
        src += "A[" + std::to_string(i) + "] = " +
               std::to_string(i + 1) + ".0;\n";
    for (int i = 0; i < k; i++) {
        std::string lhs = "B[" + std::to_string(i % 32) + "]";
        auto operand = [&]() -> std::string {
            if (i > 0 && rnd(4) == 0) // chain through an earlier B
                return "B[" + std::to_string(rnd(std::min(i, 32))) +
                       "]";
            return "A[" + std::to_string(rnd(16)) + "]";
        };
        const char *op1 = rnd(2) ? " * " : " + ";
        const char *op2 = rnd(2) ? " + " : " - ";
        src += lhs + " = " + operand() + op1 + operand() + op2 +
               operand() + ";\n";
    }
    return src;
}

// ---------------------------------------------------------------
// (a) Best-of-N never longer than the single greedy pass.

TEST(BestOfN, NeverLongerThanSinglePass)
{
    std::vector<std::string> programs = {kSpread};
    for (uint32_t seed : {1u, 2u, 3u, 4u})
        programs.push_back(random_program(seed, 24));
    for (const std::string &src : programs) {
        for (int n : {2, 4, 16}) {
            int64_t base =
                schedule(src, n, SchedOptions{}).sched.makespan;
            SchedOptions iters;
            iters.sched_iters = 3;
            EXPECT_LE(schedule(src, n, iters).sched.makespan, base)
                << "sched_iters regressed, n=" << n;
        }
    }
}

// ---------------------------------------------------------------
// Optimized schedules keep the structural guarantees of the seed
// scheduler: exclusive slots, contiguous end-to-end paths.

TEST(BestOfN, OptimizedScheduleStructurallyValid)
{
    SchedOptions so;
    so.sched_iters = 3;
    for (uint32_t seed : {1u, 2u}) {
        Ctx c = schedule(random_program(seed, 24), 16, so);
        for (int t = 0; t < 16; t++) {
            std::set<int64_t> used;
            for (const TileItem &it : c.sched.tiles[t])
                EXPECT_TRUE(used.insert(it.cycle).second)
                    << "double-booked processor slot, tile " << t;
            std::map<int64_t, uint8_t> in_used, out_used;
            for (const SwitchItem &it : c.sched.switches[t]) {
                uint8_t in_bit = static_cast<uint8_t>(
                    1u << static_cast<int>(it.in));
                EXPECT_EQ(in_used[it.cycle] & in_bit, 0)
                    << "input port reused, tile " << t;
                EXPECT_EQ(out_used[it.cycle] & it.out_mask, 0)
                    << "output port collision, tile " << t;
                in_used[it.cycle] |= in_bit;
                out_used[it.cycle] |= it.out_mask;
            }
        }
        // Each send must be contiguous along its XY route tree.
        auto matches = [&](const TileItem &send,
                           const RouteTree &tree) {
            for (const TreeHop &h : tree.hops) {
                bool found = false;
                for (const SwitchItem &sw : c.sched.switches[h.tile])
                    if (sw.path == send.path &&
                        sw.cycle == send.cycle + 1 + h.depth)
                        found = true;
                if (!found)
                    return false;
            }
            for (auto &[tile, depth] : tree.proc_recvs) {
                bool found = false;
                for (const TileItem &rv : c.sched.tiles[tile])
                    if (rv.kind == TileItem::Kind::kRecv &&
                        rv.path == send.path &&
                        rv.cycle == send.cycle + 2 + depth)
                        found = true;
                if (!found)
                    return false;
            }
            return true;
        };
        for (int t = 0; t < 16; t++)
            for (const TileItem &it : c.sched.tiles[t]) {
                if (it.kind != TileItem::Kind::kSend)
                    continue;
                EXPECT_TRUE(matches(
                    it, build_route_tree(c.machine, c.paths[it.path])))
                    << "path not contiguous along its route tree";
            }
    }
}

// ---------------------------------------------------------------
// (b) Estimated vs achieved block length, fault-free.

TEST(EstVsAchieved, StraightLineBlocksTrackSimulator)
{
    // Calibration (see docs/scheduling.md): on straight-line
    // single-block programs the scheduler's estimate is a near-exact
    // lower bound of the fault-free run — the simulator only adds
    // startup/halt overhead and memory-port serialization the block
    // scheduler does not model, and port folding can shave at most a
    // cycle or two below the estimate.
    std::vector<std::string> programs = {kSpread};
    for (uint32_t seed : {1u, 2u, 3u})
        programs.push_back(random_program(seed, 24));
    for (const std::string &src : programs) {
        for (int n : {2, 4, 16}) {
            CompileOutput out = compile_source(
                src, MachineConfig::base(n), CompilerOptions{});
            ASSERT_EQ(out.stats.block_makespan.size(), 1u)
                << "straight-line program must be a single block";
            Simulator sim(out.program);
            int64_t meas = sim.run().cycles;
            int64_t est = out.stats.estimated_makespan();
            EXPECT_LE(est, meas + 8)
                << "estimate far above achieved length, n=" << n;
            EXPECT_LE(meas, 2 * est + 64)
                << "achieved length far above estimate, n=" << n;
        }
    }
}

// ---------------------------------------------------------------
// fifo_priority global ready sequence.

TEST(FifoPriority, SingleGlobalSequencePin)
{
    // In fifo mode the ready queue is one global sequence: an import
    // completes the moment it is pushed, so its communication paths
    // enter the queue at the import's ready position instead of after
    // a queue round-trip behind every already-ready node.  The exact
    // makespan below pins that ordering for kSpread on 4 tiles;
    // reverting to deferred import completion reorders the FIFO and
    // changes it.
    SchedOptions so;
    so.fifo_priority = true;
    Ctx c = schedule(kSpread, 4, so);
    EXPECT_EQ(c.sched.makespan, 40);
    // Fifo schedules stay structurally exclusive.
    for (int t = 0; t < 4; t++) {
        std::set<int64_t> used;
        for (const TileItem &it : c.sched.tiles[t])
            EXPECT_TRUE(used.insert(it.cycle).second);
    }
}

TEST(FifoPriority, EagerImportsNeverDeadlockRandomGraphs)
{
    SchedOptions so;
    so.fifo_priority = true;
    for (uint32_t seed : {1u, 2u, 3u, 4u})
        for (int n : {2, 4, 16}) {
            Ctx c = schedule(random_program(seed, 24), n, so);
            EXPECT_GT(c.sched.makespan, 0);
            int computes = 0;
            for (int t = 0; t < n; t++)
                for (const TileItem &it : c.sched.tiles[t])
                    if (it.kind == TileItem::Kind::kCompute)
                        computes++;
            int instr_nodes = 0;
            for (const TGNode &nd : c.graph->nodes())
                if (nd.kind == TGKind::kInstr)
                    instr_nodes++;
            EXPECT_EQ(computes, instr_nodes);
        }
}

// ---------------------------------------------------------------
// --pgo measured portfolio: never worse, semantics preserved.

// Each point pins the race's exact cycles and the pgo_candidates()
// index it kept (0 plain, 1 crit 8, 2 priority (16,0), 3 (2,1),
// 4 voted homes, 5 peel x4), so a portfolio change that moves a
// winner shows here.  The PGO points of BENCH_schedquality.json
// cover the rest, including crit 8's only win (cholesky, 32 tiles).
TEST(Pgo, NeverWorseAndSemanticsPreserved)
{
    struct Point
    {
        const char *bench;
        int tiles;
        int64_t cycles;
        int winner;
    };
    const Point points[] = {
        {"fpppp-kernel", 4, 1896, 5},
        {"fpppp-kernel", 16, 523, 5},
        {"jacobi", 32, 21172, 3},
        {"tomcatv", 32, 56822, 2},
        {"life", 32, 227278, 4},
    };
    for (const Point &pt : points) {
        SCOPED_TRACE(testing::Message() << pt.bench << " " << pt.tiles);
        const BenchmarkProgram &prog = benchmark(pt.bench);
        MachineConfig m = MachineConfig::base(pt.tiles);
        RunResult plain = run_rawcc(prog.source, m, prog.check_array);
        CompilerOptions opts;
        opts.pgo = true;
        RunResult tuned =
            run_rawcc(prog.source, m, prog.check_array, opts);
        EXPECT_LE(tuned.cycles, plain.cycles)
            << "pgo portfolio must keep the plain compile as candidate 0";
        EXPECT_EQ(tuned.cycles, pt.cycles);
        EXPECT_EQ(tuned.stats.pgo_winner, pt.winner);
        EXPECT_EQ(plain.stats.pgo_winner, 0);
        EXPECT_EQ(tuned.check_words, plain.check_words);
        EXPECT_EQ(tuned.prints, plain.prints);
    }
}

} // namespace
} // namespace raw
