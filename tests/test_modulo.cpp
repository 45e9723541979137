/**
 * @file
 * Cross-tile modulo scheduling tests (--modulo, schedule/modulo.hpp):
 *
 *  - loop_blocks finds exactly the blocks on CFG cycles;
 *  - a pipelined schedule is only adopted when its modeled
 *    steady-state II strictly beats the greedy schedule's, and the
 *    reported II is certified: every per-tile window, per-switch
 *    window (counting same-cycle hops as separate ROUTE slots) and
 *    wrap constraint holds at that II, and the mod-II projection of
 *    every reservation table stays conflict-free;
 *  - --modulo is semantics-neutral over the whole benchmark suite:
 *    identical prints and check arrays with the runtime checker
 *    (provenance + FIFO bounds) armed;
 *  - pipelined programs are bit-identical across --jobs widths and
 *    both simulator backends.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/liveness.hpp"
#include "analysis/replication.hpp"
#include "analysis/taskgraph.hpp"
#include "frontend/lower.hpp"
#include "frontend/parser.hpp"
#include "frontend/unroll.hpp"
#include "harness/harness.hpp"
#include "rawcc/schedcache.hpp"
#include "schedule/modulo.hpp"
#include "sim/disasm.hpp"
#include "transform/congruence.hpp"
#include "transform/constfold.hpp"
#include "transform/rename.hpp"

namespace raw {
namespace {

// ---------------------------------------------------------------
// Unit harness: lower a loop program, build the task graph of one
// block, partition, derive paths, and schedule it with or without
// modulo scheduling — the same pipeline as test_schedule.cpp plus
// the loop analysis the orchestrater performs for --modulo.

struct LoopCtx
{
    Function fn;
    std::unique_ptr<ReplicationAnalysis> repl;
    std::unique_ptr<VarLiveness> live;
    HomeMap homes;
    MachineConfig machine;
    std::vector<uint8_t> on_cycle;
};

LoopCtx
make_ctx(const std::string &src, int n_tiles)
{
    LoopCtx c;
    Program prog = parse_program(src);
    // Unrolling disabled keeps the loop bodies rolled (small, one
    // iteration each) but still stamps every for statement's
    // loop_id, which lower_for forwards to Block::src_loop.
    UnrollOptions uo;
    uo.n_tiles = n_tiles;
    uo.enable = false;
    unroll_program(prog, uo);
    c.fn = lower_program(prog);
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
    c.on_cycle = loop_blocks(c.fn);
    return c;
}

struct BlockCtx
{
    std::unique_ptr<TaskGraph> graph;
    Partition part;
    std::vector<CommPath> paths;
    LoopPipelineInfo loop;
    BlockSchedule sched;
};

BlockCtx
schedule_one(LoopCtx &c, int b, bool modulo)
{
    BlockCtx bc;
    CongruenceMap cong(c.fn, b);
    bc.graph = std::make_unique<TaskGraph>(
        c.fn, b, c.machine, cong, *c.repl, *c.live, c.homes);
    bc.part =
        partition_taskgraph(*bc.graph, c.machine, PartitionOptions{});
    bc.paths =
        build_comm_paths(*bc.graph, bc.part, c.machine, -1, {});
    bc.loop = analyze_loop_block(c.fn, b, *bc.graph,
                                 c.on_cycle[b] != 0, 1, true);
    SchedOptions so;
    so.modulo = modulo;
    bc.sched = schedule_block_pipelined(*bc.graph, bc.part, c.machine,
                                        bc.paths, so, bc.loop);
    return bc;
}

/** Loop-body blocks (stamped with their source loop by lower_for). */
std::vector<int>
body_blocks(const LoopCtx &c)
{
    std::vector<int> out;
    for (size_t b = 0; b < c.fn.blocks.size(); b++)
        if (c.fn.blocks[b].src_loop >= 0 && c.on_cycle[b])
            out.push_back(static_cast<int>(b));
    return out;
}

// A cheap loop-carried chain (the accumulator) next to deep
// independent per-iteration work: the greedy scheduler sinks the
// accumulator's write-back to the end of the block, serializing
// iterations, which is exactly the shape modulo scheduling recovers.
// Constant indices keep every reference static (this harness runs
// the task graph without the orchestrater's dynamic-ref demotion).
const char *kAccLoop = R"(
float A[8];
float B[8];
int i; float s;
A[0] = 1.0; A[1] = 2.0; A[2] = 3.0; A[3] = 4.0;
A[4] = 5.0; A[5] = 6.0; A[6] = 7.0; A[7] = 8.0;
s = 0.0;
for (i = 0; i < 64; i = i + 1) {
  B[0] = (A[0] * 1.5 + 0.25) * A[1] + A[2];
  B[1] = (A[3] + 0.5) * A[4] - A[5];
  B[2] = A[6] * A[7] + A[0];
  s = s + 1.0;
}
print(s);
)";

// Two carried recurrences of different depths plus parallel work.
const char *kTwoChains = R"(
float A[8];
int i; float p; float q;
A[0] = 0.5; A[1] = 1.5; A[2] = 2.5; A[3] = 3.5;
A[4] = 4.5; A[5] = 5.5; A[6] = 6.5; A[7] = 0.25;
p = 1.0;
q = 0.0;
for (i = 0; i < 32; i = i + 1) {
  p = p * 0.99 + A[0];
  q = q + A[1] * A[2] - 0.001;
}
print(p);
print(q);
)";

// ---------------------------------------------------------------
// loop_blocks: exactly the blocks on CFG cycles.

TEST(Modulo, LoopBlocksFindsCycles)
{
    LoopCtx c = make_ctx(kAccLoop, 4);
    // Both for loops contribute cycle blocks; the straight-line
    // prologue and the body blocks disagree.
    int cyclic = 0;
    for (uint8_t v : c.on_cycle)
        cyclic += v;
    EXPECT_GT(cyclic, 0);
    EXPECT_LT(cyclic, static_cast<int>(c.fn.blocks.size()));
    EXPECT_GE(body_blocks(c).size(), 1u);
    for (int b : body_blocks(c))
        EXPECT_TRUE(c.on_cycle[b]);

    // A straight-line program has no loop blocks at all.
    LoopCtx line = make_ctx("int x; x = 1 + 2; print(x);\n", 4);
    for (uint8_t v : line.on_cycle)
        EXPECT_EQ(v, 0);
}

// ---------------------------------------------------------------
// Modulo never loses in the model, and MII bookkeeping is sound.

TEST(Modulo, NeverWorseThanGreedyModel)
{
    int adopted = 0;
    for (const char *src : {kAccLoop, kTwoChains}) {
        for (int n : {2, 4, 16}) {
            LoopCtx c = make_ctx(src, n);
            for (int b : body_blocks(c)) {
                BlockCtx greedy = schedule_one(c, b, false);
                BlockCtx piped = schedule_one(c, b, true);
                int64_t gii = steady_state_ii(
                    greedy.sched, *greedy.graph, greedy.part,
                    greedy.paths, greedy.loop);
                ASSERT_GE(piped.sched.mii, 1);
                EXPECT_EQ(piped.sched.mii,
                          std::max(std::max(piped.sched.res_mii,
                                            piped.sched.rec_mii),
                                   piped.sched.flat_mii));
                EXPECT_GE(piped.sched.ii, piped.sched.mii)
                    << "achieved II below its own lower bound";
                EXPECT_LE(piped.sched.ii, gii)
                    << "modulo must never lose to greedy, n=" << n;
                if (piped.sched.pipelined) {
                    adopted++;
                    EXPECT_LT(piped.sched.ii, gii)
                        << "adoption requires a strict model win";
                }
            }
        }
    }
    EXPECT_GT(adopted, 0)
        << "corpus must exercise at least one adopted pipeline";
}

// ---------------------------------------------------------------
// Certification: the reported II of an adopted schedule satisfies
// the full steady-state constraint system, re-derived here from the
// raw schedule data (not via the scheduler's own model).

TEST(Modulo, WindowWrapAndFifoInvariantsAtII)
{
    int checked = 0;
    for (const char *src : {kAccLoop, kTwoChains}) {
        for (int n : {2, 4, 16}) {
            LoopCtx c = make_ctx(src, n);
            for (int b : body_blocks(c)) {
                BlockCtx bc = schedule_one(c, b, true);
                const BlockSchedule &s = bc.sched;
                if (!s.pipelined)
                    continue;
                checked++;
                int64_t ii = s.ii;
                // The public model agrees with the reported II.
                EXPECT_EQ(steady_state_ii(s, *bc.graph, bc.part,
                                          bc.paths, bc.loop),
                          ii);
                // Per-tile windows: span + control tail fits in II.
                for (int t = 0; t < n; t++) {
                    const auto &tile = s.tiles[t];
                    if (tile.empty())
                        continue;
                    int64_t span = tile.back().cycle -
                                   tile.front().cycle + 1;
                    EXPECT_LE(span + bc.loop.proc_tail, ii)
                        << "tile window overflows II, tile " << t;
                    // Mod-II issue slots stay exclusive, so the
                    // periodic repetition never double-books a
                    // processor cycle.
                    std::set<int64_t> mod;
                    for (const TileItem &it : tile)
                        EXPECT_TRUE(
                            mod.insert(it.cycle % ii).second)
                            << "mod-II slot collision, tile " << t;
                }
                // Per-switch windows: same-cycle hops are separate
                // ROUTE instructions, so the stream length binds the
                // period along with the flat span; mod-II port
                // reservations stay exclusive (this is what keeps
                // cross-iteration words within the FIFO bounds).
                for (int t = 0; t < n; t++) {
                    const auto &sw = s.switches[t];
                    if (sw.empty())
                        continue;
                    int64_t span =
                        std::max(sw.back().cycle -
                                     sw.front().cycle + 1,
                                 static_cast<int64_t>(sw.size()));
                    EXPECT_LE(span + bc.loop.sw_tail, ii)
                        << "switch window overflows II, tile " << t;
                    std::map<int64_t, uint8_t> in_used, out_used;
                    for (const SwitchItem &it : sw) {
                        int64_t m = it.cycle % ii;
                        uint8_t in_bit = static_cast<uint8_t>(
                            1u << static_cast<int>(it.in));
                        EXPECT_EQ(in_used[m] & in_bit, 0)
                            << "mod-II input port reuse, tile " << t;
                        EXPECT_EQ(out_used[m] & it.out_mask, 0)
                            << "mod-II output port reuse, tile "
                            << t;
                        in_used[m] |= in_bit;
                        out_used[m] |= it.out_mask;
                    }
                }
            }
        }
    }
    EXPECT_GT(checked, 0)
        << "corpus must exercise at least one adopted pipeline";
}

// ---------------------------------------------------------------
// End to end: --modulo trades cycles, never results.  Checker armed.

TEST(Modulo, OnOffDifferentialBitExact)
{
    CheckConfig checks;
    checks.provenance = true;
    checks.fifo_bounds = true;
    MachineConfig m = MachineConfig::base(16);
    for (const BenchmarkProgram &prog : benchmark_suite()) {
        RunResult off =
            run_rawcc(prog.source, m, prog.check_array,
                      CompilerOptions{}, FaultConfig{}, checks);
        CompilerOptions mod;
        mod.orch.sched.modulo = true;
        RunResult on = run_rawcc(prog.source, m, prog.check_array,
                                 mod, FaultConfig{}, checks);
        EXPECT_EQ(on.prints, off.prints) << prog.name;
        EXPECT_EQ(on.check_words, off.check_words) << prog.name;
    }
}

// ---------------------------------------------------------------
// Determinism: a pipelined compile is bit-identical across --jobs
// widths, and the program runs identically under both simulator
// backends with the checker armed (prov_hash included in the diff).

TEST(Modulo, PipelinedBitIdenticalAcrossJobsAndBackends)
{
    const BenchmarkProgram &prog = benchmark("life");
    MachineConfig m = MachineConfig::base(16);
    CompilerOptions opts;
    opts.orch.sched.modulo = true;

    CompileOutput serial = compile_source(prog.source, m, opts);
    bool any_pipelined = false;
    for (const BlockPipelineStats &p :
         serial.stats.block_pipeline)
        any_pipelined |= p.pipelined;
    EXPECT_TRUE(any_pipelined)
        << "life\'s loops must pipeline at 16 tiles";

    for (int jobs : {2, 4}) {
        CompilerOptions par = opts;
        par.orch.jobs = jobs;
        SchedCache::instance().clear_memory();
        CompileOutput out = compile_source(prog.source, m, par);
        EXPECT_EQ(disasm_program(out.program),
                  disasm_program(serial.program))
            << "jobs=" << jobs;
    }

    CheckConfig checks;
    checks.provenance = true;
    checks.fifo_bounds = true;
    // Throws on the first divergent field (including prov_hash).
    SimResult r =
        diff_sim_backends(serial.program, FaultConfig{}, checks);
    EXPECT_GT(r.cycles, 0);
    EXPECT_NE(r.prov_hash, 0u);
}

} // namespace
} // namespace raw
