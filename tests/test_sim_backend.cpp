/**
 * @file
 * Backend-differential suite: run the reference, threaded and
 * region-compiled execution cores over the full golden corpus (every
 * point in tests/goldens/, at its native machine size and
 * fault/scheduler configuration), a tile sweep of the golden
 * benchmarks extended to the 64/128-tile scaling meshes, and a
 * fault-channel matrix point, asserting bit-identical observable
 * results via diff_sim_backends — cycle count, every aggregate
 * counter, print trace, prov_hash, per-tile profile and final array
 * contents.  The checker is armed on the _sched and fault points
 * (covering the kRouteN + provenance paths) and left off on the
 * plain points so the kRoute1 fast path is the one being compared.
 * Also pins the region-formation gates (regions must be off under
 * every fault channel and under the checker) and deadlock-set parity
 * across all three cores.
 */

#include <string>

#include <gtest/gtest.h>

#include "harness/harness.hpp"
#include "programs/programs.hpp"
#include "rawcc/compiler.hpp"

namespace raw {
namespace {

struct DiffPoint
{
    const char *bench;
    int tiles;
    FaultConfig faults;
    bool sched_opt = false;
    bool check = false;
};

std::string
point_name(const DiffPoint &p)
{
    std::string n = std::string(p.bench) + "_n" +
                    std::to_string(p.tiles);
    if (p.sched_opt)
        n += "_sched";
    if (p.faults.any())
        n += "_fault";
    if (p.check)
        n += "_check";
    return n;
}

void
diff_point(const DiffPoint &p)
{
    const BenchmarkProgram &prog = benchmark(p.bench);
    CompilerOptions opts;
    if (p.sched_opt)
        opts.orch.sched.sched_iters = 3;
    CompileOutput out = compile_source(
        prog.source, MachineConfig::base(p.tiles), opts);
    CheckConfig checks;
    if (p.check) {
        checks.provenance = true;
        checks.fifo_bounds = true;
    }
    SCOPED_TRACE(point_name(p));
    EXPECT_NO_THROW(diff_sim_backends(out.program, p.faults, checks))
        << point_name(p);
}

// Mirror of the golden corpus (tools/golden_gen.cpp kPoints): every
// recorded point at its native size.  Checker armed on the _sched
// and fault points, off on the plain ones (kRoute1 coverage).
const DiffPoint kGoldenPoints[] = {
    {"life", 1, {}},
    {"life", 4, {}},
    {"life", 16, {}},
    {"cholesky", 1, {}},
    {"cholesky", 4, {}},
    {"cholesky", 16, {}},
    {"mxm", 1, {}},
    {"mxm", 4, {}},
    {"mxm", 16, {}},
    {"jacobi", 1, {}},
    {"jacobi", 4, {}},
    {"jacobi", 16, {}},
    {"jacobi", 4, {0.01, 20, 42}, false, true},
    {"jacobi", 4, {0.02, 9, 7, 0.05, 3, 0.05, 6, 0.02}, false, true},
    {"life", 16, {}, true, true},
    {"cholesky", 16, {}, true, true},
    {"mxm", 16, {}, true, true},
    {"jacobi", 16, {}, true, true},
};

TEST(SimBackend, GoldenCorpusDifferential)
{
    for (const DiffPoint &p : kGoldenPoints)
        diff_point(p);
}

TEST(SimBackend, GoldenBenchTileSweep)
{
    // Plain compiles across machine sizes: small meshes exercise the
    // sprint solo path, big ones the fused per-tile scan and the
    // predictive-sleep machinery.
    for (const char *b : {"life", "cholesky", "mxm", "jacobi"})
        for (int n : {4, 16, 32})
            diff_point({b, n, {}});
}

TEST(SimBackend, LargeMeshSweep)
{
    // The scaling-study meshes, past Table 3's 32-tile ceiling.
    // jacobi n=64 runs the fused scan over an 8x8 mesh; fpppp-kernel
    // is cheap enough at n=128 (8x16) to diff in milliseconds.
    diff_point({"jacobi", 64, {}});
    diff_point({"jacobi", 64, {}, true, true}); // checker on _sched
    diff_point({"fpppp-kernel", 128, {}});

    // Fault point at 64 tiles with the checker armed: regions are
    // forced off, so this pins the large-mesh threaded paths too.
    FaultConfig miss{};
    miss.miss_rate = 0.05;
    miss.penalty = 12;
    miss.seed = 9;
    diff_point({"jacobi", 64, miss, false, true});
}

TEST(SimBackend, FaultChannelMatrix)
{
    // All four channels at once: memory miss, route stall, dynamic
    // delay and jitter (jitter disables predictive proc sleep and
    // quiescence fast-forward, so this pins the spin paths too).
    FaultConfig all{};
    all.miss_rate = 0.05;
    all.penalty = 20;
    all.seed = 42;
    all.route_stall_rate = 0.05;
    all.route_stall_cycles = 3;
    all.dyn_delay_rate = 0.2;
    all.dyn_delay_cycles = 5;
    all.jitter_rate = 0.01;
    diff_point({"life", 16, all});

    // Checker armed on top of miss faults: provenance tagging and
    // self-checking must agree between backends under perturbation.
    FaultConfig miss{};
    miss.miss_rate = 0.1;
    miss.penalty = 10;
    miss.seed = 3;
    diff_point({"tomcatv", 16, miss, false, true});
}

TEST(SimBackend, RegionsDisabledUnderEveryFaultChannel)
{
    // Region formation must turn itself off whenever any fault
    // channel or the runtime checker is armed (those paths consume
    // per-cycle randomness / per-step checks a fused run would skip),
    // and the plain threaded core must never form regions at all.
    CompileOutput out = compile_source(benchmark("jacobi").source,
                                       MachineConfig::base(4));
    auto regions = [&](const FaultConfig &f, const CheckConfig &c,
                       SimBackend b = SimBackend::kRegion) {
        Simulator sim(out.program, f, c, b);
        return sim.run().regions_entered;
    };

    EXPECT_GT(regions({}, {}), 0) << "clean region run must fuse";
    EXPECT_EQ(regions({}, {}, SimBackend::kThreaded), 0);
    EXPECT_EQ(regions({}, {}, SimBackend::kReference), 0);

    FaultConfig miss{};
    miss.miss_rate = 0.1;
    miss.penalty = 10;
    miss.seed = 1;
    EXPECT_EQ(regions(miss, {}), 0) << "memory-miss channel";

    FaultConfig route{};
    route.route_stall_rate = 0.1;
    route.route_stall_cycles = 3;
    route.seed = 1;
    EXPECT_EQ(regions(route, {}), 0) << "route-stall channel";

    FaultConfig dyn{};
    dyn.dyn_delay_rate = 0.2;
    dyn.dyn_delay_cycles = 5;
    dyn.seed = 1;
    EXPECT_EQ(regions(dyn, {}), 0) << "dyn-delay channel";

    FaultConfig jit{};
    jit.jitter_rate = 0.01;
    jit.seed = 1;
    EXPECT_EQ(regions(jit, {}), 0) << "jitter channel";

    CheckConfig checks;
    checks.provenance = true;
    checks.fifo_bounds = true;
    EXPECT_EQ(regions({}, checks), 0) << "runtime checker";
}

// Minimal hand-built deadlock: two switches each waiting for a word
// from the other before forwarding to their processor (mirror of the
// tests/test_faults.cpp routing-cycle program).
CompiledProgram
routing_cycle()
{
    CompiledProgram cp;
    cp.machine = MachineConfig::base(2);
    cp.tiles.resize(2);
    cp.switches.resize(2);
    cp.total_words = 16;
    auto pi = [](Op op, int dst = -1, int a = -1) {
        PInstr p;
        p.op = op;
        p.dst = dst;
        p.src[0] = a;
        return p;
    };
    auto route1 = [](Dir in, Dir out) {
        SInstr s;
        s.k = SInstr::K::kRoute;
        s.routes = {{in, static_cast<uint8_t>(
                             1u << static_cast<int>(out)),
                     -1}};
        return s;
    };
    SInstr halt;
    halt.k = SInstr::K::kHalt;
    for (int t : {0, 1})
        cp.tiles[t].code = {pi(Op::kRecv, 1), pi(Op::kSend, -1, 1),
                            pi(Op::kHalt)};
    cp.switches[0].code = {route1(Dir::kEast, Dir::kProc),
                           route1(Dir::kProc, Dir::kEast), halt};
    cp.switches[1].code = {route1(Dir::kWest, Dir::kProc),
                           route1(Dir::kProc, Dir::kWest), halt};
    return cp;
}

TEST(SimBackend, DeadlockSetParity)
{
    // All three cores must diagnose the same deadlock *set* (blocking
    // cycle + blocked units).  The cycle *number* is allowed to
    // differ — the threaded cores sleep through quiescent stretches
    // and notice the freeze at a later timestamp (see "Error-path
    // divergence" in docs/performance.md) — which is exactly why
    // DeadlockError::deadlock_set() excludes it.
    CompiledProgram cp = routing_cycle();
    auto set_of = [&](SimBackend b) {
        Simulator sim(cp, {}, {}, b);
        try {
            sim.run();
        } catch (const DeadlockError &e) {
            return e.deadlock_set();
        }
        ADD_FAILURE() << "routing cycle must deadlock ("
                      << sim_backend_name(b) << ")";
        return std::string();
    };
    std::string ref = set_of(SimBackend::kReference);
    EXPECT_NE(ref.find("blocking cycle"), std::string::npos) << ref;
    EXPECT_NE(ref.find("sw0@pc0"), std::string::npos) << ref;
    EXPECT_NE(ref.find("sw1@pc0"), std::string::npos) << ref;
    EXPECT_EQ(set_of(SimBackend::kThreaded), ref);
    EXPECT_EQ(set_of(SimBackend::kRegion), ref);
}

} // namespace
} // namespace raw
