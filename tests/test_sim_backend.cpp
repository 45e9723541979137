/**
 * @file
 * Backend-differential suite: run the reference and threaded
 * execution cores over the full golden corpus (every
 * point in tests/goldens/, at its native machine size and
 * fault/scheduler configuration), a tile sweep of the golden
 * benchmarks extended to the 64/128-tile scaling meshes, and a
 * fault-channel matrix point, asserting bit-identical observable
 * results via diff_sim_backends — cycle count, every aggregate
 * counter, print trace, prov_hash, per-tile profile and final array
 * contents.  The checker is armed on the _sched and fault points
 * (covering the kRouteN + provenance paths) and left off on the
 * plain points so the kRoute1 fast path is the one being compared.
 * Also pins that the threaded core — the default one — throws the
 * reference core's exact DeadlockError text, that a solo run longer
 * than the stall window is progress, that the default core is the
 * fast one, and the CLI's --sim-backend spellings.
 */

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>

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
    // Plain compiles across machine sizes: one tile runs almost
    // entirely as one solo sprint, small meshes mix the sprint with
    // the per-tile scan, big ones exercise the fused scan and
    // sleep/wake.
    for (const char *b : {"life", "cholesky", "mxm", "jacobi"})
        for (int n : {1, 4, 16, 32})
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

    // Fault point at 64 tiles with the checker armed: the large-mesh
    // fault and provenance paths.
    FaultConfig miss{};
    miss.miss_rate = 0.05;
    miss.penalty = 12;
    miss.seed = 9;
    diff_point({"jacobi", 64, miss, false, true});
}

TEST(SimBackend, FaultChannelMatrix)
{
    // All four channels at once: memory miss, route stall, dynamic
    // delay and jitter (jitter disables processor sleep, the sprint
    // and quiescence fast-forward, so this pins the spin paths too).
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

PInstr
pi(Op op, int dst = -1, int a = -1, int b = -1, uint32_t imm = 0,
   int64_t target = -1)
{
    PInstr p;
    p.op = op;
    p.dst = dst;
    p.src[0] = a;
    p.src[1] = b;
    p.imm = imm;
    p.target = target;
    return p;
}

SInstr
route1(Dir in, Dir out)
{
    SInstr s;
    s.k = SInstr::K::kRoute;
    s.routes = {
        {in, static_cast<uint8_t>(1u << static_cast<int>(out)), -1}};
    return s;
}

SInstr
shalt()
{
    SInstr s;
    s.k = SInstr::K::kHalt;
    return s;
}

CompiledProgram
two_tiles()
{
    CompiledProgram cp;
    cp.machine = MachineConfig::base(2);
    cp.tiles.resize(2);
    cp.switches.resize(2);
    cp.total_words = 16;
    cp.arrays.push_back({"a", Type::kI32, 0, 16});
    return cp;
}

// Minimal hand-built deadlock: two switches each waiting for a word
// from the other before forwarding to their processor (mirror of the
// tests/test_faults.cpp routing-cycle program).
CompiledProgram
routing_cycle()
{
    CompiledProgram cp = two_tiles();
    for (int t : {0, 1})
        cp.tiles[t].code = {pi(Op::kRecv, 1), pi(Op::kSend, -1, 1),
                            pi(Op::kHalt)};
    cp.switches[0].code = {route1(Dir::kEast, Dir::kProc),
                           route1(Dir::kProc, Dir::kEast), shalt()};
    cp.switches[1].code = {route1(Dir::kWest, Dir::kProc),
                           route1(Dir::kProc, Dir::kWest), shalt()};
    return cp;
}

// Tile 0 loads (a miss-channel draw point), sleeps through a chain of
// dependent divides, then receives from a switch that never routes a
// word; tile 1 waits on the same empty link.
CompiledProgram
freeze_after_sleep()
{
    CompiledProgram cp = two_tiles();
    PInstr load = pi(Op::kLoad, 1, 6);
    load.array = 0;
    cp.tiles[0].code = {pi(Op::kConst, 6, -1, -1, 0), load,
                        pi(Op::kConst, 2, -1, -1, 3)};
    for (int i = 0; i < 6; i++)
        cp.tiles[0].code.push_back(pi(Op::kDiv, 1, 1, 2));
    cp.tiles[0].code.push_back(pi(Op::kRecv, 3));
    cp.tiles[0].code.push_back(pi(Op::kHalt));
    cp.tiles[1].code = {pi(Op::kRecv, 1), pi(Op::kHalt)};
    cp.switches[0].code = {route1(Dir::kEast, Dir::kProc), shalt()};
    cp.switches[1].code = {route1(Dir::kWest, Dir::kProc), shalt()};
    return cp;
}

// Tile 0 counts down a FIFO-free loop (one solo sprint on the
// threaded core) for 3 * @p iters cycles while tile 1 blocks on a
// receive; 60000 iterations outlast the 100k-cycle stall window.
// With @p send the loop ends by sending tile 1 its word and the
// program completes; without it the machine freezes once the loop
// is done.
CompiledProgram
run_ahead_loop(int iters, bool send)
{
    CompiledProgram cp = two_tiles();
    cp.tiles[0].code = {pi(Op::kConst, 1, -1, -1, iters),
                        pi(Op::kConst, 2, -1, -1, 1),
                        pi(Op::kAdd, 3, 2, 2),
                        pi(Op::kSub, 1, 1, 2),
                        pi(Op::kAdd, 3, 3, 2),
                        pi(Op::kBranch, -1, 1, -1, 0, 3)};
    if (send)
        cp.tiles[0].code.push_back(pi(Op::kSend, -1, 3));
    cp.tiles[0].code.push_back(pi(Op::kHalt));
    cp.tiles[1].code = {pi(Op::kRecv, 1), pi(Op::kPrint, -1, 1),
                        pi(Op::kHalt)};
    cp.tiles[1].code[1].print_seq = 0;
    cp.num_prints = 1;
    cp.switches[0].code = {route1(Dir::kProc, Dir::kEast), shalt()};
    cp.switches[1].code = {route1(Dir::kWest, Dir::kProc), shalt()};
    return cp;
}

/**
 * what() and deadlock_set() of a run that must deadlock, on
 * @p backend or (nullopt) a default-constructed Simulator.
 */
std::pair<std::string, std::string>
deadlock_report(const CompiledProgram &cp, const FaultConfig &f,
                std::optional<SimBackend> backend)
{
    Simulator sim = backend ? Simulator(cp, f, {}, *backend)
                            : Simulator(cp, f);
    try {
        sim.run();
    } catch (const DeadlockError &e) {
        return {e.what(), e.deadlock_set()};
    }
    ADD_FAILURE() << "program must deadlock ("
                  << (backend ? sim_backend_name(*backend) : "default")
                  << ")";
    return {};
}

/**
 * The threaded core, and the default-constructed Simulator, must
 * throw the reference core's DeadlockError byte for byte — detection
 * cycle included — and the same cycle-number-free deadlock_set().
 */
void
expect_reference_report(const char *what, const CompiledProgram &cp,
                        const FaultConfig &f = {})
{
    SCOPED_TRACE(what);
    auto want = deadlock_report(cp, f, SimBackend::kReference);
    EXPECT_NE(want.first.find("wait-for-graph"), std::string::npos)
        << "exact detection must fire, not the stall-count backstop: "
        << want.first;
    EXPECT_EQ(deadlock_report(cp, f, std::nullopt), want)
        << "default core";
    EXPECT_EQ(deadlock_report(cp, f, SimBackend::kThreaded), want)
        << "threaded core";
}

TEST(SimBackend, DeadlockSetParity)
{
    // Both cores diagnose the same deadlock set (blocking cycle +
    // blocked units) and report it at the same cycle: a threaded run
    // that deadlocks hands the report to a reference-core re-run.
    CompiledProgram cp = routing_cycle();
    std::string ref =
        deadlock_report(cp, {}, SimBackend::kReference).second;
    EXPECT_NE(ref.find("blocking cycle"), std::string::npos) << ref;
    EXPECT_NE(ref.find("sw0@pc0"), std::string::npos) << ref;
    EXPECT_NE(ref.find("sw1@pc0"), std::string::npos) << ref;

    expect_reference_report("routing cycle", cp);
    expect_reference_report("freeze after a sleep span",
                            freeze_after_sleep());
    // The solo sprint retires 180k cycles of loop without a
    // per-cycle scan; the freeze that follows must be reported at the
    // reference core's exact cycle, not when the stall window expires.
    expect_reference_report("freeze after a long solo run",
                            run_ahead_loop(60000, false));
}

TEST(SimBackend, DeadlockReportParityUnderFaults)
{
    // Miss, route-stall and dyn-delay channels keep the exact
    // frozen-machine detector on (only jitter turns it off).
    FaultConfig f;
    f.miss_rate = 0.5;
    f.penalty = 7;
    f.route_stall_rate = 0.3;
    f.route_stall_cycles = 4;
    f.dyn_delay_rate = 0.3;
    f.seed = 11;
    expect_reference_report("routing cycle", routing_cycle(), f);
    expect_reference_report("freeze after a sleep span",
                            freeze_after_sleep(), f);
}

TEST(SimBackend, RunAheadPastStallWindowIsNotADeadlock)
{
    // A solo sprint that runs for longer than the stall window is
    // progress, exactly as the reference core sees it cycle by cycle.
    CompiledProgram cp = run_ahead_loop(60000, true);
    SimResult r;
    ASSERT_NO_THROW(r = diff_sim_backends(cp));
    EXPECT_EQ(r.cycles, 180009);
    EXPECT_EQ(r.print_text(), "60002\n");
}

TEST(SimBackend, DefaultIsTheFastCore)
{
    EXPECT_EQ(kDefaultSimBackend, SimBackend::kThreaded);
    EXPECT_EQ(sim_backend_from_string("fast"), SimBackend::kThreaded);
    EXPECT_EQ(sim_backend_from_string("threaded"),
              SimBackend::kThreaded);
    // The deleted region core's name stays a threaded spelling.
    EXPECT_EQ(sim_backend_from_string("region"), SimBackend::kThreaded);
    EXPECT_EQ(sim_backend_from_string("reference"),
              SimBackend::kReference);
    EXPECT_THROW(sim_backend_from_string("bogus"), FatalError);

    // A default run is bit-identical to the two-core differential.
    const BenchmarkProgram &prog = benchmark("life");
    CompileOutput out =
        compile_source(prog.source, MachineConfig::base(16));
    SimResult fast = Simulator(out.program).run();
    SimResult ref = diff_sim_backends(out.program);
    EXPECT_EQ(golden_summary("life", 16, {}, fast),
              golden_summary("life", 16, {}, ref));
}

#ifdef RAWCC_BIN
/** Exit status of rawcc @p args; its stdout lands in @p out. */
int
run_cli(const std::string &args, std::string &out)
{
    std::string cmd = std::string(RAWCC_BIN) + " " + args + " 2>&1";
    FILE *f = popen(cmd.c_str(), "r");
    if (!f)
        return -1;
    char buf[256];
    out.clear();
    while (size_t n = std::fread(buf, 1, sizeof(buf), f))
        out.append(buf, n);
    int rc = pclose(f);
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST(SimBackendCli, FastIsTheThreadedCore)
{
    std::string fast, threaded, dflt, ref;
    const std::string args = " --tiles 16 --check jacobi";
    ASSERT_EQ(run_cli("--sim-backend fast" + args, fast), 0) << fast;
    ASSERT_EQ(run_cli("--sim-backend threaded" + args, threaded), 0);
    ASSERT_EQ(run_cli(args, dflt), 0);
    ASSERT_EQ(run_cli("--sim-backend reference" + args, ref), 0);
    EXPECT_EQ(fast, threaded);
    EXPECT_EQ(dflt, threaded);
    EXPECT_EQ(ref, threaded);
}

TEST(SimBackendCli, RejectsUnknownCore)
{
    std::string out;
    EXPECT_EQ(run_cli("--sim-backend bogus --tiles 4 jacobi", out), 2);
    EXPECT_NE(out.find("--sim-backend"), std::string::npos) << out;
    EXPECT_NE(out.find("reference or fast"), std::string::npos) << out;
}

// INT32_MIN / -1 overflows a 32-bit quotient; it must wrap (and the
// remainder be 0) wherever the program is evaluated: folded at
// compile time (the first two programs), or run by a core (the while
// loop hides the operands from the folder), on every core, with and
// without the unroller, and sequentially.
TEST(SimBackendCli, IntMinByMinusOneWrapsEverywhere)
{
    const std::pair<const char *, const char *> kProgs[] = {
        {"print(-2147483648 / -1);\n", "-2147483648\n"},
        {"int a; int b; a = -2147483648; b = -1; print(a % b);\n",
         "0\n"},
        {"int x; int y; int n; x = 0; y = 0; n = 0;\n"
         "while (n < 1) { x = x - 2147483647; y = y - 1; n = n + 1; }\n"
         "x = x - 1; print(x / y); print(x % y);\n",
         "-2147483648\n0\n"},
    };
    int k = 0;
    for (const auto &[src, want] : kProgs) {
        std::string path = ::testing::TempDir() + "intmin" +
                           std::to_string(k++) + ".rawc";
        std::ofstream(path) << src;
        std::vector<std::string> runs = {"--baseline"};
        for (const char *core : {"reference", "fast"})
            for (const char *unroll : {"", " --no-unroll"})
                for (const char *tiles : {"1", "4"})
                    runs.push_back(std::string("--sim-backend ") +
                                   core + unroll + " --tiles " +
                                   tiles);
        for (const std::string &args : runs) {
            std::string out;
            EXPECT_EQ(run_cli(args + " " + path, out), 0)
                << args << ": " << out;
            EXPECT_EQ(out.substr(0, out.find('[')), want)
                << args << ": " << out;
        }
    }
}

TEST(SimBackendCli, SimDiffBannerNamesTheCores)
{
    std::string out;
    ASSERT_EQ(run_cli("--sim-diff --tiles 4 jacobi", out), 0) << out;
    EXPECT_NE(out.find("[sim-diff: reference and fast (threaded) "
                       "backends identical]"),
              std::string::npos)
        << out;
}
#endif

} // namespace
} // namespace raw
