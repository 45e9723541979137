/**
 * @file
 * Golden determinism suite: replay the recorded simulator outputs
 * under tests/goldens/ against the current tree and require
 * byte-for-byte identical summaries (cycle counts, aggregate
 * counters, profile sums, print traces).  Every point is run both
 * serially and fanned over the parallel harness, pinning the promise
 * that performance work — fast-path simulator core, incremental
 * placement cost, multi-threaded benches — never changes results.
 *
 * The goldens were recorded from the pre-optimization (PR 1)
 * simulator by tools/golden_gen.cpp.  If this suite fails after a
 * perf change, the change is wrong; regenerate goldens only for an
 * intentional semantic change.
 */

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/harness.hpp"
#include "harness/parallel.hpp"

namespace raw {
namespace {

struct GoldenPoint
{
    const char *bench;
    int tiles;
    FaultConfig faults;
    /** Schedule-quality optimizer (--sched-iters 3). */
    bool sched_opt = false;
};

// Must stay in sync with kPoints in tools/golden_gen.cpp.
const GoldenPoint kPoints[] = {
    {"life", 1, {}},      {"life", 4, {}},      {"life", 16, {}},
    {"cholesky", 1, {}},  {"cholesky", 4, {}},  {"cholesky", 16, {}},
    {"mxm", 1, {}},       {"mxm", 4, {}},       {"mxm", 16, {}},
    {"jacobi", 1, {}},    {"jacobi", 4, {}},    {"jacobi", 16, {}},
    {"jacobi", 4, {0.01, 20, 42}},
    {"jacobi", 4, {0.02, 9, 7, 0.05, 3, 0.05, 6, 0.02}},
    {"life", 16, {}, true},
    {"cholesky", 16, {}, true},
    {"mxm", 16, {}, true},
    {"jacobi", 16, {}, true},
};

std::string
point_name(const GoldenPoint &p)
{
    std::string name =
        std::string(p.bench) + "_n" + std::to_string(p.tiles);
    if (p.sched_opt)
        name += "_sched";
    if (p.faults.multi_channel())
        name += "_mfault";
    else if (p.faults.miss_rate > 0)
        name += "_fault";
    return name;
}

std::string
read_golden(const GoldenPoint &p)
{
    std::string path =
        std::string(RAW_GOLDEN_DIR) + "/" + point_name(p) + ".golden";
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "missing golden file " << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

std::string
run_point(const GoldenPoint &p, int jobs = 1)
{
    const BenchmarkProgram &prog = benchmark(p.bench);
    CompilerOptions opts;
    if (p.sched_opt)
        opts.orch.sched.sched_iters = 3;
    opts.orch.jobs = jobs;
    RunResult r =
        run_rawcc(prog.source, MachineConfig::base(p.tiles),
                  prog.check_array, opts, p.faults);
    return golden_summary(p.bench, p.tiles, p.faults, r.sim);
}

TEST(GoldenDeterminism, SerialMatchesRecordedGoldens)
{
    for (const GoldenPoint &p : kPoints)
        EXPECT_EQ(run_point(p), read_golden(p)) << point_name(p);
}

TEST(GoldenDeterminism, ParallelHarnessMatchesRecordedGoldens)
{
    // Same points, fanned over worker threads: each job owns its
    // compiler and simulator, so results must not depend on the
    // thread count or on interleaving.
    const int n = static_cast<int>(std::size(kPoints));
    std::vector<std::string> got(n);
    run_parallel(n, 4, [&](int i) { got[i] = run_point(kPoints[i]); });
    for (int i = 0; i < n; i++)
        EXPECT_EQ(got[i], read_golden(kPoints[i]))
            << point_name(kPoints[i]);
}

TEST(GoldenDeterminism, ParallelCompileAndRepeatMatch)
{
    // Every golden point, compiled serially and with per-block worker
    // threads, twice in one process, must stay byte-identical to the
    // recorded output: no compile may leave state that changes a
    // later one.
    for (int jobs : {1, 4})
        for (const char *pass : {"first", "second"})
            for (const GoldenPoint &p : kPoints)
                EXPECT_EQ(run_point(p, jobs), read_golden(p))
                    << point_name(p) << " jobs=" << jobs << " "
                    << pass;
}

TEST(GoldenDeterminism, ResolveJobs)
{
    EXPECT_EQ(resolve_jobs(1), 1);
    EXPECT_EQ(resolve_jobs(7), 7);
    EXPECT_GE(resolve_jobs(0), 1);
    EXPECT_GE(resolve_jobs(-3), 1);
}

} // namespace
} // namespace raw
