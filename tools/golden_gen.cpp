/**
 * @file
 * golden_gen — record golden simulator outputs for the determinism
 * suite (tests/test_golden_determinism.cpp).
 *
 * For a fixed set of (benchmark, machine size, compiler flags, fault
 * config) points this writes one text file per point into the
 * directory given as the last argument, capturing everything the
 * simulator promises to keep bit-identical across performance work:
 * the cycle count, the aggregate instruction/route/stall counters,
 * the per-category profile sums (which must also sum to cycles on
 * every tile), the issue histogram, and the full print trace.
 *
 * Modes:
 *   golden_gen <dir>            write every golden (fresh record)
 *   golden_gen --update <dir>   regenerate: re-runs every point with
 *       the runtime self-checker armed (provenance + FIFO bounds,
 *       which must stay silent), rewrites the files, and prints a
 *       cycle-delta table (old -> new per golden) so an intentional
 *       semantic change documents exactly what moved.
 *
 * The committed files under tests/goldens/ were generated from the
 * pre-optimization (PR 1) simulator; the *_sched points record the
 * schedule-quality optimizer (--sched-iters 3).
 * Regenerate only when semantics intentionally change, never for
 * performance work.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "harness/harness.hpp"
#include "sim/profile.hpp"

namespace {

struct GoldenPoint
{
    const char *bench;
    int tiles;
    raw::FaultConfig faults;
    /** Schedule-quality optimizer on (--sched-iters 3). */
    bool sched_opt = false;
};

const GoldenPoint kPoints[] = {
    {"life", 1, {}},      {"life", 4, {}},      {"life", 16, {}},
    {"cholesky", 1, {}},  {"cholesky", 4, {}},  {"cholesky", 16, {}},
    {"mxm", 1, {}},       {"mxm", 4, {}},       {"mxm", 16, {}},
    {"jacobi", 1, {}},    {"jacobi", 4, {}},    {"jacobi", 16, {}},
    // One fault-injected point so the quiescence fast-forward is
    // pinned under random extra memory latency too.
    {"jacobi", 4, {0.01, 20, 42}},
    // All four fault channels at once (miss + route stalls + dyn
    // delay + jitter), pinning the multi-channel RNG streams.
    {"jacobi", 4, {0.02, 9, 7, 0.05, 3, 0.05, 6, 0.02}},
    // Schedule-quality optimizer points: best-of-N rescheduling must
    // stay deterministic too.
    {"life", 16, {}, true},
    {"cholesky", 16, {}, true},
    {"mxm", 16, {}, true},
    {"jacobi", 16, {}, true},
};

std::string
point_filename(const GoldenPoint &p)
{
    std::string name = std::string(p.bench) + "_n" +
                       std::to_string(p.tiles);
    if (p.sched_opt)
        name += "_sched";
    if (p.faults.multi_channel())
        name += "_mfault";
    else if (p.faults.miss_rate > 0)
        name += "_fault";
    return name + ".golden";
}

raw::CompilerOptions
point_options(const GoldenPoint &p)
{
    raw::CompilerOptions opts;
    if (p.sched_opt)
        opts.orch.sched.sched_iters = 3;
    return opts;
}

/** Cycle count recorded in an existing golden file, or -1. */
long long
recorded_cycles(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return -1;
    std::string key;
    long long v;
    while (in >> key) {
        if (key == "cycles" && in >> v)
            return v;
        in.ignore(1 << 20, '\n');
    }
    return -1;
}

} // namespace

int
main(int argc, char **argv)
{
    bool update = false;
    const char *dir_arg = nullptr;
    bool bad_args = false;
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--update") == 0)
            update = true;
        else if (!dir_arg)
            dir_arg = argv[i];
        else
            bad_args = true;
    }
    if (!dir_arg || bad_args) {
        std::fprintf(stderr,
                     "usage: golden_gen [--update] <output-dir>\n");
        return 2;
    }
    const std::string dir = dir_arg;

    if (update)
        std::printf("%-26s %12s %12s %8s\n", "golden", "old", "new",
                    "delta");
    for (const GoldenPoint &p : kPoints) {
        const raw::BenchmarkProgram &prog = raw::benchmark(p.bench);
        raw::CompilerOptions opts = point_options(p);
        raw::RunResult r =
            raw::run_rawcc(prog.source,
                           raw::MachineConfig::base(p.tiles),
                           prog.check_array, opts, p.faults);
        const raw::SimResult &s = r.sim;
        if (update) {
            // Re-run with the runtime self-checker armed: a golden
            // must never record an execution the checker rejects.
            raw::CheckConfig checks;
            checks.provenance = true;
            checks.fifo_bounds = true;
            raw::RunResult checked =
                raw::run_rawcc(prog.source,
                               raw::MachineConfig::base(p.tiles),
                               prog.check_array, opts, p.faults,
                               checks);
            if (!checked.sim.check_failures.empty()) {
                std::fprintf(stderr,
                             "%s: %zu self-check failures, not "
                             "recording\n",
                             point_filename(p).c_str(),
                             checked.sim.check_failures.size());
                return 1;
            }
        }
        std::string path = dir + "/" + point_filename(p);
        long long old_cycles = update ? recorded_cycles(path) : -1;
        std::ofstream out(path);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return 1;
        }
        out << raw::golden_summary(p.bench, p.tiles, p.faults, s);
        if (update) {
            long long nw = static_cast<long long>(s.cycles);
            if (old_cycles < 0)
                std::printf("%-26s %12s %12lld %8s\n",
                            point_filename(p).c_str(), "(new)", nw,
                            "-");
            else
                std::printf("%-26s %12lld %12lld %+8lld\n",
                            point_filename(p).c_str(), old_cycles, nw,
                            nw - old_cycles);
        } else {
            std::printf("wrote %s (cycles %lld)\n", path.c_str(),
                        static_cast<long long>(s.cycles));
        }
    }
    return 0;
}
