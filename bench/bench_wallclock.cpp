/**
 * @file
 * The Table 3 sweep: every benchmark at N = 1, 2, 4, 8, 16, 32 tiles,
 * measured two ways at once.  For the simulated machine it prints
 * speedup over the sequential baseline ("Machsuif Mips compiler")
 * next to the paper's Table 3 rows and records each point's cycles,
 * speedup and processor occupancy (cycle categories summed over
 * tiles).  For the toolchain itself it records compile milliseconds
 * per phase, simulated cycles per host second and placement swaps
 * per second.  Both go to BENCH_wallclock.json (override with
 * --json-out); see docs/profiling.md and docs/performance.md.
 *
 * Flags: --jobs N fans the (benchmark × size) runs over N worker
 * threads (0 = one per core); --tiny runs a single small config so
 * CI can smoke-test the harness in well under a second (ctest label
 * perf-smoke); --scaling adds the large-mesh scenario
 * (the full suite at 16/32/64/128 tiles, each point simulated under the
 * reference and threaded cores with a cycle-equality assert — the
 * "scaling" JSON section records per-mesh cycles/s for both cores
 * plus, per run, speedup over the same benchmark's 1-tile cycles and
 * compile time with its partition-phase share; always run
 * serially for honest per-core timings; it ends with a monotonicity
 * report listing every mesh step where a benchmark's cycles rise as
 * the tile count doubles); --sim-backend picks the
 * sweep's core (reference | fast, default fast, i.e.
 * raw::kDefaultSimBackend) or "both" for the reference core plus a
 * per-run threaded re-simulation;
 * --json-out PATH overrides the output path, which must be writable
 * before the sweep starts.  Any other argument is refused with exit
 * 2 before anything runs.
 *
 * Results (cycle counts, speedups, occupancy, prints) are
 * bit-identical at any --jobs value; only the wall-clock figures vary
 * between hosts and runs.
 */

#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "harness/cli.hpp"
#include "harness/harness.hpp"
#include "harness/parallel.hpp"
#include "sim/profile.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double
ms_since(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

const int kSizes[] = {1, 2, 4, 8, 16, 32};

// Paper values for side-by-side comparison (Table 3); 0 = not reported.
const std::map<std::string, std::array<double, 6>> kPaper = {
    {"life", {0.91, 1.2, 1.6, 1.8, 1.9, 0}},
    {"vpenta", {0.92, 1.2, 1.8, 2.2, 2.6, 3.0}},
    {"cholesky", {0.90, 1.3, 2.1, 3.3, 5.3, 0}},
    {"tomcatv", {0.97, 1.7, 2.7, 3.8, 5.6, 7.8}},
    {"fpppp-kernel", {0.51, 0.92, 1.9, 4.0, 8.1, 13.7}},
    {"mxm", {0.92, 1.8, 3.3, 6.3, 10.2, 0}},
    {"jacobi", {0.97, 1.6, 3.4, 5.6, 15, 22}},
};

/**
 * Which execution core(s) the sweep times: @c primary alone, or
 * (@c both) the reference core as primary plus the threaded core
 * timed on the same compiled program.
 */
struct BackendMode
{
    raw::SimBackend primary = raw::kDefaultSimBackend;
    bool both = false;
};

/** One (benchmark, machine size) timing. */
struct RunTiming
{
    std::string name;
    int tiles = 0;
    int64_t cycles = 0;
    /** Sequential-baseline cycles / cycles (0 for a zero-cycle run). */
    double speedup = 0;
    /** Proc cycle-category totals summed over tiles. */
    std::array<int64_t, raw::kNumProcCycleCats> occupancy{};
    int64_t placement_swaps = 0;
    raw::PhaseTimings compile;
    double sim_ms = 0;          ///< primary backend (reference in both-mode)
    double sim_ms_threaded = 0; ///< threaded core (both-mode only)
};

RunTiming
time_one(const raw::BenchmarkProgram &prog, int tiles,
         BackendMode mode)
{
    RunTiming rt;
    rt.name = prog.name;
    rt.tiles = tiles;
    raw::CompileOutput out = raw::compile_source(
        prog.source, raw::MachineConfig::base(tiles));
    rt.compile = out.stats.timings;
    rt.placement_swaps = out.stats.placement_swaps;
    Clock::time_point t0 = Clock::now();
    raw::Simulator sim(out.program, {}, {}, mode.primary);
    raw::SimResult r = sim.run();
    rt.sim_ms = ms_since(t0);
    rt.cycles = r.cycles;
    // Guard the ratio so a degenerate zero-cycle run can never write
    // inf/nan into the committed JSON.
    const int64_t base = raw::cached_baseline(prog).cycles;
    rt.speedup = r.cycles > 0 ? static_cast<double>(base) /
                                    static_cast<double>(r.cycles)
                              : 0.0;
    for (const raw::TileProfile &tp : r.profile.tiles)
        for (int c = 0; c < raw::kNumProcCycleCats; c++)
            rt.occupancy[c] += tp.proc_cycles[c];
    if (mode.both) {
        Clock::time_point t1 = Clock::now();
        raw::Simulator sim2(out.program, {}, {},
                            raw::SimBackend::kThreaded);
        raw::SimResult r2 = sim2.run();
        rt.sim_ms_threaded = ms_since(t1);
        if (r2.cycles != r.cycles) {
            std::fprintf(stderr,
                         "%s n=%d: backend cycle mismatch "
                         "(reference %lld, threaded %lld)\n",
                         prog.name.c_str(), tiles,
                         static_cast<long long>(r.cycles),
                         static_cast<long long>(r2.cycles));
            std::exit(1);
        }
    }
    return rt;
}

/**
 * Large-mesh scaling scenario: the full suite at 16/32/64/128 tiles
 * (past Table 3's 32-tile ceiling), each point compiled once and
 * simulated under both cores with a cycle-equality assert.  A
 * 1-tile simulation per benchmark supplies the speedup baseline.
 * Always runs serially so each core's cycles/s is an honest
 * single-thread figure.
 */
struct ScalePoint
{
    std::string name;
    int tiles = 0;
    int64_t cycles = 0;
    int64_t base_cycles = 0; ///< same benchmark at 1 tile
    double compile_ms = 0;
    double partition_ms = 0; ///< orchestrate's partition phase
    double schedule_ms = 0;  ///< orchestrate's schedule phase
    double ref_ms = 0, thr_ms = 0;
};

std::vector<ScalePoint>
run_scaling(bool tiny)
{
    const int meshes[] = {16, 32, 64, 128};
    std::vector<ScalePoint> pts;
    for (const raw::BenchmarkProgram &prog : raw::benchmark_suite()) {
        if (tiny && prog.name != "jacobi")
            continue;
        // 1-tile baseline cycles (cycle count is core-independent).
        raw::CompileOutput base = raw::compile_source(
            prog.source, raw::MachineConfig::base(1));
        raw::Simulator bsim(base.program);
        int64_t base_cycles = bsim.run().cycles;
        for (int n : meshes) {
            if (tiny && n > 64)
                continue;
            ScalePoint p;
            p.name = prog.name;
            p.tiles = n;
            p.base_cycles = base_cycles;
            Clock::time_point tc = Clock::now();
            raw::CompileOutput out = raw::compile_source(
                prog.source, raw::MachineConfig::base(n));
            p.compile_ms = ms_since(tc);
            p.partition_ms = out.stats.orch_partition_ms;
            p.schedule_ms = out.stats.orch_schedule_ms;
            auto run_core = [&](raw::SimBackend backend, double &ms) {
                Clock::time_point t0 = Clock::now();
                raw::Simulator sim(out.program, {}, {}, backend);
                raw::SimResult r = sim.run();
                ms = ms_since(t0);
                return r.cycles;
            };
            p.cycles = run_core(raw::SimBackend::kReference, p.ref_ms);
            int64_t ct =
                run_core(raw::SimBackend::kThreaded, p.thr_ms);
            if (ct != p.cycles) {
                std::fprintf(stderr,
                             "scaling %s n=%d: backend cycle mismatch "
                             "(reference %lld, threaded %lld)\n",
                             p.name.c_str(), n,
                             static_cast<long long>(p.cycles),
                             static_cast<long long>(ct));
                std::exit(1);
            }
            std::printf("  scaling %-14s n=%-4d %9lld cycles  "
                        "(%.2fx vs n=1)  compile %8.1f ms "
                        "(partition %8.1f, schedule %8.1f)  "
                        "sim ref %7.1f / thr %7.1f ms\n",
                        p.name.c_str(), n,
                        static_cast<long long>(p.cycles),
                        p.cycles > 0 ? static_cast<double>(base_cycles) /
                                           static_cast<double>(p.cycles)
                                     : 0,
                        p.compile_ms, p.partition_ms, p.schedule_ms,
                        p.ref_ms, p.thr_ms);
            std::fflush(stdout);
            pts.push_back(p);
        }
    }
    return pts;
}

/**
 * Print every step of @p pts (benchmark-major, meshes ascending) where
 * a benchmark's cycles rise as the tile count doubles: a scaling cliff.
 */
void
print_monotonicity(const std::vector<ScalePoint> &pts)
{
    std::printf("scaling monotonicity (cycles rising as the mesh "
                "doubles):\n");
    int rises = 0;
    for (size_t i = 1; i < pts.size(); i++) {
        const ScalePoint &a = pts[i - 1], &b = pts[i];
        if (a.name != b.name || b.cycles <= a.cycles)
            continue;
        std::printf("  %-14s n=%d -> n=%d: %lld -> %lld cycles (+%.1f%%)\n",
                    b.name.c_str(), a.tiles, b.tiles,
                    static_cast<long long>(a.cycles),
                    static_cast<long long>(b.cycles),
                    100.0 * static_cast<double>(b.cycles - a.cycles) /
                        static_cast<double>(a.cycles));
        rises++;
    }
    if (rises == 0)
        std::printf("  none\n");
}

/**
 * Print the Table 3 matrix, each benchmark's row above the paper's.
 * @p runs is the full sweep: benchmark-major, sizes in kSizes order.
 */
void
print_table3(const std::vector<RunTiming> &runs)
{
    std::printf("Table 3: Benchmark Speedup (RAWCC vs. sequential "
                "baseline)\n%-14s",
                "Benchmark");
    for (int n : kSizes)
        std::printf("  N=%-7d", n);
    std::printf("\n");
    const size_t n_sizes = std::size(kSizes);
    for (size_t b = 0; b + n_sizes <= runs.size(); b += n_sizes) {
        const std::string &name = runs[b].name;
        std::printf("%-14s", name.c_str());
        for (size_t s = 0; s < n_sizes; s++)
            std::printf("  %-9.2f", runs[b + s].speedup);
        std::printf(
            "   (seq RT %lld cycles)\n",
            static_cast<long long>(
                raw::cached_baseline(raw::benchmark(name)).cycles));
        auto it = kPaper.find(name);
        if (it == kPaper.end())
            continue;
        std::printf("%-14s", "  [paper]");
        for (double v : it->second) {
            if (v > 0)
                std::printf("  %-9.2f", v);
            else
                std::printf("  %-9s", "*");
        }
        std::printf("\n");
    }
}

/** cycles / (ms/1e3), 0 when the denominator is zero (never inf/nan). */
double
per_sec(int64_t count, double ms)
{
    return ms > 0 ? static_cast<double>(count) / (ms / 1e3) : 0;
}

void
write_json(const std::string &path, const std::vector<RunTiming> &runs,
           int jobs, double wall_ms,
           const std::vector<ScalePoint> &scaling, BackendMode mode)
{
    raw::PhaseTimings sum;
    int64_t cycles = 0, swaps = 0;
    double sim_ms = 0, sim_ms_threaded = 0;
    for (const RunTiming &rt : runs) {
        sum.parse_ms += rt.compile.parse_ms;
        sum.unroll_ms += rt.compile.unroll_ms;
        sum.lower_ms += rt.compile.lower_ms;
        sum.transform_ms += rt.compile.transform_ms;
        sum.orchestrate_ms += rt.compile.orchestrate_ms;
        sum.link_ms += rt.compile.link_ms;
        sum.total_ms += rt.compile.total_ms;
        cycles += rt.cycles;
        swaps += rt.placement_swaps;
        sim_ms += rt.sim_ms;
        sim_ms_threaded += rt.sim_ms_threaded;
    }
    double cycles_per_sec = per_sec(cycles, sim_ms);
    double swaps_per_sec = per_sec(swaps, sum.orchestrate_ms);

    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     path.c_str());
        std::exit(1);
    }
    char buf[256];
    out << "{\n  \"table\": \"wallclock\",\n";
    out << "  \"jobs\": " << jobs << ",\n";
    std::snprintf(buf, sizeof(buf), "  \"sweep_wall_ms\": %.1f,\n",
                  wall_ms);
    out << buf;
    std::snprintf(
        buf, sizeof(buf),
        "  \"compile_ms\": {\"parse\": %.1f, \"unroll\": %.1f, "
        "\"lower\": %.1f, \"transform\": %.1f, \"orchestrate\": %.1f, "
        "\"link\": %.1f, \"total\": %.1f},\n",
        sum.parse_ms, sum.unroll_ms, sum.lower_ms, sum.transform_ms,
        sum.orchestrate_ms, sum.link_ms, sum.total_ms);
    out << buf;
    std::snprintf(buf, sizeof(buf),
                  "  \"sim\": {\"cycles\": %lld, \"wall_ms\": %.1f, "
                  "\"cycles_per_sec\": %.0f},\n",
                  static_cast<long long>(cycles), sim_ms,
                  cycles_per_sec);
    out << buf;
    std::snprintf(buf, sizeof(buf),
                  "  \"placement\": {\"swaps\": %lld, "
                  "\"swaps_per_sec\": %.0f},\n",
                  static_cast<long long>(swaps), swaps_per_sec);
    out << buf;
    if (mode.both) {
        double ref_cps = per_sec(cycles, sim_ms);
        double thr_cps = per_sec(cycles, sim_ms_threaded);
        std::snprintf(
            buf, sizeof(buf),
            "  \"sim_backend\": {\"reference_cps\": %.0f, "
            "\"threaded_cps\": %.0f, \"speedup\": %.2f, "
            "\"cycles_identical\": true},\n",
            ref_cps, thr_cps, ref_cps > 0 ? thr_cps / ref_cps : 0);
        out << buf;
    }
    if (!scaling.empty()) {
        // Per-mesh aggregate cycles/s for each core, then the raw
        // per-run rows (speedup is vs the same benchmark at 1 tile).
        out << "  \"scaling\": {\"mesh\": [";
        bool first = true;
        for (int n : {16, 32, 64, 128}) {
            int64_t c = 0;
            double rms = 0, tms = 0;
            for (const ScalePoint &p : scaling)
                if (p.tiles == n) {
                    c += p.cycles;
                    rms += p.ref_ms;
                    tms += p.thr_ms;
                }
            if (c == 0)
                continue;
            std::snprintf(
                buf, sizeof(buf),
                "%s\n    {\"tiles\": %d, \"cycles\": %lld, "
                "\"reference_cps\": %.0f, \"threaded_cps\": %.0f}",
                first ? "" : ",", n, static_cast<long long>(c),
                per_sec(c, rms), per_sec(c, tms));
            out << buf;
            first = false;
        }
        out << "],\n   \"runs\": [";
        for (size_t i = 0; i < scaling.size(); i++) {
            const ScalePoint &p = scaling[i];
            std::snprintf(
                buf, sizeof(buf),
                "%s\n    {\"name\": \"%s\", \"tiles\": %d, "
                "\"cycles\": %lld, \"speedup_vs_1\": %.2f, "
                "\"compile_ms\": %.1f, \"partition_ms\": %.1f, "
                "\"schedule_ms\": %.1f, \"sim_ms_reference\": %.1f, "
                "\"sim_ms_threaded\": %.1f}",
                i ? "," : "", p.name.c_str(), p.tiles,
                static_cast<long long>(p.cycles),
                p.cycles > 0 ? static_cast<double>(p.base_cycles) /
                                   static_cast<double>(p.cycles)
                             : 0,
                p.compile_ms, p.partition_ms, p.schedule_ms, p.ref_ms,
                p.thr_ms);
            out << buf;
        }
        out << "],\n   \"cycles_identical\": true},\n";
    }
    out << "  \"runs\": [\n";
    for (size_t i = 0; i < runs.size(); i++) {
        const RunTiming &rt = runs[i];
        std::snprintf(
            buf, sizeof(buf),
            "    {\"name\": \"%s\", \"tiles\": %d, \"cycles\": %lld, "
            "\"speedup\": %.4f, \"occupancy\": {",
            rt.name.c_str(), rt.tiles,
            static_cast<long long>(rt.cycles), rt.speedup);
        out << buf;
        for (int c = 0; c < raw::kNumProcCycleCats; c++)
            out << (c ? ", " : "") << "\""
                << raw::proc_cycle_name(static_cast<raw::ProcCycle>(c))
                << "\": " << rt.occupancy[c];
        std::snprintf(buf, sizeof(buf),
                      "}, \"compile_ms\": %.1f, \"sim_ms\": %.1f}%s\n",
                      rt.compile.total_ms, rt.sim_ms,
                      i + 1 < runs.size() ? "," : "");
        out << buf;
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_out = "BENCH_wallclock.json";
    int jobs = 1;
    bool tiny = false;
    bool scaling = false;
    BackendMode mode;
    const char *tool = "bench_wallclock";
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--json-out") == 0)
            json_out = raw::cli::next_value(tool, argc, argv, i);
        else if (std::strcmp(argv[i], "--jobs") == 0)
            jobs = raw::resolve_jobs(static_cast<int>(
                raw::cli::parse_long_in(
                    tool, raw::cli::next_value(tool, argc, argv, i),
                    "--jobs", 0, 4096, "a worker count in 0..4096")));
        else if (std::strcmp(argv[i], "--sim-backend") == 0) {
            std::string b = raw::cli::next_value(tool, argc, argv, i);
            mode.both = b == "both";
            try {
                mode.primary = mode.both
                                   ? raw::SimBackend::kReference
                                   : raw::sim_backend_from_string(b);
            } catch (const raw::FatalError &) {
                raw::cli::bad_value(tool, "--sim-backend", argv[i],
                                    "reference, fast or both");
            }
        } else if (std::strcmp(argv[i], "--tiny") == 0)
            tiny = true;
        else if (std::strcmp(argv[i], "--scaling") == 0)
            scaling = true;
        else
            raw::cli::unknown_option(tool, argv[i]);
    }
    raw::cli::require_writable(tool, json_out);

    std::vector<std::pair<const raw::BenchmarkProgram *, int>> points;
    if (tiny) {
        points.emplace_back(&raw::benchmark("jacobi"), 4);
    } else {
        for (const raw::BenchmarkProgram &prog :
             raw::benchmark_suite())
            for (int n : kSizes)
                points.emplace_back(&prog, n);
    }

    // Baselines are filled before the clock starts, so sweep_wall_ms
    // times only the RAWCC compiles and simulations.
    for (const auto &pt : points)
        raw::cached_baseline(*pt.first);

    std::vector<RunTiming> runs(points.size());
    Clock::time_point t0 = Clock::now();
    raw::run_parallel(static_cast<int>(points.size()), jobs,
                      [&](int i) {
                          runs[i] = time_one(*points[i].first,
                                             points[i].second, mode);
                      });
    double wall_ms = ms_since(t0);

    std::printf("%zu runs in %.1f ms (jobs=%d)\n", runs.size(),
                wall_ms, jobs);
    for (const RunTiming &rt : runs)
        std::printf(
            "  %-14s n=%-3d compile %8.1f ms  sim %8.1f ms  "
            "(%lld cycles)\n",
            rt.name.c_str(), rt.tiles, rt.compile.total_ms, rt.sim_ms,
            static_cast<long long>(rt.cycles));
    if (!tiny)
        print_table3(runs);

    std::vector<ScalePoint> scale;
    if (scaling) {
        scale = run_scaling(tiny);
        print_monotonicity(scale);
    }
    write_json(json_out, runs, jobs, wall_ms, scale, mode);
    return 0;
}
