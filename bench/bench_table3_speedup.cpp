/**
 * @file
 * Table 3 reproduction: benchmark speedup of RAWCC-compiled code
 * versus the sequential baseline ("Machsuif Mips compiler"), for
 * N = 1, 2, 4, 8, 16, 32 tiles.
 *
 * Prints the paper-format table and writes a machine-readable
 * BENCH_table3.json (override the path with --json-out) with cycles,
 * speedup and the profiled occupancy breakdown per benchmark and
 * machine size — the seed of the perf trajectory (see
 * docs/profiling.md).  With --gbench it additionally runs
 * google-benchmark timings of the compile+simulate pipeline.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "harness/cli.hpp"
#include "harness/harness.hpp"
#include "harness/parallel.hpp"
#include "sim/profile.hpp"

namespace {

const int kSizes[] = {1, 2, 4, 8, 16, 32};

// Paper values for side-by-side comparison (Table 3).
const std::map<std::string, std::array<double, 6>> kPaper = {
    {"life", {0.91, 1.2, 1.6, 1.8, 1.9, 0}},
    {"vpenta", {0.92, 1.2, 1.8, 2.2, 2.6, 3.0}},
    {"cholesky", {0.90, 1.3, 2.1, 3.3, 5.3, 0}},
    {"tomcatv", {0.97, 1.7, 2.7, 3.8, 5.6, 7.8}},
    {"fpppp-kernel", {0.51, 0.92, 1.9, 4.0, 8.1, 13.7}},
    {"mxm", {0.92, 1.8, 3.3, 6.3, 10.2, 0}},
    {"jacobi", {0.97, 1.6, 3.4, 5.6, 15, 22}},
};

/** One (benchmark, machine size) measurement. */
struct SizeResult
{
    int tiles = 0;
    int64_t cycles = 0;
    double speedup = 0;
    /** Proc cycle-category totals summed over tiles. */
    std::array<int64_t, raw::kNumProcCycleCats> occupancy{};
};

struct BenchResult
{
    std::string name;
    int64_t baseline_cycles = 0;
    std::vector<SizeResult> sizes;
};

std::vector<BenchResult>
measure(int jobs)
{
    const std::vector<raw::BenchmarkProgram> &suite =
        raw::benchmark_suite();
    const int n_benches = static_cast<int>(suite.size());
    const int n_sizes = static_cast<int>(std::size(kSizes));
    std::vector<BenchResult> out(n_benches);
    for (int b = 0; b < n_benches; b++) {
        out[b].name = suite[b].name;
        out[b].sizes.resize(n_sizes);
    }

    // Fan (benchmark × machine size) over the worker pool; every job
    // writes only its own slot, so the table is identical at any
    // --jobs value.  The baseline is compiled and simulated once per
    // benchmark (cached_baseline), not once per machine size.
    raw::run_parallel(n_benches * n_sizes, jobs, [&](int idx) {
        const raw::BenchmarkProgram &prog = suite[idx / n_sizes];
        const int n = kSizes[idx % n_sizes];
        const raw::RunResult &base = raw::cached_baseline(prog);
        out[idx / n_sizes].baseline_cycles = base.cycles;
        raw::RunResult par = raw::run_rawcc(
            prog.source, raw::MachineConfig::base(n),
            prog.check_array);
        SizeResult sr;
        sr.tiles = n;
        sr.cycles = par.cycles;
        // Guard the ratio so a degenerate zero-cycle run can never
        // write inf/nan into the committed JSON.
        sr.speedup = par.cycles > 0
                         ? static_cast<double>(base.cycles) /
                               static_cast<double>(par.cycles)
                         : 0.0;
        for (const raw::TileProfile &tp : par.sim.profile.tiles)
            for (int c = 0; c < raw::kNumProcCycleCats; c++)
                sr.occupancy[c] += tp.proc_cycles[c];
        out[idx / n_sizes].sizes[idx % n_sizes] = sr;
    });

    for (const BenchResult &br : out) {
        std::printf("%-14s", br.name.c_str());
        for (const SizeResult &sr : br.sizes)
            std::printf("  %-9.2f", sr.speedup);
        std::printf("   (seq RT %lld cycles)\n",
                    static_cast<long long>(br.baseline_cycles));
        auto it = kPaper.find(br.name);
        if (it != kPaper.end()) {
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
    return out;
}

void
write_json(const std::string &path,
           const std::vector<BenchResult> &results)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     path.c_str());
        std::exit(1);
    }
    out << "{\n  \"table\": \"table3_speedup\",\n  \"sizes\": [";
    for (size_t i = 0; i < std::size(kSizes); i++)
        out << (i ? ", " : "") << kSizes[i];
    out << "],\n  \"benchmarks\": [\n";
    for (size_t b = 0; b < results.size(); b++) {
        const BenchResult &br = results[b];
        out << "    {\n      \"name\": \"" << br.name << "\",\n"
            << "      \"baseline_cycles\": " << br.baseline_cycles
            << ",\n      \"results\": [\n";
        for (size_t s = 0; s < br.sizes.size(); s++) {
            const SizeResult &sr = br.sizes[s];
            char speedup[32];
            std::snprintf(speedup, sizeof(speedup), "%.4f",
                          sr.speedup);
            out << "        {\"tiles\": " << sr.tiles
                << ", \"cycles\": " << sr.cycles
                << ", \"speedup\": " << speedup
                << ", \"occupancy\": {";
            for (int c = 0; c < raw::kNumProcCycleCats; c++)
                out << (c ? ", " : "") << "\""
                    << raw::proc_cycle_name(
                           static_cast<raw::ProcCycle>(c))
                    << "\": " << sr.occupancy[c];
            out << "}}" << (s + 1 < br.sizes.size() ? "," : "")
                << "\n";
        }
        out << "      ]\n    }"
            << (b + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", path.c_str());
}

void
bm_compile_and_run(benchmark::State &state, const std::string &name,
                   int n)
{
    const raw::BenchmarkProgram &prog = raw::benchmark(name);
    for (auto _ : state) {
        raw::RunResult r = raw::run_rawcc(
            prog.source, raw::MachineConfig::base(n),
            prog.check_array);
        state.counters["cycles"] =
            static_cast<double>(r.cycles);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bool gbench = false;
    std::string json_out = "BENCH_table3.json";
    int jobs = 1;
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--gbench") == 0)
            gbench = true;
        else if (std::strcmp(argv[i], "--json-out") == 0 &&
                 i + 1 < argc)
            json_out = argv[++i];
        else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc)
            jobs = raw::resolve_jobs(static_cast<int>(
                raw::cli::parse_long_in("bench_table3", argv[++i],
                                        "--jobs", 0, 1024,
                                        "a worker count in [0, 1024]")));
    }

    std::printf("Table 3: Benchmark Speedup (RAWCC vs. sequential "
                "baseline)\n");
    std::printf("%-14s", "Benchmark");
    for (int n : kSizes)
        std::printf("  N=%-7d", n);
    std::printf("\n");
    std::vector<BenchResult> results = measure(jobs);
    write_json(json_out, results);
    if (!gbench)
        return 0;

    for (const raw::BenchmarkProgram &prog : raw::benchmark_suite())
        for (int n : {1, 8, 32})
            benchmark::RegisterBenchmark(
                (prog.name + "/n" + std::to_string(n)).c_str(),
                [name = prog.name, n](benchmark::State &st) {
                    bm_compile_and_run(st, name, n);
                })
                ->Unit(benchmark::kMillisecond)
                ->Iterations(1);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
