/**
 * @file
 * Scheduler-quality ablation (Section 4.2 + the schedule-quality
 * optimizer): the full cross product of
 *
 *   priority  in {ready-FIFO, level+fertility, slack-iterated}
 *   placement in {static, profile-guided (--pgo)}
 *
 * over every built-in benchmark at 16 and 32 tiles.  Prints a cycles
 * table and writes BENCH_schedquality.json with per-benchmark cycles,
 * per-configuration geomeans and the scheduler's per-block makespan
 * estimate sums (model-vs-measured diagnostics).
 *
 * --smoke runs a tiny subset (2 benchmarks, 4 tiles) and exits
 * nonzero if the all-on configuration's geomean exceeds the all-off
 * (seed) geomean — wired into ctest under the sched-quality label,
 * this pins the best-of-N "never worse" property end to end.
 *
 * Flags: --json-out FILE, --jobs N, --smoke.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "harness/cli.hpp"
#include "harness/harness.hpp"
#include "harness/parallel.hpp"

namespace {

using namespace raw;

/** One point of the ablation cross product. */
struct SchedConfig
{
    const char *name;
    bool fifo;
    int iters;
    bool pgo;
};

const SchedConfig kConfigs[] = {
    {"fifo", true, 0, false},
    {"fifo/pgo", true, 0, true},
    {"prio", false, 0, false}, // the seed configuration
    {"prio/pgo", false, 0, true},
    {"slack", false, 3, false},
    {"slack/pgo", false, 3, true},
};
constexpr int kNumConfigs =
    static_cast<int>(std::size(kConfigs));

/** Index of the seed (everything off) configuration above. */
constexpr int kSeedConfig = 2;
/** Index of the everything-on configuration. */
constexpr int kFullConfig = kNumConfigs - 1;

CompilerOptions
options_of(const SchedConfig &c)
{
    CompilerOptions opts;
    opts.orch.sched.fifo_priority = c.fifo;
    opts.orch.sched.sched_iters = c.iters;
    return opts;
}

/** cycles[b][s][c] and est[b][s][c] for benchmark/size/config. */
struct Measurements
{
    std::vector<std::string> benches;
    std::vector<int> sizes;
    std::vector<std::vector<std::vector<int64_t>>> cycles;
    std::vector<std::vector<std::vector<int64_t>>> est;
};

Measurements
measure(const std::vector<BenchmarkProgram> &progs,
        const std::vector<int> &sizes, int jobs)
{
    Measurements m;
    for (const BenchmarkProgram &p : progs)
        m.benches.push_back(p.name);
    m.sizes = sizes;
    const int nb = static_cast<int>(progs.size());
    const int ns = static_cast<int>(sizes.size());
    m.cycles.assign(
        nb, std::vector<std::vector<int64_t>>(
                ns, std::vector<int64_t>(kNumConfigs, 0)));
    m.est = m.cycles;

    // One job per (benchmark, size, config); each writes its own
    // slot, so the table is identical at any --jobs value.
    run_parallel(nb * ns * kNumConfigs, jobs, [&](int idx) {
        const int b = idx / (ns * kNumConfigs);
        const int s = (idx / kNumConfigs) % ns;
        const int c = idx % kNumConfigs;
        const SchedConfig &cfg = kConfigs[c];
        const BenchmarkProgram &prog = progs[b];
        MachineConfig machine = MachineConfig::base(sizes[s]);
        CompilerOptions opts = options_of(cfg);
        RunResult r =
            cfg.pgo ? run_rawcc_pgo(prog.source, machine,
                                    prog.check_array, opts)
                    : run_rawcc(prog.source, machine,
                                prog.check_array, opts);
        m.cycles[b][s][c] = r.cycles;
        m.est[b][s][c] = r.stats.estimated_makespan();
    });
    return m;
}

// ---------------------------------------------------------------
// Modulo-scheduling section (--modulo): the loop-dominated points,
// base vs pipelined cycles plus per-loop achieved II vs MII.

/** Per-source-loop II summary aggregated over the loop's blocks. */
struct LoopIISummary
{
    int loop = -1;
    int blocks = 0;
    int pipelined = 0;
    int64_t ii = 0;  // worst (max) achieved steady-state II
    int64_t mii = 0; // worst (max) lower bound
};

struct ModuloPoint
{
    std::string bench;
    int tiles = 0;
    int64_t cycles_base = 0;
    int64_t cycles_modulo = 0;
    std::vector<LoopIISummary> loops;
};

const char *kLoopBenches[] = {"vpenta", "tomcatv", "life"};

std::vector<ModuloPoint>
measure_modulo(const std::vector<int> &sizes, int jobs)
{
    const int nb = static_cast<int>(std::size(kLoopBenches));
    const int ns = static_cast<int>(sizes.size());
    std::vector<ModuloPoint> pts(nb * ns);
    run_parallel(nb * ns, jobs, [&](int idx) {
        const BenchmarkProgram &prog =
            benchmark(kLoopBenches[idx / ns]);
        const int tiles = sizes[idx % ns];
        MachineConfig machine = MachineConfig::base(tiles);
        ModuloPoint &pt = pts[idx];
        pt.bench = prog.name;
        pt.tiles = tiles;
        pt.cycles_base = run_rawcc(prog.source, machine,
                                   prog.check_array)
                             .cycles;
        CompilerOptions mod;
        mod.orch.sched.modulo = true;
        RunResult r =
            run_rawcc(prog.source, machine, prog.check_array, mod);
        pt.cycles_modulo = r.cycles;
        // Aggregate achieved II vs MII per source loop (worst block
        // of each loop; chunks of a split body count toward their
        // loop).  Blocks outside any for statement land on loop -1.
        std::vector<LoopIISummary> &ls = pt.loops;
        for (const BlockPipelineStats &p :
             r.stats.block_pipeline) {
            LoopIISummary *row = nullptr;
            for (LoopIISummary &l : ls)
                if (l.loop == p.src_loop)
                    row = &l;
            if (!row) {
                ls.push_back({p.src_loop, 0, 0, 0, 0});
                row = &ls.back();
            }
            row->blocks++;
            row->pipelined += p.pipelined ? 1 : 0;
            row->ii = std::max(row->ii, p.ii);
            row->mii = std::max(row->mii, p.mii);
        }
        std::sort(ls.begin(), ls.end(),
                  [](const LoopIISummary &a, const LoopIISummary &b) {
                      return a.loop < b.loop;
                  });
    });
    return pts;
}

double
modulo_geomean(const std::vector<ModuloPoint> &pts, int tiles,
               bool modulo)
{
    double log_sum = 0;
    int n = 0;
    for (const ModuloPoint &p : pts) {
        if (p.tiles != tiles)
            continue;
        int64_t c = modulo ? p.cycles_modulo : p.cycles_base;
        log_sum += std::log(
            static_cast<double>(std::max<int64_t>(1, c)));
        n++;
    }
    return n ? std::exp(log_sum / n) : 0.0;
}

void
print_modulo(const std::vector<ModuloPoint> &pts,
             const std::vector<int> &sizes)
{
    std::printf("\n== modulo scheduling (--modulo): loop-dominated "
                "points ==\n");
    std::printf("%-14s %6s %12s %12s %8s\n", "Benchmark", "tiles",
                "base", "modulo", "delta");
    for (const ModuloPoint &p : pts)
        std::printf("%-14s %6d %12lld %12lld %+7.2f%%\n",
                    p.bench.c_str(), p.tiles,
                    static_cast<long long>(p.cycles_base),
                    static_cast<long long>(p.cycles_modulo),
                    100.0 *
                        static_cast<double>(p.cycles_modulo -
                                            p.cycles_base) /
                        static_cast<double>(
                            std::max<int64_t>(1, p.cycles_base)));
    for (int t : sizes) {
        double base = modulo_geomean(pts, t, false);
        double mod = modulo_geomean(pts, t, true);
        std::printf("%d tiles: geomean base %.1f -> modulo %.1f "
                    "(%+.2f%%)\n",
                    t, base, mod, 100.0 * (mod - base) / base);
    }
}

double
geomean(const Measurements &m, int s, int c)
{
    // Clamp each term to >= 1 cycle and guard the empty set so a
    // degenerate run can never write inf/nan into the JSON.
    if (m.benches.empty())
        return 0.0;
    double log_sum = 0;
    for (size_t b = 0; b < m.benches.size(); b++)
        log_sum += std::log(static_cast<double>(
            std::max<int64_t>(1, m.cycles[b][s][c])));
    return std::exp(log_sum /
                    static_cast<double>(m.benches.size()));
}

void
print_table(const Measurements &m)
{
    for (size_t s = 0; s < m.sizes.size(); s++) {
        std::printf("\n== %d tiles: simulated cycles ==\n",
                    m.sizes[s]);
        std::printf("%-14s", "Benchmark");
        for (const SchedConfig &c : kConfigs)
            std::printf(" %15s", c.name);
        std::printf("\n");
        for (size_t b = 0; b < m.benches.size(); b++) {
            std::printf("%-14s", m.benches[b].c_str());
            for (int c = 0; c < kNumConfigs; c++)
                std::printf(" %15lld",
                            static_cast<long long>(
                                m.cycles[b][s][c]));
            std::printf("\n");
        }
        std::printf("%-14s", "geomean");
        for (int c = 0; c < kNumConfigs; c++)
            std::printf(" %15.0f", geomean(m, s, c));
        std::printf("\n");
    }
}

void
write_json(const std::string &path, const Measurements &m,
           const std::vector<ModuloPoint> &mod)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     path.c_str());
        std::exit(1);
    }
    out << "{\n  \"table\": \"schedquality_ablation\",\n";
    out << "  \"configs\": [";
    for (int c = 0; c < kNumConfigs; c++)
        out << (c ? ", " : "") << "\"" << kConfigs[c].name << "\"";
    out << "],\n  \"seed_config\": \"" << kConfigs[kSeedConfig].name
        << "\",\n  \"sizes\": [";
    for (size_t s = 0; s < m.sizes.size(); s++)
        out << (s ? ", " : "") << m.sizes[s];
    out << "],\n  \"benchmarks\": [\n";
    for (size_t b = 0; b < m.benches.size(); b++) {
        out << "    {\"name\": \"" << m.benches[b] << "\",\n"
            << "     \"results\": [\n";
        for (size_t s = 0; s < m.sizes.size(); s++) {
            out << "       {\"tiles\": " << m.sizes[s]
                << ", \"cycles\": [";
            for (int c = 0; c < kNumConfigs; c++)
                out << (c ? ", " : "") << m.cycles[b][s][c];
            out << "], \"est_makespan\": [";
            for (int c = 0; c < kNumConfigs; c++)
                out << (c ? ", " : "") << m.est[b][s][c];
            out << "]}"
                << (s + 1 < m.sizes.size() ? "," : "") << "\n";
        }
        out << "     ]}"
            << (b + 1 < m.benches.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"geomean\": [\n";
    for (size_t s = 0; s < m.sizes.size(); s++) {
        out << "    {\"tiles\": " << m.sizes[s] << ", \"cycles\": [";
        for (int c = 0; c < kNumConfigs; c++) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.1f",
                          geomean(m, s, c));
            out << (c ? ", " : "") << buf;
        }
        out << "]}" << (s + 1 < m.sizes.size() ? "," : "") << "\n";
    }
    out << "  ],\n";

    // Modulo-scheduling section: loop-dominated points, base vs
    // pipelined cycles and per-loop achieved II vs MII.
    out << "  \"modulo\": {\n    \"benchmarks\": [\n";
    for (size_t i = 0; i < mod.size(); i++) {
        const ModuloPoint &p = mod[i];
        out << "      {\"name\": \"" << p.bench
            << "\", \"tiles\": " << p.tiles
            << ", \"cycles_base\": " << p.cycles_base
            << ", \"cycles_modulo\": " << p.cycles_modulo
            << ",\n       \"loops\": [";
        for (size_t l = 0; l < p.loops.size(); l++) {
            const LoopIISummary &ls = p.loops[l];
            out << (l ? ", " : "") << "{\"loop\": " << ls.loop
                << ", \"blocks\": " << ls.blocks
                << ", \"pipelined\": " << ls.pipelined
                << ", \"ii\": " << ls.ii << ", \"mii\": " << ls.mii
                << "}";
        }
        out << "]}" << (i + 1 < mod.size() ? "," : "") << "\n";
    }
    out << "    ],\n    \"geomean\": [\n";
    std::vector<int> tiles_seen;
    for (const ModuloPoint &p : mod)
        if (std::find(tiles_seen.begin(), tiles_seen.end(),
                      p.tiles) == tiles_seen.end())
            tiles_seen.push_back(p.tiles);
    for (size_t s = 0; s < tiles_seen.size(); s++) {
        double base = modulo_geomean(mod, tiles_seen[s], false);
        double pip = modulo_geomean(mod, tiles_seen[s], true);
        char b1[32], b2[32], b3[32];
        std::snprintf(b1, sizeof(b1), "%.1f", base);
        std::snprintf(b2, sizeof(b2), "%.1f", pip);
        std::snprintf(b3, sizeof(b3), "%.4f",
                      base > 0 ? 100.0 * (pip - base) / base : 0.0);
        out << "      {\"tiles\": " << tiles_seen[s]
            << ", \"base\": " << b1 << ", \"modulo\": " << b2
            << ", \"delta_pct\": " << b3 << "}"
            << (s + 1 < tiles_seen.size() ? "," : "") << "\n";
    }
    out << "    ]\n  }\n}\n";
    std::printf("wrote %s\n", path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string json_out = "BENCH_schedquality.json";
    int jobs = 0;
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--json-out") == 0 &&
                 i + 1 < argc)
            json_out = argv[++i];
        else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc)
            jobs = static_cast<int>(raw::cli::parse_long_in(
                "bench_ablation", argv[++i], "--jobs", 0, 1024,
                "a worker count in [0, 1024]"));
    }
    jobs = resolve_jobs(jobs);

    std::vector<BenchmarkProgram> progs;
    std::vector<int> sizes;
    if (smoke) {
        progs = {benchmark("jacobi"), benchmark("fpppp-kernel")};
        sizes = {4};
    } else {
        progs = benchmark_suite();
        sizes = {16, 32};
    }

    Measurements m = measure(progs, sizes, jobs);
    print_table(m);

    // Modulo scheduling, measured on the loop-dominated benchmarks.
    std::vector<ModuloPoint> mod = measure_modulo(sizes, jobs);
    print_modulo(mod, sizes);
    write_json(json_out, m, mod);

    // The best-of-N construction means turning every mechanism on
    // must never lose cycles versus the seed configuration.
    bool ok = true;
    for (size_t s = 0; s < m.sizes.size(); s++) {
        double seed = geomean(m, static_cast<int>(s), kSeedConfig);
        double full = geomean(m, static_cast<int>(s), kFullConfig);
        std::printf("%d tiles: geomean seed %.1f -> optimized %.1f "
                    "(%+.2f%%)\n",
                    m.sizes[s], seed, full,
                    100.0 * (full - seed) / seed);
        if (full > seed) {
            std::printf("FAIL: optimized geomean exceeds seed at "
                        "%d tiles\n",
                        m.sizes[s]);
            ok = false;
        }
    }
    return ok ? 0 : 1;
}
