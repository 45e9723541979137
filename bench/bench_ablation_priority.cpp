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
 * the pgo_candidates() index each --pgo race kept (0 for the plain
 * candidate and the configurations without --pgo), per-configuration
 * geomeans and the scheduler's per-block makespan estimate sums
 * (model-vs-measured diagnostics).
 *
 * --smoke runs a tiny subset (2 benchmarks, 4 tiles) and exits
 * nonzero if the all-on configuration's geomean exceeds the all-off
 * (seed) geomean — wired into ctest under the sched-quality label,
 * this pins the best-of-N "never worse" property end to end.
 *
 * Flags: --json-out FILE, --jobs N, --smoke; any other argument is
 * refused with exit 2.
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
    opts.pgo = c.pgo;
    return opts;
}

/** cycles, est and winner [b][s][c] for benchmark/size/config. */
struct Measurements
{
    std::vector<std::string> benches;
    std::vector<int> sizes;
    std::vector<std::vector<std::vector<int64_t>>> cycles;
    std::vector<std::vector<std::vector<int64_t>>> est;
    std::vector<std::vector<std::vector<int64_t>>> winner;
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
    m.winner = m.cycles;

    // One job per (benchmark, size, config); each writes its own
    // slot, so the table is identical at any --jobs value.
    run_parallel(nb * ns * kNumConfigs, jobs, [&](int idx) {
        const int b = idx / (ns * kNumConfigs);
        const int s = (idx / kNumConfigs) % ns;
        const int c = idx % kNumConfigs;
        const SchedConfig &cfg = kConfigs[c];
        const BenchmarkProgram &prog = progs[b];
        MachineConfig machine = MachineConfig::base(sizes[s]);
        RunResult r = run_rawcc(prog.source, machine,
                                prog.check_array, options_of(cfg));
        m.cycles[b][s][c] = r.cycles;
        m.est[b][s][c] = r.stats.estimated_makespan();
        m.winner[b][s][c] = r.stats.pgo_winner;
    });
    return m;
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
write_json(const std::string &path, const Measurements &m)
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
            auto row = [&](const char *key, const auto &v) {
                out << ", \"" << key << "\": [";
                for (int c = 0; c < kNumConfigs; c++)
                    out << (c ? ", " : "") << v[b][s][c];
                out << "]";
            };
            out << "       {\"tiles\": " << m.sizes[s];
            row("cycles", m.cycles);
            row("pgo_winner", m.winner);
            row("est_makespan", m.est);
            out << "}"
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
    out << "  ]\n}\n";
    std::printf("wrote %s\n", path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string json_out = "BENCH_schedquality.json";
    int jobs = 0;
    const char *tool = "bench_ablation_priority";
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--json-out") == 0)
            json_out = cli::next_value(tool, argc, argv, i);
        else if (std::strcmp(argv[i], "--jobs") == 0)
            jobs = static_cast<int>(cli::parse_long_in(
                tool, cli::next_value(tool, argc, argv, i), "--jobs",
                0, 1024, "a worker count in [0, 1024]"));
        else
            cli::unknown_option(tool, argv[i]);
    }
    cli::require_writable(tool, json_out);
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
    write_json(json_out, m);

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
