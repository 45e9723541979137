/**
 * @file
 * Fault-injection campaign bench: sweep benchmarks × seeds × fault
 * channels through run_fault_campaign and require every point to
 * reproduce the clean reference (the static-ordering property under
 * adversarial timing).  Writes BENCH_faults.json (override with
 * --json-out) aggregating one campaign report per (bench, seed).
 *
 * Flags: --smoke runs the tiny CI configuration — 2 benchmarks ×
 * 3 seeds × 6 points each at 4 tiles, covering every channel (ctest
 * label fault-smoke); --scaling runs the large-mesh campaign — a
 * single 160-point sweep (10x the default) at 64 tiles on jacobi,
 * the fault-tolerance companion to the bench_wallclock scaling
 * study; --bench NAME restricts the full sweep to one benchmark;
 * --points N / --seed S / --tiles N / --jobs N tune the full sweep.
 * A flag the chosen mode would ignore is refused with exit 2:
 * --bench and --points under --smoke or --scaling, --seed under
 * --smoke (seeds 1-3) and --tiles under --scaling (64 tiles).
 *
 * Exit status is nonzero if any campaign point failed, so the smoke
 * run doubles as a correctness gate.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "harness/campaign.hpp"
#include "harness/cli.hpp"
#include "harness/parallel.hpp"
#include "programs/programs.hpp"
#include "support/error.hpp"

namespace {

struct SweepSpec
{
    std::string bench;
    uint64_t seed = 0;
    int points = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    std::string json_out = "BENCH_faults.json";
    std::string only_bench;
    bool smoke = false;
    bool scaling = false;
    int tiles = 4;
    int points = 16;
    int jobs = 0;
    uint64_t seed = 1;
    // Flags a fixed sweep would ignore, as given (null if absent).
    const char *points_arg = nullptr;
    const char *seed_arg = nullptr;
    const char *tiles_arg = nullptr;
    const char *tool = "bench_faults";
    for (int i = 1; i < argc; i++) {
        auto value = [&] {
            return raw::cli::next_value(tool, argc, argv, i);
        };
        if (std::strcmp(argv[i], "--json-out") == 0)
            json_out = value();
        else if (std::strcmp(argv[i], "--bench") == 0)
            only_bench = value();
        else if (std::strcmp(argv[i], "--points") == 0)
            points = static_cast<int>(raw::cli::parse_long_in(
                tool, points_arg = value(), "--points", 1, 4096,
                "a point count in [1, 4096]"));
        else if (std::strcmp(argv[i], "--tiles") == 0)
            tiles = static_cast<int>(raw::cli::parse_tiles(
                tool, tiles_arg = value(), "--tiles"));
        else if (std::strcmp(argv[i], "--jobs") == 0)
            jobs = static_cast<int>(raw::cli::parse_long_in(
                tool, value(), "--jobs", 0, 1024,
                "a worker count in [0, 1024]"));
        else if (std::strcmp(argv[i], "--seed") == 0)
            seed = raw::cli::parse_u64(tool, seed_arg = value(),
                                       "--seed");
        else if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--scaling") == 0)
            scaling = true;
        else
            raw::cli::unknown_option(tool, argv[i]);
    }
    if (!only_bench.empty() && (smoke || scaling))
        raw::cli::bad_value(tool, "--bench", only_bench.c_str(),
                            "a full sweep (--smoke and --scaling fix "
                            "their own benchmarks)");
    if (points_arg && (smoke || scaling))
        raw::cli::bad_value(tool, "--points", points_arg,
                            "a full sweep (--smoke and --scaling fix "
                            "their own point counts)");
    if (seed_arg && smoke)
        raw::cli::bad_value(tool, "--seed", seed_arg,
                            "a full or --scaling sweep (--smoke runs "
                            "seeds 1-3)");
    if (tiles_arg && scaling)
        raw::cli::bad_value(tool, "--tiles", tiles_arg,
                            "a full or --smoke sweep (--scaling runs at "
                            "64 tiles)");
    if (!only_bench.empty()) {
        try {
            raw::benchmark(only_bench);
        } catch (const raw::FatalError &) {
            raw::cli::bad_value(tool, "--bench", only_bench.c_str(),
                                "a built-in benchmark name");
        }
    }
    raw::cli::require_writable(tool, json_out);

    std::vector<SweepSpec> sweeps;
    if (scaling) {
        // Large-mesh campaign: one benchmark, 10x the default point
        // count, on the 64-tile mesh from the scaling study.  Every
        // point must still reproduce the clean reference exactly.
        tiles = 64;
        sweeps.push_back({"jacobi", seed, 160});
    } else if (smoke) {
        // 2 benchmarks × 3 seeds × 6 points: point indices 1..5 cover
        // every channel {miss, route, dyn, jitter, all} once.
        for (const char *b : {"jacobi", "cholesky"})
            for (uint64_t s : {1, 2, 3})
                sweeps.push_back({b, s, 6});
    } else if (!only_bench.empty()) {
        sweeps.push_back({only_bench, seed, points});
    } else {
        for (const raw::BenchmarkProgram &prog :
             raw::benchmark_suite())
            sweeps.push_back({prog.name, seed, points});
    }

    std::vector<raw::CampaignReport> reports;
    int failed = 0;
    for (const SweepSpec &sw : sweeps) {
        raw::CampaignReport rep = raw::run_fault_campaign(
            sw.bench, raw::MachineConfig::base(tiles), sw.points,
            sw.seed, jobs);
        std::printf("%s\n", rep.summary().c_str());
        failed += rep.failed_points();
        reports.push_back(std::move(rep));
    }

    std::ofstream out(json_out);
    if (!out) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     json_out.c_str());
        return 1;
    }
    out << "{\n  \"table\": \"faults\",\n";
    out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
    out << "  \"scaling\": " << (scaling ? "true" : "false") << ",\n";
    out << "  \"tiles\": " << tiles << ",\n";
    out << "  \"failed_points\": " << failed << ",\n";
    out << "  \"campaigns\": [\n";
    for (size_t i = 0; i < reports.size(); i++) {
        // to_json() emits a complete object; indent it under the
        // aggregate array.
        std::string js = reports[i].to_json();
        std::string indented = "    ";
        for (size_t j = 0; j < js.size(); j++) {
            char c = js[j];
            if (c == '\n' && j + 1 < js.size())
                indented += "\n    ";
            else if (c != '\n')
                indented += c;
        }
        out << indented << (i + 1 < reports.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", json_out.c_str());

    if (failed > 0) {
        std::fprintf(stderr,
                     "fault campaign FAILED: %d point(s) diverged\n",
                     failed);
        return 1;
    }
    return 0;
}
