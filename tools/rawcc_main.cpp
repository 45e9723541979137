/**
 * @file
 * rawcc — command-line driver for the Raw compiler and simulator.
 *
 * Usage:
 *   rawcc [options] <file.rawc | benchmark-name>
 *
 * Options:
 *   --tiles N          machine size (default 4)
 *   --config C         base | inf-reg | 1-cycle      (default base)
 *   --baseline         compile sequentially instead of with RAWCC
 *   --dump-ir          print the IR after renaming
 *   --disasm           print the per-tile / per-switch streams
 *   --stats            print compile statistics (incl. stage timings)
 *   --no-run           compile only
 *   --speedup          also run the sequential baseline and report
 *   --profile          print the per-tile cycle-attribution table
 *   --trace-out F      write a Chrome trace-event JSON to F
 *   --miss-rate R      inject cache misses with probability R (0..1)
 *   --miss-penalty P   extra cycles per miss (default 20)
 *   --seed S           fault-injection seed
 *   --route-stall-rate R    hold a retiring switch with prob. R
 *   --route-stall-cycles P  extra switch occupancy per hold
 *   --dyn-delay-rate R      delay a dynamic message with prob. R
 *   --dyn-delay-cycles P    extra cycles per delayed message
 *   --jitter-rate R         a tile loses its cycle with prob. R
 *   --check            enable runtime self-checks (provenance + FIFO
 *                      bounds); failures are reported and exit 1
 *   --fault-campaign N sweep N fault points (seeds x channels x
 *                      intensities) and verify bit-identical results
 *   --campaign-out F   campaign JSON report path
 *   --point-timeout MS wall-clock budget per simulated run or
 *                      campaign point; a run over budget fails with
 *                      a structured timeout error, a campaign point
 *                      reports a "timeout" outcome instead of
 *                      stalling the sweep
 *   --jobs N           worker threads (0 = all cores): campaign
 *                      points, and per-block compile phases
 *   --no-unroll        disable affine staticization (ablation)
 *   --no-replication   broadcast every branch (ablation)
 *   --no-port-fold     keep explicit send/receive instructions
 *   --sched-iters N    slack-driven rescheduling passes (default 0)
 *   --sim-backend B    execution core: fast (default; the threaded
 *                      core) | reference (the specification core);
 *                      a deadlock report always carries the reference
 *                      core's exact cycle
 *   --sim-diff         run the reference and fast (threaded) cores,
 *                      require identical results
 *   --pgo              profile-guided portfolio (compile and simulate
 *                      six equivalent variants, keep the fastest)
 *   --list-benchmarks  list the built-in Table 2 programs
 *
 * The input is a rawc source file, or the name of a built-in
 * benchmark (life, vpenta, cholesky, tomcatv, fpppp-kernel, mxm,
 * jacobi).
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "harness/campaign.hpp"
#include "harness/cli.hpp"
#include "harness/harness.hpp"
#include "harness/parallel.hpp"
#include "ir/printer.hpp"
#include "serve/server.hpp"
#include "sim/disasm.hpp"
#include "sim/profile.hpp"

namespace {

void
usage()
{
    std::fprintf(
        stderr,
        "usage: rawcc [options] <file.rawc | benchmark>\n"
        "  --tiles N --config base|inf-reg|1-cycle --baseline\n"
        "  --dump-ir --disasm --stats --no-run --speedup\n"
        "  --profile --trace-out FILE\n"
        "  --miss-rate R --miss-penalty P --seed S\n"
        "  --route-stall-rate R --route-stall-cycles P\n"
        "  --dyn-delay-rate R --dyn-delay-cycles P --jitter-rate R\n"
        "  --check --fault-campaign N --campaign-out FILE\n"
        "  --point-timeout MS --jobs N\n"
        "  --no-unroll --no-replication --no-port-fold\n"
        "  --sched-iters N --pgo\n"
        "  --sim-backend reference|fast --sim-diff\n"
        "  --list-benchmarks\n");
}

[[noreturn]] void
bad_value(const char *flag, const char *got, const char *want)
{
    raw::cli::bad_value("rawcc", flag, got, want);
}

long
parse_long(const char *s, const char *flag)
{
    return raw::cli::parse_long("rawcc", s, flag);
}

unsigned long long
parse_u64(const char *s, const char *flag)
{
    return raw::cli::parse_u64("rawcc", s, flag);
}

double
parse_double(const char *s, const char *flag)
{
    return raw::cli::parse_double("rawcc", s, flag);
}

/** Compile-throughput report: stage and orchestrate-phase timings. */
void
print_compile_timing(const raw::CompileStats &st)
{
    const raw::PhaseTimings &tm = st.timings;
    std::printf("compile stages (ms): parse %.2f, unroll "
                "%.2f, lower %.2f, transform %.2f, "
                "orchestrate %.2f, link %.2f (total %.2f)\n",
                tm.parse_ms, tm.unroll_ms, tm.lower_ms,
                tm.transform_ms, tm.orchestrate_ms, tm.link_ms,
                tm.total_ms);
    std::printf("orchestrate phases:  partition %.2f ms, "
                "schedule %.2f ms\n",
                st.orch_partition_ms, st.orch_schedule_ms);
    std::printf("link phases:         portfold %.2f ms, "
                "regalloc %.2f ms\n",
                st.link_portfold_ms, st.link_regalloc_ms);
}

std::string
load_input(const std::string &arg)
{
    for (const raw::BenchmarkProgram &b : raw::benchmark_suite())
        if (b.name == arg)
            return b.source;
    std::ifstream in(arg);
    if (!in)
        raw::fatal("cannot open input: " + arg);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace raw;

    // `rawcc serve ...`: hand the rest of argv to the daemon
    // (src/serve/server.hpp); everything below is the one-shot CLI.
    if (argc >= 2 && std::string(argv[1]) == "serve")
        return serve::serve_main(argc - 2, argv + 2);

    long tiles = 4;
    std::string config = "base";
    std::string input;
    std::string trace_out;
    bool baseline = false, dump_ir = false, disasm = false;
    bool stats = false, do_run = true, speedup = false;
    bool profile = false;
    CompilerOptions opts;
    FaultConfig faults;
    CheckConfig checks;
    SimBackend sim_backend = kDefaultSimBackend;
    bool sim_diff = false;
    long fault_campaign = 0;
    long point_timeout = 0;
    long jobs = 0;
    std::string campaign_out;

    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "rawcc: %s requires an argument\n",
                             a.c_str());
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        // NaN-proof: !(v in [0,1]) rejects NaN, which every
        // comparison-based range check silently accepts.
        auto parse_rate = [&](const char *flag) {
            double v = parse_double(next(), flag);
            if (!(v >= 0.0 && v <= 1.0))
                bad_value(flag, argv[i], "a probability in [0,1]");
            return v;
        };
        auto parse_cycles = [&](const char *flag) {
            long p = parse_long(next(), flag);
            if (p < 0 || p > 1000000)
                bad_value(flag, argv[i],
                          "a cycle count in 0..1000000");
            return static_cast<int>(p);
        };
        if (a == "--tiles") {
            tiles = raw::cli::parse_tiles("rawcc", next(), "--tiles");
        } else if (a == "--config")
            config = next();
        else if (a == "--baseline")
            baseline = true;
        else if (a == "--dump-ir")
            dump_ir = true;
        else if (a == "--disasm")
            disasm = true;
        else if (a == "--stats")
            stats = true;
        else if (a == "--no-run")
            do_run = false;
        else if (a == "--speedup")
            speedup = true;
        else if (a == "--profile")
            profile = true;
        else if (a == "--trace-out")
            trace_out = next();
        else if (a == "--miss-rate")
            faults.miss_rate = parse_rate("--miss-rate");
        else if (a == "--miss-penalty")
            faults.penalty = parse_cycles("--miss-penalty");
        else if (a == "--seed")
            faults.seed = parse_u64(next(), "--seed");
        else if (a == "--route-stall-rate")
            faults.route_stall_rate = parse_rate("--route-stall-rate");
        else if (a == "--route-stall-cycles")
            faults.route_stall_cycles =
                parse_cycles("--route-stall-cycles");
        else if (a == "--dyn-delay-rate")
            faults.dyn_delay_rate = parse_rate("--dyn-delay-rate");
        else if (a == "--dyn-delay-cycles")
            faults.dyn_delay_cycles =
                parse_cycles("--dyn-delay-cycles");
        else if (a == "--jitter-rate")
            faults.jitter_rate = parse_rate("--jitter-rate");
        else if (a == "--check") {
            checks.provenance = true;
            checks.fifo_bounds = true;
        } else if (a == "--fault-campaign") {
            fault_campaign = parse_long(next(), "--fault-campaign");
            if (fault_campaign <= 0 || fault_campaign > 100000)
                bad_value("--fault-campaign", argv[i],
                          "a point count in 1..100000");
        } else if (a == "--campaign-out")
            campaign_out = next();
        else if (a == "--point-timeout") {
            point_timeout = parse_long(next(), "--point-timeout");
            if (point_timeout <= 0 || point_timeout > 86400000)
                bad_value("--point-timeout", argv[i],
                          "a budget in milliseconds (1..86400000)");
        }
        else if (a == "--jobs") {
            jobs = parse_long(next(), "--jobs");
            if (jobs < 0 || jobs > 4096)
                bad_value("--jobs", argv[i],
                          "a worker count in 0..4096");
            opts.orch.jobs = static_cast<int>(jobs);
        } else if (a == "--sched-iters") {
            long n = parse_long(next(), "--sched-iters");
            if (n < 0 || n > raw::kMaxSchedIters)
                bad_value("--sched-iters", argv[i],
                          "a pass count in 0..16");
            opts.orch.sched.sched_iters = static_cast<int>(n);
        } else if (a == "--sim-backend") {
            try {
                sim_backend = sim_backend_from_string(next());
            } catch (const FatalError &) {
                bad_value("--sim-backend", argv[i], "reference or fast");
            }
        } else if (a == "--sim-diff")
            sim_diff = true;
        else if (a == "--pgo")
            opts.pgo = true;
        else if (a == "--no-unroll")
            opts.unroll.enable = false;
        else if (a == "--no-replication")
            opts.orch.enable_replication = false;
        else if (a == "--no-port-fold")
            opts.orch.fold_ports = false;
        else if (a == "--list-benchmarks") {
            for (const BenchmarkProgram &b : benchmark_suite())
                std::printf("%-14s %s\n", b.name.c_str(),
                            b.description.c_str());
            return 0;
        } else if (a == "--help" || a == "-h") {
            usage();
            return 0;
        } else if (!a.empty() && a[0] == '-') {
            std::fprintf(stderr, "unknown option %s\n", a.c_str());
            usage();
            return 2;
        } else {
            input = a;
        }
    }
    if (input.empty()) {
        usage();
        return 2;
    }

    try {
        std::string src = load_input(input);
        int n_tiles = static_cast<int>(tiles);
        MachineConfig machine;
        if (config == "base")
            machine = MachineConfig::base(n_tiles);
        else if (config == "inf-reg")
            machine = MachineConfig::inf_reg(n_tiles);
        else if (config == "1-cycle")
            machine = MachineConfig::one_cycle(n_tiles);
        else
            fatal("unknown config: " + config);

        if (fault_campaign > 0) {
            // Campaign mode: the input must name a built-in
            // benchmark; benchmark() rejects anything else.  Both
            // checks run before the sweep, not after it.
            benchmark(input);
            std::string path =
                campaign_out.empty()
                    ? "campaign_" + input + "_n" +
                          std::to_string(n_tiles) + ".json"
                    : campaign_out;
            cli::require_writable("rawcc", path,
                                  "cannot write campaign report: ");
            CampaignReport rep = run_fault_campaign(
                input, machine, static_cast<int>(fault_campaign),
                faults.seed, static_cast<int>(jobs), opts,
                point_timeout);
            std::printf("%s\n", rep.summary().c_str());
            std::ofstream js(path);
            if (!js)
                fatal("cannot write campaign report: " + path);
            js << rep.to_json();
            std::printf("campaign report written to %s\n",
                        path.c_str());
            return rep.clean() ? 0 : 1;
        }
        if (do_run && !trace_out.empty())
            cli::require_writable("rawcc", trace_out,
                                  "cannot open trace output: ");

        CompileOutput out =
            baseline ? compile_baseline_for(
                           src, config == "base"
                                    ? MachineConfig::base(1)
                                    : (config == "inf-reg"
                                           ? MachineConfig::inf_reg(1)
                                           : MachineConfig::one_cycle(
                                                 1)))
                     : compile_source(src, machine, opts);

        if (dump_ir)
            std::printf("%s\n", print_function(out.fn).c_str());
        if (disasm)
            std::printf("%s\n",
                        disasm_program(out.program).c_str());
        if (stats) {
            std::printf("machine:             %s\n",
                        out.program.machine.name().c_str());
            std::printf("IR instructions:     %lld\n",
                        static_cast<long long>(out.stats.ir_instrs));
            std::printf("machine instrs:      %lld\n",
                        static_cast<long long>(
                            out.stats.static_instrs));
            std::printf("loops u/p:           %d/%d of %d\n",
                        out.stats.unroll.loops_unrolled,
                        out.stats.unroll.loops_peeled,
                        out.stats.unroll.loops_seen);
            std::printf("dynamic refs:        %d\n",
                        out.stats.dynamic_refs);
            std::printf("branches repl/bcast: %d/%d\n",
                        out.stats.replicated_branches,
                        out.stats.broadcast_branches);
            std::printf("spill ops:           %lld\n",
                        static_cast<long long>(out.stats.spill_ops));
            std::printf("folded port ops:     %d\n",
                        out.stats.folded_port_ops);
            print_compile_timing(out.stats);
        }
        if (!do_run)
            return 0;

        SimResult r;
        if (sim_diff) {
            r = diff_sim_backends(out.program, faults, checks,
                                  !trace_out.empty(), point_timeout);
            std::printf("[sim-diff: reference and fast (threaded) "
                        "backends identical]\n");
        } else {
            Simulator sim(out.program, faults, checks, sim_backend);
            if (!trace_out.empty())
                sim.set_trace_enabled(true);
            sim.set_wall_budget_ms(point_timeout);
            r = sim.run();
        }
        std::fputs(r.print_text().c_str(), stdout);
        std::printf("[%lld cycles, %lld instrs, %lld words routed, "
                    "%lld dynamic msgs]\n",
                    static_cast<long long>(r.cycles),
                    static_cast<long long>(r.instrs_executed),
                    static_cast<long long>(r.words_routed),
                    static_cast<long long>(r.dyn_messages));
        if (checks.enabled()) {
            std::printf("[self-check: %lld failure(s), provenance "
                        "hash 0x%llx]\n",
                        static_cast<long long>(
                            r.check_failure_count),
                        static_cast<unsigned long long>(
                            r.prov_hash));
            for (const CheckFailure &f : r.check_failures)
                std::fprintf(stderr, "rawcc: self-check: %s\n",
                             f.to_string().c_str());
            if (r.check_failure_count > 0)
                return 1;
        }

        if (profile) {
            std::fputs(
                format_profile(r, out.stats.estimated_makespan())
                    .c_str(),
                stdout);
            if (!stats) // --stats already printed these
                print_compile_timing(out.stats);
        }
        if (!trace_out.empty()) {
            write_chrome_trace(trace_out, r.profile);
            std::printf("trace written to %s\n", trace_out.c_str());
        }

        if (speedup && !baseline) {
            RunResult base = run_baseline(src);
            std::printf("baseline: %lld cycles -> speedup %.2f\n",
                        static_cast<long long>(base.cycles),
                        static_cast<double>(base.cycles) /
                            static_cast<double>(r.cycles));
        }
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rawcc: %s\n", e.what());
        return 1;
    }
}
