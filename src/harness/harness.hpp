#ifndef RAW_HARNESS_HARNESS_HPP
#define RAW_HARNESS_HARNESS_HPP

/**
 * @file
 * Experiment harness shared by tests, examples and benches: compile
 * and simulate a program under RAWCC or the sequential baseline,
 * verify bit-exact equivalence of results, and compute speedups
 * (Section 6 methodology: RAWCC cycles vs. Machsuif-style sequential
 * cycles on one tile).
 */

#include <string>

#include "baseline/baseline.hpp"
#include "programs/programs.hpp"
#include "rawcc/compiler.hpp"
#include "sim/simulator.hpp"

namespace raw {

/** One compile+simulate outcome. */
struct RunResult
{
    int64_t cycles = 0;
    SimResult sim;
    CompileStats stats;
    /** Named-array contents for verification. */
    std::vector<uint32_t> check_words;
    std::string prints;
};

/** Compile with RAWCC for @p machine and simulate. */
RunResult run_rawcc(const std::string &source,
                    const MachineConfig &machine,
                    const std::string &check_array = "",
                    const CompilerOptions &opts = {},
                    const FaultConfig &faults = {},
                    const CheckConfig &checks = {},
                    SimBackend backend = kDefaultSimBackend);

/**
 * Differential backend check: simulate @p prog under the reference
 * and threaded execution cores with identical fault/check
 * configuration and require bit-identical observable results —
 * cycle count, every aggregate counter, the full print trace, the
 * provenance hash, the per-tile cycle-attribution profile, and the
 * final contents of every named array.  Throws FatalError naming the
 * first divergent field otherwise.  Returns the (identical) result.
 * A nonzero @p wall_budget_ms bounds each core's run
 * (Simulator::set_wall_budget_ms).
 */
SimResult diff_sim_backends(const CompiledProgram &prog,
                            const FaultConfig &faults = {},
                            const CheckConfig &checks = {},
                            bool trace = false,
                            int64_t wall_budget_ms = 0);

/** Compile sequentially (one tile) and simulate. */
RunResult run_baseline(const std::string &source,
                       const std::string &check_array = "",
                       const FaultConfig &faults = {});

/**
 * Baseline run of @p prog, cached by benchmark name: the sequential
 * baseline depends on neither machine size nor fault config, so a
 * sweep over machine sizes (or fault points) compiles and simulates
 * it once.  Thread-safe; the returned reference stays valid for the
 * life of the process.
 */
const RunResult &cached_baseline(const BenchmarkProgram &prog);

/**
 * Run @p prog under the baseline and under RAWCC on @p machine and
 * require bit-identical results (check array and print trace).
 * Returns the speedup; throws FatalError on mismatch.
 */
double verified_speedup(const BenchmarkProgram &prog,
                        const MachineConfig &machine,
                        const CompilerOptions &opts = {},
                        const FaultConfig &faults = {});

/**
 * Canonical text summary of one simulation for the golden
 * determinism suite: cycle count, aggregate counters, per-category
 * profile sums, issue histogram and the full print trace.  Written by
 * tools/golden_gen.cpp and replayed byte-for-byte by
 * tests/test_golden_determinism.cpp.
 */
std::string golden_summary(const std::string &bench, int tiles,
                           const FaultConfig &faults,
                           const SimResult &sim);

} // namespace raw

#endif // RAW_HARNESS_HARNESS_HPP
