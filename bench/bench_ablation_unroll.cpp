/**
 * @file
 * Ablation: affine staticization (Section 5.3).  With unrolling
 * disabled, every reference whose home tile varies across iterations
 * must use the dynamic network; this bench shows the cost and the
 * static/dynamic reference counts.
 */

#include <cstdio>

#include "harness/harness.hpp"

namespace {

using namespace raw;

} // namespace

int
main()
{
    std::printf("Ablation: loop unrolling / staticization (8 tiles)\n");
    std::printf("%-14s %-16s %-16s %-10s %-10s\n", "Benchmark",
                "cycles(unroll)", "cycles(none)", "dyn(unroll)",
                "dyn(none)");
    for (const char *name : {"jacobi", "mxm", "life"}) {
        const BenchmarkProgram &prog = benchmark(name);
        CompilerOptions on;
        CompilerOptions off;
        off.unroll.enable = false;
        RunResult a = run_rawcc(prog.source, MachineConfig::base(8),
                                prog.check_array, on);
        RunResult b = run_rawcc(prog.source, MachineConfig::base(8),
                                prog.check_array, off);
        if (a.check_words != b.check_words)
            std::printf("%-14s RESULT MISMATCH\n", name);
        std::printf("%-14s %-16lld %-16lld %-10d %-10d\n", name,
                    static_cast<long long>(a.cycles),
                    static_cast<long long>(b.cycles),
                    a.stats.dynamic_refs, b.stats.dynamic_refs);
    }
    return 0;
}
