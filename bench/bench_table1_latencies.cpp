/**
 * @file
 * Table 1 reproduction: latency of common operations on the Raw
 * prototype.  For each opcode class we build a two-instruction
 * dependent chain, run it on a one-tile machine, and derive the
 * producer's latency from the cycle count difference against an
 * empty program — validating that the simulator implements exactly
 * the table the compiler's cost model uses.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "ir/builder.hpp"
#include "rawcc/compiler.hpp"
#include "sim/simulator.hpp"

namespace {

/** Cycles to execute a chain of @p n dependent ops of kind @p op. */
int64_t
chain_cycles(raw::Op op, int n)
{
    using namespace raw;
    Function fn;
    int entry = fn.new_block("entry");
    IRBuilder b(fn);
    b.set_block(entry);
    bool is_float = op_fu(op) == FuOp::kFpAdd ||
                    op_fu(op) == FuOp::kFpMul ||
                    op_fu(op) == FuOp::kFpDiv;
    // Seed through memory so the chain is opaque to constant folding.
    Type ty = is_float ? Type::kF32 : Type::kI32;
    int a = fn.new_array("seed", ty, {1});
    ValueId init = is_float ? b.const_float(1.25f) : b.const_int(17);
    ValueId zero = b.const_int(0);
    b.store(a, zero, init);
    ValueId x = b.load(a, zero);
    for (int i = 0; i < n; i++)
        x = b.emit(op, ty, x, x);
    b.print(x);
    b.halt();

    CompilerOptions opts;
    CompileOutput out =
        compile_function(std::move(fn), MachineConfig::base(1), opts);
    Simulator sim(out.program);
    return sim.run().cycles;
}

int
measured_latency(raw::Op op)
{
    // Slope of cycles over chain length isolates the op latency from
    // fixed program overhead.
    int64_t c8 = chain_cycles(op, 8);
    int64_t c24 = chain_cycles(op, 24);
    return static_cast<int>((c24 - c8) / 16);
}

struct Row
{
    const char *name;
    raw::Op op;
    int paper;
};

const Row kRows[] = {
    {"ADD", raw::Op::kAdd, 1},   {"SUB", raw::Op::kSub, 1},
    {"MUL", raw::Op::kMul, 12},  {"DIV", raw::Op::kDiv, 35},
    {"ADDF", raw::Op::kFAdd, 2}, {"SUBF", raw::Op::kFSub, 2},
    {"MULF", raw::Op::kFMul, 4}, {"DIVF", raw::Op::kFDiv, 12},
};

} // namespace

int
main(int argc, char **argv)
{
    std::printf("Table 1: Latency of common operations\n");
    std::printf("%-6s  %-10s  %-10s\n", "Op", "Measured", "Paper");
    bool all_ok = true;
    for (const Row &r : kRows) {
        int got = measured_latency(r.op);
        std::printf("%-6s  %-10d  %-10d%s\n", r.name, got, r.paper,
                    got == r.paper ? "" : "   MISMATCH");
        all_ok = all_ok && got == r.paper;
    }
    std::printf("%s\n", all_ok ? "All latencies match Table 1."
                               : "LATENCY MISMATCH DETECTED");
    (void)argc;
    (void)argv;
    return all_ok ? 0 : 1;
}
