#ifndef RAW_RAWCC_COMPILER_HPP
#define RAW_RAWCC_COMPILER_HPP

/**
 * @file
 * RAWCC public API: compile a rawc source program for a Raw machine.
 *
 * Pipeline (Section 3.2): basic block identification with loop
 * unrolling (frontend + unroller), basic block orchestration
 * (renaming, task graph, partitioning, stitching, communication
 * generation, event scheduling), code generation (register
 * allocation + linking).
 *
 * Typical use:
 * @code
 *   raw::MachineConfig m = raw::MachineConfig::base(16);
 *   raw::CompileOutput out = raw::compile_source(src, m);
 *   raw::Simulator sim(out.program);
 *   raw::SimResult r = sim.run();
 * @endcode
 */

#include <string>

#include "frontend/unroll.hpp"
#include "ir/function.hpp"
#include "machine/machine.hpp"
#include "rawcc/linker.hpp"
#include "rawcc/orchestrater.hpp"
#include "sim/isa.hpp"

namespace raw {

/** All compilation knobs. */
struct CompilerOptions
{
    UnrollOptions unroll;
    OrchestraterOptions orch;
    /** Run the IR verifier between phases. */
    bool verify_ir = true;
    /** Blocks longer than this are cut (see transform/split.hpp). */
    size_t max_block_len = 20000;
    /**
     * Usage-aware data partitioning (the paper's stated future work
     * for the round-robin policy): compile once, observe where each
     * scalar's producers/consumers land, then recompile with each
     * scalar homed on its most-voted tile.
     */
    bool smart_homes = false;
    /**
     * Profile-guided optimization (--pgo): race a small portfolio of
     * semantically equivalent compile variants (pgo_candidates():
     * criticality-weighted traffic, alternative scheduler priorities,
     * usage-voted homes, peeling aggressiveness), simulating each
     * fault-free, and keep the fastest measured program.  The plain
     * compile is always candidate 0, so this never loses cycles.
     * Acts in compile_source (unroll variants precede lowering).
     */
    bool pgo = false;
};

/** Wall-clock timing of each compile stage (milliseconds). */
struct PhaseTimings
{
    double parse_ms = 0;
    double unroll_ms = 0;
    double lower_ms = 0;
    double transform_ms = 0;
    double orchestrate_ms = 0;
    double link_ms = 0;
    double total_ms = 0;
};

/** Compilation statistics (consumed by benches and tests). */
struct CompileStats
{
    UnrollStats unroll;
    int dynamic_refs = 0;
    int replicated_branches = 0;
    int broadcast_branches = 0;
    int64_t spill_ops = 0;
    int folded_port_ops = 0;
    /** Placement candidate swaps evaluated during orchestration. */
    int64_t placement_swaps = 0;
    int64_t ir_instrs = 0;
    int64_t static_instrs = 0;
    /** Scheduler makespan estimate per block. */
    std::vector<int64_t> block_makespan;
    /** Scheduler-estimated issue slots per tile (all blocks). */
    std::vector<int64_t> est_tile_busy;
    /** Per-stage compile time. */
    PhaseTimings timings;
    /** Always zero; see ZeroCacheCounters. */
    ZeroCacheCounters cache;
    /** Parallel partition phase inside orchestrate_ms (ms). */
    double orch_partition_ms = 0;
    /** Parallel schedule+emit phase inside orchestrate_ms (ms). */
    double orch_schedule_ms = 0;
    /** Port-operand folding inside link_ms (ms). */
    double link_portfold_ms = 0;
    /** Per-tile register allocation inside link_ms (ms). */
    double link_regalloc_ms = 0;
    /**
     * pgo_candidates() index of the program a --pgo race kept; 0 for
     * the plain candidate and for compiles without --pgo.
     */
    int pgo_winner = 0;

    /** Sum of the per-block makespan estimates. */
    int64_t estimated_makespan() const;
};

/** Result of a compilation. */
struct CompileOutput
{
    CompiledProgram program;
    CompileStats stats;
    /** Final IR (post-unroll/rename), useful for dumps and tests. */
    Function fn;
};

/**
 * The candidate variants a PGO pass explores, all semantically
 * equivalent compiles of the same program, in race order: the
 * options as given, criticality-weighted placement traffic, two
 * alternative scheduler priority weightings, usage-voted data homes,
 * and a more aggressive peeling limit.  Candidate 0 is always @p base
 * unchanged, so a measured best-of pick can never lose to the plain
 * compile; candidates that duplicate an earlier one are dropped.
 * Every candidate has pgo cleared.
 */
std::vector<CompilerOptions> pgo_candidates(const CompilerOptions &base);

/**
 * Canonical serialization of every option that can change the
 * compiled program.  Two option sets with equal fingerprints compile
 * any source to the same output; knobs that only affect how the
 * compiler runs (verify_ir, the pgo flag, jobs) are
 * excluded.  pgo_candidates() uses this to drop duplicate candidates
 * before racing them.
 */
std::string options_fingerprint(const CompilerOptions &opts);

/** Compile rawc source text for @p machine. */
CompileOutput compile_source(const std::string &source,
                             const MachineConfig &machine,
                             const CompilerOptions &opts = {});

/**
 * Compile an already-lowered IR function (tests that synthesize IR
 * directly).  Runs folding, renaming and orchestration; no unrolling.
 */
CompileOutput compile_function(Function fn, const MachineConfig &machine,
                               const CompilerOptions &opts = {});

} // namespace raw

#endif // RAW_RAWCC_COMPILER_HPP
