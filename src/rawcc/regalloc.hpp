#ifndef RAW_RAWCC_REGALLOC_HPP
#define RAW_RAWCC_REGALLOC_HPP

/**
 * @file
 * Per-tile register allocator.
 *
 * Runs after event scheduling, mirroring the paper's phase order (and
 * its consequence: the scheduler exposes parallelism without regard
 * to register pressure, so wide schedules can spill — the fpppp
 * Section 6 effect).
 *
 * Two value classes exist on a tile:
 *  - *persistent* values (variables homed here, and replicated loop
 *    counters) live across blocks; the hottest get dedicated physical
 *    registers, the rest become memory-resident in the tile's spill
 *    region;
 *  - *temporaries* live within one block; linear scan with
 *    furthest-end spilling.
 *
 * Spill code (2-cycle reloads) is inserted into the stream; by the
 * static ordering property this never affects correctness, only time.
 *
 * Every per-value lookup goes through dense tables indexed by
 * ValueId.  With the tables reused across tiles (RegallocScratch), a
 * tile costs its emitted code plus its persistent set, not the
 * function's value count.
 */

#include <cstdint>
#include <vector>

#include "ir/function.hpp"
#include "rawcc/orchestrater.hpp"
#include "sim/isa.hpp"
#include "support/epoch_marks.hpp"

namespace raw {

/** Result of allocating one tile. */
struct RegallocResult
{
    /** blocks[b]: physical-register code of block b. */
    std::vector<std::vector<PInstr>> blocks;
    /** Spill slots used. */
    int spill_slots = 0;
    /** Number of spill loads/stores inserted. */
    int spill_ops = 0;
};

/**
 * Dense per-value tables, sized to the function's value table once and
 * reused for every tile of one link.  The persistent entries are reset
 * at the end of each tile; the per-block entries are valid only where
 * temps marks the value, and each block starts a new epoch of temps,
 * so a block never clears them.  Owned by the caller's frame and used
 * by one thread at a time; a call that throws leaves it unusable.
 */
struct RegallocScratch
{
    // Persistent class of the current tile (-1 = not persistent).
    std::vector<int64_t> uses;
    std::vector<int> pers_reg;
    std::vector<int> mem_slot;
    // Per-block temporaries.
    EpochMarks temps;
    std::vector<int> ival;
    std::vector<int> temp_reg;
    std::vector<int> temp_slot;
};

/**
 * Allocate registers for one tile's virtual code.
 *
 * @param fn         the function (value table)
 * @param blocks     per-block virtual instructions of this tile
 * @param persistent values register-resident across blocks here
 * @param num_regs   GPRs available on this tile
 */
RegallocResult allocate_registers(
    const Function &fn,
    const std::vector<std::vector<VInstr>> &blocks,
    const std::vector<ValueId> &persistent, int num_regs);

/**
 * As above, reusing @p scratch's tables and @p out's block buffers
 * across calls: @p out is overwritten, and a block's buffer keeps its
 * capacity from the previous call.
 */
void allocate_registers(const Function &fn,
                        const std::vector<std::vector<VInstr>> &blocks,
                        const std::vector<ValueId> &persistent,
                        int num_regs, RegallocScratch &scratch,
                        RegallocResult &out);

} // namespace raw

#endif // RAW_RAWCC_REGALLOC_HPP
