#ifndef RAW_RAWCC_LINKER_HPP
#define RAW_RAWCC_LINKER_HPP

/**
 * @file
 * Final code assembly: register allocation per tile, block layout,
 * branch target resolution, and jump-to-next-block elimination.
 */

#include "ir/function.hpp"
#include "rawcc/orchestrater.hpp"
#include "sim/isa.hpp"

namespace raw {

/** Statistics from linking. */
struct LinkStats
{
    int64_t spill_ops = 0;
    int total_spill_slots = 0;
    /** Wall-clock of register allocation, summed over tiles (ms). */
    double regalloc_ms = 0;
};

/**
 * Allocate registers and lay out the final CompiledProgram.  Consumes
 * vp's switch streams: every vp.switches[t] is left empty.
 */
CompiledProgram link_program(const Function &fn, VirtualProgram &vp,
                             const MachineConfig &machine,
                             LinkStats *stats = nullptr);

} // namespace raw

#endif // RAW_RAWCC_LINKER_HPP
