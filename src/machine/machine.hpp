#ifndef RAW_MACHINE_MACHINE_HPP
#define RAW_MACHINE_MACHINE_HPP

/**
 * @file
 * Machine description of the MIT Raw prototype (Section 3.1 of the paper).
 *
 * A Raw machine is a 2-D mesh of identical tiles.  Each tile holds a
 * five-stage in-order processor (32 GPRs, no FPRs; floating point uses
 * GPRs), a local data memory, a programmable static switch (a stripped
 * R2000 with 8 registers) and a dynamic wormhole router.  The processor
 * and the switch are connected by one input and one output port; the
 * switch connects to its four mesh neighbors with an input and an output
 * port each.  All ports carry 32-bit words, have blocking semantics and
 * single-word capacity (near-neighbor flow control).
 *
 * The compiler sees the machine through this description only: tile
 * count, mesh shape, per-opcode latencies (Table 1), the communication
 * cost model (one cycle per injection, per hop and per reception —
 * Figure 4) and the register budget.
 */

#include <cstdint>
#include <string>

#include "support/error.hpp"

namespace raw {

/** Port directions on a static switch.  kProc is the processor port. */
enum class Dir : uint8_t { kNorth = 0, kEast, kSouth, kWest, kProc };

/** Number of distinct switch port directions. */
constexpr int kNumDirs = 5;

/** Human-readable name of a direction ("N", "E", "S", "W", "P"). */
const char *dir_name(Dir d);

/** The direction opposite to @p d (kProc is its own opposite). */
Dir opposite(Dir d);

/** Functional-unit classes used for latency lookup (Table 1). */
enum class FuOp : uint8_t {
    kIntAdd,   ///< ADD/SUB, logic, compares, moves: 1 cycle
    kIntMul,   ///< MUL: 12 cycles
    kIntDiv,   ///< DIV: 35 cycles
    kFpAdd,    ///< ADDF/SUBF: 2 cycles
    kFpMul,    ///< MULF: 4 cycles
    kFpDiv,    ///< DIVF: 12 cycles
    kLoad,     ///< local memory load, cache hit: 2 cycles
    kStore,    ///< local memory store: 1 cycle
    kBranch,   ///< branches/jumps: 1 cycle
};

/**
 * Configuration of a Raw machine instance.
 *
 * The three evaluation configurations of the paper (Figure 8) are
 * exposed as factory functions: base(), inf_reg() and one_cycle().
 */
struct MachineConfig
{
    /** Number of tiles (must equal rows * cols). */
    int n_tiles = 4;
    /** Mesh rows. */
    int rows = 2;
    /** Mesh columns. */
    int cols = 2;

    /** General-purpose registers per tile processor. */
    int num_registers = 32;
    /** Registers per switch. */
    int num_switch_registers = 8;

    /** When true, every instruction (incl. loads) takes one cycle. */
    bool unit_latency = false;

    /**
     * The switch may execute one ALU instruction and one ROUTE in the
     * same cycle ("a switch can perform both a computation
     * instruction and a ROUTE instruction on the same cycle",
     * Section 3.1).
     */
    bool switch_dual_issue = true;

    /** Cycles the dynamic-network memory handler spends per request. */
    int dyn_handler_cycles = 5;
    /** Extra header cycles for composing/routing a dynamic message. */
    int dyn_header_cycles = 2;

    /** Cycle latency of a functional-unit op under this config. */
    int latency(FuOp op) const;

    /** Tile id at mesh coordinates (@p row, @p col). */
    int tile_at(int row, int col) const { return row * cols + col; }
    /** Mesh row of @p tile. */
    int row_of(int tile) const { return tile / cols; }
    /** Mesh column of @p tile. */
    int col_of(int tile) const { return tile % cols; }
    /** Manhattan distance between two tiles. */
    int distance(int a, int b) const;

    /**
     * Next hop direction from @p from toward @p to under
     * dimension-ordered (X-then-Y) routing; kProc when from == to.
     */
    Dir next_hop(int from, int to) const;

    /** Tile adjacent to @p tile in direction @p d, or -1 off-mesh. */
    int neighbor(int tile, Dir d) const;

    /** Validate internal consistency; panics on error. */
    void validate() const;

    /** Short description like "4x8 base". */
    std::string name() const;

    /** Baseline machine with @p n tiles (Table 1 latencies, 32 regs). */
    static MachineConfig base(int n);
    /** Figure 8 "inf-reg": effectively unlimited registers per tile. */
    static MachineConfig inf_reg(int n);
    /** Figure 8 "1-cycle": every instruction takes a single cycle. */
    static MachineConfig one_cycle(int n);
};

/** Mesh shape used for a given tile count (near-square, cols >= rows). */
void mesh_shape(int n_tiles, int &rows, int &cols);

} // namespace raw

#endif // RAW_MACHINE_MACHINE_HPP
