#ifndef RAW_SIM_ISA_HPP
#define RAW_SIM_ISA_HPP

/**
 * @file
 * Executable program representation for the Raw prototype simulator.
 *
 * After orchestration and register allocation the compiler emits one
 * processor stream per tile and one switch stream per tile.  Processor
 * instructions reuse the IR opcode set with physical register
 * operands; switch instructions are ROUTE (possibly several pairs that
 * fire atomically, as in the prototype's ROUTE instruction), a tiny
 * ALU for replicated loop control, and branches.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "ir/opcode.hpp"
#include "ir/type.hpp"
#include "machine/machine.hpp"

namespace raw {

/** Sentinel array id: per-tile spill slot addressing (PInstr::imm). */
constexpr int kSpillArray = -2;

/**
 * Sentinel register index: the operand is a communication port.  A
 * source operand reads (pops) the switch->processor port; a
 * destination writes (pushes) the processor->switch port.  Ports are
 * exported "as extensions to the register set" (Section 3.1).
 */
constexpr int kPortOperand = -2;

/** One processor instruction (physical registers). */
struct PInstr
{
    Op op = Op::kHalt;
    Type type = Type::kI32;
    /** Destination register; -1 = none / discard (token receives). */
    int dst = -1;
    /** Source registers; src[0] = -1 on kSend means "send zero". */
    int src[2] = {-1, -1};
    /** kConst payload, or spill slot index for kSpillArray accesses. */
    uint32_t imm = 0;
    /** Array id for memory ops (kSpillArray: local spill slot). */
    int array = -1;
    /** Branch/jump target: absolute index into the tile stream. */
    int64_t target = -1;
    /** Global ordering tag for kPrint. */
    int print_seq = -1;
};

/** One routing pair of a switch ROUTE instruction. */
struct RoutePair
{
    Dir in = Dir::kProc;
    /** Output ports: bitmask over Dir (may be empty if only to_reg). */
    uint8_t out_mask = 0;
    /** Switch register to latch the word into; -1 = none. */
    int reg_dst = -1;
};

/** One switch instruction. */
struct SInstr
{
    enum class K : uint8_t { kRoute, kAlu, kBnez, kJump, kHalt };
    K k = K::kHalt;
    /** kRoute: pairs that fire atomically. */
    std::vector<RoutePair> routes;
    /** kAlu: op over switch registers (kConst uses imm). */
    Op op = Op::kAdd;
    int dst = -1;
    int a = -1;
    int b = -1;
    uint32_t imm = 0;
    /** kBnez condition register. */
    int cond = -1;
    /** kBnez / kJump target (absolute stream index). */
    int64_t target = -1;
};

/** A tile's processor program. */
struct TileProgram
{
    std::vector<PInstr> code;
};

/** A tile's switch program. */
struct SwitchProgram
{
    std::vector<SInstr> code;
};

/** Layout of one array in the interleaved global address space. */
struct ArrayLayout
{
    std::string name;
    Type type = Type::kI32;
    int64_t base = 0;
    int64_t size = 0;
};

/**
 * Raise the FatalError for run-time subscript @p index of array @p al,
 * in the parser's wording.  Both cores bound the flattened element
 * index, not each dimension: only an index outside [0, al.size) is an
 * error, so `a[0][5]` of `int a[4][4]` reads `a[1][1]`, as in C.
 */
[[noreturn]] void subscript_out_of_range(const ArrayLayout &al,
                                         int64_t index);

/** A fully compiled program, ready to simulate. */
struct CompiledProgram
{
    MachineConfig machine;
    std::vector<TileProgram> tiles;
    std::vector<SwitchProgram> switches;
    std::vector<ArrayLayout> arrays;
    /** Total words of the shared interleaved region. */
    int64_t total_words = 0;
    /** Per-tile spill slots required. */
    std::vector<int> spill_slots;
    /** Number of kPrint instructions (print_seq in [0, n)). */
    int num_prints = 0;

    /** Index of array @p name, or -1. */
    int find_array(const std::string &name) const;
    /** Total static instruction count (processors + switches). */
    int64_t static_instrs() const;
};

} // namespace raw

#endif // RAW_SIM_ISA_HPP
