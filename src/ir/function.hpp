#ifndef RAW_IR_FUNCTION_HPP
#define RAW_IR_FUNCTION_HPP

/**
 * @file
 * Function: a CFG of basic blocks plus value and array symbol tables.
 *
 * The IR is deliberately "pre-SSA": a named program scalar (ValueInfo
 * with is_var == true) may be written in many blocks, exactly like the
 * SUIF IR the paper's compiler consumes.  The *initial code
 * transformation* pass (transform/rename) converts each basic block to
 * locally single-assignment form; persistent variables remain the
 * handles that cross block boundaries and get home tiles assigned by
 * the data partitioner.
 */

#include <string>
#include <vector>

#include "ir/instr.hpp"
#include "support/mathutil.hpp"

namespace raw {

/** Metadata for one value (virtual register). */
struct ValueInfo
{
    Type type = Type::kI32;
    /** Debug / variable name (may be empty for temporaries). */
    std::string name;
    /** True if this is a persistent named scalar (lives across blocks). */
    bool is_var = false;
};

/** Metadata for one array symbol. */
struct ArrayInfo
{
    std::string name;
    Type type = Type::kI32;
    /** Dimension extents, innermost last. */
    std::vector<int64_t> dims;

    /** Total number of elements (words). */
    int64_t size() const;
};

/** A congruence fact about a variable's value at block entry. */
struct EntryFact
{
    ValueId var = kNoValue;
    Congruence cong;
};

/** A basic block: straight-line instructions ending in a terminator. */
struct Block
{
    std::string name;
    std::vector<Instr> instrs;
    /**
     * Congruence facts established by the unroller for induction
     * variables at entry to this block (Section 5.3 staticization).
     */
    std::vector<EntryFact> entry_facts;

    /** The terminator instruction (last in the block). */
    const Instr &terminator() const { return instrs.back(); }

    /** Successor block ids of this block's terminator. */
    std::vector<int> successors() const;
};

/**
 * A compiled unit: one function (the paper's benchmarks are single
 * kernels), with block 0 as the entry block.
 */
class Function
{
  public:
    std::string name = "main";
    std::vector<ValueInfo> values;
    std::vector<ArrayInfo> arrays;
    std::vector<Block> blocks;

    /** Create a new value; returns its id. */
    ValueId new_value(Type t, const std::string &name = "",
                      bool is_var = false);
    /** Create a new array symbol; returns its index. */
    int new_array(const std::string &name, Type t,
                  std::vector<int64_t> dims);
    /** Create a new empty block; returns its index. */
    int new_block(const std::string &name = "");

    const ValueInfo &value(ValueId v) const { return values[v]; }
    /** All persistent named scalars. */
    std::vector<ValueId> var_ids() const;

    /** Predecessor lists, indexed by block. */
    std::vector<std::vector<int>> predecessors() const;

    /** Total instruction count over all blocks. */
    size_t num_instrs() const;
};

} // namespace raw

#endif // RAW_IR_FUNCTION_HPP
