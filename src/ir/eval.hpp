#ifndef RAW_IR_EVAL_HPP
#define RAW_IR_EVAL_HPP

/**
 * @file
 * Reference semantics of the computational opcodes over 32-bit words.
 *
 * This single evaluator is used by BOTH the constant folder and the
 * tile simulator, so compile-time folding and run-time execution agree
 * bit-for-bit by construction.  Integer ops wrap modulo 2^32; integer
 * division by zero yields 0 (documented rawc semantics), and the one
 * overflowing quotient wraps: INT32_MIN / -1 is INT32_MIN and
 * INT32_MIN % -1 is 0; floats are IEEE single precision.
 */

#include <cstdint>

#include "ir/opcode.hpp"

namespace raw {

/**
 * Evaluate @p op over word operands @p a, @p b.
 * @return true and set @p out if the op is a pure computational op;
 * false for memory, communication and control opcodes.
 */
bool eval_op(Op op, uint32_t a, uint32_t b, uint32_t &out);

} // namespace raw

#endif // RAW_IR_EVAL_HPP
