#ifndef RAW_FRONTEND_LOWER_HPP
#define RAW_FRONTEND_LOWER_HPP

/**
 * @file
 * AST -> IR lowering.
 *
 * Multi-dimensional array references are flattened to explicit index
 * arithmetic; logical operators are normalized to 0/1 integer values
 * (no short-circuiting); each named scalar becomes a persistent
 * variable (ValueInfo::is_var).  A hidden epilogue stores every named
 * scalar into the `__ivars` / `__fvars` arrays so the harness can read
 * final scalar values out of simulated memory for verification.
 */

#include <string>

#include "frontend/ast.hpp"
#include "ir/function.hpp"
#include "ir/opcode.hpp"

namespace raw {

/**
 * The IR opcode of rawc binary operator @p op (any spelling but `&&`
 * and `||`) on int or, with @p is_float, float operands.
 */
Op binary_opcode(const std::string &op, bool is_float);

/** Lower a (possibly unrolled) program to an IR function. */
Function lower_program(const Program &prog);

} // namespace raw

#endif // RAW_FRONTEND_LOWER_HPP
