#ifndef RAW_FRONTEND_PARSER_HPP
#define RAW_FRONTEND_PARSER_HPP

/**
 * @file
 * Recursive-descent parser + type checker for rawc.
 */

#include <string>

#include "frontend/ast.hpp"

namespace raw {

/**
 * Deepest nesting rawc accepts.  One level each: a block, a
 * parenthesized sub-expression, a subscript, a sqrt argument, a unary
 * or cast operand, an `else if`, and every operand after the first in
 * a chain of binary operators (the chain builds a left-deep tree).
 * The passes after the parser walk the AST recursively, so the bound
 * keeps their stacks small; the 7 benchmarks nest at most 12 levels.
 */
constexpr int kMaxNesting = 256;

/**
 * Parse and type-check @p source into an AST.  Throws FatalError with
 * position info on syntax or type errors and on nesting deeper than
 * kMaxNesting, which is checked while parsing, without a walk.
 * Implicit int->float conversions are made explicit as kCast nodes.
 */
Program parse_program(const std::string &source);

} // namespace raw

#endif // RAW_FRONTEND_PARSER_HPP
