#ifndef RAW_FRONTEND_AST_HPP
#define RAW_FRONTEND_AST_HPP

/**
 * @file
 * Abstract syntax tree for `rawc`, the C-subset input language of this
 * reproduction (standing in for the paper's SUIF C/Fortran frontend).
 *
 * rawc supports: `int`/`float` scalars and multi-dimensional arrays,
 * assignments, arithmetic/logic/comparison expressions, casts,
 * `if`/`else`, `while`, canonical `for` loops and `print(e);`.
 * Benchmarks (Table 2) are written in rawc; see src/programs.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/type.hpp"

namespace raw {

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/** Expression node kinds. */
enum class ExprKind : uint8_t {
    kIntLit,   ///< integer literal
    kFloatLit, ///< float literal
    kVar,      ///< scalar variable reference
    kArray,    ///< array element reference, one index per dimension
    kUnary,    ///< unary op: '-' or '!'
    kBinary,   ///< binary op (see Expr::op)
    kCast,     ///< (int)/(float) cast
};

/** An expression tree node. */
struct Expr
{
    ExprKind kind;
    /** Static type, filled in by the parser. */
    Type type = Type::kI32;
    int32_t int_val = 0;
    float float_val = 0.0f;
    /** Variable or array name. */
    std::string name;
    /**
     * Operator spelling for kUnary/kBinary: "+", "-", "*", "/", "%",
     * "<", "<=", ">", ">=", "==", "!=", "&", "|", "^", "<<", ">>",
     * "&&", "||", "!" (logical ops are evaluated without
     * short-circuiting, on canonical 0/1 values).
     */
    std::string op;
    /** Children: 1 for unary/cast, 2 for binary, indices for kArray. */
    std::vector<ExprPtr> kids;

    /** Deep copy. */
    ExprPtr clone() const;
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

/** Statement node kinds. */
enum class StmtKind : uint8_t {
    kDeclScalar, ///< int x; / float x = e;
    kDeclArray,  ///< float A[32][32];
    kAssign,     ///< x = e;
    kArrayAssign,///< A[i][j] = e;
    kIf,         ///< if (c) {..} else {..}
    kWhile,      ///< while (c) {..}
    kFor,        ///< for (i = e; i < e; i = i + c) {..}  (canonical)
    kPrint,      ///< print(e);
};

/** A statement node. */
struct Stmt
{
    StmtKind kind;
    Type type = Type::kI32; ///< declared type
    std::string name;       ///< declared/assigned variable or array name
    std::vector<int64_t> dims; ///< array extents
    ExprPtr expr;           ///< init / rhs / condition / print argument
    std::vector<ExprPtr> indices; ///< kArrayAssign subscripts
    std::vector<StmtPtr> body;
    std::vector<StmtPtr> else_body;

    // Canonical for-loop fields (kFor): for (name=expr; name CMP bound;
    // name = name + step).
    ExprPtr bound;
    int64_t step = 1;
    /** Comparison in the for condition: "<", "<=", ">", ">=". */
    std::string cmp;
    /**
     * Congruence annotation produced by the unroller: at entry to each
     * iteration, loop_var == residue (mod modulus).  modulus == 1 means
     * no fact.
     */
    int64_t iv_residue = 0;
    int64_t iv_modulus = 1;

    /** Deep copy. */
    StmtPtr clone() const;
};

/** A whole rawc translation unit. */
struct Program
{
    std::vector<StmtPtr> stmts;
};

/** Helpers to build AST nodes (used by tests and the unroller). */
ExprPtr make_int_lit(int32_t v);
ExprPtr make_float_lit(float v);
ExprPtr make_var(const std::string &name, Type t);
ExprPtr make_binary(const std::string &op, ExprPtr l, ExprPtr r);

} // namespace raw

#endif // RAW_FRONTEND_AST_HPP
