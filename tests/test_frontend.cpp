/**
 * @file
 * Frontend tests: lexer, parser shapes, type checking, diagnostics,
 * and lowering structure.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>

#include "frontend/lexer.hpp"
#include "frontend/lower.hpp"
#include "frontend/parser.hpp"
#include "harness/harness.hpp"
#include "ir/verifier.hpp"
#include "support/error.hpp"

namespace raw {
namespace {

TEST(Lexer, Tokens)
{
    auto toks = tokenize("int x = 42; // comment\nx = x << 2;");
    ASSERT_GE(toks.size(), 12u);
    EXPECT_EQ(toks[0].kind, Tok::kKwInt);
    EXPECT_EQ(toks[1].kind, Tok::kIdent);
    EXPECT_EQ(toks[1].text, "x");
    EXPECT_EQ(toks[2].kind, Tok::kAssign);
    EXPECT_EQ(toks[3].kind, Tok::kIntLit);
    EXPECT_EQ(toks[3].int_val, 42);
    EXPECT_EQ(toks.back().kind, Tok::kEof);
}

TEST(Lexer, FloatLiterals)
{
    auto toks = tokenize("0.25 1e3 2.5e-1 7f");
    EXPECT_EQ(toks[0].kind, Tok::kFloatLit);
    EXPECT_FLOAT_EQ(toks[0].float_val, 0.25f);
    EXPECT_FLOAT_EQ(toks[1].float_val, 1000.0f);
    EXPECT_FLOAT_EQ(toks[2].float_val, 0.25f);
    EXPECT_FLOAT_EQ(toks[3].float_val, 7.0f);
}

TEST(Lexer, BlockComments)
{
    auto toks = tokenize("a /* stuff \n more */ b");
    EXPECT_EQ(toks[0].text, "a");
    EXPECT_EQ(toks[1].text, "b");
    EXPECT_THROW(tokenize("/* unterminated"), FatalError);
    EXPECT_THROW(tokenize("int $bad;"), FatalError);
}

TEST(Parser, Declarations)
{
    Program p = parse_program("int x; float y = 1.5; int A[4][8];");
    ASSERT_EQ(p.stmts.size(), 3u);
    EXPECT_EQ(p.stmts[0]->kind, StmtKind::kDeclScalar);
    EXPECT_EQ(p.stmts[1]->kind, StmtKind::kDeclScalar);
    ASSERT_TRUE(p.stmts[1]->expr != nullptr);
    EXPECT_EQ(p.stmts[2]->kind, StmtKind::kDeclArray);
    EXPECT_EQ(p.stmts[2]->dims, (std::vector<int64_t>{4, 8}));
}

TEST(Parser, Precedence)
{
    Program p = parse_program("int x; x = 1 + 2 * 3;");
    const Expr &e = *p.stmts[1]->expr;
    ASSERT_EQ(e.kind, ExprKind::kBinary);
    EXPECT_EQ(e.op, "+");
    EXPECT_EQ(e.kids[1]->op, "*");
}

TEST(Parser, MixedTypeInsertscasts)
{
    Program p = parse_program("float y; y = 1 + 2.5;");
    const Expr &e = *p.stmts[1]->expr;
    EXPECT_EQ(e.type, Type::kF32);
    EXPECT_EQ(e.kids[0]->kind, ExprKind::kCast);
}

TEST(Parser, CanonicalForLoop)
{
    Program p = parse_program(
        "int i; int s; for (i = 0; i < 10; i = i + 2) { s = i; }");
    const Stmt &f = *p.stmts[2];
    EXPECT_EQ(f.kind, StmtKind::kFor);
    EXPECT_EQ(f.name, "i");
    EXPECT_EQ(f.step, 2);
    EXPECT_EQ(f.cmp, "<");
    EXPECT_EQ(f.body.size(), 1u);
}

TEST(Parser, DownwardForLoop)
{
    Program p = parse_program(
        "int i; int s; for (i = 9; i >= 0; i = i - 3) { s = i; }");
    EXPECT_EQ(p.stmts[2]->step, -3);
    EXPECT_EQ(p.stmts[2]->cmp, ">=");
}

TEST(Parser, Diagnostics)
{
    EXPECT_THROW(parse_program("x = 1;"), FatalError)
        << "undeclared variable";
    EXPECT_THROW(parse_program("int x; int x;"), FatalError)
        << "redeclaration";
    EXPECT_THROW(parse_program("int A[2]; int x; x = A[0][1];"),
                 FatalError)
        << "wrong subscript count";
    EXPECT_THROW(parse_program("float f; if (f) { }"), FatalError)
        << "non-int condition";
    EXPECT_THROW(parse_program("int i; for (i = 0; 3 < 4; i = i + 1) "
                               "{ }"),
                 FatalError)
        << "non-canonical for";
    EXPECT_THROW(parse_program("float y; y = 1.5 % 2.0;"), FatalError)
        << "float modulo";
    EXPECT_THROW(parse_program("int A[0];"), FatalError)
        << "zero-sized array";
}

/** what() of the FatalError @p src raises, or "" if it parses. */
std::string
parse_error(const std::string &src)
{
    try {
        parse_program(src);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(Parser, LiteralSubscriptOutOfRange)
{
    // Loads, stores and each dimension of a multi-dim array, with
    // the literal optionally negated.
    EXPECT_NE(parse_error("int a[4]; print(a[7]);")
                  .find("subscript 7 out of range for 'a' (extent 4)"),
              std::string::npos);
    EXPECT_NE(parse_error("int a[4]; print(a[-1]);")
                  .find("subscript -1 out of range for 'a' (extent 4)"),
              std::string::npos);
    EXPECT_NE(parse_error("int a[4]; a[4] = 1;")
                  .find("subscript 4 out of range for 'a' (extent 4)"),
              std::string::npos);
    EXPECT_NE(parse_error("float m[2][3]; m[1][3] = 1.0;")
                  .find("subscript 3 out of range for 'm' (extent 3)"),
              std::string::npos);
    EXPECT_NE(parse_error("float m[2][3]; print(m[2][0]);")
                  .find("subscript 2 out of range for 'm' (extent 2)"),
              std::string::npos);

    // In range at both ends, and -0, parse.
    EXPECT_EQ(parse_error("int a[4]; a[0] = a[3]; print(a[-0]);"), "");
    EXPECT_EQ(parse_error("float m[2][3]; m[1][2] = m[0][0];"), "");
    // A computed subscript is not checked (undefined when out of
    // range, see docs/LANGUAGE.md).
    EXPECT_EQ(parse_error("int a[4]; int i; i = 3; print(a[i + 2]);"),
              "");
}

// Nesting is bounded by kMaxNesting and checked while parsing, since
// the passes after the parser recurse over the AST and an unbounded
// 10,000-deep program overflows the stack.  For parentheses, operator
// chains and nested if blocks, a program at the bound compiles and
// runs; one level deeper is a positioned parse error.
TEST(Parser, NestingBound)
{
    auto parens = [](int k) {
        return "int x; x = " + std::string(k, '(') + "1" +
               std::string(k, ')') + "; print(x);";
    };
    auto chain = [](int k) { // k operators, k + 1 operands
        std::string s = "int x; int y; y = 1; x = y";
        for (int i = 0; i < k; i++)
            s += " + y";
        return s + "; print(x);";
    };
    auto ifs = [](int k) {
        std::string s = "int x; x = 0;";
        for (int i = 0; i < k; i++)
            s += " if (x < 1) {";
        s += " x = 7;";
        for (int i = 0; i < k; i++)
            s += " }";
        return s + " print(x);";
    };
    const std::pair<std::function<std::string(int)>, std::string>
        shapes[] = {{parens, "1\n"},
                    {chain, std::to_string(kMaxNesting + 1) + "\n"},
                    {ifs, "7\n"}};
    for (const auto &[make, prints] : shapes) {
        SCOPED_TRACE(make(2));
        EXPECT_EQ(parse_error(make(kMaxNesting)), "");
        EXPECT_EQ(run_rawcc(make(kMaxNesting), MachineConfig::base(4))
                      .prints,
                  prints);
        const std::string err = parse_error(make(kMaxNesting + 1));
        EXPECT_NE(err.find("parse error at 1:"), std::string::npos)
            << err;
        EXPECT_NE(err.find("nesting deeper than " +
                           std::to_string(kMaxNesting) + " levels"),
                  std::string::npos)
            << err;
    }
}

TEST(Parser, SqrtBuiltin)
{
    Program p = parse_program("float y; y = sqrt(2.0);");
    const Expr &e = *p.stmts[1]->expr;
    EXPECT_EQ(e.kind, ExprKind::kUnary);
    EXPECT_EQ(e.op, "sqrt");
    // Integer arguments coerce to float.
    Program q = parse_program("float y; y = sqrt(4);");
    EXPECT_EQ(q.stmts[1]->expr->kids[0]->kind, ExprKind::kCast);
}

TEST(Lower, ProducesVerifiableIR)
{
    Program p = parse_program(R"(
int A[4][4];
int i; int j;
for (i = 0; i < 4; i = i + 1) {
  for (j = 0; j < 4; j = j + 1) {
    A[i][j] = i * 4 + j;
  }
}
if (A[1][1] > 0) { print(A[1][1]); }
while (i > 0) { i = i - 1; }
)");
    Function fn = lower_program(p);
    EXPECT_EQ(verify_function(fn), "");
    // Multi-dim subscripts flatten into one index per reference.
    bool found_store = false;
    for (const Block &b : fn.blocks)
        for (const Instr &in : b.instrs)
            if (in.op == Op::kStore)
                found_store = true;
    EXPECT_TRUE(found_store);
    // The hidden scalar write-back array exists.
    bool has_ivars = false;
    for (const ArrayInfo &a : fn.arrays)
        if (a.name == "__ivars")
            has_ivars = true;
    EXPECT_TRUE(has_ivars);
}

TEST(Lower, LogicalOpsNormalize)
{
    Program p = parse_program("int a; int b; int c; c = a && b;");
    Function fn = lower_program(p);
    // && lowers to compare-with-zero on both sides plus kAnd.
    int cmps = 0, ands = 0;
    for (const Instr &in : fn.blocks[0].instrs) {
        if (in.op == Op::kCmpNe)
            cmps++;
        if (in.op == Op::kAnd)
            ands++;
    }
    EXPECT_EQ(cmps, 2);
    EXPECT_EQ(ands, 1);
}

TEST(Lower, ForLoopCFGShape)
{
    Program p = parse_program(
        "int i; int s; for (i = 0; i < 8; i = i + 1) { s = s + i; }");
    Function fn = lower_program(p);
    // entry, header, body, exit (at least).
    EXPECT_GE(fn.blocks.size(), 4u);
    EXPECT_EQ(verify_function(fn), "");
}

} // namespace
} // namespace raw
