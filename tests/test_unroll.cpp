/**
 * @file
 * Unroller tests (Section 5.3): repetition-distance-driven unroll
 * factors, full peeling, congruence annotations, remainder handling,
 * and the cases that must be left alone.
 */

#include <gtest/gtest.h>

#include "frontend/parser.hpp"
#include "frontend/unroll.hpp"
#include "harness/harness.hpp"
#include "support/error.hpp"

namespace raw {
namespace {

/** Find the first kFor statement, recursively. */
const Stmt *
find_for(const std::vector<StmtPtr> &stmts)
{
    for (const StmtPtr &s : stmts) {
        if (s->kind == StmtKind::kFor)
            return s.get();
        const Stmt *inner = find_for(s->body);
        if (inner)
            return inner;
        inner = find_for(s->else_body);
        if (inner)
            return inner;
    }
    return nullptr;
}

int
count_stmts(const std::vector<StmtPtr> &stmts)
{
    int n = 0;
    for (const StmtPtr &s : stmts) {
        n += 1 + count_stmts(s->body) + count_stmts(s->else_body);
    }
    return n;
}

UnrollOptions
opts_for(int n)
{
    UnrollOptions o;
    o.n_tiles = n;
    return o;
}

TEST(Unroll, UnitStrideUnrollsByN)
{
    // A[i], stride 1, 4 tiles: repetition distance 4; trip 64 is too
    // large to peel under the default budget scaled down here.
    Program p = parse_program(R"(
int A[256];
int i;
for (i = 0; i < 256; i = i + 1) { A[i] = i; }
)");
    UnrollOptions o = opts_for(4);
    o.small_peel_limit = 10;
    o.forced_peel_limit = 100; // force partial unrolling
    UnrollStats st = unroll_program(p, o);
    EXPECT_EQ(st.loops_unrolled, 1);
    const Stmt *f = find_for(p.stmts);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->step, 4) << "unrolled by the repetition distance";
    EXPECT_EQ(f->iv_modulus, 4);
    EXPECT_EQ(f->iv_residue, 0);
    EXPECT_EQ(count_stmts(f->body), 4) << "4 copies of the body";
}

TEST(Unroll, RowStrideNeedsNoUnrolling)
{
    // A[i][j] with the loop over i (stride 32): 32 % 4 == 0, so the
    // home tile never varies with i; distance 1, loop kept rolled.
    Program p = parse_program(R"(
int A[64][32];
int i; int j;
j = 3;
for (i = 0; i < 64; i = i + 1) { A[i][j] = i; }
)");
    UnrollOptions o = opts_for(4);
    o.small_peel_limit = 10;
    UnrollStats st = unroll_program(p, o);
    EXPECT_EQ(st.loops_unrolled, 0);
    EXPECT_EQ(st.loops_peeled, 0);
    const Stmt *f = find_for(p.stmts);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->step, 1);
}

TEST(Unroll, LcmOfMultipleAccesses)
{
    // A[i] (distance 8) and B[2*i] (distance 4) on 8 tiles: lcm 8.
    Program p = parse_program(R"(
int A[512];
int B[512];
int i;
for (i = 0; i < 128; i = i + 1) { A[i] = B[2 * i]; }
)");
    UnrollOptions o = opts_for(8);
    o.small_peel_limit = 10;
    o.forced_peel_limit = 100;
    unroll_program(p, o);
    const Stmt *f = find_for(p.stmts);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->step, 8);
    EXPECT_EQ(f->iv_modulus, 8);
}

TEST(Unroll, RemainderIsPeeledExactly)
{
    // Trip 10, unroll 4 -> main loop 8 iterations + 2 peeled.
    Program p = parse_program(R"(
int A[64];
int i;
for (i = 0; i < 10; i = i + 1) { A[i] = i; }
)");
    UnrollOptions o = opts_for(4);
    o.small_peel_limit = 1;
    o.forced_peel_limit = 50;
    unroll_program(p, o);
    const Stmt *f = find_for(p.stmts);
    ASSERT_NE(f, nullptr);
    ASSERT_TRUE(f->bound != nullptr);
    EXPECT_EQ(f->bound->int_val, 8);
    // Two peeled iterations plus the final iv assignment follow.
    EXPECT_GE(count_stmts(p.stmts), 3);
}

TEST(Unroll, FullPeelWhenRequiredFactorExceedsTrip)
{
    // Trip 6 < distance 8: peeling is the only way to staticize.
    Program p = parse_program(R"(
int A[64];
int i;
for (i = 0; i < 6; i = i + 1) { A[i] = i; }
)");
    UnrollStats st = unroll_program(p, opts_for(8));
    EXPECT_EQ(st.loops_peeled, 1);
    EXPECT_EQ(find_for(p.stmts), nullptr) << "no loop remains";
}

TEST(Unroll, CongruenceResidueTracksStart)
{
    Program p = parse_program(R"(
int A[256];
int i;
for (i = 3; i < 130; i = i + 1) { A[i] = i; }
)");
    UnrollOptions o = opts_for(4);
    o.small_peel_limit = 1;
    o.forced_peel_limit = 10;
    unroll_program(p, o);
    const Stmt *f = find_for(p.stmts);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->iv_modulus, 4);
    EXPECT_EQ(f->iv_residue, 3);
}

TEST(Unroll, NonConstantBoundsLeftAlone)
{
    Program p = parse_program(R"(
int A[64];
int n; int i;
n = 13;
while (n > 10) { n = n - 1; }
for (i = 0; i < n; i = i + 1) { A[i] = i; }
)");
    UnrollStats st = unroll_program(p, opts_for(4));
    EXPECT_EQ(st.loops_unrolled, 0);
    EXPECT_EQ(st.loops_peeled, 0);
    EXPECT_NE(find_for(p.stmts), nullptr);
}

TEST(Unroll, BodyAssigningIvLeftAlone)
{
    Program p = parse_program(R"(
int A[64];
int i;
for (i = 0; i < 8; i = i + 1) { i = i + 1; A[i] = i; }
)");
    UnrollStats st = unroll_program(p, opts_for(4));
    EXPECT_EQ(st.loops_unrolled + st.loops_peeled, 0);
}

TEST(Unroll, ZeroTripLoopVanishes)
{
    Program p = parse_program(R"(
int A[8];
int i;
for (i = 5; i < 5; i = i + 1) { A[0] = 1; }
print(i);
)");
    unroll_program(p, opts_for(4));
    EXPECT_EQ(find_for(p.stmts), nullptr);
    // i still ends up with its initial value via an assignment.
    bool assigns_i = false;
    for (const StmtPtr &s : p.stmts)
        if (s->kind == StmtKind::kAssign && s->name == "i")
            assigns_i = true;
    EXPECT_TRUE(assigns_i);
}

TEST(Unroll, ConstPropagatedBounds)
{
    // Bounds referencing never-reassigned scalars fold.
    Program p = parse_program(R"(
int n = 8;
int A[64];
int i;
for (i = 0; i < n; i = i + 1) { A[i] = i; }
)");
    UnrollStats st = unroll_program(p, opts_for(16));
    EXPECT_EQ(st.loops_peeled, 1) << "trip 8 < distance 16";
}

TEST(Unroll, ConstFoldUsesWordSemantics)
{
    auto loop_to = [](const std::string &bound) {
        return parse_program("int A[64];\nint i;\nfor (i = 0; i < " +
                             bound +
                             "; i = i + 1) { A[i] = i; }\n");
    };
    // Folded bounds follow the IR's 32-bit semantics: shift counts
    // are masked to 5 bits, so each bound is 8 (trip 8 < distance
    // 16: peeled).
    for (const char *bound : {"(1 << 35)", "(64 >> 35)", "(1 << -29)"}) {
        SCOPED_TRACE(bound);
        Program p = loop_to(bound);
        UnrollStats st = unroll_program(p, opts_for(16));
        EXPECT_EQ(st.loops_peeled, 1);
        EXPECT_EQ(find_for(p.stmts), nullptr);
    }
    // INT32_MIN / -1 wraps to INT32_MIN instead of trapping: the
    // loop is never entered, so there is nothing to unroll (a 64-bit
    // fold would see 2^31 iterations and unroll them).
    Program p = loop_to("(-2147483648 / -1)");
    UnrollStats st = unroll_program(p, opts_for(16));
    EXPECT_EQ(st.loops_unrolled + st.loops_peeled, 0);
}

TEST(Unroll, DisabledByOption)
{
    Program p = parse_program(R"(
int A[64];
int i;
for (i = 0; i < 6; i = i + 1) { A[i] = i; }
)");
    UnrollOptions o = opts_for(8);
    o.enable = false;
    UnrollStats st = unroll_program(p, o);
    EXPECT_EQ(st.loops_unrolled + st.loops_peeled, 0);
}

TEST(Unroll, StmtWeight)
{
    Program p = parse_program("int x; x = 1 + 2 * 3;");
    EXPECT_GT(stmt_weight(*p.stmts[1]), 4);
}

/** The FatalError text of compiling @p src at @p tiles ("" = ok). */
std::string
compile_error(const std::string &src, int tiles,
              CompilerOptions opts = {})
{
    try {
        compile_source(src, MachineConfig::base(tiles), opts);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

// Full unrolling turns a computed subscript into a constant; one out
// of its extent is a compile error with the parser's literal-subscript
// message, at every tile count, rather than an access the simulator
// must reject.
TEST(Unroll, FoldedSubscriptOutOfRange)
{
    const char *load = "int a[4]; int i;\n"
                       "for (i = 0; i < 4; i = i + 1) { print(a[i - 1]); }\n";
    const char *store = "int a[4]; int i;\n"
                        "for (i = 0; i < 4; i = i + 1) { a[i + 1] = i; }\n";
    const char *dim2 = "float m[2][3]; int i; int j;\n"
                       "for (i = 0; i < 2; i = i + 1) {\n"
                       "  for (j = 0; j < 3; j = j + 1) { m[i][j + 2] = 1.0; }\n"
                       "}\n";
    for (int n : {1, 4, 16}) {
        EXPECT_NE(compile_error(load, n).find(
                      "subscript -1 out of range for 'a' (extent 4)"),
                  std::string::npos)
            << n;
        EXPECT_NE(compile_error(store, n).find(
                      "subscript 4 out of range for 'a' (extent 4)"),
                  std::string::npos)
            << n;
        EXPECT_NE(compile_error(dim2, n).find(
                      "subscript 3 out of range for 'm' (extent 3)"),
                  std::string::npos)
            << n;
    }
    // Literal arithmetic and never-reassigned constant scalars fold
    // the same way, with or without unrolling.
    CompilerOptions rolled;
    rolled.unroll.enable = false;
    for (const CompilerOptions &o : {CompilerOptions{}, rolled}) {
        EXPECT_NE(compile_error("int a[4]; print(a[2 + 2]);", 4, o)
                      .find("subscript 4 out of range for 'a'"),
                  std::string::npos);
        EXPECT_NE(compile_error("int n = 4; int a[4]; a[n - 5] = 1;", 4, o)
                      .find("subscript -1 out of range for 'a'"),
                  std::string::npos);
    }
}

// The checked subscripts are exactly the constant ones that can run:
// an arm whose condition folds to false is skipped (the usual guard
// of a first or last iteration), and a loop that stays rolled keeps a
// computed subscript, as does every loop with unrolling disabled.
TEST(Unroll, FoldedSubscriptGuardsAndRolledLoops)
{
    const char *guarded =
        "int a[4]; int i; int s; s = 0;\n"
        "for (i = 0; i < 4; i = i + 1) { a[i] = i + 1; }\n"
        "for (i = 0; i < 4; i = i + 1) {\n"
        "  if (i > 0 && i < 4) { s = s + a[i - 1]; } else { s = s + 10; }\n"
        "  if (i == 3) { s = s * 2; } else { s = s + a[i + 1]; }\n"
        "}\n"
        "print(s);\n";
    for (int n : {1, 4, 16}) {
        EXPECT_EQ(compile_error(guarded, n), "") << n;
        EXPECT_EQ(run_rawcc(guarded, MachineConfig::base(n)).prints,
                  run_baseline(guarded).prints)
            << n;
    }
    CompilerOptions rolled;
    rolled.unroll.enable = false;
    EXPECT_EQ(compile_error("int a[4]; int i;\n"
                            "for (i = 0; i < 4; i = i + 1) { a[i] = a[i + 1]; }\n",
                            4, rolled),
              "");
}

/** Statements of kind @p k in @p stmts, recursively. */
int
count_kind(const std::vector<StmtPtr> &stmts, StmtKind k)
{
    int n = 0;
    for (const StmtPtr &s : stmts)
        n += (s->kind == k) + count_kind(s->body, k) +
             count_kind(s->else_body, k);
    return n;
}

/** @p src unrolled for @p tiles tiles with the default limits. */
Program
unrolled(const std::string &src, int tiles)
{
    Program p = parse_program(src);
    unroll_program(p, opts_for(tiles));
    return p;
}

/** RAWCC at 1, 4 and 16 tiles prints what the baseline prints. */
void
expect_matches_baseline(const std::string &src)
{
    const std::string want = run_baseline(src).prints;
    EXPECT_FALSE(want.empty());
    for (int n : {1, 4, 16})
        EXPECT_EQ(run_rawcc(src, MachineConfig::base(n)).prints, want)
            << n;
}

// Peeling substitutes the exact induction value, so a guard on it is
// decided: only the live arm of each copy is emitted.
TEST(Unroll, PeelKeepsOnlyLiveArm)
{
    const char *src = "int a[8]; int i;\n"
                      "for (i = 0; i < 8; i = i + 1) {\n"
                      "  if (i < 3) { a[i] = i; } else { a[i] = 10 - i; }\n"
                      "  if (i == 5) { print(a[i]); }\n"
                      "}\n"
                      "print(a[1] + a[6]);\n";
    Program p = unrolled(src, 8);
    EXPECT_EQ(find_for(p.stmts), nullptr);
    EXPECT_EQ(count_kind(p.stmts, StmtKind::kIf), 0);
    EXPECT_EQ(count_kind(p.stmts, StmtKind::kArrayAssign), 8)
        << "one arm per copy";
    EXPECT_EQ(count_kind(p.stmts, StmtKind::kPrint), 2)
        << "the i == 5 copy plus the final print";
    // Copy 1 took the true arm, copy 6 the false arm.
    EXPECT_EQ(p.stmts[3]->kind, StmtKind::kArrayAssign);
    EXPECT_EQ(p.stmts[3]->expr->kind, ExprKind::kIntLit);
    EXPECT_EQ(p.stmts[9]->expr->kind, ExprKind::kBinary);
    expect_matches_baseline(src);
}

// cholesky's triangular guard: peeling j and i folds `i >= j`, but
// `j > k` still names k, and folds once the k loop substitutes it.
TEST(Unroll, NestedGuardFoldsOnceOuterIvKnown)
{
    const char *nest = "for (j = 0; j < 4; j = j + 1) {\n"
                       "  for (i = 0; i < 4; i = i + 1) {\n"
                       "    if (j > k) { if (i >= j) {\n"
                       "      a[i][j] = a[i][j] - a[i][k] * a[j][k];\n"
                       "    } }\n"
                       "  }\n"
                       "}\n";
    const std::string head = "int a[4][4]; int i; int j; int k;\n"
                             "for (i = 0; i < 16; i = i + 1) {\n"
                             "  a[i / 4][i % 4] = i % 5 + 1;\n"
                             "}\n";
    const std::string tail = "print(a[3][3] + a[2][1] + a[1][3]);\n";
    // k rolled (a `while`): each of the 16 (j, i) copies keeps its
    // `j > k` guard; only the 10 with i >= j keep an assignment.
    std::string rolled = head + "k = 0;\nwhile (k < 4) {\n" + nest +
                         "k = k + 1;\n}\n" + tail;
    Program p = unrolled(rolled, 16);
    EXPECT_EQ(count_kind(p.stmts, StmtKind::kFor), 0);
    EXPECT_EQ(count_kind(p.stmts, StmtKind::kIf), 16);
    EXPECT_EQ(count_kind(p.stmts, StmtKind::kArrayAssign), 16 + 10);
    expect_matches_baseline(rolled);
    // k peeled: no guard survives, and only the (k, j, i) with
    // i >= j > k assign: 6 + 3 + 1 + 0.
    std::string peeled =
        head + "for (k = 0; k < 4; k = k + 1) {\n" + nest + "}\n" + tail;
    p = unrolled(peeled, 16);
    EXPECT_EQ(count_kind(p.stmts, StmtKind::kFor), 0);
    EXPECT_EQ(count_kind(p.stmts, StmtKind::kIf), 0);
    EXPECT_EQ(count_kind(p.stmts, StmtKind::kArrayAssign), 16 + 10);
    expect_matches_baseline(peeled);
}

// A condition with a leaf that is not a constant is kept, even when
// one side of `&&` already decides it (rawc evaluates both sides).
TEST(Unroll, NonConstantLeafKeepsGuard)
{
    const char *src = "int a[4]; int i; int s; s = 1;\n"
                      "for (i = 0; i < 4; i = i + 1) {\n"
                      "  if (i > 0 && s > 0) { a[i] = s; }\n"
                      "  if (i < s) { s = s + 1; }\n"
                      "}\n"
                      "print(a[1] + a[3] + s);\n";
    Program p = unrolled(src, 4);
    EXPECT_EQ(find_for(p.stmts), nullptr);
    EXPECT_EQ(count_kind(p.stmts, StmtKind::kIf), 8);
    expect_matches_baseline(src);
}

// A `while` whose condition folds to false is not pruned.
TEST(Unroll, WhileFoldingFalseIsKept)
{
    const char *src = "int a[4]; int i;\n"
                      "for (i = 0; i < 4; i = i + 1) {\n"
                      "  a[i] = i;\n"
                      "  while (i > 2 && a[i] < 9) { a[i] = a[i] + 4; }\n"
                      "}\n"
                      "print(a[0] + a[3]);\n";
    Program p = unrolled(src, 4);
    EXPECT_EQ(find_for(p.stmts), nullptr);
    EXPECT_EQ(count_kind(p.stmts, StmtKind::kWhile), 4);
    expect_matches_baseline(src);
}

// Pruning drops the first iteration's `a[i - 1]` with its dead arm,
// and a live arm's out-of-range subscript is still the parser's error.
TEST(Unroll, PrunedGuardAndLiveSubscript)
{
    const char *guarded = "int a[4]; int i; int s; s = 0;\n"
                          "for (i = 0; i < 4; i = i + 1) { a[i] = i + 1; }\n"
                          "for (i = 0; i < 4; i = i + 1) {\n"
                          "  if (i > 0) { s = s + a[i - 1]; }\n"
                          "}\n"
                          "print(s);\n";
    EXPECT_EQ(count_kind(unrolled(guarded, 4).stmts, StmtKind::kIf), 0);
    expect_matches_baseline(guarded);
    const char *live = "int a[4]; int i;\n"
                       "for (i = 0; i < 4; i = i + 1) {\n"
                       "  if (i > 1) { print(a[i + 2]); }\n"
                       "}\n";
    for (int n : {1, 4, 16})
        EXPECT_NE(compile_error(live, n).find(
                      "subscript 4 out of range for 'a' (extent 4)"),
                  std::string::npos)
            << n;
}

// Names share one scope, so a declaration must reach lowering even in
// an arm that never runs: an `if` whose dead arm declares a name is
// kept whole, and `t` is still declared after the loop.
TEST(Unroll, DeclarationInDeadArmKeepsGuard)
{
    const char *src = "int i; int s; s = 0;\n"
                      "for (i = 0; i < 3; i = i + 1) {\n"
                      "  if (i > 5) { int t; t = 7; s = s + t; }\n"
                      "  if (i == 1) { s = s + 2; } else { s = s + 1; }\n"
                      "}\n"
                      "t = s + 1;\n"
                      "print(t);\n";
    Program p = unrolled(src, 4);
    EXPECT_EQ(find_for(p.stmts), nullptr);
    EXPECT_EQ(count_kind(p.stmts, StmtKind::kIf), 3)
        << "the i > 5 guards only";
    EXPECT_EQ(count_kind(p.stmts, StmtKind::kDeclScalar), 2 + 3);
    EXPECT_EQ(compile_error(src, 4), "");
    expect_matches_baseline(src);
}

// Every peeled copy of a declaration is the one variable its name
// names, so a value an earlier iteration stored survives the later
// copies: `u` is set only when i == 1 and still holds 2 after the
// loop (the lowering once bound each copy to a fresh variable, and
// this printed 3).
TEST(Unroll, PeeledDeclarationKeepsEarlierIterationsValue)
{
    const char *src = "int i; int s; s = 0;\n"
                      "for (i = 0; i < 3; i = i + 1) {\n"
                      "  if (i > 5) { int t; t = 7; s = s + t; }\n"
                      "  if (i == 1) { int u; u = 2; s = s + u; }\n"
                      "}\n"
                      "t = s + 1;\n"
                      "print(t + u);\n";
    EXPECT_EQ(count_kind(unrolled(src, 4).stmts, StmtKind::kDeclScalar),
              2 + 3 + 3)
        << "every copy declares t and u";
    EXPECT_EQ(run_baseline(src).prints, "5\n");
    expect_matches_baseline(src);
}

} // namespace
} // namespace raw
