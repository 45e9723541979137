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

} // namespace
} // namespace raw
