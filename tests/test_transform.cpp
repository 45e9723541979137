/**
 * @file
 * Transform tests: constant folding + DCE, software renaming,
 * CFG simplification, strength reduction, block splitting.
 */

#include <gtest/gtest.h>

#include "frontend/lower.hpp"
#include "frontend/parser.hpp"
#include "ir/builder.hpp"
#include "ir/eval.hpp"
#include "ir/verifier.hpp"
#include "transform/congruence.hpp"
#include "transform/constfold.hpp"
#include "transform/rename.hpp"
#include "transform/simplify.hpp"
#include "transform/split.hpp"
#include "transform/strength.hpp"

namespace raw {
namespace {

int
count_op(const Function &fn, Op op)
{
    int n = 0;
    for (const Block &b : fn.blocks)
        for (const Instr &in : b.instrs)
            if (in.op == op)
                n++;
    return n;
}

TEST(ConstFold, FoldsChains)
{
    Function fn;
    int b = fn.new_block("entry");
    IRBuilder ib(fn);
    ib.set_block(b);
    ValueId x = ib.const_int(6);
    ValueId y = ib.const_int(7);
    ValueId z = ib.emit(Op::kMul, Type::kI32, x, y);
    ValueId w = ib.emit(Op::kAdd, Type::kI32, z, z);
    ib.print(w);
    ib.halt();
    constfold_function(fn);
    // mul and add fold to constants; dead producers removed.
    EXPECT_EQ(count_op(fn, Op::kMul), 0);
    EXPECT_EQ(count_op(fn, Op::kAdd), 0);
    bool found84 = false;
    for (const Instr &in : fn.blocks[0].instrs)
        if (in.op == Op::kConst && bits_int(in.imm_bits) == 84)
            found84 = true;
    EXPECT_TRUE(found84);
}

TEST(ConstFold, VariableKill)
{
    // A variable's constness dies at reassignment.
    Program p = parse_program(R"(
int A[4];
int x;
x = 5;
A[0] = x;       // foldable index and value
x = A[1];       // x no longer constant
A[2] = x + 1;   // must keep the add
)");
    Function fn = lower_program(p);
    constfold_function(fn);
    EXPECT_GE(count_op(fn, Op::kAdd), 1);
}

TEST(ConstFold, KeepsSideEffects)
{
    Program p = parse_program("print(2 + 3);");
    Function fn = lower_program(p);
    constfold_function(fn);
    EXPECT_EQ(count_op(fn, Op::kPrint), 1);
}

TEST(Rename, SingleAssignmentWithTrailingWritebacks)
{
    Program p = parse_program(R"(
int a; int b;
a = 1;
b = a + 1;
a = b + 2;
b = a + 3;
print(b);
)");
    Function fn = lower_program(p);
    rename_function(fn);
    EXPECT_EQ(verify_function(fn), "");
    const Block &blk = fn.blocks[0];
    // All writes to a variable are trailing write-back moves, and
    // they come after every non-writeback instruction.
    bool seen_writeback = false;
    int writebacks = 0;
    for (size_t k = 0; k + 1 < blk.instrs.size(); k++) {
        const Instr &in = blk.instrs[k];
        bool wb = is_writeback(fn, in);
        if (wb) {
            seen_writeback = true;
            writebacks++;
        } else {
            EXPECT_FALSE(seen_writeback)
                << "non-writeback after writeback at " << k;
            if (in.has_dst()) {
                EXPECT_FALSE(fn.values[in.dst].is_var)
                    << "variable written mid-block";
            }
        }
    }
    EXPECT_EQ(writebacks, 2) << "one write-back per written variable";
}

TEST(Rename, ReadsBecomeLiveInOnly)
{
    Program p = parse_program(R"(
int a;
a = 3;
a = a + a;
print(a);
)");
    Function fn = lower_program(p);
    rename_function(fn);
    // After renaming, `a` may appear as a source only before its
    // local redefinition... which renaming moved to the end, so the
    // print must read a temp, not the variable.
    const Block &blk = fn.blocks[0];
    for (const Instr &in : blk.instrs) {
        if (in.op == Op::kPrint) {
            EXPECT_FALSE(fn.values[in.src[0]].is_var);
        }
    }
}

TEST(Simplify, FoldsConstantBranches)
{
    Program p = parse_program(R"(
int x;
if (3 > 2) { x = 1; } else { x = 2; }
print(x);
)");
    Function fn = lower_program(p);
    constfold_function(fn);
    while (simplify_cfg(fn))
        constfold_function(fn);
    EXPECT_EQ(verify_function(fn), "");
    EXPECT_EQ(count_op(fn, Op::kBranch), 0);
    EXPECT_EQ(fn.blocks.size(), 1u) << "everything merges into entry";
}

TEST(Simplify, RemovesUnreachable)
{
    Program p = parse_program(R"(
int x;
x = 0;
if (1 == 0) { x = 99; }
print(x);
)");
    Function fn = lower_program(p);
    size_t before = fn.blocks.size();
    constfold_function(fn);
    while (simplify_cfg(fn))
        constfold_function(fn);
    EXPECT_LT(fn.blocks.size(), before);
    EXPECT_EQ(verify_function(fn), "");
}

TEST(Simplify, PreservesLoops)
{
    Program p = parse_program(R"(
int i; int s;
s = 0;
for (i = 0; i < 10; i = i + 1) { s = s + i; }
print(s);
)");
    Function fn = lower_program(p);
    constfold_function(fn);
    while (simplify_cfg(fn))
        constfold_function(fn);
    EXPECT_EQ(verify_function(fn), "");
    EXPECT_EQ(count_op(fn, Op::kBranch), 1) << "loop back-edge stays";
}

TEST(Strength, PowerOfTwoBecomesShift)
{
    Program p = parse_program(R"(
int A[4];
int x; int y;
x = A[0];
y = x * 32;
print(y);
)");
    Function fn = lower_program(p);
    constfold_function(fn);
    strength_reduce(fn);
    EXPECT_EQ(count_op(fn, Op::kMul), 0);
    EXPECT_GE(count_op(fn, Op::kShl), 1);
}

TEST(Strength, TwoTermDecompositions)
{
    for (const char *expr : {"x * 3", "x * 5", "x * 7", "x * 240",
                             "x * 17", "x * 96"}) {
        Program p = parse_program(std::string(R"(
int A[4];
int x; int y;
x = A[0];
y = )") + expr + "; print(y);");
        Function fn = lower_program(p);
        constfold_function(fn);
        strength_reduce(fn);
        EXPECT_EQ(count_op(fn, Op::kMul), 0) << expr;
    }
    // Three-plus-term constants stay as multiplies.
    Program p = parse_program(R"(
int A[4];
int x; int y;
x = A[0];
y = x * 73;  // 64 + 8 + 1: three terms
print(y);
)");
    Function fn = lower_program(p);
    constfold_function(fn);
    strength_reduce(fn);
    EXPECT_EQ(count_op(fn, Op::kMul), 1);
}

TEST(Strength, PreservesSemantics)
{
    // Exhaustive check of the rewrite against plain multiplication.
    for (int c : {1, 2, 3, 5, 7, 12, 15, 16, 17, 24, 48, 96, 240}) {
        Function fn;
        int b = fn.new_block("entry");
        int arr = fn.new_array("A", Type::kI32, {1});
        IRBuilder ib(fn);
        ib.set_block(b);
        ValueId z = ib.const_int(0);
        ib.store(arr, z, ib.const_int(-37));
        ValueId x = ib.load(arr, z);
        ValueId cc = ib.const_int(c);
        ValueId y = ib.emit(Op::kMul, Type::kI32, x, cc);
        ib.print(y);
        ib.halt();
        strength_reduce(fn);
        EXPECT_EQ(verify_function(fn), "") << c;
        // Interpret the block by hand.
        std::vector<uint32_t> vals(fn.values.size(), 0);
        uint32_t printed = 0;
        uint32_t mem = 0;
        for (const Instr &in : fn.blocks[0].instrs) {
            if (in.op == Op::kConst)
                vals[in.dst] = in.imm_bits;
            else if (in.op == Op::kStore)
                mem = vals[in.src[1]];
            else if (in.op == Op::kLoad)
                vals[in.dst] = mem;
            else if (in.op == Op::kPrint)
                printed = vals[in.src[0]];
            else if (in.has_dst()) {
                uint32_t out;
                ASSERT_TRUE(eval_op(in.op, vals[in.src[0]],
                                    in.src[1] >= 0 ? vals[in.src[1]]
                                                   : 0,
                                    out));
                vals[in.dst] = out;
            }
        }
        EXPECT_EQ(bits_int(printed), -37 * c) << c;
    }
}

TEST(Split, CutsLongBlocksAndPreservesFacts)
{
    Function fn;
    int b = fn.new_block("entry");
    int arr = fn.new_array("A", Type::kI32, {1024});
    ValueId iv = fn.new_value(Type::kI32, "i", true);
    fn.blocks[b].entry_facts.push_back({iv, Congruence::mod(0, 4)});
    IRBuilder ib(fn);
    ib.set_block(b);
    // A long chain with a value defined early and used late.
    ValueId early = ib.emit(Op::kAdd, Type::kI32, iv, iv);
    ValueId x = early;
    for (int k = 0; k < 100; k++)
        x = ib.emit(Op::kAdd, Type::kI32, x, iv);
    ValueId y = ib.emit(Op::kAdd, Type::kI32, early, x);
    ib.store(arr, y, y);
    ib.halt();

    int cuts = split_large_blocks(fn, 32);
    EXPECT_GT(cuts, 0);
    EXPECT_EQ(verify_function(fn), "");
    for (const Block &blk : fn.blocks)
        EXPECT_LE(blk.instrs.size(), 34u);
    // `early` crosses a cut: it must now be a variable.
    EXPECT_TRUE(fn.values[early].is_var);
    // The iv fact survives into continuation chunks (iv never
    // written), and the promoted value carries its own congruence.
    bool fact_in_later_chunk = false;
    for (size_t k = 1; k < fn.blocks.size(); k++)
        for (const EntryFact &f : fn.blocks[k].entry_facts)
            if (f.var == iv)
                fact_in_later_chunk = true;
    EXPECT_TRUE(fact_in_later_chunk);
}

TEST(Congruence, TracksThroughBlock)
{
    Function fn;
    int b = fn.new_block("entry");
    ValueId iv = fn.new_value(Type::kI32, "i", true);
    fn.blocks[b].entry_facts.push_back({iv, Congruence::mod(2, 8)});
    IRBuilder ib(fn);
    ib.set_block(b);
    ValueId c32 = ib.const_int(32);
    ValueId row = ib.emit(Op::kMul, Type::kI32, iv, c32);
    ValueId c3 = ib.const_int(3);
    ValueId idx = ib.emit(Op::kAdd, Type::kI32, row, c3);
    ValueId sh = ib.const_int(2);
    ValueId quad = ib.emit(Op::kShl, Type::kI32, iv, sh);
    ib.halt();

    CongruenceMap cm(fn, b);
    EXPECT_EQ(cm.get(iv).residue_mod(8), 2);
    EXPECT_EQ(cm.get(row).residue_mod(32), 0) << "i*32 == 0 mod 32";
    EXPECT_EQ(cm.get(idx).residue_mod(32), 3);
    EXPECT_EQ(cm.get(quad).residue_mod(32), 8) << "(i<<2) == 8 mod 32";
    EXPECT_EQ(cm.residue_mod(idx, 64), 3)
        << "i*32 == 64 (mod 256) makes idx known even mod 64";
    EXPECT_EQ(cm.residue_mod(idx, 512), -1) << "not known mod 512";
}

} // namespace
} // namespace raw
