/**
 * @file
 * IR tests: construction, opcode metadata, word-exact evaluation
 * semantics, printer and verifier.
 */

#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "ir/eval.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"

namespace raw {
namespace {

TEST(Opcode, Metadata)
{
    EXPECT_EQ(op_num_srcs(Op::kAdd), 2);
    EXPECT_EQ(op_num_srcs(Op::kNeg), 1);
    EXPECT_EQ(op_num_srcs(Op::kConst), 0);
    EXPECT_EQ(op_num_srcs(Op::kStore), 2);
    EXPECT_TRUE(op_is_terminator(Op::kHalt));
    EXPECT_TRUE(op_is_terminator(Op::kBranch));
    EXPECT_FALSE(op_is_terminator(Op::kAdd));
    EXPECT_TRUE(op_is_memory(Op::kDynLoad));
    EXPECT_FALSE(op_has_dst(Op::kStore));
    EXPECT_TRUE(op_has_dst(Op::kRecv));
    EXPECT_TRUE(op_is_commutative(Op::kAdd));
    EXPECT_FALSE(op_is_commutative(Op::kSub));
    EXPECT_TRUE(op_is_replicable(Op::kAdd));
    EXPECT_FALSE(op_is_replicable(Op::kFAdd));
    EXPECT_FALSE(op_is_replicable(Op::kLoad));
    EXPECT_EQ(op_fu(Op::kMul), FuOp::kIntMul);
    EXPECT_EQ(op_fu(Op::kFSqrt), FuOp::kFpDiv);
}

TEST(Eval, IntegerSemantics)
{
    uint32_t out;
    ASSERT_TRUE(eval_op(Op::kAdd, int_bits(3), int_bits(4), out));
    EXPECT_EQ(bits_int(out), 7);
    // Wraparound.
    ASSERT_TRUE(eval_op(Op::kAdd, int_bits(INT32_MAX), int_bits(1),
                        out));
    EXPECT_EQ(bits_int(out), INT32_MIN);
    ASSERT_TRUE(eval_op(Op::kMul, int_bits(1 << 20), int_bits(1 << 20),
                        out));
    EXPECT_EQ(bits_int(out), 0);
    // Division by zero yields zero (documented rawc semantics).
    ASSERT_TRUE(eval_op(Op::kDiv, int_bits(5), int_bits(0), out));
    EXPECT_EQ(bits_int(out), 0);
    ASSERT_TRUE(eval_op(Op::kRem, int_bits(5), int_bits(0), out));
    EXPECT_EQ(bits_int(out), 0);
    ASSERT_TRUE(eval_op(Op::kShl, int_bits(1), int_bits(5), out));
    EXPECT_EQ(bits_int(out), 32);
    ASSERT_TRUE(eval_op(Op::kCmpLt, int_bits(-1), int_bits(0), out));
    EXPECT_EQ(bits_int(out), 1);
}

TEST(Eval, IntMinByMinusOneWraps)
{
    // The one quotient that overflows 32 bits wraps (and its
    // remainder is 0) instead of trapping the host.
    uint32_t out;
    ASSERT_TRUE(eval_op(Op::kDiv, int_bits(INT32_MIN), int_bits(-1),
                        out));
    EXPECT_EQ(bits_int(out), INT32_MIN);
    ASSERT_TRUE(eval_op(Op::kRem, int_bits(INT32_MIN), int_bits(-1),
                        out));
    EXPECT_EQ(bits_int(out), 0);
    ASSERT_TRUE(eval_op(Op::kDiv, int_bits(INT32_MIN), int_bits(1),
                        out));
    EXPECT_EQ(bits_int(out), INT32_MIN);
    ASSERT_TRUE(eval_op(Op::kDiv, int_bits(-7), int_bits(2), out));
    EXPECT_EQ(bits_int(out), -3);
    ASSERT_TRUE(eval_op(Op::kRem, int_bits(-7), int_bits(2), out));
    EXPECT_EQ(bits_int(out), -1);
}

TEST(Eval, FloatSemantics)
{
    uint32_t out;
    ASSERT_TRUE(eval_op(Op::kFAdd, float_bits(1.5f), float_bits(2.25f),
                        out));
    EXPECT_EQ(bits_float(out), 3.75f);
    ASSERT_TRUE(eval_op(Op::kFSqrt, float_bits(9.0f), 0, out));
    EXPECT_EQ(bits_float(out), 3.0f);
    ASSERT_TRUE(eval_op(Op::kItoF, int_bits(-7), 0, out));
    EXPECT_EQ(bits_float(out), -7.0f);
    ASSERT_TRUE(eval_op(Op::kFtoI, float_bits(3.9f), 0, out));
    EXPECT_EQ(bits_int(out), 3);
    // NaN-safe and saturating conversions.
    ASSERT_TRUE(eval_op(Op::kFtoI, float_bits(1e30f), 0, out));
    EXPECT_EQ(bits_int(out), INT32_MAX);
    ASSERT_TRUE(
        eval_op(Op::kFtoI, float_bits(0.0f / 0.0f), 0, out));
    EXPECT_EQ(bits_int(out), 0);
}

TEST(Eval, RejectsNonComputational)
{
    uint32_t out;
    EXPECT_FALSE(eval_op(Op::kLoad, 0, 0, out));
    EXPECT_FALSE(eval_op(Op::kJump, 0, 0, out));
    EXPECT_FALSE(eval_op(Op::kSend, 0, 0, out));
}

Function
make_simple()
{
    Function fn;
    int b = fn.new_block("entry");
    IRBuilder ib(fn);
    ib.set_block(b);
    ValueId x = ib.const_int(21);
    ValueId y = ib.emit(Op::kAdd, Type::kI32, x, x);
    ib.print(y);
    ib.halt();
    return fn;
}

TEST(IR, BuilderAndPrinter)
{
    Function fn = make_simple();
    EXPECT_EQ(fn.blocks.size(), 1u);
    EXPECT_EQ(fn.blocks[0].instrs.size(), 4u);
    std::string text = print_function(fn);
    EXPECT_NE(text.find("add"), std::string::npos);
    EXPECT_NE(text.find("21"), std::string::npos);
    EXPECT_NE(text.find("halt"), std::string::npos);
}

TEST(IR, Successors)
{
    Function fn;
    int a = fn.new_block("a");
    int b = fn.new_block("b");
    int c = fn.new_block("c");
    IRBuilder ib(fn);
    ib.set_block(a);
    ValueId cond = ib.const_int(1);
    ib.branch(cond, b, c);
    ib.set_block(b);
    ib.jump(c);
    ib.set_block(c);
    ib.halt();
    EXPECT_EQ(fn.blocks[a].successors(), (std::vector<int>{b, c}));
    EXPECT_EQ(fn.blocks[b].successors(), (std::vector<int>{c}));
    EXPECT_TRUE(fn.blocks[c].successors().empty());
    auto preds = fn.predecessors();
    EXPECT_EQ(preds[c].size(), 2u);
}

TEST(Verifier, AcceptsWellFormed)
{
    Function fn = make_simple();
    EXPECT_EQ(verify_function(fn), "");
}

TEST(Verifier, RejectsMissingTerminator)
{
    Function fn = make_simple();
    fn.blocks[0].instrs.pop_back();
    EXPECT_NE(verify_function(fn), "");
}

TEST(Verifier, RejectsUseBeforeDef)
{
    Function fn;
    int b = fn.new_block("entry");
    ValueId x = fn.new_value(Type::kI32);
    ValueId y = fn.new_value(Type::kI32);
    IRBuilder ib(fn);
    ib.set_block(b);
    ib.append(Instr::make(Op::kAdd, Type::kI32, y, x, x)); // x undefined
    ib.halt();
    EXPECT_NE(verify_function(fn), "");
}

TEST(Verifier, RejectsTypeMismatch)
{
    Function fn;
    int b = fn.new_block("entry");
    IRBuilder ib(fn);
    ib.set_block(b);
    ValueId f = ib.const_float(1.0f);
    ValueId d = fn.new_value(Type::kI32);
    ib.append(Instr::make(Op::kAdd, Type::kI32, d, f, f));
    ib.halt();
    EXPECT_NE(verify_function(fn), "");
}

TEST(Verifier, RejectsBadBranchTarget)
{
    Function fn = make_simple();
    Instr j;
    j.op = Op::kJump;
    j.target[0] = 99;
    fn.blocks[0].instrs.back() = j;
    EXPECT_NE(verify_function(fn), "");
}

TEST(Verifier, RejectsBadArrayIndexType)
{
    Function fn;
    int b = fn.new_block("entry");
    int arr = fn.new_array("A", Type::kI32, {8});
    IRBuilder ib(fn);
    ib.set_block(b);
    ValueId f = ib.const_float(0.0f);
    ValueId d = fn.new_value(Type::kI32);
    Instr ld = Instr::make(Op::kLoad, Type::kI32, d, f);
    ld.array = arr;
    ib.append(ld);
    ib.halt();
    EXPECT_NE(verify_function(fn), "");
}

} // namespace
} // namespace raw
