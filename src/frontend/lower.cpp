#include "frontend/lower.hpp"

#include <unordered_map>

#include "ir/builder.hpp"
#include "support/error.hpp"
#include "support/mathutil.hpp"

namespace raw {

Op
binary_opcode(const std::string &op, bool is_float)
{
    struct Row
    {
        const char *op;
        Op i, f;
    };
    static const Row kRows[] = {
        {"+", Op::kAdd, Op::kFAdd},       {"-", Op::kSub, Op::kFSub},
        {"*", Op::kMul, Op::kFMul},       {"/", Op::kDiv, Op::kFDiv},
        {"%", Op::kRem, Op::kRem},        {"&", Op::kAnd, Op::kAnd},
        {"|", Op::kOr, Op::kOr},          {"^", Op::kXor, Op::kXor},
        {"<<", Op::kShl, Op::kShl},       {">>", Op::kShr, Op::kShr},
        {"<", Op::kCmpLt, Op::kFCmpLt},   {"<=", Op::kCmpLe, Op::kFCmpLe},
        {">", Op::kCmpGt, Op::kFCmpGt},   {">=", Op::kCmpGe, Op::kFCmpGe},
        {"==", Op::kCmpEq, Op::kFCmpEq},  {"!=", Op::kCmpNe, Op::kFCmpNe},
    };
    for (const Row &r : kRows)
        if (op == r.op)
            return is_float ? r.f : r.i;
    panic("lower: bad binary op " + op);
}

namespace {

class Lowerer
{
  public:
    Function
    run(const Program &prog)
    {
        fn_.name = "main";
        int entry = fn_.new_block("entry");
        b_ = std::make_unique<IRBuilder>(fn_);
        b_->set_block(entry);
        lower_stmts(prog.stmts);
        store_scalars();
        b_->halt();
        return std::move(fn_);
    }

  private:
    Function fn_;
    std::unique_ptr<IRBuilder> b_;
    std::unordered_map<std::string, ValueId> scalars_;
    std::unordered_map<std::string, int> arrays_;
    std::vector<EntryFact> active_facts_;

    int
    new_block(const std::string &name)
    {
        int id = fn_.new_block(name);
        fn_.blocks[id].entry_facts = active_facts_;
        return id;
    }

    ValueId
    scalar(const std::string &name)
    {
        auto it = scalars_.find(name);
        check(it != scalars_.end(), "lower: unknown scalar " + name);
        return it->second;
    }

    /** Flatten multi-dim subscripts to one element index value. */
    ValueId
    flat_index(int array, const std::vector<ExprPtr> &indices)
    {
        const ArrayInfo &ai = fn_.arrays[array];
        ValueId idx = lower_expr(*indices[0]);
        for (size_t d = 1; d < indices.size(); d++) {
            ValueId dim =
                b_->const_int(static_cast<int32_t>(ai.dims[d]));
            ValueId scaled = b_->emit(Op::kMul, Type::kI32, idx, dim);
            ValueId sub = lower_expr(*indices[d]);
            idx = b_->emit(Op::kAdd, Type::kI32, scaled, sub);
        }
        return idx;
    }

    /** Normalize an int value to 0/1. */
    ValueId
    normalize_bool(ValueId v)
    {
        ValueId zero = b_->const_int(0);
        return b_->emit(Op::kCmpNe, Type::kI32, v, zero);
    }

    ValueId
    lower_expr(const Expr &e)
    {
        switch (e.kind) {
          case ExprKind::kIntLit:
            return b_->const_int(e.int_val);
          case ExprKind::kFloatLit:
            return b_->const_float(e.float_val);
          case ExprKind::kVar:
            return scalar(e.name);
          case ExprKind::kArray: {
            int a = arrays_.at(e.name);
            return b_->load(a, flat_index(a, e.kids));
          }
          case ExprKind::kCast: {
            ValueId v = lower_expr(*e.kids[0]);
            if (fn_.values[v].type == e.type)
                return v;
            Op op = e.type == Type::kF32 ? Op::kItoF : Op::kFtoI;
            return b_->emit(op, e.type, v);
          }
          case ExprKind::kUnary: {
            ValueId v = lower_expr(*e.kids[0]);
            if (e.op == "-") {
                Op op = e.type == Type::kF32 ? Op::kFNeg : Op::kNeg;
                return b_->emit(op, e.type, v);
            }
            if (e.op == "sqrt")
                return b_->emit(Op::kFSqrt, Type::kF32, v);
            check(e.op == "!", "lower: bad unary op " + e.op);
            ValueId zero = b_->const_int(0);
            return b_->emit(Op::kCmpEq, Type::kI32, v, zero);
          }
          case ExprKind::kBinary:
            return lower_binary(e);
        }
        panic("lower: bad expr kind");
    }

    ValueId
    lower_binary(const Expr &e)
    {
        if (e.op == "&&" || e.op == "||") {
            ValueId l = normalize_bool(lower_expr(*e.kids[0]));
            ValueId r = normalize_bool(lower_expr(*e.kids[1]));
            Op op = e.op == "&&" ? Op::kAnd : Op::kOr;
            return b_->emit(op, Type::kI32, l, r);
        }
        ValueId l = lower_expr(*e.kids[0]);
        ValueId r = lower_expr(*e.kids[1]);
        Op op = binary_opcode(e.op, fn_.values[l].type == Type::kF32);
        return b_->emit(op, e.type, l, r);
    }

    void
    lower_stmts(const std::vector<StmtPtr> &stmts)
    {
        for (const StmtPtr &s : stmts)
            lower_stmt(*s);
    }

    void
    lower_stmt(const Stmt &s)
    {
        switch (s.kind) {
          // The parser refuses redeclarations, so a name bound here
          // already is a declaration the unroller copied into several
          // iterations: every copy is the one variable.
          case StmtKind::kDeclScalar: {
            auto [it, fresh] = scalars_.try_emplace(s.name, kNoValue);
            if (fresh)
                it->second = fn_.new_value(s.type, s.name, true);
            if (s.expr)
                b_->move_to(it->second, lower_expr(*s.expr));
            break;
          }
          case StmtKind::kDeclArray:
            if (!arrays_.count(s.name))
                arrays_[s.name] = fn_.new_array(s.name, s.type, s.dims);
            break;
          case StmtKind::kAssign:
            b_->move_to(scalar(s.name), lower_expr(*s.expr));
            break;
          case StmtKind::kArrayAssign: {
            int a = arrays_.at(s.name);
            ValueId idx = flat_index(a, s.indices);
            b_->store(a, idx, lower_expr(*s.expr));
            break;
          }
          case StmtKind::kPrint:
            b_->print(lower_expr(*s.expr));
            break;
          case StmtKind::kIf:
            lower_if(s);
            break;
          case StmtKind::kWhile:
            lower_while(s);
            break;
          case StmtKind::kFor:
            lower_for(s);
            break;
        }
    }

    void
    lower_if(const Stmt &s)
    {
        ValueId cond = lower_expr(*s.expr);
        int then_b = new_block("then");
        int join_b = -1;
        if (s.else_body.empty()) {
            join_b = new_block("join");
            b_->branch(cond, then_b, join_b);
            b_->set_block(then_b);
            lower_stmts(s.body);
            b_->jump(join_b);
        } else {
            int else_b = new_block("else");
            join_b = new_block("join");
            b_->branch(cond, then_b, else_b);
            b_->set_block(then_b);
            lower_stmts(s.body);
            b_->jump(join_b);
            b_->set_block(else_b);
            lower_stmts(s.else_body);
            b_->jump(join_b);
        }
        b_->set_block(join_b);
    }

    void
    lower_while(const Stmt &s)
    {
        int header = new_block("while_head");
        b_->jump(header);
        b_->set_block(header);
        ValueId cond = lower_expr(*s.expr);
        int body = new_block("while_body");
        int exit = new_block("while_exit");
        b_->branch(cond, body, exit);
        b_->set_block(body);
        lower_stmts(s.body);
        b_->jump(header);
        b_->set_block(exit);
    }

    void
    lower_for(const Stmt &s)
    {
        ValueId iv = scalar(s.name);
        b_->move_to(iv, lower_expr(*s.expr));

        bool have_fact = s.iv_modulus > 1;
        if (have_fact)
            active_facts_.push_back(
                {iv, Congruence::mod(s.iv_residue, s.iv_modulus)});

        int header = new_block("for_head");
        b_->jump(header);
        b_->set_block(header);
        ValueId bound = lower_expr(*s.bound);
        Op cmp;
        if (s.cmp == "<")
            cmp = Op::kCmpLt;
        else if (s.cmp == "<=")
            cmp = Op::kCmpLe;
        else if (s.cmp == ">")
            cmp = Op::kCmpGt;
        else
            cmp = Op::kCmpGe;
        ValueId cond = b_->emit(cmp, Type::kI32, iv, bound);
        int body = new_block("for_body");
        int exit;
        {
            // The exit block is outside the fact's scope.
            if (have_fact)
                active_facts_.pop_back();
            exit = new_block("for_exit");
            if (have_fact)
                active_facts_.push_back(
                    {iv, Congruence::mod(s.iv_residue, s.iv_modulus)});
        }
        b_->branch(cond, body, exit);
        b_->set_block(body);
        lower_stmts(s.body);
        ValueId step =
            b_->const_int(static_cast<int32_t>(s.step));
        ValueId next = b_->emit(Op::kAdd, Type::kI32, iv, step);
        b_->move_to(iv, next);
        b_->jump(header);

        if (have_fact)
            active_facts_.pop_back();
        b_->set_block(exit);
    }

    /** Epilogue: store every named scalar to __ivars / __fvars. */
    void
    store_scalars()
    {
        std::vector<ValueId> ivars, fvars;
        for (ValueId v : fn_.var_ids()) {
            if (fn_.values[v].type == Type::kI32)
                ivars.push_back(v);
            else
                fvars.push_back(v);
        }
        if (!ivars.empty()) {
            int a = fn_.new_array("__ivars", Type::kI32,
                                  {static_cast<int64_t>(ivars.size())});
            for (size_t k = 0; k < ivars.size(); k++)
                b_->store(a, b_->const_int(static_cast<int32_t>(k)),
                          ivars[k]);
        }
        if (!fvars.empty()) {
            int a = fn_.new_array("__fvars", Type::kF32,
                                  {static_cast<int64_t>(fvars.size())});
            for (size_t k = 0; k < fvars.size(); k++)
                b_->store(a, b_->const_int(static_cast<int32_t>(k)),
                          fvars[k]);
        }
    }
};

} // namespace

Function
lower_program(const Program &prog)
{
    Lowerer l;
    return l.run(prog);
}

} // namespace raw
