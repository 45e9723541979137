#include "frontend/ast.hpp"

namespace raw {

ExprPtr
Expr::clone() const
{
    auto e = std::make_unique<Expr>();
    e->kind = kind;
    e->type = type;
    e->int_val = int_val;
    e->float_val = float_val;
    e->name = name;
    e->op = op;
    for (const ExprPtr &k : kids)
        e->kids.push_back(k->clone());
    return e;
}

StmtPtr
Stmt::clone() const
{
    auto s = std::make_unique<Stmt>();
    s->kind = kind;
    s->type = type;
    s->name = name;
    s->dims = dims;
    if (expr)
        s->expr = expr->clone();
    for (const ExprPtr &i : indices)
        s->indices.push_back(i->clone());
    for (const StmtPtr &b : body)
        s->body.push_back(b->clone());
    for (const StmtPtr &b : else_body)
        s->else_body.push_back(b->clone());
    if (bound)
        s->bound = bound->clone();
    s->step = step;
    s->cmp = cmp;
    s->iv_residue = iv_residue;
    s->iv_modulus = iv_modulus;
    return s;
}

ExprPtr
make_int_lit(int32_t v)
{
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kIntLit;
    e->type = Type::kI32;
    e->int_val = v;
    return e;
}

ExprPtr
make_float_lit(float v)
{
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kFloatLit;
    e->type = Type::kF32;
    e->float_val = v;
    return e;
}

ExprPtr
make_var(const std::string &name, Type t)
{
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kVar;
    e->type = t;
    e->name = name;
    return e;
}

ExprPtr
make_binary(const std::string &op, ExprPtr l, ExprPtr r)
{
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kBinary;
    e->op = op;
    e->type = (l->type == Type::kF32 || r->type == Type::kF32)
                  ? Type::kF32
                  : Type::kI32;
    bool is_cmp = op == "<" || op == "<=" || op == ">" || op == ">=" ||
                  op == "==" || op == "!=";
    e->kids.push_back(std::move(l));
    e->kids.push_back(std::move(r));
    if (is_cmp)
        e->type = Type::kI32;
    return e;
}

} // namespace raw
