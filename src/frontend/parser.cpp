#include "frontend/parser.hpp"

#include <unordered_map>

#include "frontend/lexer.hpp"
#include "support/error.hpp"

namespace raw {

namespace {

/** Parser state: token stream plus symbol tables. */
class Parser
{
  public:
    explicit Parser(const std::string &src) : toks_(tokenize(src)) {}

    Program
    parse()
    {
        Program p;
        while (peek().kind != Tok::kEof)
            p.stmts.push_back(parse_stmt());
        return p;
    }

  private:
    std::vector<Token> toks_;
    size_t pos_ = 0;
    std::unordered_map<std::string, Type> scalars_;
    /** Element type and dimension extents of each declared array. */
    std::unordered_map<std::string, std::pair<Type, std::vector<int64_t>>>
        arrays_;
    /** Nesting levels open at the parse point (see kMaxNesting). */
    int depth_ = 0;

    const Token &peek(int ahead = 0) const
    {
        size_t i = pos_ + ahead;
        return i < toks_.size() ? toks_[i] : toks_.back();
    }
    const Token &
    next()
    {
        const Token &t = peek();
        if (pos_ + 1 < toks_.size())
            pos_++;
        return t;
    }
    [[noreturn]] void
    err(const std::string &msg)
    {
        const Token &t = peek();
        fatal("parse error at " + std::to_string(t.line) + ":" +
              std::to_string(t.col) + " near '" + t.text + "': " + msg);
    }
    /** Open one nesting level; the caller closes it (depth_--). */
    void
    open()
    {
        if (++depth_ > kMaxNesting)
            err("nesting deeper than " + std::to_string(kMaxNesting) +
                " levels");
    }
    const Token &
    expect(Tok k, const std::string &what)
    {
        if (peek().kind != k)
            err("expected " + what);
        return next();
    }

    /**
     * Parse the `[e]` subscripts of array @p name into @p out and
     * return its element type.  The count must match the declaration,
     * and a literal subscript (an int literal, optionally negated)
     * must lie inside its dimension's extent.  A computed subscript
     * is not checked: out of range it is undefined behavior.
     */
    Type
    parse_subscripts(const std::string &name, std::vector<ExprPtr> &out)
    {
        auto it = arrays_.find(name);
        if (it == arrays_.end())
            err("undeclared array '" + name + "'");
        const std::vector<int64_t> &dims = it->second.second;
        while (peek().kind == Tok::kLBracket) {
            open();
            next();
            ExprPtr idx = parse_expr();
            if (idx->type != Type::kI32)
                err("array index must be int");
            const bool neg = idx->kind == ExprKind::kUnary &&
                             idx->op == "-";
            const Expr &lit = neg ? *idx->kids[0] : *idx;
            if (out.size() < dims.size() &&
                lit.kind == ExprKind::kIntLit) {
                int64_t v = neg ? -int64_t{lit.int_val} : lit.int_val;
                int64_t extent = dims[out.size()];
                if (v < 0 || v >= extent)
                    err("subscript " + std::to_string(v) +
                        " out of range for '" + name + "' (extent " +
                        std::to_string(extent) + ")");
            }
            out.push_back(std::move(idx));
            expect(Tok::kRBracket, "']'");
            depth_--;
        }
        if (out.size() != dims.size())
            err("wrong number of subscripts for '" + name + "'");
        return it->second.first;
    }

    ExprPtr
    coerce(ExprPtr e, Type want)
    {
        if (e->type == want)
            return e;
        auto c = std::make_unique<Expr>();
        c->kind = ExprKind::kCast;
        c->type = want;
        c->kids.push_back(std::move(e));
        return c;
    }

    /** Unify operand types for arithmetic; returns result type. */
    Type
    unify(ExprPtr &l, ExprPtr &r)
    {
        if (l->type == Type::kF32 || r->type == Type::kF32) {
            l = coerce(std::move(l), Type::kF32);
            r = coerce(std::move(r), Type::kF32);
            return Type::kF32;
        }
        return Type::kI32;
    }

    ExprPtr
    binary(const std::string &op, ExprPtr l, ExprPtr r)
    {
        bool cmp = op == "<" || op == "<=" || op == ">" || op == ">=" ||
                   op == "==" || op == "!=";
        bool int_only = op == "%" || op == "&" || op == "|" || op == "^" ||
                        op == "<<" || op == ">>" || op == "&&" ||
                        op == "||";
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kBinary;
        e->op = op;
        if (int_only) {
            if (l->type != Type::kI32 || r->type != Type::kI32)
                err("operator '" + op + "' requires int operands");
            e->type = Type::kI32;
        } else {
            Type t = unify(l, r);
            e->type = cmp ? Type::kI32 : t;
        }
        e->kids.push_back(std::move(l));
        e->kids.push_back(std::move(r));
        return e;
    }

    /** Binding level of binary operator @p k, loosest 0; -1 if none. */
    static int
    precedence(Tok k)
    {
        switch (k) {
          case Tok::kOrOr: return 0;
          case Tok::kAndAnd: return 1;
          case Tok::kPipe: return 2;
          case Tok::kCaret: return 3;
          case Tok::kAmp: return 4;
          case Tok::kEq: case Tok::kNe: return 5;
          case Tok::kLt: case Tok::kLe: case Tok::kGt: case Tok::kGe:
            return 6;
          case Tok::kShl: case Tok::kShr: return 7;
          case Tok::kPlus: case Tok::kMinus: return 8;
          case Tok::kStar: case Tok::kSlash: case Tok::kPercent:
            return 9;
          default: return -1;
        }
    }

    ExprPtr
    parse_expr()
    {
        return parse_binary(0);
    }

    /**
     * Operators binding at least as tightly as level @p min, left
     * associative (precedence climbing).  Each operator opens a
     * nesting level for the rest of its chain, since a chain builds a
     * left-deep tree.
     */
    ExprPtr
    parse_binary(int min)
    {
        const int depth = depth_;
        ExprPtr e = parse_unary();
        for (int level; (level = precedence(peek().kind)) >= min;) {
            open();
            std::string op = next().text;
            e = binary(op, std::move(e), parse_binary(level + 1));
        }
        depth_ = depth;
        return e;
    }

    /** `-e`, `!e`, or a cast `(int)e` / `(float)e`; else a primary. */
    ExprPtr
    parse_unary()
    {
        const Tok k = peek().kind;
        const bool cast = k == Tok::kLParen &&
                          (peek(1).kind == Tok::kKwInt ||
                           peek(1).kind == Tok::kKwFloat) &&
                          peek(2).kind == Tok::kRParen;
        if (k != Tok::kMinus && k != Tok::kBang && !cast)
            return parse_primary();
        open();
        auto e = std::make_unique<Expr>();
        if (cast) {
            next();
            e->kind = ExprKind::kCast;
            e->type = next().kind == Tok::kKwInt ? Type::kI32 : Type::kF32;
            next();
        } else {
            e->kind = ExprKind::kUnary;
            e->op = next().text;
        }
        ExprPtr operand = parse_unary();
        depth_--;
        if (k == Tok::kBang && operand->type != Type::kI32)
            err("'!' requires int operand");
        if (k == Tok::kMinus)
            e->type = operand->type;
        else if (k == Tok::kBang)
            e->type = Type::kI32;
        e->kids.push_back(std::move(operand));
        return e;
    }
    ExprPtr
    parse_primary()
    {
        const Token &t = peek();
        if (t.kind == Tok::kIntLit) {
            next();
            return make_int_lit(t.int_val);
        }
        if (t.kind == Tok::kFloatLit) {
            next();
            return make_float_lit(t.float_val);
        }
        if (t.kind == Tok::kLParen) {
            open();
            next();
            ExprPtr e = parse_expr();
            expect(Tok::kRParen, "')'");
            depth_--;
            return e;
        }
        if (t.kind == Tok::kIdent) {
            std::string name = next().text;
            if (name == "sqrt" && peek().kind == Tok::kLParen) {
                open();
                next();
                ExprPtr arg = coerce(parse_expr(), Type::kF32);
                expect(Tok::kRParen, "')'");
                depth_--;
                auto e = std::make_unique<Expr>();
                e->kind = ExprKind::kUnary;
                e->op = "sqrt";
                e->type = Type::kF32;
                e->kids.push_back(std::move(arg));
                return e;
            }
            if (peek().kind == Tok::kLBracket) {
                auto e = std::make_unique<Expr>();
                e->kind = ExprKind::kArray;
                e->name = name;
                e->type = parse_subscripts(name, e->kids);
                return e;
            }
            auto it = scalars_.find(name);
            if (it == scalars_.end())
                err("undeclared variable '" + name + "'");
            return make_var(name, it->second);
        }
        err("expected expression");
    }

    std::vector<StmtPtr>
    parse_block()
    {
        expect(Tok::kLBrace, "'{'");
        open();
        std::vector<StmtPtr> out;
        while (peek().kind != Tok::kRBrace)
            out.push_back(parse_stmt());
        next();
        depth_--;
        return out;
    }

    StmtPtr
    parse_stmt()
    {
        const Token &t = peek();
        if (t.kind == Tok::kKwInt || t.kind == Tok::kKwFloat)
            return parse_decl();
        if (t.kind == Tok::kKwIf)
            return parse_if();
        if (t.kind == Tok::kKwWhile)
            return parse_while();
        if (t.kind == Tok::kKwFor)
            return parse_for();
        if (t.kind == Tok::kKwPrint) {
            next();
            expect(Tok::kLParen, "'('");
            auto s = std::make_unique<Stmt>();
            s->kind = StmtKind::kPrint;
            s->expr = parse_expr();
            expect(Tok::kRParen, "')'");
            expect(Tok::kSemi, "';'");
            return s;
        }
        if (t.kind == Tok::kIdent)
            return parse_assign();
        err("expected statement");
    }

    StmtPtr
    parse_decl()
    {
        Type ty = next().kind == Tok::kKwInt ? Type::kI32 : Type::kF32;
        std::string name = expect(Tok::kIdent, "identifier").text;
        if (scalars_.count(name) || arrays_.count(name))
            err("redeclaration of '" + name + "'");
        auto s = std::make_unique<Stmt>();
        s->type = ty;
        s->name = name;
        if (peek().kind == Tok::kLBracket) {
            s->kind = StmtKind::kDeclArray;
            while (peek().kind == Tok::kLBracket) {
                next();
                const Token &d = expect(Tok::kIntLit,
                                        "constant array dimension");
                if (d.int_val <= 0)
                    err("array dimension must be positive");
                s->dims.push_back(d.int_val);
                expect(Tok::kRBracket, "']'");
            }
            arrays_[name] = {ty, s->dims};
        } else {
            s->kind = StmtKind::kDeclScalar;
            if (peek().kind == Tok::kAssign) {
                next();
                s->expr = coerce(parse_expr(), ty);
            }
            scalars_[name] = ty;
        }
        expect(Tok::kSemi, "';'");
        return s;
    }

    StmtPtr
    parse_assign()
    {
        std::string name = next().text;
        auto s = std::make_unique<Stmt>();
        s->name = name;
        if (peek().kind == Tok::kLBracket) {
            s->kind = StmtKind::kArrayAssign;
            Type elem = parse_subscripts(name, s->indices);
            expect(Tok::kAssign, "'='");
            s->expr = coerce(parse_expr(), elem);
        } else {
            auto it = scalars_.find(name);
            if (it == scalars_.end())
                err("undeclared variable '" + name + "'");
            s->kind = StmtKind::kAssign;
            expect(Tok::kAssign, "'='");
            s->expr = coerce(parse_expr(), it->second);
        }
        expect(Tok::kSemi, "';'");
        return s;
    }

    StmtPtr
    parse_if()
    {
        next();
        expect(Tok::kLParen, "'('");
        auto s = std::make_unique<Stmt>();
        s->kind = StmtKind::kIf;
        s->expr = parse_expr();
        if (s->expr->type != Type::kI32)
            err("condition must be int");
        expect(Tok::kRParen, "')'");
        s->body = parse_block();
        if (peek().kind == Tok::kKwElse) {
            next();
            if (peek().kind == Tok::kKwIf) {
                open();
                s->else_body.push_back(parse_if());
                depth_--;
            } else {
                s->else_body = parse_block();
            }
        }
        return s;
    }

    StmtPtr
    parse_while()
    {
        next();
        expect(Tok::kLParen, "'('");
        auto s = std::make_unique<Stmt>();
        s->kind = StmtKind::kWhile;
        s->expr = parse_expr();
        if (s->expr->type != Type::kI32)
            err("condition must be int");
        expect(Tok::kRParen, "')'");
        s->body = parse_block();
        return s;
    }

    /** for (i = e; i CMP e; i = i +/- c) — canonical form only. */
    StmtPtr
    parse_for()
    {
        next();
        expect(Tok::kLParen, "'('");
        std::string iv = expect(Tok::kIdent, "loop variable").text;
        auto it = scalars_.find(iv);
        if (it == scalars_.end())
            err("undeclared loop variable '" + iv + "'");
        if (it->second != Type::kI32)
            err("loop variable must be int");
        auto s = std::make_unique<Stmt>();
        s->kind = StmtKind::kFor;
        s->name = iv;
        expect(Tok::kAssign, "'='");
        s->expr = coerce(parse_expr(), Type::kI32);
        expect(Tok::kSemi, "';'");
        std::string iv2 = expect(Tok::kIdent, "loop variable").text;
        if (iv2 != iv)
            err("for condition must test the loop variable");
        Tok cmp = peek().kind;
        if (cmp != Tok::kLt && cmp != Tok::kLe && cmp != Tok::kGt &&
            cmp != Tok::kGe)
            err("for condition must be a comparison");
        s->cmp = next().text;
        s->bound = coerce(parse_expr(), Type::kI32);
        expect(Tok::kSemi, "';'");
        std::string iv3 = expect(Tok::kIdent, "loop variable").text;
        if (iv3 != iv)
            err("for increment must update the loop variable");
        expect(Tok::kAssign, "'='");
        std::string iv4 = expect(Tok::kIdent, "loop variable").text;
        if (iv4 != iv)
            err("for increment must be i = i +/- constant");
        bool neg = false;
        if (peek().kind == Tok::kPlus) {
            next();
        } else if (peek().kind == Tok::kMinus) {
            next();
            neg = true;
        } else {
            err("for increment must be i = i +/- constant");
        }
        const Token &st = expect(Tok::kIntLit, "constant step");
        if (st.int_val <= 0)
            err("for step must be a positive constant");
        s->step = neg ? -st.int_val : st.int_val;
        expect(Tok::kRParen, "')'");
        s->body = parse_block();
        return s;
    }
};

} // namespace

Program
parse_program(const std::string &source)
{
    Parser p(source);
    return p.parse();
}

} // namespace raw
