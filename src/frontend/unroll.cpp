#include "frontend/unroll.hpp"

#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "frontend/lower.hpp"
#include "ir/eval.hpp"
#include "ir/type.hpp"
#include "support/error.hpp"
#include "support/mathutil.hpp"

namespace raw {

namespace {

int64_t
expr_weight(const Expr &e)
{
    int64_t w = 1;
    for (const ExprPtr &k : e.kids)
        w += expr_weight(*k);
    return w;
}

/** An affine form: const + sum(coeff * var). */
struct Affine
{
    bool valid = true;
    int64_t c0 = 0;
    std::map<std::string, int64_t> coeffs;

    static Affine invalid()
    {
        Affine a;
        a.valid = false;
        return a;
    }
};

/** Environment of compile-time-constant scalars. */
using ConstEnv = std::unordered_map<std::string, int64_t>;

Affine
affine_of(const Expr &e, const ConstEnv &consts)
{
    switch (e.kind) {
      case ExprKind::kIntLit: {
        Affine a;
        a.c0 = e.int_val;
        return a;
      }
      case ExprKind::kVar: {
        auto it = consts.find(e.name);
        Affine a;
        if (it != consts.end()) {
            a.c0 = it->second;
        } else {
            a.coeffs[e.name] = 1;
        }
        return a;
      }
      case ExprKind::kUnary: {
        if (e.op != "-")
            return Affine::invalid();
        Affine a = affine_of(*e.kids[0], consts);
        if (!a.valid)
            return a;
        a.c0 = -a.c0;
        for (auto &kv : a.coeffs)
            kv.second = -kv.second;
        return a;
      }
      case ExprKind::kBinary: {
        Affine l = affine_of(*e.kids[0], consts);
        Affine r = affine_of(*e.kids[1], consts);
        if (!l.valid || !r.valid)
            return Affine::invalid();
        if (e.op == "+" || e.op == "-") {
            int64_t sign = e.op == "+" ? 1 : -1;
            l.c0 += sign * r.c0;
            for (auto &kv : r.coeffs) {
                l.coeffs[kv.first] += sign * kv.second;
                if (l.coeffs[kv.first] == 0)
                    l.coeffs.erase(kv.first);
            }
            return l;
        }
        if (e.op == "*") {
            const Affine *cst = r.coeffs.empty() ? &r : nullptr;
            const Affine *var = cst == &r ? &l : nullptr;
            if (!cst && l.coeffs.empty()) {
                cst = &l;
                var = &r;
            }
            if (!cst)
                return Affine::invalid();
            Affine out;
            out.c0 = var->c0 * cst->c0;
            for (auto &kv : var->coeffs) {
                if (kv.second * cst->c0 != 0)
                    out.coeffs[kv.first] = kv.second * cst->c0;
            }
            return out;
        }
        return Affine::invalid();
      }
      default:
        return Affine::invalid();
    }
}

/** Constant-fold an int expression under @p consts; nullopt if not. */
std::optional<int64_t>
const_eval(const Expr &e, const ConstEnv &consts)
{
    Affine a = affine_of(e, consts);
    if (a.valid && a.coeffs.empty())
        return a.c0;
    // Allow a few non-affine constant folds (/, %, <<, >>), evaluated
    // on 32-bit words by the IR's reference semantics so the folded
    // value is the one the program computes at run time.
    if (e.kind == ExprKind::kBinary) {
        Op op;
        if (e.op == "/")
            op = Op::kDiv;
        else if (e.op == "%")
            op = Op::kRem;
        else if (e.op == "<<")
            op = Op::kShl;
        else if (e.op == ">>")
            op = Op::kShr;
        else
            return std::nullopt;
        auto l = const_eval(*e.kids[0], consts);
        auto r = const_eval(*e.kids[1], consts);
        uint32_t out;
        if (l && r &&
            eval_op(op, int_bits(static_cast<int32_t>(*l)),
                    int_bits(static_cast<int32_t>(*r)), out))
            return bits_int(out);
    }
    return std::nullopt;
}

/**
 * Fold an int expression to the 32-bit word the program computes,
 * using the IR's evaluator; nullopt unless every leaf is an int
 * literal or a scalar in @p consts.  `&&` / `||` are also decided by
 * one constant side (a false side of `&&`, a true side of `||`):
 * rawc evaluates both sides, but the value is already fixed.
 */
std::optional<int32_t>
fold_word(const Expr &e, const ConstEnv &consts)
{
    switch (e.kind) {
      case ExprKind::kIntLit:
        return e.int_val;
      case ExprKind::kVar: {
        auto it = consts.find(e.name);
        if (it == consts.end())
            return std::nullopt;
        return static_cast<int32_t>(it->second);
      }
      case ExprKind::kUnary: {
        auto v = fold_word(*e.kids[0], consts);
        if (!v || (e.op != "-" && e.op != "!"))
            return std::nullopt;
        return e.op == "-" ? bits_int(0u - int_bits(*v))
                           : int32_t{*v == 0};
      }
      case ExprKind::kBinary: {
        auto l = fold_word(*e.kids[0], consts);
        if (e.op == "&&" || e.op == "||") {
            auto r = fold_word(*e.kids[1], consts);
            const int32_t decides = e.op == "||";
            if ((l && (*l != 0) == decides) || (r && (*r != 0) == decides))
                return decides;
            if (l && r)
                return 1 - decides;
            return std::nullopt;
        }
        if (!l)
            return std::nullopt;
        auto r = fold_word(*e.kids[1], consts);
        uint32_t out;
        if (r && eval_op(binary_opcode(e.op, false), int_bits(*l),
                         int_bits(*r), out))
            return bits_int(out);
        return std::nullopt;
      }
      default:
        return std::nullopt;
    }
}

/**
 * Reject every array subscript that folds to a constant outside its
 * dimension's extent, with the parser's message for an out-of-range
 * literal.  Full unrolling substitutes exact induction values, so
 * `a[i - 1]` in a peeled loop becomes `a[0 - 1]`; left alone it
 * reaches the simulator as an access to another tile's memory.  The
 * arm of an `if` (and the body of a `while`) whose condition folds
 * to false is skipped: `if (i > 0) { .. a[i - 1] .. }` is the
 * ordinary guard for that first iteration.
 */
class SubscriptChecker
{
  public:
    SubscriptChecker(
        const std::unordered_map<std::string, std::vector<int64_t>> &dims,
        const ConstEnv &consts)
        : dims_(dims), consts_(consts)
    {}

    void
    stmts(const std::vector<StmtPtr> &list)
    {
        for (const StmtPtr &s : list) {
            if (s->expr)
                expr(*s->expr);
            if (s->bound)
                expr(*s->bound);
            if (s->kind == StmtKind::kArrayAssign)
                access(s->name, s->indices);
            for (const ExprPtr &i : s->indices)
                expr(*i);
            std::optional<int32_t> cond;
            if (s->kind == StmtKind::kIf || s->kind == StmtKind::kWhile)
                cond = fold_word(*s->expr, consts_);
            if (!cond || *cond != 0)
                stmts(s->body);
            if (!cond || *cond == 0)
                stmts(s->else_body);
        }
    }

  private:
    const std::unordered_map<std::string, std::vector<int64_t>> &dims_;
    const ConstEnv &consts_;

    void
    expr(const Expr &e)
    {
        if (e.kind == ExprKind::kArray)
            access(e.name, e.kids);
        for (const ExprPtr &k : e.kids)
            expr(*k);
    }

    void
    access(const std::string &array, const std::vector<ExprPtr> &idx)
    {
        auto it = dims_.find(array);
        if (it == dims_.end())
            return;
        for (size_t d = 0; d < idx.size() && d < it->second.size(); d++) {
            auto v = fold_word(*idx[d], consts_);
            const int64_t extent = it->second[d];
            if (v && (*v < 0 || *v >= extent))
                fatal("subscript " + std::to_string(*v) +
                      " out of range for '" + array + "' (extent " +
                      std::to_string(extent) + ")");
        }
    }
};

/** Names assigned anywhere in a statement list (recursively). */
void
collect_assigned(const std::vector<StmtPtr> &stmts,
                 std::unordered_set<std::string> &out)
{
    for (const StmtPtr &s : stmts) {
        switch (s->kind) {
          case StmtKind::kAssign:
            out.insert(s->name);
            break;
          case StmtKind::kFor:
            out.insert(s->name);
            collect_assigned(s->body, out);
            break;
          case StmtKind::kIf:
            collect_assigned(s->body, out);
            collect_assigned(s->else_body, out);
            break;
          case StmtKind::kWhile:
            collect_assigned(s->body, out);
            break;
          default:
            break;
        }
    }
}

/** True if the statement list assigns @p name anywhere. */
bool
assigns_var(const std::vector<StmtPtr> &stmts, const std::string &name)
{
    std::unordered_set<std::string> assigned;
    collect_assigned(stmts, assigned);
    return assigned.count(name) > 0;
}

/** True if every leaf of @p e is an int literal or a scalar in @p consts. */
bool
const_leaves(const Expr &e, const ConstEnv &consts)
{
    switch (e.kind) {
      case ExprKind::kIntLit:
        return true;
      case ExprKind::kVar:
        return consts.count(e.name) > 0;
      case ExprKind::kUnary:
      case ExprKind::kBinary:
        for (const ExprPtr &k : e.kids)
            if (!const_leaves(*k, consts))
                return false;
        return true;
      default:
        return false;
    }
}

/** True if the statement list declares a name anywhere (recursively). */
bool
declares_any(const std::vector<StmtPtr> &stmts)
{
    for (const StmtPtr &s : stmts) {
        if (s->kind == StmtKind::kDeclScalar ||
            s->kind == StmtKind::kDeclArray || declares_any(s->body) ||
            declares_any(s->else_body))
            return true;
    }
    return false;
}

/**
 * One substitution of induction variable @p iv: either `iv + offset`
 * or, when @p exact, the constant @p exact_value.
 */
struct Subst
{
    const std::string &iv;
    int64_t offset;
    bool exact;
    int64_t exact_value;
    const ConstEnv &consts;

    ExprPtr
    expr(const Expr &e) const
    {
        if (e.kind == ExprKind::kVar && e.name == iv) {
            if (exact)
                return make_int_lit(static_cast<int32_t>(exact_value));
            if (offset == 0)
                return e.clone();
            return make_binary("+", e.clone(),
                               make_int_lit(static_cast<int32_t>(offset)));
        }
        auto c = std::make_unique<Expr>();
        c->kind = e.kind;
        c->type = e.type;
        c->int_val = e.int_val;
        c->float_val = e.float_val;
        c->name = e.name;
        c->op = e.op;
        for (const ExprPtr &k : e.kids)
            c->kids.push_back(expr(*k));
        return c;
    }

    void
    stmts(const std::vector<StmtPtr> &list, std::vector<StmtPtr> &out) const
    {
        for (const StmtPtr &s : list)
            stmt(*s, out);
    }

    /**
     * Append @p s, substituted, to @p out.  With an exact value, an
     * `if` whose condition then folds, every leaf a constant, is
     * replaced by its live arm (substituted and pruned in turn) and
     * its dead arm is never copied.  An `if` whose dead arm declares a
     * name is kept whole: names share one scope, so the declaration
     * must still reach lowering.
     */
    void
    stmt(const Stmt &s, std::vector<StmtPtr> &out) const
    {
        ExprPtr cond = s.expr ? expr(*s.expr) : nullptr;
        if (exact && s.kind == StmtKind::kIf &&
            const_leaves(*cond, consts)) {
            if (auto v = fold_word(*cond, consts)) {
                const bool taken = *v != 0;
                if (!declares_any(taken ? s.else_body : s.body)) {
                    stmts(taken ? s.body : s.else_body, out);
                    return;
                }
            }
        }
        auto c = std::make_unique<Stmt>();
        c->kind = s.kind;
        c->type = s.type;
        c->name = s.name;
        c->dims = s.dims;
        c->expr = std::move(cond);
        for (const ExprPtr &i : s.indices)
            c->indices.push_back(expr(*i));
        stmts(s.body, c->body);
        stmts(s.else_body, c->else_body);
        if (s.bound)
            c->bound = expr(*s.bound);
        c->step = s.step;
        c->cmp = s.cmp;
        c->iv_residue = s.iv_residue;
        c->iv_modulus = s.iv_modulus;
        out.push_back(std::move(c));
    }
};

/** The unroll pass. */
class Unroller
{
  public:
    Unroller(const UnrollOptions &opts,
             const std::unordered_map<std::string, std::vector<int64_t>>
                 &array_dims,
             const ConstEnv &consts)
        : opts_(opts), array_dims_(array_dims), consts_(consts)
    {}

    UnrollStats stats;

    void
    run(std::vector<StmtPtr> &stmts)
    {
        std::vector<StmtPtr> out;
        for (StmtPtr &s : stmts) {
            switch (s->kind) {
              case StmtKind::kIf:
                run(s->body);
                run(s->else_body);
                out.push_back(std::move(s));
                break;
              case StmtKind::kWhile:
                run(s->body);
                out.push_back(std::move(s));
                break;
              case StmtKind::kFor:
                run(s->body);
                stats.loops_seen++;
                transform_for(std::move(s), out);
                break;
              default:
                out.push_back(std::move(s));
                break;
            }
        }
        stmts = std::move(out);
    }

  private:
    const UnrollOptions &opts_;
    const std::unordered_map<std::string, std::vector<int64_t>>
        &array_dims_;
    const ConstEnv &consts_;

    /** Flat-index coefficient of @p iv over one array access. */
    void
    access_coeff(const std::string &array,
                 const std::vector<ExprPtr> &indices,
                 const std::string &iv, std::vector<int64_t> &coeffs)
    {
        auto it = array_dims_.find(array);
        if (it == array_dims_.end())
            return;
        const std::vector<int64_t> &dims = it->second;
        int64_t stride = 1;
        int64_t c = 0;
        bool ok = true;
        for (size_t d = indices.size(); d-- > 0;) {
            Affine a = affine_of(*indices[d], consts_);
            if (!a.valid) {
                ok = false;
                break;
            }
            auto ci = a.coeffs.find(iv);
            if (ci != a.coeffs.end())
                c += ci->second * stride;
            stride *= dims[d];
        }
        if (ok && c != 0)
            coeffs.push_back(c);
    }

    /** Collect iv coefficients of all affine accesses in a subtree. */
    void
    collect_coeffs_expr(const Expr &e, const std::string &iv,
                        std::vector<int64_t> &coeffs)
    {
        if (e.kind == ExprKind::kArray)
            access_coeff(e.name, e.kids, iv, coeffs);
        for (const ExprPtr &k : e.kids)
            collect_coeffs_expr(*k, iv, coeffs);
    }
    void
    collect_coeffs(const std::vector<StmtPtr> &stmts,
                   const std::string &iv, std::vector<int64_t> &coeffs)
    {
        for (const StmtPtr &s : stmts) {
            if (s->expr)
                collect_coeffs_expr(*s->expr, iv, coeffs);
            if (s->bound)
                collect_coeffs_expr(*s->bound, iv, coeffs);
            if (s->kind == StmtKind::kArrayAssign)
                access_coeff(s->name, s->indices, iv, coeffs);
            for (const ExprPtr &i : s->indices)
                collect_coeffs_expr(*i, iv, coeffs);
            collect_coeffs(s->body, iv, coeffs);
            collect_coeffs(s->else_body, iv, coeffs);
        }
    }

    void
    transform_for(StmtPtr loop, std::vector<StmtPtr> &out)
    {
        const std::string &iv = loop->name;
        if (!opts_.enable || assigns_var(loop->body, iv)) {
            out.push_back(std::move(loop));
            return;
        }
        auto start = const_eval(*loop->expr, consts_);
        auto bound = const_eval(*loop->bound, consts_);
        if (!start || !bound) {
            out.push_back(std::move(loop));
            return;
        }
        int64_t s = *start, b = *bound, st = loop->step;
        int64_t trip = 0;
        if (loop->cmp == "<")
            trip = st > 0 ? (b - s + st - 1) / st : -1;
        else if (loop->cmp == "<=")
            trip = st > 0 ? (b - s + st) / st : -1;
        else if (loop->cmp == ">")
            trip = st < 0 ? (s - b - st - 1) / (-st) : -1;
        else if (loop->cmp == ">=")
            trip = st < 0 ? (s - b - st) / (-st) : -1;
        if (trip < 0) {
            out.push_back(std::move(loop));
            return;
        }
        if (trip == 0) {
            // Loop never runs; iv still gets its initial value.
            auto as = std::make_unique<Stmt>();
            as->kind = StmtKind::kAssign;
            as->name = iv;
            as->expr = make_int_lit(static_cast<int32_t>(s));
            out.push_back(std::move(as));
            return;
        }

        const int64_t n = opts_.n_tiles;
        std::vector<int64_t> coeffs;
        collect_coeffs(loop->body, iv, coeffs);
        int64_t u0 = 1;
        for (int64_t c : coeffs) {
            int64_t d = n / gcd64(c * st, n);
            u0 = lcm64(u0, d, n);
        }

        int64_t weight = 0;
        for (const StmtPtr &bs : loop->body)
            weight += stmt_weight(*bs);
        weight = weight > 0 ? weight : 1;

        bool peel = false;
        if (u0 >= trip) {
            // Partial unrolling cannot reach the static reference
            // property; peeling (exact indices) can.
            peel = (u0 > 1 && trip * weight <= opts_.forced_peel_limit) ||
                   trip * weight <= opts_.small_peel_limit;
        } else {
            peel = trip * weight <= opts_.small_peel_limit;
        }

        if (peel) {
            stats.loops_peeled++;
            for (int64_t t = 0; t < trip; t++)
                Subst{iv, 0, true, s + t * st, consts_}.stmts(loop->body,
                                                             out);
            auto as = std::make_unique<Stmt>();
            as->kind = StmtKind::kAssign;
            as->name = iv;
            as->expr = make_int_lit(static_cast<int32_t>(s + trip * st));
            out.push_back(std::move(as));
            return;
        }

        int64_t u = u0;
        // Partial unrolling duplicates the (already transformed) body
        // u times; allow more head-room than peeling since the static
        // reference property is otherwise lost for every access.
        if (u <= 1 || u > trip ||
            u * weight > 4 * opts_.forced_peel_limit) {
            // Keep the loop rolled; annotate the trivial congruence
            // iv == s (mod st) so stride-aligned accesses still
            // staticize when st itself covers the interleaving.
            loop->iv_modulus = st < 0 ? -st : st;
            loop->iv_residue = floor_mod(s, loop->iv_modulus == 0
                                                ? 1
                                                : loop->iv_modulus);
            out.push_back(std::move(loop));
            return;
        }

        stats.loops_unrolled++;
        int64_t t_main = trip / u;

        auto main_loop = std::make_unique<Stmt>();
        main_loop->kind = StmtKind::kFor;
        main_loop->name = iv;
        main_loop->expr = make_int_lit(static_cast<int32_t>(s));
        main_loop->cmp = st > 0 ? "<" : ">";
        main_loop->bound =
            make_int_lit(static_cast<int32_t>(s + t_main * u * st));
        main_loop->step = u * st;
        main_loop->iv_modulus = std::abs(u * st);
        main_loop->iv_residue = floor_mod(s, main_loop->iv_modulus);
        for (int64_t k = 0; k < u; k++)
            Subst{iv, k * st, false, 0, consts_}.stmts(loop->body,
                                                       main_loop->body);
        if (t_main > 0)
            out.push_back(std::move(main_loop));

        for (int64_t t = t_main * u; t < trip; t++)
            Subst{iv, 0, true, s + t * st, consts_}.stmts(loop->body, out);

        auto as = std::make_unique<Stmt>();
        as->kind = StmtKind::kAssign;
        as->name = iv;
        as->expr = make_int_lit(static_cast<int32_t>(s + trip * st));
        out.push_back(std::move(as));
    }
};

} // namespace

int64_t
stmt_weight(const Stmt &s)
{
    int64_t w = 1;
    if (s.expr)
        w += expr_weight(*s.expr);
    if (s.bound)
        w += expr_weight(*s.bound);
    for (const ExprPtr &i : s.indices)
        w += expr_weight(*i);
    for (const StmtPtr &b : s.body)
        w += stmt_weight(*b);
    for (const StmtPtr &b : s.else_body)
        w += stmt_weight(*b);
    return w;
}

UnrollStats
unroll_program(Program &prog, const UnrollOptions &opts)
{
    check(opts.n_tiles >= 1, "unroll: bad tile count");

    // Build the constant environment: scalars with constant
    // initializers that are never reassigned.
    std::unordered_set<std::string> assigned;
    collect_assigned(prog.stmts, assigned);
    ConstEnv consts;
    for (const StmtPtr &s : prog.stmts) {
        if (s->kind == StmtKind::kDeclScalar && s->expr &&
            !assigned.count(s->name) && s->type == Type::kI32) {
            auto v = const_eval(*s->expr, consts);
            if (v)
                consts[s->name] = *v;
        }
    }

    std::unordered_map<std::string, std::vector<int64_t>> dims;
    for (const StmtPtr &s : prog.stmts)
        if (s->kind == StmtKind::kDeclArray)
            dims[s->name] = s->dims;

    Unroller u(opts, dims, consts);
    u.run(prog.stmts);
    SubscriptChecker(dims, consts).stmts(prog.stmts);
    return u.stats;
}

} // namespace raw
