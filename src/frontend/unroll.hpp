#ifndef RAW_FRONTEND_UNROLL_HPP
#define RAW_FRONTEND_UNROLL_HPP

/**
 * @file
 * AST-level loop unrolling for affine staticization (Section 5.3).
 *
 * With element-wise low-order interleaving over N tiles, the home tile
 * of `A[c0 + c1*i]` repeats with period d = N / gcd(c1 * step, N) as
 * the loop over i advances.  Unrolling the loop by the lcm of the
 * repetition distances of every affine access makes each unrolled
 * access hit a single home tile every iteration — the *static
 * reference property* — so the reference can be served over the static
 * network.  The unroll factor per loop dimension is at most N (the
 * paper's bound).
 *
 * The pass:
 *  - computes constant loop trip counts (canonical for loops whose
 *    init/bound fold to constants);
 *  - fully peels a loop when the required factor reaches the trip
 *    count (every access index becomes an exact constant);
 *  - wherever it substitutes an exact induction value (a full peel,
 *    or the peeled remainder of a partial unroll), folds each `if`
 *    condition whose leaves are all constants and emits only the
 *    live arm, so an enclosing loop's `trip * weight` is charged on
 *    the emitted code; an `if` whose dead arm declares a name, and
 *    every `while`, is kept;
 *  - otherwise unrolls by the lcm requirement, emitting a peeled
 *    remainder, and annotates the loop with the congruence fact
 *    `iv == start (mod U*step)` consumed by the IR congruence
 *    analysis;
 *  - leaves non-canonical or non-constant loops untouched (their
 *    references fall back to the dynamic network).
 */

#include <cstdint>

#include "frontend/ast.hpp"

namespace raw {

/** Tuning knobs for the unroller. */
struct UnrollOptions
{
    /** Machine size: the interleaving factor and unroll cap. */
    int n_tiles = 1;
    /** Disable entirely (ablation: every varying reference dynamic). */
    bool enable = true;
    /** Peel loops opportunistically when T * weight is below this. */
    int64_t small_peel_limit = 500;
    /** Upper bound on T * weight for staticization-forced peeling. */
    int64_t forced_peel_limit = 160000;
};

/** Statistics reported by the unroller (used by tests and benches). */
struct UnrollStats
{
    int loops_seen = 0;
    int loops_unrolled = 0;
    int loops_peeled = 0;
};

/**
 * Unroll loops in @p prog in place for a machine with
 * @p opts.n_tiles tiles.  Returns statistics.
 */
UnrollStats unroll_program(Program &prog, const UnrollOptions &opts);

/** AST weight: total node count of a statement (code-size estimate). */
int64_t stmt_weight(const Stmt &s);

} // namespace raw

#endif // RAW_FRONTEND_UNROLL_HPP
