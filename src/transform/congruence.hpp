#ifndef RAW_TRANSFORM_CONGRUENCE_HPP
#define RAW_TRANSFORM_CONGRUENCE_HPP

/**
 * @file
 * Per-block modular congruence analysis (Section 5.3).
 *
 * Computes, for every value in a renamed basic block, a fact of the
 * form `value == r (mod m)` (or an exact constant).  Seeds are the
 * block's entry facts — congruences of loop induction variables
 * established by the unroller — plus kConst instructions; kAdd, kSub,
 * kMul, kShl-by-constant and kMove propagate facts.
 *
 * The orchestrater asks for an index value's residue modulo N (the
 * machine size): a known residue means the memory reference has a
 * single compile-time home tile (the *static reference property*) and
 * can be served over the static network; otherwise the reference falls
 * back to the dynamic network.
 */

#include <vector>

#include "ir/function.hpp"
#include "support/epoch_marks.hpp"
#include "support/mathutil.hpp"

namespace raw {

/** Congruence facts for every value, relative to one block. */
class CongruenceMap
{
  public:
    /**
     * Prepare an analyzer for @p fn without analyzing any block yet.
     * The O(#values) fact table is allocated once here; analyze()
     * re-seeds it per block in O(block size) via epoch stamps, so one
     * analyzer can sweep every block of a large function cheaply.
     */
    explicit CongruenceMap(const Function &fn);

    /** Analyze @p block_id of @p fn. */
    CongruenceMap(const Function &fn, int block_id);

    /** Re-seed the analyzer with the facts of @p block_id. */
    void analyze(int block_id);

    /** Fact for @p v (top if unknown). */
    const Congruence &get(ValueId v) const
    {
        return known_.marked(v) ? facts_[v] : top_;
    }

    /**
     * Residue of @p v modulo @p m, or -1 if not statically known.
     */
    int64_t residue_mod(ValueId v, int64_t m) const
    {
        return get(v).residue_mod(m);
    }

  private:
    void set(ValueId v, const Congruence &c)
    {
        facts_[v] = c;
        known_.mark(v);
    }

    const Function *fn_;
    std::vector<Congruence> facts_;
    // Entries are valid only where known_ marks them; everything else
    // reads as top without a per-block sweep.
    EpochMarks known_;
    Congruence top_ = Congruence::top();
};

} // namespace raw

#endif // RAW_TRANSFORM_CONGRUENCE_HPP
