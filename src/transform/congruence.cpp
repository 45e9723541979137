#include "transform/congruence.hpp"

#include "ir/type.hpp"

namespace raw {

CongruenceMap::CongruenceMap(const Function &fn)
    : fn_(&fn), facts_(fn.values.size(), Congruence::top())
{
    known_.resize(fn.values.size());
}

CongruenceMap::CongruenceMap(const Function &fn, int block_id)
    : CongruenceMap(fn)
{
    analyze(block_id);
}

void
CongruenceMap::analyze(int block_id)
{
    known_.next_epoch();
    if (facts_.size() < fn_->values.size()) {
        facts_.resize(fn_->values.size(), Congruence::top());
        known_.resize(fn_->values.size());
    }
    const Block &blk = fn_->blocks[block_id];
    for (const EntryFact &f : blk.entry_facts)
        set(f.var, f.cong);

    for (const Instr &in : blk.instrs) {
        if (!in.has_dst())
            continue;
        Congruence out = Congruence::top();
        switch (in.op) {
          case Op::kConst:
            if (in.type == Type::kI32)
                out = Congruence::exact(bits_int(in.imm_bits));
            break;
          case Op::kMove:
            out = get(in.src[0]);
            break;
          case Op::kAdd:
            out = get(in.src[0]) + get(in.src[1]);
            break;
          case Op::kSub:
            out = get(in.src[0]) - get(in.src[1]);
            break;
          case Op::kMul:
            out = get(in.src[0]) * get(in.src[1]);
            break;
          case Op::kNeg:
            out = Congruence::exact(0) - get(in.src[0]);
            break;
          case Op::kShl: {
            const Congruence &amt = get(in.src[1]);
            if (amt.is_exact() && amt.residue >= 0 && amt.residue < 31) {
                Congruence scale =
                    Congruence::exact(int64_t{1} << amt.residue);
                out = get(in.src[0]) * scale;
            }
            break;
          }
          default:
            break;
        }
        set(in.dst, out);
    }
}

} // namespace raw
