#include "transform/split.hpp"

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "support/error.hpp"
#include "transform/congruence.hpp"

namespace raw {

namespace {

/** Split one block into chunks of at most @p max_len instructions. */
int
split_block(Function &fn, int block_id, size_t max_len)
{
    // Congruences of the unsplit block (used to preserve the facts of
    // promoted cross-cut values).
    CongruenceMap pre_cong(fn, block_id);

    // Take the body; the terminator goes to the last chunk.
    std::vector<Instr> body = std::move(fn.blocks[block_id].instrs);
    Instr term = body.back();
    body.pop_back();

    const size_t n = body.size();
    const int n_chunks = static_cast<int>((n + max_len - 1) / max_len);

    // Promote temporaries that are live across a cut to variables.
    std::unordered_map<ValueId, size_t> chunk_of_def;
    for (size_t k = 0; k < n; k++) {
        const Instr &in = body[k];
        if (in.has_dst() && !fn.values[in.dst].is_var)
            chunk_of_def[in.dst] = k / max_len;
    }
    auto crosses = [&](ValueId v, size_t use_pos) {
        auto it = chunk_of_def.find(v);
        return it != chunk_of_def.end() &&
               it->second != use_pos / max_len;
    };
    std::unordered_set<ValueId> promoted;
    for (size_t k = 0; k < n; k++) {
        const Instr &in = body[k];
        for (int s = 0; s < in.num_srcs(); s++) {
            ValueId v = in.src[s];
            if (!fn.values[v].is_var && crosses(v, k))
                promoted.insert(v);
        }
    }
    if (term.op == Op::kBranch) {
        ValueId v = term.src[0];
        if (!fn.values[v].is_var && chunk_of_def.count(v) &&
            chunk_of_def[v] != static_cast<size_t>(n_chunks - 1))
            promoted.insert(v);
    }
    // Promoted values keep their congruence facts: a cross-cut index
    // temp must not demote its memory references to the dynamic
    // network, so its fact (computed on the unsplit block) is
    // re-seeded at the entry of every chunk after its definition.
    struct PromotedFact
    {
        EntryFact fact;
        size_t def_chunk;
    };
    std::vector<PromotedFact> promoted_facts;
    for (ValueId v : promoted) {
        fn.values[v].is_var = true;
        if (fn.values[v].name.empty())
            fn.values[v].name = "t" + std::to_string(v);
        const Congruence &c = pre_cong.get(v);
        if (!c.is_top())
            promoted_facts.push_back({{v, c}, chunk_of_def[v]});
    }

    // Variables written in earlier chunks invalidate their facts.
    std::vector<EntryFact> facts = fn.blocks[block_id].entry_facts;

    // Lay the chunks out as a chain of blocks.
    std::vector<int> chunk_blocks(n_chunks);
    chunk_blocks[0] = block_id;
    for (int c = 1; c < n_chunks; c++)
        chunk_blocks[c] =
            fn.new_block(fn.blocks[block_id].name + "_part" +
                         std::to_string(c));

    std::unordered_set<ValueId> written;
    for (int c = 0; c < n_chunks; c++) {
        Block &blk = fn.blocks[chunk_blocks[c]];
        blk.instrs.clear();
        blk.entry_facts.clear();
        for (const EntryFact &f : facts)
            if (!written.count(f.var))
                blk.entry_facts.push_back(f);
        for (const PromotedFact &pf : promoted_facts)
            if (pf.def_chunk < static_cast<size_t>(c))
                blk.entry_facts.push_back(pf.fact);
        size_t lo = static_cast<size_t>(c) * max_len;
        size_t hi = std::min(n, lo + max_len);
        for (size_t k = lo; k < hi; k++) {
            blk.instrs.push_back(body[k]);
            const Instr &in = body[k];
            if (in.has_dst() && fn.values[in.dst].is_var)
                written.insert(in.dst);
        }
        if (c + 1 < n_chunks) {
            Instr j;
            j.op = Op::kJump;
            j.target[0] = chunk_blocks[c + 1];
            blk.instrs.push_back(j);
        } else {
            blk.instrs.push_back(term);
        }
    }
    return n_chunks - 1;
}

} // namespace

int
split_large_blocks(Function &fn, size_t max_len)
{
    check(max_len >= 8, "split: threshold too small");
    int cuts = 0;
    const int n_blocks = static_cast<int>(fn.blocks.size());
    for (int b = 0; b < n_blocks; b++)
        if (fn.blocks[b].instrs.size() > max_len + 1)
            cuts += split_block(fn, b, max_len);
    return cuts;
}

} // namespace raw
