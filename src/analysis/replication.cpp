#include "analysis/replication.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

#include "support/error.hpp"

namespace raw {

namespace {

/** Per-block helper: positions of temp definitions. */
std::unordered_map<ValueId, int>
def_positions(const Function &fn, const Block &blk)
{
    std::unordered_map<ValueId, int> defs;
    for (size_t k = 0; k < blk.instrs.size(); k++) {
        const Instr &in = blk.instrs[k];
        if (in.has_dst() && !fn.values[in.dst].is_var)
            defs[in.dst] = static_cast<int>(k);
    }
    return defs;
}

} // namespace

ReplicationAnalysis::ReplicationAnalysis(const Function &fn, int max_regs,
                                         int max_slice, bool enable)
    : replicated_(fn.values.size(), false),
      branch_replicated_(fn.blocks.size(), false),
      cloned_(fn.blocks.size())
{
    if (!enable)
        return;

    // ---- Phase 1: replicable-variable fixpoint. -----------------
    std::vector<bool> replicable(fn.values.size(), false);
    for (ValueId v = 0; v < static_cast<ValueId>(fn.values.size()); v++)
        replicable[v] =
            fn.values[v].is_var && fn.values[v].type == Type::kI32;

    bool changed = true;
    while (changed) {
        changed = false;
        for (const Block &blk : fn.blocks) {
            std::vector<bool> ok(fn.values.size(), false);
            for (const Instr &in : blk.instrs) {
                if (!in.has_dst())
                    continue;
                bool good = op_is_replicable(in.op);
                for (int s = 0; good && s < in.num_srcs(); s++) {
                    ValueId v = in.src[s];
                    good = fn.values[v].is_var ? replicable[v] : ok[v];
                }
                if (fn.values[in.dst].is_var) {
                    if (!good && replicable[in.dst]) {
                        replicable[in.dst] = false;
                        changed = true;
                    }
                } else {
                    ok[in.dst] = good;
                }
            }
        }
    }

    // ---- Phase 2: backward slices. ------------------------------
    // slice(block, value) -> instr indices + leaf vars, or failure.
    auto build_slice = [&](int b, ValueId root, std::set<int> &instrs,
                           std::set<ValueId> &leaves) -> bool {
        const Block &blk = fn.blocks[b];
        auto defs = def_positions(fn, blk);
        std::vector<ValueId> work{root};
        std::set<ValueId> seen;
        while (!work.empty()) {
            ValueId v = work.back();
            work.pop_back();
            if (seen.count(v))
                continue;
            seen.insert(v);
            if (fn.values[v].is_var) {
                if (!replicable[v])
                    return false;
                leaves.insert(v);
                continue;
            }
            auto it = defs.find(v);
            if (it == defs.end())
                return false;
            const Instr &in = blk.instrs[it->second];
            if (!op_is_replicable(in.op))
                return false;
            instrs.insert(it->second);
            if (static_cast<int>(instrs.size()) > max_slice)
                return false;
            for (int s = 0; s < in.num_srcs(); s++)
                work.push_back(in.src[s]);
        }
        return true;
    };

    // Branch slices seed the replicated-variable closure.
    struct BlockSlices
    {
        std::set<int> instrs;
        bool branch_ok = false;
    };
    std::vector<BlockSlices> per_block(fn.blocks.size());
    std::set<ValueId> needed;

    for (size_t b = 0; b < fn.blocks.size(); b++) {
        const Instr &term = fn.blocks[b].terminator();
        if (term.op != Op::kBranch)
            continue;
        std::set<int> instrs;
        std::set<ValueId> leaves;
        if (build_slice(static_cast<int>(b), term.src[0], instrs,
                        leaves)) {
            per_block[b].branch_ok = true;
            per_block[b].instrs.insert(instrs.begin(), instrs.end());
            needed.insert(leaves.begin(), leaves.end());
        }
    }

    // ---- Phase 3: closure over write-back slices. ---------------
    std::set<ValueId> closed;
    std::vector<ValueId> work(needed.begin(), needed.end());
    bool feasible = true;
    // One group per write-back: the slice computing a replicated
    // variable's new value plus the write-back itself.
    struct Group
    {
        int wb_idx = -1;
        ValueId var = kNoValue;
        std::set<int> instrs;
        std::set<ValueId> leaves;
    };
    std::vector<std::vector<Group>> groups(fn.blocks.size());
    while (feasible && !work.empty()) {
        ValueId v = work.back();
        work.pop_back();
        if (closed.count(v))
            continue;
        closed.insert(v);
        for (size_t b = 0; b < fn.blocks.size(); b++) {
            const Block &blk = fn.blocks[b];
            for (size_t k = 0; k < blk.instrs.size(); k++) {
                const Instr &in = blk.instrs[k];
                if (!in.has_dst() || in.dst != v)
                    continue;
                // Writes to replicable vars are write-back moves.
                Group g;
                g.wb_idx = static_cast<int>(k);
                g.var = v;
                if (!build_slice(static_cast<int>(b), in.src[0],
                                 g.instrs, g.leaves)) {
                    feasible = false;
                    break;
                }
                g.instrs.insert(static_cast<int>(k));
                for (ValueId l : g.leaves)
                    if (!closed.count(l))
                        work.push_back(l);
                groups[b].push_back(std::move(g));
            }
            if (!feasible)
                break;
        }
    }

    if (!feasible || closed.empty())
        return;

    // ---- Phase 4: per-block clone order + budget check. ---------
    // Order: one group per replicated-variable write-back (slice
    // computations immediately followed by the write-back), then the
    // branch slice.  Grouping keeps peak temp liveness low so the
    // switch's 8 registers suffice; when a group or the branch slice
    // reads a variable that another group overwrites, we fall back to
    // source index order (write-backs trail) to preserve semantics.
    std::vector<std::vector<int>> order(fn.blocks.size());
    std::vector<bool> branch_ok_final(fn.blocks.size(), false);
    int max_temps = 0;
    for (size_t b = 0; b < fn.blocks.size(); b++) {
        // Re-derive the branch slice against the final closure.
        std::set<int> bs_instrs;
        std::set<ValueId> bs_leaves;
        bool br = per_block[b].branch_ok;
        if (br) {
            const Instr &term = fn.blocks[b].terminator();
            br = term.op == Op::kBranch &&
                 build_slice(static_cast<int>(b), term.src[0],
                             bs_instrs, bs_leaves);
            for (ValueId l : bs_leaves)
                if (br && !closed.count(l))
                    br = false;
        }
        branch_ok_final[b] = br;
        if (groups[b].empty() && !br)
            continue;

        std::set<ValueId> written;
        for (const Group &g : groups[b])
            written.insert(g.var);
        bool hazard = false;
        for (const Group &g : groups[b])
            for (ValueId l : g.leaves)
                if (l != g.var && written.count(l))
                    hazard = true;
        if (br)
            for (ValueId l : bs_leaves)
                if (written.count(l))
                    hazard = true;

        std::vector<int> seq;
        std::set<int> emitted;
        auto push = [&](int k) {
            if (emitted.insert(k).second)
                seq.push_back(k);
        };
        std::vector<Group> ordered = groups[b];
        std::sort(ordered.begin(), ordered.end(),
                  [](const Group &x, const Group &y) {
                      return x.wb_idx < y.wb_idx;
                  });
        if (!hazard) {
            for (const Group &g : ordered)
                for (int k : g.instrs)
                    push(k);
            for (int k : bs_instrs)
                push(k);
        } else {
            // Source order with write-backs trailing.
            std::set<int> all = bs_instrs;
            std::set<int> wbs;
            for (const Group &g : ordered) {
                all.insert(g.instrs.begin(), g.instrs.end());
                wbs.insert(g.wb_idx);
            }
            for (int k : all)
                if (!wbs.count(k))
                    push(k);
            for (int k : wbs)
                push(k);
        }
        order[b] = seq;

        // Peak temp liveness over this order (the branch condition
        // stays live to the final bnez).
        std::map<ValueId, int> last_use;
        for (size_t pos = 0; pos < seq.size(); pos++) {
            const Instr &in = fn.blocks[b].instrs[seq[pos]];
            for (int s = 0; s < in.num_srcs(); s++)
                if (!fn.values[in.src[s]].is_var)
                    last_use[in.src[s]] = static_cast<int>(pos);
        }
        if (br) {
            ValueId cond = fn.blocks[b].terminator().src[0];
            if (!fn.values[cond].is_var)
                last_use[cond] = static_cast<int>(seq.size());
        }
        int live = 0, peak = 0;
        for (size_t pos = 0; pos < seq.size(); pos++) {
            const Instr &in = fn.blocks[b].instrs[seq[pos]];
            if (in.has_dst() && !fn.values[in.dst].is_var) {
                live++;
                peak = std::max(peak, live);
            }
            std::set<ValueId> freed;
            for (int s = 0; s < in.num_srcs(); s++) {
                ValueId v = in.src[s];
                auto it = last_use.find(v);
                if (it != last_use.end() &&
                    it->second == static_cast<int>(pos) &&
                    freed.insert(v).second)
                    live--;
            }
        }
        max_temps = std::max(max_temps, peak);
    }
    if (static_cast<int>(closed.size()) + max_temps + 1 > max_regs)
        return;

    // ---- Commit. -------------------------------------------------
    for (ValueId v : closed) {
        replicated_[v] = true;
        n_replicated_++;
    }
    for (size_t b = 0; b < fn.blocks.size(); b++) {
        branch_replicated_[b] = branch_ok_final[b];
        cloned_[b] = order[b];
    }
}

} // namespace raw
