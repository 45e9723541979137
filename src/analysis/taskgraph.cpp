#include "analysis/taskgraph.hpp"

#include <algorithm>
#include <unordered_map>

#include "support/error.hpp"
#include "transform/rename.hpp"

namespace raw {

namespace {

/** Disambiguation verdict for two memory references. */
bool
provably_disjoint(const Congruence &a, const Congruence &b,
                  int64_t base_a, int64_t base_b, int n_tiles)
{
    // Same array => same base; different arrays never conflict and are
    // filtered before this call, so bases are equal here.  Keep them
    // in the interface for clarity.
    if (a.is_exact() && b.is_exact())
        return base_a + a.residue != base_b + b.residue;
    int64_t ra = a.residue_mod(n_tiles);
    int64_t rb = b.residue_mod(n_tiles);
    if (ra >= 0 && rb >= 0) {
        // Distinct home tiles => distinct addresses.
        return floor_mod(base_a + ra, n_tiles) !=
               floor_mod(base_b + rb, n_tiles);
    }
    return false;
}

} // namespace

void
TaskGraph::add_edge(int from, int to, DepKind kind)
{
    if (from == to)
        return;
    for (int e : out_[from])
        if (edges_[e].to == to) {
            // Keep the strongest flavour (data > order > anti).
            if (kind < edges_[e].kind)
                edges_[e].kind = kind;
            return;
        }
    edges_.push_back({from, to, kind});
    int e = static_cast<int>(edges_.size()) - 1;
    out_[from].push_back(e);
    succs_[from].push_back(to);
    preds_[to].push_back(from);
}

int
TaskGraph::producer_of(ValueId v) const
{
    auto it = producer_.find(v);
    return it == producer_.end() ? -1 : it->second;
}

TaskGraph::TaskGraph(const Function &fn, int block_id,
                     const MachineConfig &machine,
                     const CongruenceMap &cong,
                     const ReplicationAnalysis &repl,
                     const VarLiveness &live, const HomeMap &homes)
{
    const Block &blk = fn.blocks[block_id];
    const int n = static_cast<int>(blk.instrs.size());

    // ---- Decide which instructions become graph nodes. ----------
    // Start by excluding replicated control instructions; re-include
    // any whose value a kept instruction consumes (the control tail
    // recomputes its copies privately with fresh registers).
    std::vector<bool> excluded(n, false);
    for (int k : repl.cloned_instrs(block_id))
        excluded[k] = true;
    excluded[n - 1] = true; // terminator

    // Dead write-backs (variable not live out) are dropped entirely.
    std::vector<bool> dropped(n, false);
    for (int k = 0; k < n - 1; k++) {
        const Instr &in = blk.instrs[k];
        if (is_writeback(fn, in)) {
            if (repl.var_replicated(in.dst))
                dropped[k] = true; // maintained by the control tail
            else if (!live.live_out(block_id, in.dst))
                dropped[k] = true;
        }
    }

    // Map value -> defining instr (blocks are locally
    // single-assignment for temps after renaming).
    std::unordered_map<ValueId, int> def;
    for (int k = 0; k < n - 1; k++) {
        const Instr &in = blk.instrs[k];
        if (in.has_dst() && !fn.values[in.dst].is_var)
            def[in.dst] = k;
    }
    // A broadcast branch needs its condition's producer in the graph.
    if (blk.terminator().op == Op::kBranch &&
        !repl.branch_replicated(block_id)) {
        auto it = def.find(blk.terminator().src[0]);
        if (it != def.end())
            excluded[it->second] = false;
    }
    bool changed = true;
    while (changed) {
        changed = false;
        for (int k = 0; k < n - 1; k++) {
            if (excluded[k] || dropped[k])
                continue;
            const Instr &in = blk.instrs[k];
            for (int s = 0; s < in.num_srcs(); s++) {
                auto it = def.find(in.src[s]);
                if (it != def.end() && excluded[it->second] &&
                    !dropped[it->second]) {
                    excluded[it->second] = false;
                    changed = true;
                }
            }
        }
    }

    // ---- Create nodes. -------------------------------------------
    std::vector<int> node_of_instr(n, -1);
    for (int k = 0; k < n - 1; k++) {
        if (excluded[k] || dropped[k]) {
            skipped_.push_back(k);
            continue;
        }
        const Instr &in = blk.instrs[k];
        TGNode nd;
        nd.kind = TGKind::kInstr;
        nd.instr = k;
        nd.cost = machine.latency(op_fu(in.op));
        if (in.op == Op::kDynLoad || in.op == Op::kDynStore) {
            // Round-trip estimate: header + average distance both
            // ways + handler service.
            nd.cost = machine.dyn_header_cycles +
                      (machine.rows + machine.cols) +
                      machine.dyn_handler_cycles;
            // All dynamic refs of one array run on one designated
            // tile: its in-order stream serializes them across
            // blocks, which conservative correctness requires (tiles
            // are otherwise decoupled between blocks).
            nd.pin = in.array % homes.n_tiles;
        }
        if (in.has_dst())
            nd.produces = in.dst;
        // Pin static memory references to their home tiles.
        if (in.op == Op::kLoad || in.op == Op::kStore) {
            int64_t r = cong.residue_mod(in.src[0], homes.n_tiles);
            check(r >= 0, "taskgraph: static reference without home");
            nd.pin = homes.element_home(in.array, r);
        }
        // Pin write-backs to the variable's home tile.
        if (is_writeback(fn, in))
            nd.pin = homes.var_home[in.dst];
        node_of_instr[k] = static_cast<int>(nodes_.size());
        nodes_.push_back(nd);
    }
    skipped_.push_back(n - 1);

    // ---- Import nodes for live-in variable reads. ----------------
    std::unordered_map<ValueId, int> import_of;
    auto ensure_import = [&](ValueId v) {
        if (!fn.values[v].is_var || repl.var_replicated(v))
            return;
        if (!import_of.count(v)) {
            TGNode nd;
            nd.kind = TGKind::kImport;
            nd.var = v;
            nd.cost = 0;
            nd.pin = homes.var_home[v];
            nd.produces = v;
            import_of[v] = static_cast<int>(nodes_.size());
            nodes_.push_back(nd);
        }
    };
    for (int k = 0; k < n - 1; k++) {
        if (node_of_instr[k] < 0)
            continue;
        const Instr &in = blk.instrs[k];
        for (int s = 0; s < in.num_srcs(); s++)
            ensure_import(in.src[s]);
    }
    // A non-replicated branch condition that is a live-in variable
    // must be importable for the control broadcast.
    if (blk.terminator().op == Op::kBranch &&
        !repl.branch_replicated(block_id))
        ensure_import(blk.terminator().src[0]);

    const int nn = static_cast<int>(nodes_.size());
    succs_.assign(nn, {});
    preds_.assign(nn, {});
    out_.assign(nn, {});

    for (int i = 0; i < nn; i++)
        if (nodes_[i].produces != kNoValue)
            producer_[nodes_[i].produces] = i;

    // ---- Value-flow edges. ----------------------------------------
    for (int i = 0; i < nn; i++) {
        if (nodes_[i].kind != TGKind::kInstr)
            continue;
        const Instr &in = blk.instrs[nodes_[i].instr];
        for (int s = 0; s < in.num_srcs(); s++) {
            ValueId v = in.src[s];
            if (fn.values[v].is_var) {
                auto it = import_of.find(v);
                if (it != import_of.end())
                    add_edge(it->second, i, DepKind::kData);
                continue;
            }
            int p = producer_of(v);
            if (p >= 0)
                add_edge(p, i, DepKind::kData);
        }
    }

    // Register anti-dependences: a variable's home register may only
    // be overwritten by its write-back after every same-tile read of
    // the old value has issued (remote reads are covered by the
    // import's send instructions; see the event scheduler).
    for (auto &[v, imp] : import_of) {
        for (int i = 0; i < nn; i++) {
            if (nodes_[i].kind != TGKind::kInstr)
                continue;
            const Instr &wi = blk.instrs[nodes_[i].instr];
            if (!is_writeback(fn, wi) || wi.dst != v)
                continue;
            add_edge(imp, i, DepKind::kAnti);
            for (int u : succs_[imp])
                if (u != i)
                    add_edge(u, i, DepKind::kAnti);
        }
    }

    // ---- Memory dependence edges (conservative, disambiguated). ---
    std::vector<int> mem_nodes;
    for (int i = 0; i < nn; i++) {
        if (nodes_[i].kind != TGKind::kInstr)
            continue;
        if (op_is_memory(blk.instrs[nodes_[i].instr].op))
            mem_nodes.push_back(i);
    }
    // Two references can conflict only if one of them has an unknown
    // residue or both share a home tile (equal residues), so each is
    // tested only against later references of its array in its own
    // (array, residue) bucket plus the array's unknown-residue list —
    // or, with an unknown residue itself, against every later
    // reference of its array.  Candidates are visited in ascending
    // order, so edges are added in the all-pairs order.
    const int64_t nt = homes.n_tiles;
    auto key = [nt](int array, int64_t residue) {
        return array * (nt + 1) + residue + 1; // residue -1: unknown
    };
    std::vector<int64_t> residue(mem_nodes.size());
    std::unordered_map<int64_t, std::vector<int>> bucket, of_array;
    for (size_t a = 0; a < mem_nodes.size(); a++) {
        const Instr &ia = blk.instrs[nodes_[mem_nodes[a]].instr];
        residue[a] = cong.get(ia.src[0]).residue_mod(nt);
        bucket[key(ia.array, residue[a])].push_back(static_cast<int>(a));
        of_array[ia.array].push_back(static_cast<int>(a));
    }
    auto later = [](const std::vector<int> &v, int a) {
        return std::upper_bound(v.begin(), v.end(), a);
    };
    static const std::vector<int> kNone;
    for (size_t a = 0; a < mem_nodes.size(); a++) {
        const int ai = static_cast<int>(a);
        const Instr &ia = blk.instrs[nodes_[mem_nodes[a]].instr];
        bool a_store = ia.op == Op::kStore || ia.op == Op::kDynStore;
        const Congruence &ca = cong.get(ia.src[0]);
        auto test = [&](int b) {
            const Instr &ib = blk.instrs[nodes_[mem_nodes[b]].instr];
            bool b_store =
                ib.op == Op::kStore || ib.op == Op::kDynStore;
            if (!a_store && !b_store)
                return;
            const Congruence &cb = cong.get(ib.src[0]);
            if (provably_disjoint(ca, cb, homes.array_base[ia.array],
                                  homes.array_base[ib.array],
                                  homes.n_tiles))
                return;
            add_edge(mem_nodes[a], mem_nodes[b], DepKind::kOrder);
        };
        if (residue[a] < 0) {
            const std::vector<int> &all = of_array[ia.array];
            for (auto x = later(all, ai); x != all.end(); ++x)
                test(*x);
            continue;
        }
        const std::vector<int> &own = bucket[key(ia.array, residue[a])];
        auto un = bucket.find(key(ia.array, -1));
        const std::vector<int> &unknown =
            un == bucket.end() ? kNone : un->second;
        auto x = later(own, ai), y = later(unknown, ai);
        while (x != own.end() || y != unknown.end()) {
            if (y == unknown.end() || (x != own.end() && *x < *y))
                test(*x++);
            else
                test(*y++);
        }
    }

    // ---- Print ordering. ------------------------------------------
    int last_print = -1;
    for (int i = 0; i < nn; i++) {
        if (nodes_[i].kind == TGKind::kInstr &&
            blk.instrs[nodes_[i].instr].op == Op::kPrint) {
            if (last_print >= 0)
                add_edge(last_print, i, DepKind::kOrder);
            last_print = i;
        }
    }
}

} // namespace raw
