#include "schedule/sched_internal.hpp"

#include <algorithm>
#include <bit>
#include <queue>

#include "support/error.hpp"

namespace raw {
namespace sched {

int64_t
SlotTable::next_free(int tile, int64_t t) const
{
    const std::vector<uint64_t> &row = proc_[tile];
    size_t w = static_cast<size_t>(t) >> 6;
    if (w >= row.size())
        return t;
    uint64_t avail = ~row[w] & (~uint64_t{0} << (t & 63));
    while (avail == 0) {
        if (++w == row.size())
            return static_cast<int64_t>(w << 6);
        avail = ~row[w];
    }
    return static_cast<int64_t>(w << 6) + std::countr_zero(avail);
}

void
SlotTable::take(int tile, int64_t t)
{
    std::vector<uint64_t> &row = proc_[tile];
    size_t w = static_cast<size_t>(t) >> 6;
    if (w >= row.size())
        row.resize(w + 1, 0);
    uint64_t bit = uint64_t{1} << (t & 63);
    check(!(row[w] & bit), "scheduler: double-booked processor slot");
    row[w] |= bit;
}

void
SlotTable::reserve(const TreeHop &h, int64_t c)
{
    std::vector<SwRes> &row = sw_[h.tile];
    if (static_cast<size_t>(c) >= row.size())
        row.resize(c + 1);
    SwRes &r = row[c];
    r.in_used |= static_cast<uint8_t>(1u << static_cast<int>(h.in));
    r.out_used |= h.out_mask;
    r.reg_used = r.reg_used || h.to_reg;
}

int64_t
SlotTable::find_path_slot(const RouteTree &tree, int src_tile,
                          int64_t r) const
{
    int64_t t = r;
    for (;;) {
        check(t < r + kSlotSearchLimit,
              "scheduler: no feasible slot for path");
        if (!proc_free(src_tile, t)) {
            t = next_free(src_tile, t);
            continue;
        }
        // Receivers first: a busy one is cheap to spot and names the
        // next cycle that receive could land on.
        bool ok = true;
        for (auto &[tile, depth] : tree.proc_recvs) {
            int64_t c = t + 2 + depth;
            if (!proc_free(tile, c)) {
                t = next_free(tile, c) - 2 - depth;
                ok = false;
                break;
            }
        }
        if (!ok)
            continue;
        for (const TreeHop &h : tree.hops) {
            if (!hop_free(h, t + 1 + h.depth)) {
                ok = false;
                break;
            }
        }
        if (ok)
            return t;
        t++;
    }
}

std::vector<int>
topo_order(const TaskGraph &g)
{
    const int n = static_cast<int>(g.nodes().size());
    std::vector<int> indeg(n, 0), order;
    order.reserve(n);
    std::queue<int> q;
    for (int i = 0; i < n; i++) {
        indeg[i] = static_cast<int>(g.preds(i).size());
        if (indeg[i] == 0)
            q.push(i);
    }
    while (!q.empty()) {
        int v = q.front();
        q.pop();
        order.push_back(v);
        for (int s : g.succs(v))
            if (--indeg[s] == 0)
                q.push(s);
    }
    check(static_cast<int>(order.size()) == n,
          "scheduler: task graph has a cycle");
    return order;
}

namespace {
constexpr int64_t kFertCap = 1000000;
} // namespace

Priorities
compute_priorities(const TaskGraph &g, const Partition &part,
                   const MachineConfig &m)
{
    const int n = static_cast<int>(g.nodes().size());
    Priorities pr;
    pr.level.assign(n, 0);
    pr.fert.assign(n, 0);

    std::vector<int> order = topo_order(g);
    for (int k = n; k-- > 0;) {
        int v = order[k];
        int64_t lvl = 0, fert = 0;
        for (int e : g.out_edges(v)) {
            const TGEdge &edge = g.edges()[e];
            int s = edge.to;
            int64_t comm = 0;
            if (part.tile_of[v] != part.tile_of[s] &&
                edge.kind != DepKind::kAnti)
                comm = 2 + m.distance(part.tile_of[v],
                                      part.tile_of[s]);
            lvl = std::max(lvl, comm + pr.level[s]);
            fert = std::min(kFertCap, fert + 1 + pr.fert[s]);
        }
        pr.level[v] = g.nodes()[v].cost + lvl;
        pr.fert[v] = fert;
    }
    return pr;
}

DepInfo
build_deps(const TaskGraph &g, const Partition &part,
           const std::vector<CommPath> &paths)
{
    const int nn = static_cast<int>(g.nodes().size());
    const int np = static_cast<int>(paths.size());
    DepInfo d;
    d.paths_of_node.assign(nn, {});
    for (int p = 0; p < np; p++)
        d.paths_of_node[paths[p].src_node].push_back(p);
    d.data_path_of_node.assign(nn, -1);
    for (int p = 0; p < np; p++)
        if (!paths[p].broadcast)
            d.data_path_of_node[paths[p].src_node] = p;

    d.deps_init.assign(nn, 0);
    d.node_waiters.assign(nn, {});
    d.path_waiters.assign(np, {});
    d.in_edges.assign(nn, {});
    for (int e = 0; e < static_cast<int>(g.edges().size()); e++)
        d.in_edges[g.edges()[e].to].push_back(e);

    for (int e = 0; e < static_cast<int>(g.edges().size()); e++) {
        const TGEdge &edge = g.edges()[e];
        int p = edge.from, v = edge.to;
        bool same = part.tile_of[p] == part.tile_of[v];
        if (edge.kind == DepKind::kAnti) {
            if (!same)
                continue;
            // Same-tile anti-dep: wait for the node; if the producer
            // is an import with fan-out paths, also wait for those
            // paths (their sends read the register being overwritten).
            d.node_waiters[p].push_back(v);
            d.deps_init[v]++;
            if (g.nodes()[p].kind == TGKind::kImport) {
                for (int pp : d.paths_of_node[p]) {
                    d.path_waiters[pp].push_back(v);
                    d.deps_init[v]++;
                }
            }
            continue;
        }
        if (same) {
            d.node_waiters[p].push_back(v);
            d.deps_init[v]++;
        } else {
            int path = d.data_path_of_node[p];
            check(path >= 0, "scheduler: cross-tile edge without path");
            d.path_waiters[path].push_back(v);
            d.deps_init[v]++;
        }
    }
    return d;
}

} // namespace sched
} // namespace raw
