#include "oracle.hpp"

#include <algorithm>
#include <climits>
#include <map>

#include "schedule/sched_internal.hpp"
#include "support/error.hpp"

namespace raw {

namespace {

using sched::build_deps;
using sched::DepInfo;

/** Mutable search state: the partial schedule's timing + resources. */
struct OState
{
    std::vector<int> deps_left;
    std::vector<uint8_t> node_done;
    std::vector<uint8_t> path_done;
    std::vector<int64_t> finish, issue, send_issue;
    std::vector<std::map<int, int64_t>> arrival;
    sched::SlotTable slots;
    int64_t makespan = 0;
    int placed = 0;
};

struct Searcher
{
    const TaskGraph &g;
    const Partition &part;
    const MachineConfig &m;
    const std::vector<CommPath> &paths;
    const DepInfo &dep;
    std::vector<RouteTree> trees;
    int total = 0; // branchable tasks
    int64_t budget = 0;
    int64_t states = 0;
    int64_t best = INT64_MAX;
    bool exhausted_budget = false;

    /** run_pass's ready-time rule, verbatim. */
    int64_t ready_time(const OState &s, int v) const
    {
        int64_t t = 0;
        for (int e : dep.in_edges[v]) {
            const TGEdge &edge = g.edges()[e];
            int p = edge.from;
            bool same = part.tile_of[p] == part.tile_of[v];
            if (edge.kind == DepKind::kAnti) {
                if (!same)
                    continue;
                t = std::max(t, s.issue[p] + 1);
                if (g.nodes()[p].kind == TGKind::kImport)
                    for (int pp : dep.paths_of_node[p])
                        t = std::max(t, s.send_issue[pp] + 1);
                continue;
            }
            if (same) {
                t = std::max(t, s.finish[p]);
            } else {
                int path = dep.data_path_of_node[p];
                auto it = s.arrival[path].find(part.tile_of[v]);
                check(it != s.arrival[path].end(),
                      "oracle: missing arrival");
                t = std::max(t, it->second + 1);
            }
        }
        return t;
    }

    /** Complete a node: imports cascade (they are free and instant). */
    void complete_node(OState &s, int v) const
    {
        s.node_done[v] = 1;
        for (int w : dep.node_waiters[v]) {
            if (--s.deps_left[w] == 0 &&
                g.nodes()[w].kind == TGKind::kImport) {
                s.issue[w] = 0;
                s.finish[w] = 0;
                complete_node(s, w);
            }
        }
    }

    /** Settle every dependence-free import up front. */
    void settle_imports(OState &s) const
    {
        const int nn = static_cast<int>(g.nodes().size());
        for (int v = 0; v < nn; v++)
            if (g.nodes()[v].kind == TGKind::kImport &&
                s.deps_left[v] == 0 && !s.node_done[v]) {
                s.issue[v] = 0;
                s.finish[v] = 0;
                complete_node(s, v);
            }
    }

    void place_node(OState &s, int v) const
    {
        int tile = part.tile_of[v];
        int64_t t = s.slots.next_free(tile, ready_time(s, v));
        s.slots.take(tile, t);
        s.issue[v] = t;
        s.finish[v] = t + std::max(1, g.nodes()[v].cost);
        s.makespan = std::max(s.makespan, s.finish[v]);
        s.placed++;
        complete_node(s, v);
    }

    void place_path(OState &s, int p) const
    {
        const CommPath &path = paths[p];
        const RouteTree &tree = trees[p];
        int64_t r = std::max<int64_t>(s.finish[path.src_node], 0);
        int64_t t = s.slots.find_path_slot(tree, path.src_tile, r);
        s.slots.take(path.src_tile, t);
        for (const TreeHop &h : tree.hops) {
            s.slots.reserve(h, t + 1 + h.depth);
            s.makespan = std::max(s.makespan, t + 2 + h.depth);
        }
        for (auto &[tile, depth] : tree.proc_recvs) {
            int64_t rc = t + 2 + depth;
            s.slots.take(tile, rc);
            s.arrival[p][tile] = rc;
            s.makespan = std::max(s.makespan, rc + 1);
        }
        s.send_issue[p] = t;
        s.path_done[p] = 1;
        s.placed++;
        for (int w : dep.path_waiters[p])
            s.deps_left[w]--;
    }

    void dfs(const OState &s)
    {
        if (states++ >= budget) {
            exhausted_budget = true;
            return;
        }
        if (s.placed == total) {
            best = std::min(best, s.makespan);
            return;
        }
        const int nn = static_cast<int>(g.nodes().size());
        const int np = static_cast<int>(paths.size());
        // Branch on every ready task, deterministic order.  The
        // partial makespan only grows, so >= best prunes safely.
        for (int v = 0; v < nn; v++) {
            if (s.node_done[v] || s.deps_left[v] != 0 ||
                g.nodes()[v].kind != TGKind::kInstr)
                continue;
            OState next = s;
            place_node(next, v);
            if (next.makespan < best)
                dfs(next);
            if (exhausted_budget)
                return;
        }
        for (int p = 0; p < np; p++) {
            if (s.path_done[p] ||
                !s.node_done[paths[p].src_node])
                continue;
            OState next = s;
            place_path(next, p);
            if (next.makespan < best)
                dfs(next);
            if (exhausted_budget)
                return;
        }
    }
};

} // namespace

bool
oracle_search(const TaskGraph &g, const Partition &part,
              const MachineConfig &m,
              const std::vector<CommPath> &paths, int64_t budget,
              OracleReport &out)
{
    if (budget <= 0)
        return false;
    const int nn = static_cast<int>(g.nodes().size());
    const int np = static_cast<int>(paths.size());
    int total = np;
    for (int v = 0; v < nn; v++)
        if (g.nodes()[v].kind == TGKind::kInstr)
            total++;
    if (total == 0 || total > kOracleTaskLimit)
        return false;

    DepInfo dep = build_deps(g, part, paths);
    Searcher se{g, part, m, paths, dep, {}, total, budget};
    se.trees.reserve(np);
    for (const CommPath &p : paths)
        se.trees.push_back(build_route_tree(m, p));

    // Incumbent: the single-pass greedy schedule (multi-pass options
    // off), which uses exactly these placement rules, so its ordering
    // is one leaf of the search tree below.
    SchedOptions plain;
    BlockSchedule greedy = schedule_block(g, part, m, paths, plain);
    se.best = greedy.makespan;

    OState s0;
    s0.deps_left = dep.deps_init;
    s0.node_done.assign(nn, 0);
    s0.path_done.assign(np, 0);
    s0.finish.assign(nn, 0);
    s0.issue.assign(nn, 0);
    s0.send_issue.assign(np, 0);
    s0.arrival.assign(np, {});
    s0.slots = sched::SlotTable(m.n_tiles);
    se.settle_imports(s0);
    se.dfs(s0);

    out.tasks = total;
    out.greedy_makespan = greedy.makespan;
    out.best_makespan = std::min<int64_t>(se.best, greedy.makespan);
    out.proved_optimal = !se.exhausted_budget;
    out.states = se.states;
    return true;
}

} // namespace raw
