#include "schedule/event_scheduler.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <queue>

#include "schedule/sched_internal.hpp"
#include "support/error.hpp"

namespace raw {

namespace {

// Dependence bookkeeping, priorities and the reservation table live
// in schedule/sched_internal.hpp, shared with the tests' branch-and-
// bound reference so both agree on the resource model.
using sched::build_deps;
using sched::compute_priorities;
using sched::DepInfo;
using sched::Priorities;
using sched::topo_order;

/** One list-scheduling pass plus the timing it realized. */
struct PassResult
{
    BlockSchedule sched;
    std::vector<int64_t> finish, issue, send_issue;
    std::vector<std::map<int, int64_t>> arrival; // path -> tile->recv
};

/**
 * One greedy list-scheduling pass.  @p prio gives the priority of
 * every node (paths inherit their source node's); @p fifo ignores it
 * and serves tasks in global ready order.
 */
PassResult
run_pass(const TaskGraph &g, const Partition &part,
         const MachineConfig &m, const std::vector<CommPath> &paths,
         const std::vector<RouteTree> &trees, const DepInfo &dep,
         const std::vector<int64_t> &prio, bool fifo)
{
    const int nn = static_cast<int>(g.nodes().size());
    const int np = static_cast<int>(paths.size());

    PassResult res;
    BlockSchedule &out = res.sched;
    out.tiles.assign(m.n_tiles, {});
    out.switches.assign(m.n_tiles, {});

    std::vector<int> deps_left = dep.deps_init;
    std::vector<bool> path_done(np, false);
    res.finish.assign(nn, 0);
    res.issue.assign(nn, 0);
    res.send_issue.assign(np, 0);
    res.arrival.assign(np, {});

    sched::SlotTable slots(m.n_tiles);

    // Ready queue: (priority, tie-break, kind 0=node 1=path, id).
    struct Task
    {
        int64_t prio;
        int64_t seq;
        int kind;
        int id;
        bool operator<(const Task &o) const
        {
            if (prio != o.prio)
                return prio < o.prio;
            if (seq != o.seq)
                return seq > o.seq;
            return id > o.id;
        }
    };
    std::priority_queue<Task> ready;
    int64_t seq = 0;
    int scheduled = 0;

    std::function<void(int)> complete_node;
    auto push_path = [&](int p) {
        int64_t pp = fifo ? -seq : prio[paths[p].src_node];
        ready.push({pp, seq++, 1, p});
    };
    auto push_node = [&](int v) {
        // In ready-FIFO mode a zero-cost import completes the moment
        // it becomes ready, so its paths (and the nodes they unlock)
        // enter the single global sequence right here instead of
        // after every task already in the queue — the queue round
        // trip would sequence all import-sourced communication after
        // all initially-ready nodes and skew the FIFO baseline.
        if (fifo && g.nodes()[v].kind == TGKind::kImport) {
            res.issue[v] = 0;
            res.finish[v] = 0;
            complete_node(v);
            return;
        }
        int64_t p = fifo ? -seq : prio[v];
        ready.push({p, seq++, 0, v});
    };
    complete_node = [&](int v) {
        scheduled++;
        for (int p : dep.paths_of_node[v])
            push_path(p);
        for (int w : dep.node_waiters[v])
            if (--deps_left[w] == 0)
                push_node(w);
    };

    for (int v = 0; v < nn; v++)
        if (deps_left[v] == 0)
            push_node(v);

    // Earliest start time of node v given its satisfied deps.
    auto ready_time = [&](int v) {
        int64_t t = 0;
        for (int e : dep.in_edges[v]) {
            const TGEdge &edge = g.edges()[e];
            int p = edge.from;
            bool same = part.tile_of[p] == part.tile_of[v];
            if (edge.kind == DepKind::kAnti) {
                if (!same)
                    continue;
                t = std::max(t, res.issue[p] + 1);
                if (g.nodes()[p].kind == TGKind::kImport)
                    for (int pp : dep.paths_of_node[p])
                        t = std::max(t, res.send_issue[pp] + 1);
                continue;
            }
            if (same) {
                t = std::max(t, res.finish[p]);
            } else {
                int path = dep.data_path_of_node[p];
                auto it = res.arrival[path].find(part.tile_of[v]);
                check(it != res.arrival[path].end(),
                      "scheduler: missing arrival");
                t = std::max(t, it->second + 1);
            }
        }
        return t;
    };

    while (!ready.empty()) {
        Task task = ready.top();
        ready.pop();
        if (task.kind == 0) {
            int v = task.id;
            const TGNode &nd = g.nodes()[v];
            if (nd.kind == TGKind::kImport) {
                res.issue[v] = 0;
                res.finish[v] = 0;
                complete_node(v);
                continue;
            }
            int tile = part.tile_of[v];
            int64_t t = slots.next_free(tile, ready_time(v));
            slots.take(tile, t);
            out.tiles[tile].push_back({t, TileItem::Kind::kCompute, v,
                                       kNoValue, -1});
            res.issue[v] = t;
            res.finish[v] = t + std::max(1, nd.cost);
            out.makespan = std::max(out.makespan, res.finish[v]);
            complete_node(v);
        } else {
            int p = task.id;
            const CommPath &path = paths[p];
            int src_tile = path.src_tile;
            int64_t r =
                std::max<int64_t>(res.finish[path.src_node], 0);

            const RouteTree &tree = trees[p];
            int64_t t = slots.find_path_slot(tree, src_tile, r);

            // Commit.
            slots.take(src_tile, t);
            out.tiles[src_tile].push_back({t, TileItem::Kind::kSend,
                                           path.src_node, path.value,
                                           p});
            for (const TreeHop &h : tree.hops) {
                slots.reserve(h, t + 1 + h.depth);
                out.switches[h.tile].push_back(
                    {t + 1 + h.depth, h.in, h.out_mask, h.to_reg,
                     path.value, p});
                out.makespan =
                    std::max(out.makespan, t + 2 + h.depth);
            }
            for (auto &[tile, depth] : tree.proc_recvs) {
                int64_t rc = t + 2 + depth;
                slots.take(tile, rc);
                out.tiles[tile].push_back(
                    {rc, TileItem::Kind::kRecv, -1, path.value, p});
                res.arrival[p][tile] = rc;
                out.makespan = std::max(out.makespan, rc + 1);
            }
            res.send_issue[p] = t;
            path_done[p] = true;
            for (int w : dep.path_waiters[p])
                if (--deps_left[w] == 0)
                    push_node(w);
        }
    }

    check(scheduled == nn, "scheduler: not all nodes scheduled");
    for (int p = 0; p < np; p++)
        check(path_done[p], "scheduler: not all paths scheduled");

    for (auto &v : out.tiles)
        std::sort(v.begin(), v.end(),
                  [](const TileItem &a, const TileItem &b) {
                      return a.cycle < b.cycle;
                  });
    for (auto &v : out.switches)
        std::sort(v.begin(), v.end(),
                  [](const SwitchItem &a, const SwitchItem &b) {
                      if (a.cycle != b.cycle)
                          return a.cycle < b.cycle;
                      return a.path < b.path;
                  });
    out.tile_busy.assign(out.tiles.size(), 0);
    for (size_t t = 0; t < out.tiles.size(); t++)
        out.tile_busy[t] = static_cast<int64_t>(out.tiles[t].size());
    return res;
}

/**
 * Priorities rebuilt from an achieved schedule.  Communication edge
 * weights are the *realized* producer-finish-to-consumer-ready
 * latencies — which include send serialization on the source
 * processor and ROUTE contention, not just hop distance — and each
 * node's total slack under those weights is subtracted, so ties
 * between equal realized levels break toward the tasks the achieved
 * schedule actually kept waiting.
 */
std::vector<int64_t>
realized_priorities(const TaskGraph &g, const Partition &part,
                    const MachineConfig &m, const DepInfo &dep,
                    const Priorities &stat, const PassResult &pass,
                    const SchedOptions &opts)
{
    const int n = static_cast<int>(g.nodes().size());
    std::vector<int> order = topo_order(g);

    // Realized latency of one edge (0 for same-tile / anti edges).
    auto comm_of = [&](const TGEdge &edge) -> int64_t {
        int p = edge.from, s = edge.to;
        if (edge.kind == DepKind::kAnti ||
            part.tile_of[p] == part.tile_of[s])
            return 0;
        int64_t est = 2 + m.distance(part.tile_of[p],
                                     part.tile_of[s]);
        int q = dep.data_path_of_node[p];
        if (q < 0)
            return est;
        auto it = pass.arrival[q].find(part.tile_of[s]);
        if (it == pass.arrival[q].end())
            return est;
        return std::max(est, it->second + 1 - pass.finish[p]);
    };

    std::vector<int64_t> level(n, 0), est(n, 0);
    for (int k = n; k-- > 0;) {
        int v = order[k];
        int64_t lvl = 0;
        for (int e : g.out_edges(v)) {
            const TGEdge &edge = g.edges()[e];
            lvl = std::max(lvl, comm_of(edge) + level[edge.to]);
        }
        level[v] = g.nodes()[v].cost + lvl;
    }
    for (int v : order) {
        for (int e : dep.in_edges[v]) {
            const TGEdge &edge = g.edges()[e];
            if (edge.kind == DepKind::kAnti)
                continue;
            int p = edge.from;
            est[v] = std::max(est[v], est[p] + g.nodes()[p].cost +
                                          comm_of(edge));
        }
    }
    int64_t span = 0;
    for (int v = 0; v < n; v++)
        span = std::max(span, est[v] + level[v]);

    std::vector<int64_t> prio(n, 0);
    for (int v = 0; v < n; v++) {
        int64_t slack = span - est[v] - level[v];
        prio[v] = level[v] * opts.level_weight +
                  stat.fert[v] * opts.fertility_weight - slack;
    }
    return prio;
}

} // namespace

BlockSchedule
schedule_block(const TaskGraph &g, const Partition &part,
               const MachineConfig &m,
               const std::vector<CommPath> &paths,
               const SchedOptions &opts)
{
    std::vector<RouteTree> trees;
    trees.reserve(paths.size());
    for (const CommPath &p : paths)
        trees.push_back(build_route_tree(m, p));

    DepInfo dep = build_deps(g, part, paths);
    Priorities stat = compute_priorities(g, part, m);
    std::vector<int64_t> prio(g.nodes().size(), 0);
    for (size_t v = 0; v < g.nodes().size(); v++)
        prio[v] = stat.level[v] * opts.level_weight +
                  stat.fert[v] * opts.fertility_weight;

    // Pass 0 is the seed single greedy pass; without --sched-iters its
    // schedule is returned untouched, and with it it is the floor no
    // later pass may fall below (best-of-N).
    PassResult best =
        run_pass(g, part, m, paths, trees, dep, prio, opts.fifo_priority);
    if (!opts.multi_pass())
        return std::move(best.sched);

    // Each pass takes its priorities from the one before it.
    prio = realized_priorities(g, part, m, dep, stat, best, opts);
    for (int it = 0; it < opts.sched_iters; it++) {
        PassResult cand =
            run_pass(g, part, m, paths, trees, dep, prio, false);
        if (it + 1 < opts.sched_iters)
            prio = realized_priorities(g, part, m, dep, stat, cand, opts);
        if (cand.sched.makespan < best.sched.makespan)
            best = std::move(cand);
    }
    return std::move(best.sched);
}

} // namespace raw
