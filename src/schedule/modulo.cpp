#include "schedule/modulo.hpp"

#include <algorithm>
#include <climits>
#include <functional>
#include <map>
#include <queue>

#include "schedule/sched_internal.hpp"
#include "support/error.hpp"
#include "transform/rename.hpp"

namespace raw {

namespace {

using sched::build_deps;
using sched::compute_priorities;
using sched::DepInfo;
using sched::Priorities;
using sched::topo_order;

/** Recurrence-chain nodes outrank everything else in the ready queue
 *  (well above any level/fertility combination). */
constexpr int64_t kWrapBoost = int64_t{1} << 32;
/** Linear II probes before the search step starts growing. */
constexpr int kLinearProbes = 12;
/** Total II probes per block. */
constexpr int kMaxProbes = 24;
/** Per-task slot-search span before a probe is declared infeasible. */
constexpr int64_t kSlotSearchPad = 1024;
/** Window-release retries per II probe (see WindowBlame). */
constexpr int kWindowRetries = 12;
/** Skip the O(nodes * edges) flat span bound on oversized blocks. */
constexpr int kFlatBoundNodeCap = 4000;
/** Upper bound of the II search; a loop whose feasible II exceeds it
 *  keeps the greedy schedule. */
constexpr int64_t kMiiCap = 512;

} // namespace

std::vector<uint8_t>
loop_blocks(const Function &fn)
{
    const int nb = static_cast<int>(fn.blocks.size());
    std::vector<std::vector<int>> succs(nb);
    for (int b = 0; b < nb; b++)
        succs[b] = fn.blocks[b].successors();
    std::vector<uint8_t> on_cycle(nb, 0);
    std::vector<uint8_t> seen;
    for (int b = 0; b < nb; b++) {
        // b lies on a cycle iff b is reachable from a successor of b.
        seen.assign(nb, 0);
        std::vector<int> stack(succs[b]);
        while (!stack.empty()) {
            int v = stack.back();
            stack.pop_back();
            if (v == b) {
                on_cycle[b] = 1;
                break;
            }
            if (seen[v])
                continue;
            seen[v] = 1;
            for (int s : succs[v])
                stack.push_back(s);
        }
    }
    return on_cycle;
}

LoopPipelineInfo
analyze_loop_block(const Function &fn, int b, const TaskGraph &g,
                   bool on_cycle, int tail_len, bool any_switch_active)
{
    LoopPipelineInfo info;
    info.loop_block = on_cycle;
    // Every tile replays the control tail and then its terminator's
    // taken-path slot; active switches mirror that on their streams.
    info.proc_tail = tail_len + 1;
    info.sw_tail = tail_len + 1;
    info.any_switch_active = any_switch_active;
    if (!on_cycle)
        return info;

    const Block &blk = fn.blocks[b];
    const int nn = static_cast<int>(g.nodes().size());
    for (int i = 0; i < nn; i++) {
        const TGNode &imp = g.nodes()[i];
        if (imp.kind != TGKind::kImport)
            continue;
        for (int j = 0; j < nn; j++) {
            const TGNode &nd = g.nodes()[j];
            if (nd.kind != TGKind::kInstr)
                continue;
            const Instr &in = blk.instrs[nd.instr];
            if (in.dst == imp.var && is_writeback(fn, in)) {
                info.wraps.push_back({i, j});
                break;
            }
        }
    }
    return info;
}

MiiBounds
modulo_mii(const TaskGraph &g, const Partition &part,
           const MachineConfig &m, const std::vector<CommPath> &paths,
           const LoopPipelineInfo &loop)
{
    MiiBounds b;
    const int nn = static_cast<int>(g.nodes().size());

    // ---- Resource bound: busiest stream's slot count + its tail.
    std::vector<int64_t> proc_slots(m.n_tiles, 0);
    std::vector<int64_t> sw_slots(m.n_tiles, 0);
    for (int v = 0; v < nn; v++)
        if (g.nodes()[v].kind == TGKind::kInstr)
            proc_slots[part.tile_of[v]]++;
    for (const CommPath &p : paths) {
        RouteTree tree = build_route_tree(m, p);
        proc_slots[p.src_tile]++; // the send
        for (const TreeHop &h : tree.hops)
            sw_slots[h.tile]++;
        for (auto &[tile, depth] : tree.proc_recvs) {
            (void)depth;
            proc_slots[tile]++;
        }
    }
    int64_t busiest_proc = 0, busiest_sw = 0;
    for (int t = 0; t < m.n_tiles; t++) {
        busiest_proc = std::max(busiest_proc, proc_slots[t]);
        busiest_sw = std::max(busiest_sw, sw_slots[t]);
    }
    b.res_mii = loop.proc_tail + busiest_proc;
    if (loop.any_switch_active)
        b.res_mii =
            std::max<int64_t>(b.res_mii, loop.sw_tail + busiest_sw);
    b.res_mii = std::max<int64_t>(b.res_mii, 1);

    // ---- Dependence-distance bounds.  Both use the scheduler's own
    // minimum delays: producer latency, plus 2+distance per cross-
    // tile hop, plus the issue-after-read rule for same-tile antis.
    std::vector<int> order = topo_order(g);
    std::vector<int64_t> dist;
    auto longest_from = [&](int src) {
        dist.assign(nn, INT64_MIN);
        dist[src] = 0;
        for (int v : order) {
            if (dist[v] == INT64_MIN)
                continue;
            for (int e : g.out_edges(v)) {
                const TGEdge &edge = g.edges()[e];
                int s = edge.to;
                bool same = part.tile_of[v] == part.tile_of[s];
                int64_t w;
                if (edge.kind == DepKind::kAnti) {
                    if (!same)
                        continue;
                    w = 1; // consumer issues after the read
                } else {
                    w = std::max(1, g.nodes()[v].cost);
                    if (g.nodes()[v].kind == TGKind::kImport)
                        w = 0;
                    if (!same)
                        w += 2 + m.distance(part.tile_of[v],
                                            part.tile_of[s]);
                }
                dist[s] = std::max(dist[s], dist[v] + w);
            }
        }
    };

    // Recurrence bound: longest import -> write-back chain.
    for (auto &[imp, wb] : loop.wraps) {
        longest_from(imp);
        if (dist[wb] != INT64_MIN)
            b.rec_mii = std::max(
                b.rec_mii,
                dist[wb] + std::max(1, g.nodes()[wb].cost));
    }

    // Flat-emission span bound (see MiiBounds::flat_mii): a chain
    // that leaves a tile and returns to it pins the issue distance
    // between the tile's ops, and the replay window must cover both.
    if (nn <= kFlatBoundNodeCap) {
        for (int u = 0; u < nn; u++) {
            if (g.nodes()[u].kind != TGKind::kInstr)
                continue;
            longest_from(u);
            int tile = part.tile_of[u];
            for (int v = 0; v < nn; v++)
                if (dist[v] > 0 && part.tile_of[v] == tile &&
                    g.nodes()[v].kind == TGKind::kInstr)
                    b.flat_mii = std::max(
                        b.flat_mii, dist[v] + 1 + loop.proc_tail);
        }
    }
    return b;
}

namespace {

/** Per-node timing recovered from a committed schedule. */
struct ScheduleTimes
{
    std::vector<int64_t> issue, finish; // per node (imports: 0)
    std::vector<int64_t> send_issue;    // per path (-1 if absent)
};

ScheduleTimes
recover_times(const BlockSchedule &s, const TaskGraph &g,
              const std::vector<CommPath> &paths)
{
    ScheduleTimes tm;
    const int nn = static_cast<int>(g.nodes().size());
    tm.issue.assign(nn, 0);
    tm.finish.assign(nn, 0);
    tm.send_issue.assign(paths.size(), -1);
    for (const auto &tile : s.tiles) {
        for (const TileItem &it : tile) {
            if (it.kind == TileItem::Kind::kCompute) {
                tm.issue[it.node] = it.cycle;
                tm.finish[it.node] =
                    it.cycle + std::max(1, g.nodes()[it.node].cost);
            } else if (it.kind == TileItem::Kind::kSend) {
                tm.send_issue[it.path] = it.cycle;
            }
        }
    }
    return tm;
}

/**
 * First read of an import's live-in register: the earliest of its
 * paths' sends and its same-tile data consumers' issues.  INT64_MAX
 * when nothing reads the register (wrap imposes no constraint).
 */
int64_t
first_read_of(int imp, const TaskGraph &g, const Partition &part,
              const DepInfo &dep, const ScheduleTimes &tm)
{
    int64_t first = INT64_MAX;
    for (int p : dep.paths_of_node[imp])
        if (tm.send_issue[p] >= 0)
            first = std::min(first, tm.send_issue[p]);
    for (int e : g.out_edges(imp)) {
        const TGEdge &edge = g.edges()[e];
        if (edge.kind != DepKind::kData)
            continue;
        if (part.tile_of[imp] == part.tile_of[edge.to])
            first = std::min(first, tm.issue[edge.to]);
    }
    return first;
}

} // namespace

int64_t
steady_state_ii(const BlockSchedule &s, const TaskGraph &g,
                const Partition &part,
                const std::vector<CommPath> &paths,
                const LoopPipelineInfo &loop)
{
    // Window terms: every stream must replay II cycles after its
    // previous activation, so each contributes span + tail.
    int64_t ii = loop.proc_tail; // empty tiles still run the tail
    for (const auto &tile : s.tiles) {
        if (tile.empty())
            continue;
        int64_t span = tile.back().cycle - tile.front().cycle + 1;
        ii = std::max(ii, span + loop.proc_tail);
    }
    if (loop.any_switch_active) {
        ii = std::max<int64_t>(ii, loop.sw_tail);
        for (const auto &sw : s.switches) {
            if (sw.empty())
                continue;
            // Same-cycle hops of different paths are separate ROUTE
            // instructions (one issue slot each), so the stream
            // length binds the period even when the flat span is
            // shorter.
            int64_t span =
                std::max(sw.back().cycle - sw.front().cycle + 1,
                         static_cast<int64_t>(sw.size()));
            ii = std::max(ii, span + loop.sw_tail);
        }
    }

    // Wrap terms: the write-back must land no more than II cycles
    // after the next iteration's first read of the live-in value.
    DepInfo dep = build_deps(g, part, paths);
    ScheduleTimes tm = recover_times(s, g, paths);
    for (auto &[imp, wb] : loop.wraps) {
        int64_t first = first_read_of(imp, g, part, dep, tm);
        if (first == INT64_MAX)
            continue;
        ii = std::max(ii, tm.finish[wb] - first);
    }
    return std::max<int64_t>(ii, 1);
}

namespace {

/**
 * Why a window pass failed: stream kind (processor or switch), the
 * stream's tile, and the cycle the unplaceable op needed.  The caller
 * converts this into a release — the earliest cycle the pass may use
 * on that stream — pushing the stream's early ops later so its span
 * can cover the failing op on the next retry.  kind -1 means the
 * failure was not a window violation (nothing to release; give up on
 * this II).
 */
struct WindowBlame
{
    int kind = -1; // 0 = processor stream, 1 = switch stream
    int tile = 0;
    int64_t cycle = 0;
};

/**
 * One window-constrained list-scheduling pass at initiation interval
 * @p ii.  The placement rules are run_pass's (event_scheduler.cpp)
 * with one addition: every processor slot, switch ROUTE slot and
 * receive must keep its stream's occupied window within ii minus the
 * stream's control tail, and no op may land before its stream's
 * release cycle (@p rel_proc / @p rel_sw).  Returns false when some
 * task cannot be placed inside its window or a wrap constraint ends
 * up violated — @p blame then identifies the stream to release, and
 * the caller retries or moves to the next ii.
 */
bool
run_modulo_pass(const TaskGraph &g, const Partition &part,
                const MachineConfig &m,
                const std::vector<CommPath> &paths,
                const std::vector<RouteTree> &trees, const DepInfo &dep,
                const std::vector<int64_t> &prio, int64_t ii,
                const LoopPipelineInfo &loop,
                const std::vector<int64_t> &rel_proc,
                const std::vector<int64_t> &rel_sw, BlockSchedule &out,
                WindowBlame &blame)
{
    const int nn = static_cast<int>(g.nodes().size());
    const int np = static_cast<int>(paths.size());
    const int64_t proc_limit = ii - loop.proc_tail;
    const int64_t sw_limit = ii - loop.sw_tail;
    blame = WindowBlame{};
    if (proc_limit <= 0 || (loop.any_switch_active && sw_limit <= 0))
        return false;

    out = BlockSchedule{};
    out.tiles.assign(m.n_tiles, {});
    out.switches.assign(m.n_tiles, {});

    std::vector<int> deps_left = dep.deps_init;
    std::vector<int64_t> finish(nn, 0), issue(nn, 0);
    std::vector<int64_t> send_issue(np, 0);
    std::vector<std::map<int, int64_t>> arrival(np);

    sched::SlotTable slots(m.n_tiles);
    std::vector<int64_t> proc_lo(m.n_tiles, INT64_MAX);
    std::vector<int64_t> proc_hi(m.n_tiles, INT64_MIN);
    std::vector<int64_t> sw_lo(m.n_tiles, INT64_MAX);
    std::vector<int64_t> sw_hi(m.n_tiles, INT64_MIN);

    auto proc_take = [&](int tile, int64_t t) {
        slots.take(tile, t);
        proc_lo[tile] = std::min(proc_lo[tile], t);
        proc_hi[tile] = std::max(proc_hi[tile], t);
    };
    auto proc_adm = [&](int tile, int64_t t) {
        return std::max(proc_hi[tile], t) -
                   std::min(proc_lo[tile], t) <
               proc_limit;
    };
    auto sw_adm = [&](int sw, int64_t t) {
        return std::max(sw_hi[sw], t) - std::min(sw_lo[sw], t) <
               sw_limit;
    };

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
        ready.push({prio[paths[p].src_node], seq++, 1, p});
    };
    auto push_node = [&](int v) { ready.push({prio[v], seq++, 0, v}); };
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

    auto ready_time = [&](int v) {
        int64_t t = 0;
        for (int e : dep.in_edges[v]) {
            const TGEdge &edge = g.edges()[e];
            int p = edge.from;
            bool same = part.tile_of[p] == part.tile_of[v];
            if (edge.kind == DepKind::kAnti) {
                if (!same)
                    continue;
                t = std::max(t, issue[p] + 1);
                if (g.nodes()[p].kind == TGKind::kImport)
                    for (int pp : dep.paths_of_node[p])
                        t = std::max(t, send_issue[pp] + 1);
                continue;
            }
            if (same) {
                t = std::max(t, finish[p]);
            } else {
                int path = dep.data_path_of_node[p];
                auto it = arrival[path].find(part.tile_of[v]);
                check(it != arrival[path].end(),
                      "modulo: missing arrival");
                t = std::max(t, it->second + 1);
            }
        }
        return t;
    };

    const int64_t pad = 4 * ii + kSlotSearchPad;

    while (!ready.empty()) {
        Task task = ready.top();
        ready.pop();
        if (task.kind == 0) {
            int v = task.id;
            const TGNode &nd = g.nodes()[v];
            if (nd.kind == TGKind::kImport) {
                issue[v] = 0;
                finish[v] = 0;
                complete_node(v);
                continue;
            }
            int tile = part.tile_of[v];
            int64_t r = ready_time(v);
            int64_t t0 = std::max(r, rel_proc[tile]);
            int64_t t = t0;
            for (;; t++) {
                if (t > t0 + pad)
                    return false;
                if (!slots.proc_free(tile, t))
                    continue;
                if (proc_adm(tile, t))
                    break;
                // Past the window's low edge the span only grows
                // with t: this task cannot fit at this ii unless the
                // tile's early ops move later.
                if (t >= proc_lo[tile]) {
                    blame = {0, tile, t};
                    return false;
                }
            }
            proc_take(tile, t);
            out.tiles[tile].push_back({t, TileItem::Kind::kCompute, v,
                                       kNoValue, -1});
            issue[v] = t;
            finish[v] = t + std::max(1, nd.cost);
            out.makespan = std::max(out.makespan, finish[v]);
            complete_node(v);
        } else {
            int p = task.id;
            const CommPath &path = paths[p];
            const RouteTree &tree = trees[p];
            int src_tile = path.src_tile;
            int64_t r = std::max<int64_t>(finish[path.src_node], 0);
            int64_t t0 = std::max(r, rel_proc[src_tile]);
            int64_t t = t0;
            bool placed = false;
            for (; t <= t0 + pad; t++) {
                if (slots.proc_free(src_tile, t) &&
                    !proc_adm(src_tile, t) && t >= proc_lo[src_tile]) {
                    // Monotone: larger t only widens the span.
                    blame = {0, src_tile, t};
                    return false;
                }
                if (!slots.proc_free(src_tile, t) ||
                    !proc_adm(src_tile, t))
                    continue;
                bool ok = true;
                for (const TreeHop &h : tree.hops) {
                    int64_t c = t + 1 + h.depth;
                    if (!sw_adm(h.tile, c)) {
                        if (c >= sw_lo[h.tile]) {
                            blame = {1, h.tile, c};
                            return false;
                        }
                        ok = false;
                        break;
                    }
                    if (c < rel_sw[h.tile]) {
                        ok = false;
                        break;
                    }
                    if (!slots.hop_free(h, c)) {
                        ok = false;
                        break;
                    }
                }
                if (ok) {
                    for (auto &[tile, depth] : tree.proc_recvs) {
                        int64_t c = t + 2 + depth;
                        if (slots.proc_free(tile, c) &&
                            !proc_adm(tile, c) && c >= proc_lo[tile]) {
                            blame = {0, tile, c};
                            return false;
                        }
                        if (!slots.proc_free(tile, c) ||
                            !proc_adm(tile, c) ||
                            c < rel_proc[tile]) {
                            ok = false;
                            break;
                        }
                    }
                }
                if (ok) {
                    placed = true;
                    break;
                }
            }
            if (!placed)
                return false;

            proc_take(src_tile, t);
            out.tiles[src_tile].push_back({t, TileItem::Kind::kSend,
                                           path.src_node, path.value,
                                           p});
            for (const TreeHop &h : tree.hops) {
                int64_t c = t + 1 + h.depth;
                slots.reserve(h, c);
                sw_lo[h.tile] = std::min(sw_lo[h.tile], c);
                sw_hi[h.tile] = std::max(sw_hi[h.tile], c);
                out.switches[h.tile].push_back(
                    {c, h.in, h.out_mask, h.to_reg, path.value, p});
                out.makespan = std::max(out.makespan, c + 1);
            }
            for (auto &[tile, depth] : tree.proc_recvs) {
                int64_t rc = t + 2 + depth;
                proc_take(tile, rc);
                out.tiles[tile].push_back(
                    {rc, TileItem::Kind::kRecv, -1, path.value, p});
                arrival[p][tile] = rc;
                out.makespan = std::max(out.makespan, rc + 1);
            }
            send_issue[p] = t;
            for (int w : dep.path_waiters[p])
                if (--deps_left[w] == 0)
                    push_node(w);
        }
    }
    check(scheduled == nn, "modulo: not all nodes scheduled");

    // Wrap constraints under the committed timing.
    for (auto &[imp, wb] : loop.wraps) {
        int64_t first = INT64_MAX;
        for (int p : dep.paths_of_node[imp])
            first = std::min(first, send_issue[p]);
        for (int e : g.out_edges(imp)) {
            const TGEdge &edge = g.edges()[e];
            if (edge.kind != DepKind::kData)
                continue;
            if (part.tile_of[imp] == part.tile_of[edge.to])
                first = std::min(first, issue[edge.to]);
        }
        if (first != INT64_MAX && finish[wb] > first + ii)
            return false;
    }

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
    return true;
}

/** Fixpoint rounds before retiming gives up (defensive; 2-3 used). */
constexpr int kRetimeRounds = 64;

/**
 * ALAP retiming of a committed schedule: keep every stream's item
 * order and its last item's cycle, and push every other event as
 * late as the dependence rules allow.  Raising each stream's first
 * cycle without moving its last shrinks the stream's replay window —
 * exactly the steady-state II terms — while the flat makespan stays
 * put.  Unlike the window-constrained pass this cannot fail to
 * converge by chasing violations: it is a one-shot difference-
 * constraint relaxation over the already-feasible greedy schedule.
 *
 * Variables are compute issues and path send issues; switch hops and
 * receives keep their rigid offsets from the send (the route stays
 * contiguous).  Constraints are the scheduler's own minimum delays
 * (ready_time/find_path_slot rules), per-stream program order, and
 * strict ordering between switch items sharing a port (so the
 * retimed streams stay conflict-free).  Returns false if anything
 * fails validation; the caller then keeps the input schedule.
 */
bool
retime_late(const BlockSchedule &in, const TaskGraph &g,
            const Partition &part, const std::vector<CommPath> &paths,
            const std::vector<RouteTree> &trees, const DepInfo &dep,
            BlockSchedule &out)
{
    const int nn = static_cast<int>(g.nodes().size());
    const int np = static_cast<int>(paths.size());
    const int64_t kInf = INT64_MAX / 4;
    ScheduleTimes tm = recover_times(in, g, paths);

    auto committed = [&](int var) {
        return var < nn ? tm.issue[var] : tm.send_issue[var - nn];
    };

    struct Con
    {
        int a, b;  // X_a <= X_b + k
        int64_t k;
    };
    std::vector<Con> cons;

    // The scheduler's minimum delays (mirrors ready_time).
    for (int v = 0; v < nn; v++) {
        if (g.nodes()[v].kind != TGKind::kInstr)
            continue;
        for (int e : dep.in_edges[v]) {
            const TGEdge &edge = g.edges()[e];
            int u = edge.from;
            bool same = part.tile_of[u] == part.tile_of[v];
            if (edge.kind == DepKind::kAnti) {
                if (!same)
                    continue;
                if (g.nodes()[u].kind == TGKind::kInstr)
                    cons.push_back({u, v, -1});
                else
                    for (int pp : dep.paths_of_node[u])
                        cons.push_back({nn + pp, v, -1});
                continue;
            }
            if (same) {
                if (g.nodes()[u].kind == TGKind::kInstr)
                    cons.push_back(
                        {u, v, -std::max(1, g.nodes()[u].cost)});
            } else {
                int p = dep.data_path_of_node[u];
                check(p >= 0, "retime: missing data path");
                int depth = -1;
                for (auto &[tile, d] : trees[p].proc_recvs)
                    if (tile == part.tile_of[v])
                        depth = d;
                check(depth >= 0, "retime: missing recv");
                cons.push_back({nn + p, v, -(3 + depth)});
            }
        }
    }
    // Sends wait for their source value.
    for (int p = 0; p < np; p++) {
        int u = paths[p].src_node;
        if (g.nodes()[u].kind == TGKind::kInstr)
            cons.push_back(
                {u, nn + p, -std::max(1, g.nodes()[u].cost)});
    }

    std::vector<int64_t> ub(nn + np, kInf);
    auto item_var = [&](const TileItem &it) {
        return it.kind == TileItem::Kind::kCompute ? it.node
                                                   : nn + it.path;
    };
    // Program order per tile stream; pin the last item.
    for (const auto &tile : in.tiles) {
        for (size_t i = 0; i + 1 < tile.size(); i++) {
            int a = item_var(tile[i]), b = item_var(tile[i + 1]);
            int64_t oa = tile[i].cycle - committed(a);
            int64_t ob = tile[i + 1].cycle - committed(b);
            cons.push_back({a, b, ob - oa - 1});
        }
        if (!tile.empty()) {
            int a = item_var(tile.back());
            ub[a] = std::min(ub[a], committed(a));
        }
    }
    // Strict order between switch items sharing a port; pin the last.
    for (const auto &sw : in.switches) {
        int last_res[17]; // 8 in bits, 8 out bits, reg
        std::fill(std::begin(last_res), std::end(last_res), -1);
        for (size_t i = 0; i < sw.size(); i++) {
            int res_ids[17];
            int nres = 0;
            for (int bit = 0; bit < 8; bit++)
                if (static_cast<int>(sw[i].in) == bit)
                    res_ids[nres++] = bit;
            for (int bit = 0; bit < 8; bit++)
                if (sw[i].out_mask & (1u << bit))
                    res_ids[nres++] = 8 + bit;
            if (sw[i].to_reg)
                res_ids[nres++] = 16;
            int b = nn + sw[i].path;
            int64_t ob = sw[i].cycle - committed(b);
            for (int r = 0; r < nres; r++) {
                int j = last_res[res_ids[r]];
                if (j >= 0 && sw[j].path != sw[i].path) {
                    int a = nn + sw[j].path;
                    int64_t oa = sw[j].cycle - committed(a);
                    cons.push_back({a, b, ob - oa - 1});
                }
                last_res[res_ids[r]] = static_cast<int>(i);
            }
        }
        if (!sw.empty()) {
            int a = nn + sw.back().path;
            ub[a] = std::min(ub[a], committed(a));
        }
    }

    // Greatest fixpoint: relax until stable.
    bool changed = true;
    for (int round = 0; changed; round++) {
        if (round >= kRetimeRounds)
            return false;
        changed = false;
        for (const Con &c : cons) {
            int64_t nub = ub[c.b] == kInf ? kInf : ub[c.b] + c.k;
            if (nub < ub[c.a]) {
                ub[c.a] = nub;
                changed = true;
            }
        }
    }
    // The committed times satisfy every constraint and every pin, so
    // the greatest fixpoint can only move events later.
    for (int v = 0; v < nn + np; v++) {
        if (ub[v] == kInf)
            continue;
        if (ub[v] < committed(v))
            return false;
    }

    out = in;
    for (auto &tile : out.tiles)
        for (TileItem &it : tile) {
            int var = item_var(it);
            it.cycle += ub[var] - committed(var);
        }
    for (auto &sw : out.switches)
        for (SwitchItem &it : sw) {
            int var = nn + it.path;
            it.cycle += ub[var] - committed(var);
        }
    for (auto &tile : out.tiles) {
        std::sort(tile.begin(), tile.end(),
                  [](const TileItem &a, const TileItem &b) {
                      return a.cycle < b.cycle;
                  });
        for (size_t i = 0; i + 1 < tile.size(); i++)
            if (tile[i].cycle == tile[i + 1].cycle)
                return false; // double-booked processor slot
    }
    for (auto &sw : out.switches) {
        std::sort(sw.begin(), sw.end(),
                  [](const SwitchItem &a, const SwitchItem &b) {
                      if (a.cycle != b.cycle)
                          return a.cycle < b.cycle;
                      return a.path < b.path;
                  });
        for (size_t i = 0; i < sw.size(); i++)
            for (size_t j = i + 1;
                 j < sw.size() && sw[j].cycle == sw[i].cycle; j++)
                if ((sw[i].in == sw[j].in) ||
                    (sw[i].out_mask & sw[j].out_mask) ||
                    (sw[i].to_reg && sw[j].to_reg))
                    return false; // port conflict introduced
    }
    return true;
}

/** Nodes on some import -> write-back chain of @p loop. */
std::vector<uint8_t>
wrap_chain_nodes(const TaskGraph &g, const LoopPipelineInfo &loop)
{
    const int nn = static_cast<int>(g.nodes().size());
    std::vector<uint8_t> fwd(nn, 0), bwd(nn, 0), on(nn, 0);
    auto sweep = [&](std::vector<uint8_t> &mark, int seed, bool back) {
        std::vector<int> stack{seed};
        mark[seed] = 1;
        while (!stack.empty()) {
            int v = stack.back();
            stack.pop_back();
            for (int s : back ? g.preds(v) : g.succs(v))
                if (!mark[s]) {
                    mark[s] = 1;
                    stack.push_back(s);
                }
        }
    };
    for (auto &[imp, wb] : loop.wraps) {
        std::fill(fwd.begin(), fwd.end(), 0);
        std::fill(bwd.begin(), bwd.end(), 0);
        sweep(fwd, imp, false);
        sweep(bwd, wb, true);
        for (int v = 0; v < nn; v++)
            if (fwd[v] && bwd[v])
                on[v] = 1;
    }
    return on;
}

} // namespace

BlockSchedule
schedule_block_pipelined(const TaskGraph &g, const Partition &part,
                         const MachineConfig &m,
                         const std::vector<CommPath> &paths,
                         const SchedOptions &opts,
                         const LoopPipelineInfo &loop)
{
    BlockSchedule greedy = schedule_block(g, part, m, paths, opts);
    if (!opts.modulo || !loop.loop_block)
        return greedy;

    MiiBounds bounds = modulo_mii(g, part, m, paths, loop);
    int64_t greedy_ii = steady_state_ii(greedy, g, part, paths, loop);
    greedy.ii = greedy_ii;
    greedy.mii = bounds.mii();
    greedy.res_mii = bounds.res_mii;
    greedy.rec_mii = bounds.rec_mii;
    greedy.flat_mii = bounds.flat_mii;
    if (greedy_ii <= bounds.mii())
        return greedy; // greedy already meets the lower bound

    const int np = static_cast<int>(paths.size());
    std::vector<RouteTree> trees;
    trees.reserve(np);
    for (const CommPath &p : paths)
        trees.push_back(build_route_tree(m, p));
    DepInfo dep = build_deps(g, part, paths);
    Priorities stat = compute_priorities(g, part, m);
    std::vector<uint8_t> chain = wrap_chain_nodes(g, loop);
    std::vector<int64_t> prio(g.nodes().size(), 0);
    for (size_t v = 0; v < g.nodes().size(); v++) {
        prio[v] = stat.level[v] * opts.level_weight +
                  stat.fert[v] * opts.fertility_weight;
        // Drain the loop-carried chains first: the wrap constraint
        // needs the write-backs early and the imports' reads earlier.
        if (chain[v])
            prio[v] += kWrapBoost;
    }

    // Adoption margin: the steady-state model ignores dynamic FIFO
    // coupling between blocks, so gains within ~6% of greedy are
    // noise there and not worth perturbing the schedule for.
    int64_t margin = std::max<int64_t>(1, greedy_ii / 16);
    int64_t hi = std::min<int64_t>(kMiiCap, greedy_ii - margin);
    int64_t ii = bounds.mii();
    // Greedy stream end cycles: the window search seeds each stream's
    // release so its window is presumed to end where greedy ended it
    // and to start as late as the limit allows.  This makes the first
    // attempt globally consistent instead of discovering the shifts
    // one blame at a time.
    std::vector<int64_t> ghi_proc(m.n_tiles, 0), ghi_sw(m.n_tiles, 0);
    for (int t = 0; t < m.n_tiles; t++) {
        if (!greedy.tiles[t].empty())
            ghi_proc[t] = greedy.tiles[t].back().cycle;
        if (!greedy.switches[t].empty())
            ghi_sw[t] = greedy.switches[t].back().cycle;
    }
    std::vector<int64_t> rel_proc(m.n_tiles), rel_sw(m.n_tiles);
    for (int probe = 0; probe < kMaxProbes && ii <= hi; probe++) {
        // Window-release retries: a failed pass blames the stream
        // whose early ops pinned its window too low; raising that
        // stream's release pushes them later so the span can cover
        // the failing op.  Releases reset per II (new window limits).
        for (int t = 0; t < m.n_tiles; t++) {
            rel_proc[t] = std::max<int64_t>(
                0, ghi_proc[t] - (ii - loop.proc_tail) + 1);
            rel_sw[t] = std::max<int64_t>(
                0, ghi_sw[t] - (ii - loop.sw_tail) + 1);
        }
        for (int retry = 0; retry < kWindowRetries; retry++) {
            BlockSchedule cand;
            WindowBlame blame;
            if (run_modulo_pass(g, part, m, paths, trees, dep, prio,
                                ii, loop, rel_proc, rel_sw, cand,
                                blame)) {
                int64_t cii =
                    steady_state_ii(cand, g, part, paths, loop);
                // Feasibility at ii bounds every window and wrap
                // term by ii < greedy_ii, so the candidate always
                // wins here.
                if (cii < greedy_ii) {
                    cand.pipelined = true;
                    cand.ii = cii;
                    cand.mii = bounds.mii();
                    cand.res_mii = bounds.res_mii;
                    cand.rec_mii = bounds.rec_mii;
                    cand.flat_mii = bounds.flat_mii;
                    return cand;
                }
                return greedy; // unreachable: cii <= ii < greedy_ii
            }
            if (blame.kind < 0)
                break; // not a window failure: releases cannot help
            std::vector<int64_t> &rel =
                blame.kind == 0 ? rel_proc : rel_sw;
            int64_t limit = blame.kind == 0 ? ii - loop.proc_tail
                                            : ii - loop.sw_tail;
            rel[blame.tile] = std::max(rel[blame.tile] + 1,
                                       blame.cycle - limit + 1);
        }
        ii += probe < kLinearProbes ? 1 : std::max<int64_t>(1, ii / 8);
    }

    // Window search came up empty: fall back to ALAP retiming of the
    // greedy schedule, which compresses stream windows directly.
    BlockSchedule ret;
    if (retime_late(greedy, g, part, paths, trees, dep, ret)) {
        int64_t rii = steady_state_ii(ret, g, part, paths, loop);
        if (rii <= greedy_ii - margin) {
            ret.makespan = greedy.makespan;
            ret.tile_busy = greedy.tile_busy;
            ret.pipelined = true;
            ret.ii = rii;
            ret.mii = bounds.mii();
            ret.res_mii = bounds.res_mii;
            ret.rec_mii = bounds.rec_mii;
            ret.flat_mii = bounds.flat_mii;
            return ret;
        }
    }
    return greedy;
}

} // namespace raw
