/**
 * @file
 * Communication and event-scheduler tests: dimension-ordered
 * multicast trees, comm path derivation, structural validity of
 * block schedules (slot exclusivity, end-to-end contiguous paths,
 * dependence-respecting times), and the greedy pass against the
 * small-block branch-and-bound reference (oracle.hpp).
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>

#include "analysis/liveness.hpp"
#include "analysis/replication.hpp"
#include "analysis/taskgraph.hpp"
#include "frontend/lower.hpp"
#include "frontend/parser.hpp"
#include "oracle.hpp"
#include "schedule/event_scheduler.hpp"
#include "schedule/sched_internal.hpp"
#include "transform/congruence.hpp"
#include "transform/constfold.hpp"
#include "transform/rename.hpp"

namespace raw {
namespace {

TEST(RouteTree, SingleDestNeighbor)
{
    MachineConfig m = MachineConfig::base(4); // 2x2
    CommPath p;
    p.src_tile = 0;
    p.dests = {{1, true, false}};
    RouteTree t = build_route_tree(m, p);
    ASSERT_EQ(t.hops.size(), 2u);
    EXPECT_EQ(t.hops[0].tile, 0);
    EXPECT_EQ(t.hops[0].in, Dir::kProc);
    EXPECT_EQ(t.hops[0].out_mask,
              1u << static_cast<int>(Dir::kEast));
    EXPECT_EQ(t.hops[1].tile, 1);
    EXPECT_EQ(t.hops[1].in, Dir::kWest);
    EXPECT_TRUE(t.hops[1].out_mask &
                (1u << static_cast<int>(Dir::kProc)));
    ASSERT_EQ(t.proc_recvs.size(), 1u);
    EXPECT_EQ(t.proc_recvs[0], (std::pair<int, int>{1, 1}));
    EXPECT_EQ(t.max_depth, 1);
}

TEST(RouteTree, DimensionOrderXThenY)
{
    MachineConfig m = MachineConfig::base(16); // 4x4
    CommPath p;
    p.src_tile = 0;
    p.dests = {{10, true, false}}; // row 2, col 2
    RouteTree t = build_route_tree(m, p);
    // Path: 0 ->E 1 ->E 2 ->S 6 ->S 10.
    std::map<int, Dir> in_of;
    for (const TreeHop &h : t.hops)
        in_of[h.tile] = h.in;
    EXPECT_TRUE(in_of.count(1));
    EXPECT_TRUE(in_of.count(2));
    EXPECT_TRUE(in_of.count(6));
    EXPECT_TRUE(in_of.count(10));
    EXPECT_EQ(in_of[6], Dir::kNorth);
    EXPECT_EQ(t.max_depth, 4);
}

TEST(RouteTree, MulticastSharesPrefix)
{
    MachineConfig m = MachineConfig::base(16); // 4x4
    CommPath p;
    p.src_tile = 0;
    p.dests = {{2, true, false}, {3, true, false}};
    RouteTree t = build_route_tree(m, p);
    // Tiles 0,1,2,3 each appear once; tile 2 forwards east AND
    // delivers to its processor.
    EXPECT_EQ(t.hops.size(), 4u);
    for (const TreeHop &h : t.hops) {
        if (h.tile == 2) {
            EXPECT_TRUE(h.out_mask &
                        (1u << static_cast<int>(Dir::kProc)));
            EXPECT_TRUE(h.out_mask &
                        (1u << static_cast<int>(Dir::kEast)));
        }
    }
}

TEST(RouteTree, SwitchRegisterDelivery)
{
    MachineConfig m = MachineConfig::base(4);
    CommPath p;
    p.src_tile = 0;
    p.broadcast = true;
    p.dests = {{0, false, true}, {1, true, true}};
    RouteTree t = build_route_tree(m, p);
    for (const TreeHop &h : t.hops) {
        if (h.tile == 0) {
            EXPECT_TRUE(h.to_reg);
        }
        if (h.tile == 1) {
            EXPECT_TRUE(h.to_reg);
            EXPECT_TRUE(h.out_mask &
                        (1u << static_cast<int>(Dir::kProc)));
        }
    }
}

// ---------------------------------------------------------------
// Skip-ahead path-slot search against the linear scan it replaced.

/**
 * The reservation state as the schedulers used to keep it: a bool
 * row per processor, an ordered map per switch, and a slot search
 * that tries every cycle in turn.
 */
struct LinearTable
{
    std::vector<std::vector<bool>> busy;
    std::vector<std::map<int64_t, sched::SwRes>> sw;

    explicit LinearTable(int n) : busy(n), sw(n) {}

    bool proc_free(int tile, int64_t t) const
    {
        const std::vector<bool> &v = busy[tile];
        return t >= static_cast<int64_t>(v.size()) || !v[t];
    }
    void take(int tile, int64_t t)
    {
        std::vector<bool> &v = busy[tile];
        if (t >= static_cast<int64_t>(v.size()))
            v.resize(t + 1, false);
        ASSERT_FALSE(v[t]);
        v[t] = true;
    }
    void reserve(const TreeHop &h, int64_t c)
    {
        sched::SwRes &r = sw[h.tile][c];
        r.in_used |= static_cast<uint8_t>(1u << static_cast<int>(h.in));
        r.out_used |= h.out_mask;
        r.reg_used = r.reg_used || h.to_reg;
    }
    int64_t find_slot(const RouteTree &tree, int src, int64_t r) const
    {
        for (int64_t t = r;; t++) {
            check(t < r + sched::kSlotSearchLimit,
                  "linear scan: no feasible slot for path");
            if (!proc_free(src, t))
                continue;
            bool ok = true;
            for (const TreeHop &h : tree.hops) {
                auto it = sw[h.tile].find(t + 1 + h.depth);
                if (it == sw[h.tile].end())
                    continue;
                uint8_t in_bit = static_cast<uint8_t>(
                    1u << static_cast<int>(h.in));
                if ((it->second.in_used & in_bit) ||
                    (it->second.out_used & h.out_mask) ||
                    (h.to_reg && it->second.reg_used)) {
                    ok = false;
                    break;
                }
            }
            for (auto &[tile, depth] : tree.proc_recvs)
                ok = ok && proc_free(tile, t + 2 + depth);
            if (ok)
                return t;
        }
    }
};

/** Commit @p tree at send cycle @p t into both tables. */
void
book(sched::SlotTable &fast, LinearTable &slow, const RouteTree &tree,
     int src, int64_t t)
{
    fast.take(src, t);
    slow.take(src, t);
    for (const TreeHop &h : tree.hops) {
        fast.reserve(h, t + 1 + h.depth);
        slow.reserve(h, t + 1 + h.depth);
    }
    for (auto &[tile, depth] : tree.proc_recvs) {
        fast.take(tile, t + 2 + depth);
        slow.take(tile, t + 2 + depth);
    }
}

/**
 * A random multicast (1-6 destinations, some switch-register only,
 * some with the source's own register) or, one time in four, a
 * control broadcast to every processor and a random set of switch
 * registers.
 */
CommPath
random_path(std::mt19937 &rng, const MachineConfig &m)
{
    CommPath p;
    p.src_tile = static_cast<int>(rng() % m.n_tiles);
    if (rng() % 4 == 0) {
        p.broadcast = true;
        for (int t = 0; t < m.n_tiles; t++) {
            bool proc = t != p.src_tile;
            bool reg = rng() % 2 == 0;
            if (proc || reg)
                p.dests.push_back({t, proc, reg});
        }
        return p;
    }
    std::set<int> tiles;
    int want = 1 + static_cast<int>(rng() % 6);
    while (static_cast<int>(tiles.size()) < want) {
        int t = static_cast<int>(rng() % m.n_tiles);
        if (t != p.src_tile)
            tiles.insert(t);
    }
    for (int t : tiles) {
        bool proc = rng() % 5 != 0;
        bool reg = !proc || rng() % 4 == 0;
        p.dests.push_back({t, proc, reg});
    }
    if (rng() % 4 == 0)
        p.dests.push_back({p.src_tile, false, true});
    return p;
}

RouteTree
random_tree(std::mt19937 &rng, const MachineConfig &m, int &src)
{
    CommPath p = random_path(rng, m);
    src = p.src_tile;
    return build_route_tree(m, p);
}

TEST(SlotTable, SkipAheadMatchesLinearScan)
{
    int64_t searches = 0, skipped = 0;
    for (int n : {16, 64, 128}) {
        MachineConfig m = MachineConfig::base(n);
        std::mt19937 rng(static_cast<unsigned>(n));
        for (int trial = 0; trial < 12; trial++) {
            SCOPED_TRACE(testing::Message()
                         << "n=" << n << " trial=" << trial);
            sched::SlotTable fast(n);
            LinearTable slow(n);
            const int64_t horizon = 32 + rng() % 300;
            // Processor noise, from sparse to nearly full rows.
            const unsigned density = rng() % 90;
            for (int tile = 0; tile < n; tile++)
                for (int64_t t = 0; t < horizon; t++)
                    if (rng() % 100 < density) {
                        fast.take(tile, t);
                        slow.take(tile, t);
                    }
            // Stray switch reservations: every hop of a random tree
            // at its own random cycle, so ports are busy in patterns
            // no whole path would leave.
            for (int k = 0; k < 20; k++) {
                int src;
                RouteTree tree = random_tree(rng, m, src);
                for (const TreeHop &h : tree.hops) {
                    int64_t c = rng() % horizon;
                    fast.reserve(h, c);
                    slow.reserve(h, c);
                }
            }
            // Committed paths, each found by both searches.
            for (int k = 0; k < 40; k++) {
                int src;
                RouteTree tree = random_tree(rng, m, src);
                int64_t r = rng() % horizon;
                int64_t t = slow.find_slot(tree, src, r);
                ASSERT_EQ(fast.find_path_slot(tree, src, r), t);
                searches++;
                skipped += t - r;
                book(fast, slow, tree, src, t);
            }
            // Queries on the final state.
            for (int k = 0; k < 40; k++) {
                CommPath p = random_path(rng, m);
                int64_t r = rng() % (horizon + 50);
                RouteTree tree = build_route_tree(m, p);
                int64_t t = slow.find_slot(tree, p.src_tile, r);
                ASSERT_EQ(fast.find_path_slot(tree, p.src_tile, r), t);
                searches++;
                skipped += t - r;
            }
        }
    }
    // The random states must actually make searches wait.
    EXPECT_GT(skipped, 10 * searches);
}

std::string
panic_text(const std::function<void()> &f)
{
    try {
        f();
    } catch (const PanicError &e) {
        return e.what();
    }
    return "";
}

TEST(SlotTable, BookedRowPastTheLimitHasNoSlot)
{
    MachineConfig m = MachineConfig::base(16);
    CommPath p;
    p.src_tile = 5;
    p.dests = {{6, true, false}, {9, true, false}};
    RouteTree tree = build_route_tree(m, p);
    const int64_t end = sched::kSlotSearchLimit + 64;

    // A source row booked over [0, end): a search from r = 64 has
    // nothing below r + limit == end; one from r = 65 reaches end.
    {
        sched::SlotTable fast(16);
        LinearTable slow(16);
        for (int64_t t = 0; t < end; t++) {
            fast.take(5, t);
            slow.take(5, t);
        }
        EXPECT_NE(panic_text([&] { fast.find_path_slot(tree, 5, 64); })
                      .find("no feasible slot"),
                  std::string::npos);
        EXPECT_NE(panic_text([&] { slow.find_slot(tree, 5, 64); })
                      .find("no feasible slot"),
                  std::string::npos);
        EXPECT_EQ(fast.find_path_slot(tree, 5, 65), end);
        EXPECT_EQ(slow.find_slot(tree, 5, 65), end);
    }
    // The same through a receiver: its jump lands past the limit.
    {
        sched::SlotTable fast(16);
        LinearTable slow(16);
        for (int64_t t = 0; t < end; t++) {
            fast.take(9, t);
            slow.take(9, t);
        }
        int depth = 0;
        for (auto &[tile, d] : tree.proc_recvs)
            if (tile == 9)
                depth = d;
        int64_t r = end - 2 - depth - sched::kSlotSearchLimit;
        EXPECT_NE(panic_text([&] { fast.find_path_slot(tree, 5, r); })
                      .find("no feasible slot"),
                  std::string::npos);
        EXPECT_NE(panic_text([&] { slow.find_slot(tree, 5, r); })
                      .find("no feasible slot"),
                  std::string::npos);
        EXPECT_EQ(fast.find_path_slot(tree, 5, r + 1),
                  end - 2 - depth);
        EXPECT_EQ(slow.find_slot(tree, 5, r + 1), end - 2 - depth);
    }
}

// ---------------------------------------------------------------
// Whole-block schedule validity.

struct Ctx
{
    Function fn;
    std::unique_ptr<ReplicationAnalysis> repl;
    std::unique_ptr<VarLiveness> live;
    HomeMap homes;
    std::unique_ptr<TaskGraph> graph;
    Partition part;
    std::vector<CommPath> paths;
    BlockSchedule sched;
    MachineConfig machine;
};

Ctx
schedule(const char *src, int n_tiles, int block = 0)
{
    Ctx c;
    c.fn = lower_program(parse_program(src));
    constfold_function(c.fn);
    rename_function(c.fn);
    c.repl =
        std::make_unique<ReplicationAnalysis>(c.fn, 8, 12, true);
    c.live = std::make_unique<VarLiveness>(c.fn);
    c.homes.n_tiles = n_tiles;
    c.homes.var_home.assign(c.fn.values.size(), 0);
    int next = 0;
    for (ValueId v : c.fn.var_ids())
        if (!c.repl->var_replicated(v)) {
            c.homes.var_home[v] = next;
            next = (next + 1) % n_tiles;
        }
    int64_t off = 0;
    for (const ArrayInfo &a : c.fn.arrays) {
        c.homes.array_base.push_back(off);
        off += a.size();
    }
    c.machine = MachineConfig::base(n_tiles);
    CongruenceMap cong(c.fn, block);
    c.graph = std::make_unique<TaskGraph>(c.fn, block, c.machine, cong,
                                          *c.repl, *c.live, c.homes);
    c.part = partition_taskgraph(*c.graph, c.machine,
                                 PartitionOptions{});
    c.paths = build_comm_paths(*c.graph, c.part, c.machine, -1, {});
    c.sched = schedule_block(*c.graph, c.part, c.machine, c.paths,
                             SchedOptions{});
    return c;
}

const char *kSpread = R"(
float A[8];
float B[8];
A[0] = 1.0; A[1] = 2.0; A[2] = 3.0; A[3] = 4.0;
A[4] = 5.0; A[5] = 6.0; A[6] = 7.0; A[7] = 8.0;
B[0] = A[0] * A[1] + A[2];
B[1] = A[3] * A[4] + A[5];
B[2] = A[6] * A[7] + A[0];
B[3] = A[1] + A[4] + A[7];
)";

TEST(Scheduler, OneItemPerTilePerCycle)
{
    Ctx c = schedule(kSpread, 4);
    for (int t = 0; t < 4; t++) {
        std::set<int64_t> used;
        for (const TileItem &it : c.sched.tiles[t])
            EXPECT_TRUE(used.insert(it.cycle).second)
                << "double-booked processor slot, tile " << t;
    }
}

TEST(Scheduler, SwitchPortExclusivity)
{
    Ctx c = schedule(kSpread, 4);
    for (int t = 0; t < 4; t++) {
        std::map<int64_t, uint8_t> in_used, out_used;
        for (const SwitchItem &it : c.sched.switches[t]) {
            uint8_t in_bit = static_cast<uint8_t>(
                1u << static_cast<int>(it.in));
            EXPECT_EQ(in_used[it.cycle] & in_bit, 0)
                << "input port reused, tile " << t;
            EXPECT_EQ(out_used[it.cycle] & it.out_mask, 0)
                << "output port collision, tile " << t;
            in_used[it.cycle] |= in_bit;
            out_used[it.cycle] |= it.out_mask;
        }
    }
}

TEST(Scheduler, ComputeRespectsDataDependences)
{
    Ctx c = schedule(kSpread, 4);
    // Map node -> issue cycle and finish.
    std::map<int, int64_t> issue;
    for (int t = 0; t < 4; t++)
        for (const TileItem &it : c.sched.tiles[t])
            if (it.kind == TileItem::Kind::kCompute)
                issue[it.node] = it.cycle;
    for (const TGEdge &e : c.graph->edges()) {
        if (e.kind != DepKind::kData)
            continue;
        if (!issue.count(e.from) || !issue.count(e.to))
            continue; // imports / cross-tile pairs
        if (c.part.tile_of[e.from] != c.part.tile_of[e.to])
            continue;
        const TGNode &p = c.graph->nodes()[e.from];
        EXPECT_GE(issue[e.to], issue[e.from] + std::max(1, p.cost))
            << "consumer issued before producer finished";
    }
}

TEST(Scheduler, PathsAreContiguous)
{
    Ctx c = schedule(kSpread, 4);
    // Each send at cycle s implies switch hops at s+1+depth and
    // receives at s+2+depth.
    for (int t = 0; t < 4; t++) {
        for (const TileItem &it : c.sched.tiles[t]) {
            if (it.kind != TileItem::Kind::kSend)
                continue;
            const CommPath &p = c.paths[it.path];
            RouteTree tree = build_route_tree(c.machine, p);
            for (const TreeHop &h : tree.hops) {
                bool found = false;
                for (const SwitchItem &sw : c.sched.switches[h.tile])
                    if (sw.path == it.path &&
                        sw.cycle == it.cycle + 1 + h.depth)
                        found = true;
                EXPECT_TRUE(found) << "missing contiguous hop";
            }
            for (auto &[tile, depth] : tree.proc_recvs) {
                bool found = false;
                for (const TileItem &rv : c.sched.tiles[tile])
                    if (rv.kind == TileItem::Kind::kRecv &&
                        rv.path == it.path &&
                        rv.cycle == it.cycle + 2 + depth)
                        found = true;
                EXPECT_TRUE(found) << "missing contiguous recv";
            }
        }
    }
}

TEST(Scheduler, EveryNodeScheduledExactlyOnce)
{
    Ctx c = schedule(kSpread, 4);
    std::map<int, int> times;
    for (int t = 0; t < 4; t++)
        for (const TileItem &it : c.sched.tiles[t])
            if (it.kind == TileItem::Kind::kCompute) {
                times[it.node]++;
                EXPECT_EQ(c.part.tile_of[it.node], t)
                    << "node on wrong tile";
            }
    int instr_nodes = 0;
    for (const TGNode &nd : c.graph->nodes())
        if (nd.kind == TGKind::kInstr)
            instr_nodes++;
    EXPECT_EQ(static_cast<int>(times.size()), instr_nodes);
    for (auto &[node, count] : times)
        EXPECT_EQ(count, 1);
}

TEST(Scheduler, MakespanCoversEverything)
{
    Ctx c = schedule(kSpread, 4);
    for (int t = 0; t < 4; t++) {
        for (const TileItem &it : c.sched.tiles[t])
            EXPECT_LE(it.cycle, c.sched.makespan);
        for (const SwitchItem &it : c.sched.switches[t])
            EXPECT_LE(it.cycle, c.sched.makespan);
    }
}

TEST(Scheduler, FifoModeStillValid)
{
    Ctx c;
    c.fn = lower_program(parse_program(kSpread));
    constfold_function(c.fn);
    rename_function(c.fn);
    c.repl =
        std::make_unique<ReplicationAnalysis>(c.fn, 8, 12, true);
    c.live = std::make_unique<VarLiveness>(c.fn);
    c.homes.n_tiles = 4;
    c.homes.var_home.assign(c.fn.values.size(), 0);
    int64_t off = 0;
    for (const ArrayInfo &a : c.fn.arrays) {
        c.homes.array_base.push_back(off);
        off += a.size();
    }
    c.machine = MachineConfig::base(4);
    CongruenceMap cong(c.fn, 0);
    c.graph = std::make_unique<TaskGraph>(c.fn, 0, c.machine, cong,
                                          *c.repl, *c.live, c.homes);
    c.part = partition_taskgraph(*c.graph, c.machine,
                                 PartitionOptions{});
    c.paths = build_comm_paths(*c.graph, c.part, c.machine, -1, {});
    SchedOptions so;
    so.fifo_priority = true;
    BlockSchedule s =
        schedule_block(*c.graph, c.part, c.machine, c.paths, so);
    EXPECT_GT(s.makespan, 0);
}

TEST(CommPaths, OnePathPerProducerWithRemoteConsumers)
{
    Ctx c = schedule(kSpread, 4);
    std::set<int> srcs;
    for (const CommPath &p : c.paths) {
        EXPECT_TRUE(srcs.insert(p.src_node).second)
            << "multiple data paths from one node";
        EXPECT_FALSE(p.dests.empty());
        for (const CommDest &d : p.dests)
            EXPECT_NE(d.tile, p.src_tile);
    }
}

TEST(CommPaths, BroadcastCoversAllProcsAndTargetSwitches)
{
    Ctx c = schedule(kSpread, 4);
    // Rebuild with a broadcast from node 0.
    std::vector<bool> sw(4, true);
    std::vector<CommPath> paths =
        build_comm_paths(*c.graph, c.part, c.machine, 0, sw);
    const CommPath *bc = nullptr;
    for (const CommPath &p : paths)
        if (p.broadcast)
            bc = &p;
    ASSERT_NE(bc, nullptr);
    int procs = 0, regs = 0;
    for (const CommDest &d : bc->dests) {
        if (d.to_proc)
            procs++;
        if (d.to_sw_reg)
            regs++;
    }
    EXPECT_EQ(procs, 3) << "every processor except the source";
    EXPECT_EQ(regs, 4) << "every switch register";
}

// ---------------------------------------------------------------
// Branch-and-bound reference: greedy is its incumbent, so its best
// makespan never exceeds the greedy one, its greedy figure is the
// emitted schedule's, and only small blocks are searched.

// A handful of compute nodes and paths: within kOracleTaskLimit on
// 1, 2 and 4 tiles.
const char *kTiny = R"(
float a; float b;
a = 1.5;
b = a * 2.0 + a;
print(b);
)";

/** Branchable tasks of a block: compute nodes plus paths. */
int
oracle_tasks(const Ctx &c)
{
    int n = static_cast<int>(c.paths.size());
    for (const TGNode &nd : c.graph->nodes())
        if (nd.kind == TGKind::kInstr)
            n++;
    return n;
}

TEST(Oracle, BestNeverWorseAndAgreesWithGreedy)
{
    for (int n : {1, 2, 4}) {
        Ctx c = schedule(kTiny, n);
        OracleReport r;
        ASSERT_TRUE(oracle_search(*c.graph, c.part, c.machine, c.paths,
                                  200000, r))
            << "tiny block must be within the task limit, n=" << n;
        EXPECT_EQ(r.tasks, oracle_tasks(c));
        EXPECT_LE(r.tasks, kOracleTaskLimit);
        EXPECT_GT(r.states, 0);
        EXPECT_EQ(r.greedy_makespan, c.sched.makespan)
            << "incumbent must be the emitted greedy schedule";
        EXPECT_LE(r.best_makespan, c.sched.makespan);
    }
}

TEST(Oracle, NoReportWithoutBudgetOrOverTaskLimit)
{
    Ctx tiny = schedule(kTiny, 2);
    OracleReport r;
    EXPECT_FALSE(oracle_search(*tiny.graph, tiny.part, tiny.machine,
                               tiny.paths, 0, r));
    Ctx big = schedule(kSpread, 4);
    ASSERT_GT(oracle_tasks(big), kOracleTaskLimit);
    EXPECT_FALSE(oracle_search(*big.graph, big.part, big.machine,
                               big.paths, 200000, r));
}

} // namespace
} // namespace raw
