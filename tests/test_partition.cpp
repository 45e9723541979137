/**
 * @file
 * Instruction partitioner tests: DSC clustering, load-balance
 * merging, placement with pins, and end-to-end partition validity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <numeric>
#include <queue>
#include <random>
#include <set>
#include <sstream>
#include <string>

#include "analysis/liveness.hpp"
#include "analysis/replication.hpp"
#include "analysis/taskgraph.hpp"
#include "frontend/lower.hpp"
#include "frontend/parser.hpp"
#include "partition/partition.hpp"
#include "transform/congruence.hpp"
#include "transform/constfold.hpp"
#include "transform/rename.hpp"

namespace raw {
namespace {

struct Ctx
{
    Function fn;
    std::unique_ptr<ReplicationAnalysis> repl;
    std::unique_ptr<VarLiveness> live;
    HomeMap homes;
    std::unique_ptr<TaskGraph> graph;
    MachineConfig machine;
};

Ctx
make_ctx(const char *src, int n_tiles, int block = 0)
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
    return c;
}

// A wide independent computation: 8 chains of float math.
const char *kWide = R"(
float A[8];
float B[8];
A[0] = 1.0; A[1] = 2.0; A[2] = 3.0; A[3] = 4.0;
A[4] = 5.0; A[5] = 6.0; A[6] = 7.0; A[7] = 8.0;
B[0] = A[0] * A[0] + 1.0;
B[1] = A[1] * A[1] + 1.0;
B[2] = A[2] * A[2] + 1.0;
B[3] = A[3] * A[3] + 1.0;
B[4] = A[4] * A[4] + 1.0;
B[5] = A[5] * A[5] + 1.0;
B[6] = A[6] * A[6] + 1.0;
B[7] = A[7] * A[7] + 1.0;
)";

TEST(Cluster, DSCProducesValidClustering)
{
    Ctx c = make_ctx(kWide, 4);
    PartitionOptions opts;
    Clustering cl = cluster_taskgraph(*c.graph, c.machine, opts);
    ASSERT_EQ(cl.cluster_of.size(), c.graph->nodes().size());
    for (size_t i = 0; i < cl.cluster_of.size(); i++) {
        ASSERT_GE(cl.cluster_of[i], 0);
        ASSERT_LT(cl.cluster_of[i], cl.n_clusters);
    }
    // Pinned nodes land in clusters pinned to the same tile.
    for (size_t i = 0; i < c.graph->nodes().size(); i++) {
        int pin = c.graph->nodes()[i].pin;
        if (pin >= 0) {
            EXPECT_EQ(cl.pin_of[cl.cluster_of[i]], pin);
        }
    }
}

TEST(Cluster, SerialChainStaysTogether)
{
    // A pure serial dependence chain has no parallelism to exploit:
    // DSC should not scatter it over many clusters.
    const char *chain = R"(
float A[1];
float x;
A[0] = 1.5;
x = A[0];
x = x * 1.5 + 0.5;
x = x * 1.5 + 0.5;
x = x * 1.5 + 0.5;
x = x * 1.5 + 0.5;
x = x * 1.5 + 0.5;
print(x);
)";
    Ctx c = make_ctx(chain, 4);
    PartitionOptions opts;
    Clustering cl = cluster_taskgraph(*c.graph, c.machine, opts);
    // Count clusters holding the fmul/fadd chain.
    std::set<int> chain_clusters;
    for (size_t i = 0; i < c.graph->nodes().size(); i++) {
        const TGNode &nd = c.graph->nodes()[i];
        if (nd.kind == TGKind::kInstr) {
            Op op = c.fn.blocks[0].instrs[nd.instr].op;
            if (op == Op::kFMul || op == Op::kFAdd)
                chain_clusters.insert(cl.cluster_of[i]);
        }
    }
    EXPECT_LE(chain_clusters.size(), 2u);
}

TEST(Merge, ProducesOnePartitionPerTile)
{
    Ctx c = make_ctx(kWide, 4);
    PartitionOptions opts;
    Clustering cl = cluster_taskgraph(*c.graph, c.machine, opts);
    Clustering m = merge_clusters(*c.graph, cl, c.machine);
    EXPECT_EQ(m.n_clusters, 4);
    // Load balance: no partition may hold everything when there are
    // plenty of free clusters.
    int64_t total = 0, biggest = 0;
    for (int p = 0; p < m.n_clusters; p++) {
        total += m.cost_of[p];
        biggest = std::max(biggest, m.cost_of[p]);
    }
    EXPECT_LT(biggest, total) << "work spread over > 1 partition";
}

TEST(Place, HonorsPinsAndImproves)
{
    Ctx c = make_ctx(kWide, 4);
    PartitionOptions opts;
    Clustering cl = cluster_taskgraph(*c.graph, c.machine, opts);
    Clustering m = merge_clusters(*c.graph, cl, c.machine);
    Partition arbitrary, greedy;
    opts.place_mode = PlaceMode::kArbitrary;
    arbitrary = place_partitions(*c.graph, m, c.machine, opts);
    opts.place_mode = PlaceMode::kGreedySwap;
    greedy = place_partitions(*c.graph, m, c.machine, opts);
    // Pins honored in both (checked internally; re-check here).
    for (size_t i = 0; i < c.graph->nodes().size(); i++) {
        int pin = c.graph->nodes()[i].pin;
        if (pin >= 0) {
            EXPECT_EQ(arbitrary.tile_of[i], pin);
            EXPECT_EQ(greedy.tile_of[i], pin);
        }
    }
}

TEST(Place, AnnealRunsAndHonorsPins)
{
    Ctx c = make_ctx(kWide, 8);
    PartitionOptions opts;
    opts.place_mode = PlaceMode::kAnneal;
    Partition p = partition_taskgraph(*c.graph, c.machine, opts);
    for (size_t i = 0; i < c.graph->nodes().size(); i++) {
        if (c.graph->nodes()[i].pin >= 0) {
            EXPECT_EQ(p.tile_of[i], c.graph->nodes()[i].pin);
        }
    }
}

TEST(Partition, SingleTileDegenerate)
{
    Ctx c = make_ctx(kWide, 1);
    PartitionOptions opts;
    Partition p = partition_taskgraph(*c.graph, c.machine, opts);
    for (int t : p.tile_of)
        EXPECT_EQ(t, 0);
    EXPECT_EQ(p.cross_edges, 0);
}

TEST(Partition, UnitNodesModeWorks)
{
    Ctx c = make_ctx(kWide, 4);
    PartitionOptions opts;
    opts.cluster_mode = ClusterMode::kUnitNodes;
    Partition p = partition_taskgraph(*c.graph, c.machine, opts);
    for (size_t i = 0; i < c.graph->nodes().size(); i++) {
        if (c.graph->nodes()[i].pin >= 0) {
            EXPECT_EQ(p.tile_of[i], c.graph->nodes()[i].pin);
        }
    }
}

TEST(Partition, CrossEdgesCounted)
{
    Ctx c = make_ctx(kWide, 4);
    PartitionOptions opts;
    Partition p = partition_taskgraph(*c.graph, c.machine, opts);
    int cross = 0;
    for (const TGEdge &e : c.graph->edges())
        if (p.tile_of[e.from] != p.tile_of[e.to])
            cross++;
    EXPECT_EQ(cross, p.cross_edges);
}

// Random traffic matrix over @p n partitions: symmetric, zero
// diagonal, roughly @p density of the pairs talking.
std::vector<std::vector<int>>
random_traffic(std::mt19937 &rng, int n, double density)
{
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    std::uniform_int_distribution<int> w_dist(1, 1000);
    std::vector<std::vector<int>> w(n, std::vector<int>(n, 0));
    for (int a = 0; a < n; a++)
        for (int b = a + 1; b < n; b++)
            if (coin(rng) < density)
                w[a][b] = w[b][a] = w_dist(rng);
    return w;
}

// Property: the placement cost table's O(1) swap delta must equal
// the cost difference of two full O(n²) recomputes, after every step
// of a random swap sequence whose accepted swaps update the table —
// with pinned (never moved) partitions, on 16/64/128-tile meshes.
TEST(Place, SwapDeltaMatchesFullRecompute)
{
    std::mt19937 rng(20260805);
    for (int trial = 0; trial < 24; trial++) {
        const int n = std::array<int, 3>{16, 64, 128}[trial % 3];
        MachineConfig machine = MachineConfig::base(n);
        std::vector<std::vector<int>> w =
            random_traffic(rng, n, trial % 4 < 2 ? 0.1 : 0.5);
        std::vector<int> tiles(n);
        std::iota(tiles.begin(), tiles.end(), 0);
        std::shuffle(tiles.begin(), tiles.end(), rng);
        // A quarter of the partitions are pinned: they never move.
        std::vector<int> movable;
        for (int p = 0; p < n; p++)
            if (p % 4 != 0)
                movable.push_back(p);

        auto full = [&](const std::vector<int> &t) {
            return placement_assignment_cost(w, t, machine);
        };
        std::vector<std::vector<int>> nbr(n);
        for (int p = 0; p < n; p++)
            for (int k = 0; k < n; k++)
                if (k != p && w[p][k])
                    nbr[p].push_back(k);
        PlacementCostTable table(w, tiles, machine, nbr);
        std::uniform_int_distribution<int> pick(
            0, static_cast<int>(movable.size()) - 1);
        std::uniform_real_distribution<double> coin(0.0, 1.0);
        int64_t cost = full(tiles);
        int accepted = 0;
        for (int step = 0; step < 150; step++) {
            int i = movable[pick(rng)], j = movable[pick(rng)];
            if (i == j)
                continue;
            int64_t delta = table.swap_delta(i, j);
            std::vector<int> after = tiles;
            std::swap(after[i], after[j]);
            int64_t after_cost = full(after);
            ASSERT_EQ(delta, after_cost - cost)
                << "trial " << trial << " step " << step << " i=" << i
                << " j=" << j;
            if (delta < 0 || coin(rng) < 0.3) {
                table.apply_swap(i, j);
                tiles = after;
                cost = after_cost;
                accepted++;
            }
            ASSERT_EQ(table.tile_of(), tiles);
        }
        EXPECT_GT(accepted, 0);
    }
}

// ---- Equivalence oracles ------------------------------------------
// Copies of the partitioner's earlier loops — DSC arrivals
// recomputed per candidate cluster in O(deg²), placement deltas
// recomputed in O(n) per candidate swap — against which the current
// implementation must make exactly the same decisions.

int
oracle_uniform_comm_cost(const MachineConfig &m)
{
    return 2 + (m.rows + m.cols) / 2;
}

std::vector<int64_t>
oracle_bottom_levels(const TaskGraph &g, int comm)
{
    const int n = static_cast<int>(g.nodes().size());
    std::vector<int64_t> bl(n, 0);
    std::vector<int> indeg(n, 0), order;
    for (int i = 0; i < n; i++)
        indeg[i] = static_cast<int>(g.preds(i).size());
    std::queue<int> q;
    for (int i = 0; i < n; i++)
        if (indeg[i] == 0)
            q.push(i);
    while (!q.empty()) {
        int v = q.front();
        q.pop();
        order.push_back(v);
        for (int s : g.succs(v))
            if (--indeg[s] == 0)
                q.push(s);
    }
    for (int k = n; k-- > 0;) {
        int v = order[k];
        int64_t best = 0;
        for (int s : g.succs(v))
            best = std::max(best, comm + bl[s]);
        bl[v] = g.nodes()[v].cost + best;
    }
    return bl;
}

Clustering
oracle_dsc(const TaskGraph &g, const MachineConfig &machine)
{
    const int n = static_cast<int>(g.nodes().size());
    Clustering c;
    c.cluster_of.assign(n, -1);
    const int comm = oracle_uniform_comm_cost(machine);
    std::vector<int64_t> blevel = oracle_bottom_levels(g, comm);
    std::vector<int> cluster_pin;
    std::vector<int64_t> cluster_free;
    std::vector<int64_t> finish(n, 0);
    std::vector<int> unvisited_preds(n, 0);
    auto new_cluster = [&](int pin) {
        cluster_pin.push_back(pin);
        cluster_free.push_back(0);
        return static_cast<int>(cluster_pin.size()) - 1;
    };
    using Cand = std::pair<int64_t, int>;
    std::priority_queue<Cand> ready;
    for (int i = 0; i < n; i++) {
        unvisited_preds[i] = static_cast<int>(g.preds(i).size());
        if (unvisited_preds[i] == 0)
            ready.push({blevel[i], i});
    }
    while (!ready.empty()) {
        int v = ready.top().second;
        ready.pop();
        const TGNode &nd = g.nodes()[v];
        int64_t t_alone = 0;
        for (int p : g.preds(v))
            t_alone = std::max(t_alone, finish[p] + comm);
        int best_cluster = -1;
        int64_t best_t = t_alone;
        for (int p : g.preds(v)) {
            int pc = c.cluster_of[p];
            if (nd.pin >= 0 && cluster_pin[pc] >= 0 &&
                cluster_pin[pc] != nd.pin)
                continue;
            int64_t t = cluster_free[pc];
            for (int q : g.preds(v)) {
                int64_t arrive =
                    finish[q] + (c.cluster_of[q] == pc ? 0 : comm);
                t = std::max(t, arrive);
            }
            if (t < best_t || (t == best_t && best_cluster < 0 &&
                               t < t_alone)) {
                best_t = t;
                best_cluster = pc;
            }
        }
        int cl = best_cluster;
        if (cl < 0) {
            cl = new_cluster(nd.pin);
            best_t = t_alone;
        } else if (nd.pin >= 0 && cluster_pin[cl] < 0) {
            cluster_pin[cl] = nd.pin;
        }
        c.cluster_of[v] = cl;
        finish[v] = best_t + nd.cost;
        cluster_free[cl] = finish[v];
        for (int s : g.succs(v))
            if (--unvisited_preds[s] == 0)
                ready.push({blevel[s], s});
    }
    std::vector<int> remap(cluster_pin.size(), -1);
    int next = 0;
    for (int i = 0; i < n; i++) {
        int &cl = c.cluster_of[i];
        if (remap[cl] < 0)
            remap[cl] = next++;
        cl = remap[cl];
    }
    c.n_clusters = next;
    c.pin_of.assign(next, -1);
    c.cost_of.assign(next, 0);
    for (int i = 0; i < n; i++) {
        int cl = c.cluster_of[i];
        if (g.nodes()[i].pin >= 0)
            c.pin_of[cl] = g.nodes()[i].pin;
        c.cost_of[cl] += g.nodes()[i].cost;
    }
    return c;
}

int64_t
oracle_swap_delta(const std::vector<std::vector<int>> &w,
                  const std::vector<int> &tile_of_partition,
                  const MachineConfig &machine, int i, int j)
{
    const int n = static_cast<int>(tile_of_partition.size());
    const int ti = tile_of_partition[i];
    const int tj = tile_of_partition[j];
    int64_t delta = 0;
    for (int k = 0; k < n; k++) {
        if (k == i || k == j)
            continue;
        const int tk = tile_of_partition[k];
        if (w[i][k])
            delta += static_cast<int64_t>(w[i][k]) *
                     (machine.distance(tj, tk) -
                      machine.distance(ti, tk));
        if (w[j][k])
            delta += static_cast<int64_t>(w[j][k]) *
                     (machine.distance(ti, tk) -
                      machine.distance(tj, tk));
    }
    return delta;
}

Partition
oracle_place(const TaskGraph &g, const Clustering &merged,
             const MachineConfig &machine, const PartitionOptions &opts)
{
    const int n_tiles = machine.n_tiles;
    std::vector<int> tile_of_partition(n_tiles, -1);
    std::vector<bool> tile_used(n_tiles, false);
    std::vector<int> movable;
    for (int p = 0; p < n_tiles; p++)
        if (merged.pin_of[p] >= 0) {
            tile_of_partition[p] = merged.pin_of[p];
            tile_used[merged.pin_of[p]] = true;
        } else {
            movable.push_back(p);
        }
    {
        int t = 0;
        for (int p : movable) {
            while (tile_used[t])
                t++;
            tile_of_partition[p] = t;
            tile_used[t] = true;
        }
    }
    std::vector<std::vector<int>> w(n_tiles,
                                    std::vector<int>(n_tiles, 0));
    for (const TGEdge &e : g.edges()) {
        int a = merged.cluster_of[e.from];
        int b = merged.cluster_of[e.to];
        if (a != b) {
            w[a][b]++;
            w[b][a]++;
        }
    }
    int64_t swaps_evaluated = 0;
    auto delta_of = [&](int pi, int pj) {
        swaps_evaluated++;
        return oracle_swap_delta(w, tile_of_partition, machine, pi, pj);
    };
    if (opts.place_mode != PlaceMode::kArbitrary &&
        movable.size() > 1) {
        int64_t cur =
            placement_assignment_cost(w, tile_of_partition, machine);
        if (opts.place_mode == PlaceMode::kGreedySwap) {
            bool improved = true;
            while (improved) {
                improved = false;
                for (size_t i = 0; i < movable.size(); i++) {
                    for (size_t j = i + 1; j < movable.size(); j++) {
                        int64_t d = delta_of(movable[i], movable[j]);
                        if (d < 0) {
                            std::swap(tile_of_partition[movable[i]],
                                      tile_of_partition[movable[j]]);
                            cur += d;
                            improved = true;
                        }
                    }
                }
            }
        } else {
            std::mt19937 rng(opts.seed);
            std::uniform_int_distribution<int> pick(
                0, static_cast<int>(movable.size()) - 1);
            std::uniform_real_distribution<double> unit(0.0, 1.0);
            double temp = 8.0;
            std::vector<int> best = tile_of_partition;
            int64_t best_cost = cur;
            for (int iter = 0; iter < 4000; iter++) {
                int i = movable[pick(rng)];
                int j = movable[pick(rng)];
                if (i == j)
                    continue;
                int64_t d = delta_of(i, j);
                if (d <= 0 || unit(rng) < std::exp(-double(d) / temp)) {
                    std::swap(tile_of_partition[i],
                              tile_of_partition[j]);
                    cur += d;
                    if (cur < best_cost) {
                        best_cost = cur;
                        best = tile_of_partition;
                    }
                }
                temp *= 0.999;
            }
            tile_of_partition = best;
        }
    }
    Partition out;
    out.swaps_evaluated = swaps_evaluated;
    out.tile_of.assign(g.nodes().size(), 0);
    for (size_t i = 0; i < g.nodes().size(); i++)
        out.tile_of[i] = tile_of_partition[merged.cluster_of[i]];
    for (const TGEdge &e : g.edges())
        if (out.tile_of[e.from] != out.tile_of[e.to])
            out.cross_edges++;
    return out;
}

// A random straight-line program: float statements over two arrays
// and a few scalars.  Most array indices come from a 2-element hot
// set, so later stores depend on every earlier reference to their
// element — memory-order fan-in in the hundreds.  Only 16 elements
// are ever touched, so on big meshes most tiles hold no pinned
// reference and the scalar arithmetic fills movable partitions.
std::string
random_program(std::mt19937 &rng, int n_stmts)
{
    std::uniform_int_distribution<int> pct(0, 99);
    std::uniform_int_distribution<int> hot(0, 1), any(0, 15);
    std::uniform_int_distribution<int> var(0, 7);
    auto idx = [&]() { return pct(rng) < 70 ? hot(rng) : any(rng); };
    auto arr = [&]() {
        return std::string(pct(rng) < 50 ? "A" : "B") + "[" +
               std::to_string(idx()) + "]";
    };
    auto x = [&]() { return "x" + std::to_string(var(rng)); };
    std::ostringstream src;
    src << "float A[64];\nfloat B[64];\n";
    for (int v = 0; v < 8; v++)
        src << "float x" << v << ";\n";
    for (int s = 0; s < n_stmts; s++) {
        int kind = pct(rng);
        if (kind < 35)
            src << arr() << " = " << arr() << " * " << x() << " + "
                << arr() << ";\n";
        else if (kind < 80)
            src << x() << " = " << x() << " * 1.5 + " << arr()
                << " - " << x() << ";\n";
        else if (kind < 95)
            src << x() << " = " << x() << " + " << x() << " * "
                << x() << ";\n";
        else
            src << "print(" << x() << ");\n";
    }
    return src.str();
}

size_t
max_fan_in(const TaskGraph &g)
{
    size_t m = 0;
    for (size_t v = 0; v < g.nodes().size(); v++)
        m = std::max(m, g.preds(static_cast<int>(v)).size());
    return m;
}

// DSC's O(deg) arrival pass (latest finish per pred cluster plus the
// top two cross-cluster arrivals) must pick exactly the clusters the
// O(deg²) per-candidate rescan picked, pins included.
TEST(Cluster, DSCMatchesQuadraticArrivalOracle)
{
    std::mt19937 rng(1998);
    size_t widest = 0;
    for (int trial = 0; trial < 12; trial++) {
        const int tiles = std::array<int, 3>{4, 16, 64}[trial % 3];
        std::string src = random_program(rng, 200 + 50 * trial);
        Ctx c = make_ctx(src.c_str(), tiles);
        widest = std::max(widest, max_fan_in(*c.graph));
        Clustering want = oracle_dsc(*c.graph, c.machine);
        Clustering got =
            cluster_taskgraph(*c.graph, c.machine, PartitionOptions{});
        SCOPED_TRACE(testing::Message() << "trial " << trial);
        EXPECT_EQ(got.n_clusters, want.n_clusters);
        EXPECT_EQ(got.cluster_of, want.cluster_of);
        EXPECT_EQ(got.pin_of, want.pin_of);
        EXPECT_EQ(got.cost_of, want.cost_of);
    }
    // The corpus must reach the wide fan-in the O(deg) pass targets.
    EXPECT_GE(widest, 200u) << widest;
}

// Greedy-swap and annealing placement through the cost table must
// reproduce the O(n)-delta loops' placements and evaluated-swap
// counts exactly, at 64 and 128 tiles.
TEST(Place, TableMatchesLinearDeltaOracle)
{
    std::mt19937 rng(2506);
    for (int trial = 0; trial < 8; trial++) {
        const int tiles = trial % 2 ? 128 : 64;
        std::string src = random_program(rng, 500);
        Ctx c = make_ctx(src.c_str(), tiles);
        PartitionOptions opts;
        Clustering cl = cluster_taskgraph(*c.graph, c.machine, opts);
        Clustering m = merge_clusters(*c.graph, cl, c.machine);
        for (PlaceMode mode :
             {PlaceMode::kGreedySwap, PlaceMode::kAnneal}) {
            SCOPED_TRACE(testing::Message()
                         << "trial " << trial << " tiles " << tiles
                         << " anneal " << (mode == PlaceMode::kAnneal));
            opts.place_mode = mode;
            opts.seed = static_cast<uint32_t>(trial + 1);
            Partition want = oracle_place(*c.graph, m, c.machine, opts);
            Partition got = place_partitions(*c.graph, m, c.machine, opts);
            EXPECT_EQ(got.tile_of, want.tile_of);
            EXPECT_EQ(got.swaps_evaluated, want.swaps_evaluated);
            EXPECT_EQ(got.cross_edges, want.cross_edges);
            // Non-trivial: placement moved something away from the
            // identity assignment of the arbitrary mode.
            opts.place_mode = PlaceMode::kArbitrary;
            Partition arb = place_partitions(*c.graph, m, c.machine, opts);
            EXPECT_NE(got.tile_of, arb.tile_of);
        }
    }
}

// Tiny blocks on 128 tiles: most partitions are empty and some
// non-empty ones trade no word with any other.  Greedy placement
// skips the pairs of two such idle partitions, whose swap delta is
// always 0; it must still place and count swaps exactly as the
// O(n)-delta loop that evaluates every pair.
TEST(Place, IdlePartitionsMatchLinearDeltaOracle)
{
    std::mt19937 rng(128);
    int idle_nonempty = 0;
    for (int trial = 0; trial < 20; trial++) {
        std::string src = random_program(rng, 1 + trial / 2 % 5);
        Ctx c = make_ctx(src.c_str(), 128);
        PartitionOptions opts;
        Clustering m = merge_clusters(
            *c.graph, cluster_taskgraph(*c.graph, c.machine, opts),
            c.machine);
        // Merging fills the low partition ids first; shuffle the ids
        // so idle partitions also come before busy ones.
        if (trial % 2) {
            std::vector<int> perm(128);
            std::iota(perm.begin(), perm.end(), 0);
            std::shuffle(perm.begin(), perm.end(), rng);
            Clustering r = m;
            for (int &p : r.cluster_of)
                p = perm[p];
            for (int p = 0; p < 128; p++) {
                r.pin_of[perm[p]] = m.pin_of[p];
                r.cost_of[perm[p]] = m.cost_of[p];
            }
            m = r;
        }
        std::vector<int> size(128, 0);
        std::vector<bool> traffic(128, false);
        for (int p : m.cluster_of)
            size[p]++;
        for (const TGEdge &e : c.graph->edges()) {
            int a = m.cluster_of[e.from], b = m.cluster_of[e.to];
            if (a != b)
                traffic[a] = traffic[b] = true;
        }
        SCOPED_TRACE(testing::Message() << "trial " << trial);
        EXPECT_GT(std::count(size.begin(), size.end(), 0), 100);
        for (int p = 0; p < 128; p++)
            idle_nonempty += size[p] > 0 && !traffic[p];
        for (PlaceMode mode :
             {PlaceMode::kGreedySwap, PlaceMode::kAnneal}) {
            opts.place_mode = mode;
            opts.seed = static_cast<uint32_t>(trial + 1);
            Partition want = oracle_place(*c.graph, m, c.machine, opts);
            Partition got = place_partitions(*c.graph, m, c.machine, opts);
            EXPECT_EQ(got.tile_of, want.tile_of);
            EXPECT_EQ(got.swaps_evaluated, want.swaps_evaluated);
            EXPECT_EQ(got.cross_edges, want.cross_edges);
        }
    }
    EXPECT_GT(idle_nonempty, 0);
}

} // namespace
} // namespace raw
