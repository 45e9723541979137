/**
 * @file
 * Analysis tests: inter-block liveness, control replication, and the
 * task graph builder (nodes, pins, edges, disambiguation).
 */

#include <gtest/gtest.h>

#include <array>
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
#include "transform/congruence.hpp"
#include "transform/constfold.hpp"
#include "transform/rename.hpp"

namespace raw {
namespace {

ValueId
var_named(const Function &fn, const std::string &name)
{
    for (ValueId v : fn.var_ids())
        if (fn.values[v].name == name)
            return v;
    return kNoValue;
}

Function
prepare(const char *src)
{
    Function fn = lower_program(parse_program(src));
    constfold_function(fn);
    rename_function(fn);
    return fn;
}

TEST(Liveness, LoopCarriedVariableLiveAroundLoop)
{
    Function fn = prepare(R"(
int i; int s;
s = 0;
for (i = 0; i < 8; i = i + 1) { s = s + i; }
print(s);
)");
    VarLiveness live(fn);
    ValueId s = var_named(fn, "s");
    ASSERT_NE(s, kNoValue);
    // s is live out of every block on the loop path (it is read in
    // the body and by the epilogue store).
    int live_blocks = 0;
    for (size_t b = 0; b < fn.blocks.size(); b++)
        if (live.live_out(static_cast<int>(b), s))
            live_blocks++;
    EXPECT_GE(live_blocks, 2);
}

TEST(Liveness, DeadAfterLastUse)
{
    Function fn = prepare(R"(
int a; int b;
a = 5;
b = a + 1;
print(b);
)");
    VarLiveness live(fn);
    ValueId a = var_named(fn, "a");
    // Single block: `a` is not live out (the epilogue stores happen
    // within the same block).
    EXPECT_FALSE(live.live_out(0, a));
}

TEST(Replication, LoopCountersReplicate)
{
    Function fn = prepare(R"(
int A[16];
int i;
for (i = 0; i < 16; i = i + 1) { A[i] = i; }
)");
    ReplicationAnalysis repl(fn, 8, 12, true);
    ValueId i = var_named(fn, "i");
    EXPECT_TRUE(repl.var_replicated(i));
    // The loop header's branch is computed locally everywhere.
    int replicated_branches = 0;
    for (size_t b = 0; b < fn.blocks.size(); b++)
        if (fn.blocks[b].terminator().op == Op::kBranch &&
            repl.branch_replicated(static_cast<int>(b)))
            replicated_branches++;
    EXPECT_GE(replicated_branches, 1);
}

TEST(Replication, DataDependentConditionsBroadcast)
{
    Function fn = prepare(R"(
int A[16];
int x;
x = A[3];
if (x > 0) { A[0] = 1; } else { A[0] = 2; }
)");
    ReplicationAnalysis repl(fn, 8, 12, true);
    ValueId x = var_named(fn, "x");
    EXPECT_FALSE(repl.var_replicated(x)) << "x comes from memory";
    for (size_t b = 0; b < fn.blocks.size(); b++)
        if (fn.blocks[b].terminator().op == Op::kBranch) {
            EXPECT_FALSE(repl.branch_replicated(static_cast<int>(b)));
        }
}

TEST(Replication, FloatVariablesNeverReplicate)
{
    Function fn = prepare(R"(
float f;
f = 1.0;
int g;
g = 2;
print(f);
print(g);
)");
    ReplicationAnalysis repl(fn, 8, 12, true);
    EXPECT_FALSE(repl.var_replicated(var_named(fn, "f")));
}

TEST(Replication, DisabledSwitch)
{
    Function fn = prepare(R"(
int A[16];
int i;
for (i = 0; i < 16; i = i + 1) { A[i] = i; }
)");
    ReplicationAnalysis repl(fn, 8, 12, false);
    EXPECT_EQ(repl.num_replicated_vars(), 0);
    for (size_t b = 0; b < fn.blocks.size(); b++)
        EXPECT_FALSE(repl.branch_replicated(static_cast<int>(b)));
}

TEST(Replication, ClonedOrderDefinesBeforeUses)
{
    Function fn = prepare(R"(
int A[64];
int i; int j;
for (i = 0; i < 64; i = i + 4) {
  for (j = 0; j < 4; j = j + 1) {
    A[i + j] = i;
  }
}
)");
    ReplicationAnalysis repl(fn, 8, 12, true);
    for (size_t b = 0; b < fn.blocks.size(); b++) {
        const std::vector<int> &order =
            repl.cloned_instrs(static_cast<int>(b));
        std::set<ValueId> defined;
        for (int k : order) {
            const Instr &in = fn.blocks[b].instrs[k];
            for (int s = 0; s < in.num_srcs(); s++) {
                ValueId v = in.src[s];
                if (!fn.values[v].is_var) {
                    EXPECT_TRUE(defined.count(v))
                        << "temp used before cloned def, block " << b;
                }
            }
            if (in.has_dst() && !fn.values[in.dst].is_var)
                defined.insert(in.dst);
        }
    }
}

struct GraphParts
{
    Function fn;
    std::unique_ptr<ReplicationAnalysis> repl;
    std::unique_ptr<VarLiveness> live;
    HomeMap homes;
    std::unique_ptr<TaskGraph> graph;
    int block = 0;
};

GraphParts
build_graph(const char *src, int n_tiles, int block = 0)
{
    GraphParts g;
    g.fn = prepare(src);
    g.repl = std::make_unique<ReplicationAnalysis>(g.fn, 8, 12, true);
    g.live = std::make_unique<VarLiveness>(g.fn);
    g.homes.n_tiles = n_tiles;
    g.homes.var_home.assign(g.fn.values.size(), 0);
    int next = 0;
    for (ValueId v : g.fn.var_ids())
        if (!g.repl->var_replicated(v)) {
            g.homes.var_home[v] = next;
            next = (next + 1) % n_tiles;
        }
    int64_t off = 0;
    for (const ArrayInfo &a : g.fn.arrays) {
        g.homes.array_base.push_back(off);
        off += a.size();
    }
    MachineConfig m = MachineConfig::base(n_tiles);
    CongruenceMap cong(g.fn, block);
    g.block = block;
    g.graph = std::make_unique<TaskGraph>(g.fn, block, m, cong,
                                          *g.repl, *g.live, g.homes);
    return g;
}

TEST(TaskGraph, StaticRefsArePinnedToHomes)
{
    GraphParts g = build_graph(R"(
int A[8];
A[1] = 10;
A[6] = 20;
)",
                               4);
    int pinned = 0;
    for (const TGNode &nd : g.graph->nodes()) {
        if (nd.kind != TGKind::kInstr)
            continue;
        const Instr &in = g.fn.blocks[0].instrs[nd.instr];
        if (in.op == Op::kStore && in.array == 0) {
            EXPECT_GE(nd.pin, 0);
            pinned++;
        }
    }
    EXPECT_EQ(pinned, 2);
}

TEST(TaskGraph, DisjointExactRefsUnordered)
{
    GraphParts g = build_graph(R"(
int A[8];
A[1] = 10;
A[2] = 20;
)",
                               4);
    // The two stores hit provably different addresses: no ordering
    // edge between them.
    std::vector<int> stores;
    for (size_t i = 0; i < g.graph->nodes().size(); i++) {
        const TGNode &nd = g.graph->nodes()[i];
        if (nd.kind == TGKind::kInstr &&
            g.fn.blocks[0].instrs[nd.instr].op == Op::kStore &&
            g.fn.blocks[0].instrs[nd.instr].array == 0)
            stores.push_back(static_cast<int>(i));
    }
    ASSERT_EQ(stores.size(), 2u);
    for (const TGEdge &e : g.graph->edges())
        EXPECT_FALSE(e.from == stores[0] && e.to == stores[1]);
}

TEST(TaskGraph, SameAddressRefsOrdered)
{
    GraphParts g = build_graph(R"(
int A[8];
int x;
A[1] = 10;
x = A[1];
print(x);
)",
                               4);
    int store = -1, load = -1;
    for (size_t i = 0; i < g.graph->nodes().size(); i++) {
        const TGNode &nd = g.graph->nodes()[i];
        if (nd.kind != TGKind::kInstr)
            continue;
        Op op = g.fn.blocks[0].instrs[nd.instr].op;
        if (op == Op::kStore &&
            g.fn.blocks[0].instrs[nd.instr].array == 0)
            store = static_cast<int>(i);
        if (op == Op::kLoad)
            load = static_cast<int>(i);
    }
    ASSERT_GE(store, 0);
    ASSERT_GE(load, 0);
    bool ordered = false;
    for (const TGEdge &e : g.graph->edges())
        if (e.from == store && e.to == load)
            ordered = true;
    EXPECT_TRUE(ordered);
}

TEST(TaskGraph, ImportNodesForLiveInReads)
{
    GraphParts g = build_graph(R"(
int a; int b;
a = 1;
b = 2;
if (a > 0) {
  b = a + b;
}
print(b);
)",
                               2, /*block=*/1);
    // Block 1 (the then-block) reads a and b as live-ins.
    int imports = 0;
    for (const TGNode &nd : g.graph->nodes())
        if (nd.kind == TGKind::kImport) {
            imports++;
            EXPECT_EQ(nd.cost, 0);
            EXPECT_GE(nd.pin, 0);
        }
    EXPECT_GE(imports, 1);
}

TEST(TaskGraph, PrintsChained)
{
    GraphParts g = build_graph(R"(
print(1);
print(2);
print(3);
)",
                               4);
    std::vector<int> prints;
    for (size_t i = 0; i < g.graph->nodes().size(); i++) {
        const TGNode &nd = g.graph->nodes()[i];
        if (nd.kind == TGKind::kInstr &&
            g.fn.blocks[0].instrs[nd.instr].op == Op::kPrint)
            prints.push_back(static_cast<int>(i));
    }
    ASSERT_EQ(prints.size(), 3u);
    int order_edges = 0;
    for (const TGEdge &e : g.graph->edges())
        if (e.kind == DepKind::kOrder)
            order_edges++;
    EXPECT_GE(order_edges, 2);
}

TEST(TaskGraph, Acyclic)
{
    // Note: the loop is rolled and `x` is data-dependent, so the body
    // block exercises imports, write-backs and arithmetic together
    // (memory refs would need the orchestrater's dynamic rewrite
    // first, which is tested end-to-end elsewhere).
    GraphParts g = build_graph(R"(
int i; int s; int x;
s = 0;
x = 3;
for (i = 0; i < 16; i = i + 1) { s = s + x; x = x * 2 + s; }
print(s);
)",
                               4, 2);
    // Kahn's algorithm visits every node.
    const int n = static_cast<int>(g.graph->nodes().size());
    std::vector<int> indeg(n, 0);
    for (int i = 0; i < n; i++)
        indeg[i] = static_cast<int>(g.graph->preds(i).size());
    std::vector<int> work;
    for (int i = 0; i < n; i++)
        if (indeg[i] == 0)
            work.push_back(i);
    int seen = 0;
    while (!work.empty()) {
        int v = work.back();
        work.pop_back();
        seen++;
        for (int s : g.graph->succs(v))
            if (--indeg[s] == 0)
                work.push_back(s);
    }
    EXPECT_EQ(seen, n);
}

// ---- Memory-order oracle ------------------------------------------

// A random straight-line block over three arrays.  Subscripts are
// exact (mostly from a 4-element hot set), residue-only (`x * 16 + r`
// on A, `x * 64 + r` on B: known modulo 16 and 64 respectively) or,
// on C, indirect through a load, which makes C fully dynamic.
std::string
random_mem_block(std::mt19937 &rng, int n_stmts)
{
    std::uniform_int_distribution<int> pct(0, 99), hot(0, 3), any(0, 63),
        var(0, 3), res(0, 15);
    auto x = [&]() { return "x" + std::to_string(var(rng)); };
    auto exact = [&]() {
        return std::to_string(pct(rng) < 60 ? hot(rng) : any(rng));
    };
    auto ref = [&]() -> std::string {
        int k = pct(rng);
        if (k < 35)
            return "A[" +
                   (pct(rng) < 50 ? exact()
                                  : x() + " * 16 + " +
                                        std::to_string(res(rng))) +
                   "]";
        if (k < 70)
            return "B[" +
                   (pct(rng) < 50 ? exact()
                                  : x() + " * 64 + " +
                                        std::to_string(hot(rng))) +
                   "]";
        if (k < 85)
            return "C[" + exact() + "]";
        return "C[A[" + exact() + "]]";
    };
    std::string src = "int A[64]; int B[64]; int C[64];\n"
                      "int x0; int x1; int x2; int x3;\n"
                      "x0 = A[0]; x1 = A[1]; x2 = B[2]; x3 = B[3];\n";
    for (int s = 0; s < n_stmts; s++) {
        int kind = pct(rng);
        if (kind < 45)
            src += ref() + " = " + ref() + " + " + x() + ";\n";
        else if (kind < 90)
            src += x() + " = " + ref() + " * 3 + " + x() + ";\n";
        else
            src += "print(" + x() + ");\n";
    }
    return src;
}

// The disambiguation verdict the task graph applies, copied.
bool
oracle_disjoint(const Congruence &a, const Congruence &b, int64_t base,
                int n_tiles)
{
    if (a.is_exact() && b.is_exact())
        return a.residue != b.residue;
    int64_t ra = a.residue_mod(n_tiles);
    int64_t rb = b.residue_mod(n_tiles);
    if (ra >= 0 && rb >= 0)
        return floor_mod(base + ra, n_tiles) !=
               floor_mod(base + rb, n_tiles);
    return false;
}

// The task graph's edges as the all-pairs memory-order scan would
// have built them: every edge before the memory stage, then an
// ordering test of every later reference of the same array, then the
// print chain.  Memory-stage edges are the kOrder edges between two
// memory nodes, print edges the kOrder edges between two prints.
std::vector<TGEdge>
all_pairs_edges(const Function &fn, const TaskGraph &g,
                const CongruenceMap &cong, const HomeMap &homes)
{
    const Block &blk = fn.blocks[0];
    auto op_of = [&](int v) {
        const TGNode &nd = g.nodes()[v];
        return nd.kind == TGKind::kInstr ? blk.instrs[nd.instr].op
                                         : Op::kMove;
    };
    std::vector<TGEdge> out, prints;
    std::map<std::pair<int, int>, size_t> at;
    auto add = [&](int from, int to, DepKind kind) {
        auto [it, fresh] = at.try_emplace({from, to}, out.size());
        if (fresh)
            out.push_back({from, to, kind});
        else if (kind < out[it->second].kind)
            out[it->second].kind = kind;
    };
    for (const TGEdge &e : g.edges()) {
        if (e.kind != DepKind::kOrder)
            add(e.from, e.to, e.kind);
        else if (op_of(e.from) == Op::kPrint && op_of(e.to) == Op::kPrint)
            prints.push_back(e);
        else if (!op_is_memory(op_of(e.from)) ||
                 !op_is_memory(op_of(e.to)))
            add(e.from, e.to, e.kind);
    }
    std::vector<int> mem;
    for (size_t v = 0; v < g.nodes().size(); v++)
        if (g.nodes()[v].kind == TGKind::kInstr &&
            op_is_memory(op_of(static_cast<int>(v))))
            mem.push_back(static_cast<int>(v));
    auto is_store = [](Op op) {
        return op == Op::kStore || op == Op::kDynStore;
    };
    for (size_t a = 0; a < mem.size(); a++) {
        const Instr &ia = blk.instrs[g.nodes()[mem[a]].instr];
        for (size_t b = a + 1; b < mem.size(); b++) {
            const Instr &ib = blk.instrs[g.nodes()[mem[b]].instr];
            if (!is_store(ia.op) && !is_store(ib.op))
                continue;
            if (ia.array != ib.array)
                continue;
            if (oracle_disjoint(cong.get(ia.src[0]), cong.get(ib.src[0]),
                                homes.array_base[ia.array],
                                homes.n_tiles))
                continue;
            add(mem[a], mem[b], DepKind::kOrder);
        }
    }
    for (const TGEdge &e : prints)
        add(e.from, e.to, e.kind);
    return out;
}

// Bucketing memory references by (array, home tile) must add exactly
// the ordering edges the all-pairs scan added, in the same order, on
// blocks mixing exact, residue-only and dynamic references.
TEST(TaskGraph, BucketedMemoryOrderMatchesAllPairs)
{
    std::mt19937 rng(2025);
    int64_t order_edges = 0, dyn_refs = 0, residue_only = 0;
    for (int trial = 0; trial < 24; trial++) {
        const int tiles = std::array<int, 4>{1, 4, 16, 64}[trial % 4];
        SCOPED_TRACE(testing::Message()
                     << "trial " << trial << " tiles " << tiles);
        Function fn = prepare(random_mem_block(rng, 60 + 10 * trial)
                                  .c_str());
        ASSERT_EQ(fn.blocks.size(), 1u);
        // The orchestrater's dynamic rewrite: an array with any
        // reference of unknown home is dynamic throughout.
        {
            CongruenceMap cong(fn, 0);
            std::set<int> dynamic;
            for (const Instr &in : fn.blocks[0].instrs)
                if (op_is_memory(in.op) &&
                    cong.residue_mod(in.src[0], tiles) < 0)
                    dynamic.insert(in.array);
            for (Instr &in : fn.blocks[0].instrs) {
                if (!dynamic.count(in.array))
                    continue;
                if (in.op == Op::kLoad)
                    in.op = Op::kDynLoad;
                else if (in.op == Op::kStore)
                    in.op = Op::kDynStore;
            }
        }
        ReplicationAnalysis repl(fn, 8, 12, true);
        VarLiveness live(fn);
        HomeMap homes;
        homes.n_tiles = tiles;
        homes.var_home.assign(fn.values.size(), 0);
        int next = 0;
        for (ValueId v : fn.var_ids())
            if (!repl.var_replicated(v)) {
                homes.var_home[v] = next;
                next = (next + 1) % tiles;
            }
        int64_t off = 0;
        for (const ArrayInfo &a : fn.arrays) {
            homes.array_base.push_back(off);
            off += a.size();
        }
        CongruenceMap cong(fn, 0);
        TaskGraph g(fn, 0, MachineConfig::base(tiles), cong, repl, live,
                    homes);
        std::vector<TGEdge> want = all_pairs_edges(fn, g, cong, homes);
        ASSERT_EQ(g.edges().size(), want.size());
        for (size_t e = 0; e < want.size(); e++) {
            ASSERT_EQ(g.edges()[e].from, want[e].from) << "edge " << e;
            ASSERT_EQ(g.edges()[e].to, want[e].to) << "edge " << e;
            ASSERT_EQ(g.edges()[e].kind, want[e].kind) << "edge " << e;
        }
        for (const TGEdge &e : want)
            order_edges += e.kind == DepKind::kOrder;
        for (const Instr &in : fn.blocks[0].instrs) {
            dyn_refs += in.op == Op::kDynLoad || in.op == Op::kDynStore;
            residue_only += (in.op == Op::kLoad || in.op == Op::kStore) &&
                            !cong.get(in.src[0]).is_exact();
        }
    }
    // The corpus reaches every kind of reference the buckets separate.
    EXPECT_GT(order_edges, 1000);
    EXPECT_GT(dyn_refs, 100);
    EXPECT_GT(residue_only, 100);
}

} // namespace
} // namespace raw
