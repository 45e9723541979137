/**
 * @file
 * Register allocator tests: persistent vs. temporary classes, spill
 * insertion under pressure, end-to-end correctness with tiny register
 * files, and the dense-table allocator against the map-based one it
 * replaced.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <unordered_map>

#include "frontend/lower.hpp"
#include "frontend/parser.hpp"
#include "frontend/unroll.hpp"
#include "harness/harness.hpp"
#include "rawcc/portfold.hpp"
#include "rawcc/regalloc.hpp"
#include "support/error.hpp"
#include "transform/constfold.hpp"
#include "transform/rename.hpp"
#include "transform/simplify.hpp"
#include "transform/split.hpp"
#include "transform/strength.hpp"

namespace raw {
namespace {

// ---- Oracle: the map-based allocator, kept verbatim. -------------

struct Interval
{
    ValueId value;
    int start;
    int end;
};

RegallocResult
oracle_allocate_registers(
    const Function &fn, const std::vector<std::vector<VInstr>> &blocks,
    const std::vector<ValueId> &persistent, int num_regs)
{
    check(num_regs >= 8, "regalloc: too few registers");
    const int s0 = num_regs - 3, s1 = num_regs - 2, s2 = num_regs - 1;
    const int pool_size = num_regs - 3;

    RegallocResult out;
    out.blocks.resize(blocks.size());

    // ---- Persistent assignment by use count. ---------------------
    std::unordered_map<ValueId, int64_t> use_count;
    for (ValueId v : persistent)
        use_count[v] = 0;
    for (const auto &blk : blocks) {
        for (const VInstr &in : blk) {
            for (ValueId s : in.src)
                if (s != kNoValue && use_count.count(s))
                    use_count[s]++;
            if (in.dst != kNoValue && use_count.count(in.dst))
                use_count[in.dst]++;
        }
    }
    std::vector<ValueId> pers_sorted = persistent;
    std::sort(pers_sorted.begin(), pers_sorted.end(),
              [&](ValueId a, ValueId b) {
                  if (use_count[a] != use_count[b])
                      return use_count[a] > use_count[b];
                  return a < b;
              });
    // Keep at least 8 pool registers for temporaries.
    int max_pers = pool_size > 16 ? pool_size - 8 : pool_size / 2;
    std::unordered_map<ValueId, int> pers_reg;   // value -> phys
    std::unordered_map<ValueId, int> mem_slot;   // value -> spill slot
    int next_slot = 0;
    for (size_t i = 0; i < pers_sorted.size(); i++) {
        if (static_cast<int>(i) < max_pers)
            pers_reg[pers_sorted[i]] = static_cast<int>(i);
        else
            mem_slot[pers_sorted[i]] = next_slot++;
    }
    const int temp_base = std::min<int>(
        static_cast<int>(pers_sorted.size()), max_pers);
    const int n_temp_regs = pool_size - temp_base;
    check(n_temp_regs >= 1, "regalloc: no temp registers left");

    // ---- Per-block temporaries. ----------------------------------
    for (size_t b = 0; b < blocks.size(); b++) {
        const std::vector<VInstr> &code = blocks[b];

        std::unordered_map<ValueId, Interval> ivals;
        auto touch = [&](ValueId v, int pos) {
            if (v == kNoValue || v == kPortOperand ||
                pers_reg.count(v) || mem_slot.count(v))
                return;
            if (fn.values[v].is_var && use_count.count(v))
                return; // persistent handled above
            auto it = ivals.find(v);
            if (it == ivals.end())
                ivals[v] = {v, pos, pos};
            else
                it->second.end = pos;
        };
        for (size_t k = 0; k < code.size(); k++) {
            const VInstr &in = code[k];
            touch(in.src[0], static_cast<int>(k));
            touch(in.src[1], static_cast<int>(k));
            touch(in.dst, static_cast<int>(k));
        }

        std::vector<Interval> order;
        order.reserve(ivals.size());
        for (auto &kv : ivals)
            order.push_back(kv.second);
        std::sort(order.begin(), order.end(),
                  [](const Interval &a, const Interval &b) {
                      if (a.start != b.start)
                          return a.start < b.start;
                      return a.value < b.value;
                  });

        // Linear scan with furthest-end spilling.
        std::unordered_map<ValueId, int> temp_reg;
        std::unordered_map<ValueId, int> temp_slot;
        std::vector<int> free_regs;
        for (int r = n_temp_regs; r-- > 0;)
            free_regs.push_back(temp_base + r);
        // Active intervals sorted by end.
        std::multimap<int, ValueId> active;
        for (const Interval &iv : order) {
            while (!active.empty() &&
                   active.begin()->first < iv.start) {
                free_regs.push_back(temp_reg[active.begin()->second]);
                active.erase(active.begin());
            }
            if (!free_regs.empty()) {
                temp_reg[iv.value] = free_regs.back();
                free_regs.pop_back();
                active.insert({iv.end, iv.value});
                continue;
            }
            // Spill the interval with the furthest end.
            auto victim = std::prev(active.end());
            if (victim->first > iv.end) {
                ValueId vv = victim->second;
                temp_reg[iv.value] = temp_reg[vv];
                temp_reg.erase(vv);
                if (!temp_slot.count(vv))
                    temp_slot[vv] = next_slot++;
                active.erase(victim);
                active.insert({iv.end, iv.value});
            } else {
                if (!temp_slot.count(iv.value))
                    temp_slot[iv.value] = next_slot++;
            }
        }

        // ---- Rewrite. --------------------------------------------
        std::vector<PInstr> &dst_code = out.blocks[b];
        auto emit_spill_load = [&](int slot, int scratch, Type ty) {
            PInstr l;
            l.op = Op::kLoad;
            l.type = ty;
            l.dst = scratch;
            l.array = kSpillArray;
            l.imm = static_cast<uint32_t>(slot);
            dst_code.push_back(l);
            out.spill_ops++;
        };
        auto emit_spill_store = [&](int slot, int scratch, Type ty) {
            PInstr st;
            st.op = Op::kStore;
            st.type = ty;
            st.src[1] = scratch;
            st.array = kSpillArray;
            st.imm = static_cast<uint32_t>(slot);
            dst_code.push_back(st);
            out.spill_ops++;
        };
        auto src_reg = [&](ValueId v, int scratch) -> int {
            if (v == kNoValue)
                return -1;
            if (v == kPortOperand)
                return kPortOperand;
            auto pr = pers_reg.find(v);
            if (pr != pers_reg.end())
                return pr->second;
            auto pm = mem_slot.find(v);
            if (pm != mem_slot.end()) {
                emit_spill_load(pm->second, scratch,
                                fn.values[v].type);
                return scratch;
            }
            auto tr = temp_reg.find(v);
            if (tr != temp_reg.end())
                return tr->second;
            auto ts = temp_slot.find(v);
            check(ts != temp_slot.end(),
                  "regalloc: use of unallocated value");
            emit_spill_load(ts->second, scratch, fn.values[v].type);
            return scratch;
        };

        for (const VInstr &in : code) {
            PInstr p;
            p.op = in.op;
            p.type = in.type;
            p.imm = in.imm;
            p.array = in.array;
            p.print_seq = in.print_seq;
            p.target = in.target_block;
            p.src[0] = src_reg(in.src[0], s0);
            p.src[1] = src_reg(in.src[1], s1);

            ValueId d = in.dst;
            int store_slot = -1;
            Type store_type = Type::kI32;
            if (d == kNoValue) {
                p.dst = -1;
            } else if (d == kPortOperand) {
                p.dst = kPortOperand;
            } else if (pers_reg.count(d)) {
                p.dst = pers_reg[d];
            } else if (mem_slot.count(d)) {
                p.dst = s2;
                store_slot = mem_slot[d];
                store_type = fn.values[d].type;
            } else if (temp_reg.count(d)) {
                p.dst = temp_reg[d];
            } else {
                check(temp_slot.count(d) > 0,
                      "regalloc: def of unallocated value");
                p.dst = s2;
                store_slot = temp_slot[d];
                store_type = fn.values[d].type;
            }
            dst_code.push_back(p);
            if (store_slot >= 0)
                emit_spill_store(store_slot, s2, store_type);
        }
    }

    out.spill_slots = next_slot;
    return out;
}

/** First difference between two allocations, or "" if identical. */
std::string
first_difference(const RegallocResult &want, const RegallocResult &got)
{
    std::ostringstream os;
    if (want.spill_slots != got.spill_slots)
        os << "spill_slots " << want.spill_slots << " vs "
           << got.spill_slots;
    else if (want.spill_ops != got.spill_ops)
        os << "spill_ops " << want.spill_ops << " vs " << got.spill_ops;
    else if (want.blocks.size() != got.blocks.size())
        os << "block count " << want.blocks.size() << " vs "
           << got.blocks.size();
    if (!os.str().empty())
        return os.str();
    for (size_t b = 0; b < want.blocks.size(); b++) {
        const std::vector<PInstr> &w = want.blocks[b];
        const std::vector<PInstr> &g = got.blocks[b];
        if (w.size() != g.size())
            return "block " + std::to_string(b) + " length " +
                   std::to_string(w.size()) + " vs " +
                   std::to_string(g.size());
        for (size_t k = 0; k < w.size(); k++) {
            const PInstr &x = w[k];
            const PInstr &y = g[k];
            if (x.op != y.op || x.type != y.type || x.dst != y.dst ||
                x.src[0] != y.src[0] || x.src[1] != y.src[1] ||
                x.imm != y.imm || x.array != y.array ||
                x.target != y.target || x.print_seq != y.print_seq)
                return "block " + std::to_string(b) + " instr " +
                       std::to_string(k);
        }
    }
    return "";
}

/**
 * Allocate with the oracle, the 4-argument allocator and the
 * scratch-reusing one (whose tables carry state from earlier calls),
 * and expect all three to agree field for field.
 */
void
expect_matches_oracle(const Function &fn,
                      const std::vector<std::vector<VInstr>> &blocks,
                      const std::vector<ValueId> &persistent,
                      int num_regs, RegallocScratch &scratch,
                      RegallocResult &reused, const std::string &where)
{
    RegallocResult want =
        oracle_allocate_registers(fn, blocks, persistent, num_regs);
    EXPECT_EQ(first_difference(want, allocate_registers(
                                         fn, blocks, persistent,
                                         num_regs)),
              "")
        << where;
    allocate_registers(fn, blocks, persistent, num_regs, scratch,
                       reused);
    EXPECT_EQ(first_difference(want, reused), "") << where << " (reused)";
}

/** Tiny deterministic generator (the oracle needs no statistics). */
struct Lcg
{
    uint64_t s;
    uint32_t next(uint32_t n)
    {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<uint32_t>(s >> 33) % n;
    }
};

struct SynthOptions
{
    int blocks = 3;
    int block_len = 60;
    /** Persistent variables (more than max_pers spills some). */
    int persistent = 0;
    /** Consume values in pairs, so intervals end together. */
    bool paired_ends = false;
    /** Reuse value ids across blocks. */
    bool shared_ids = false;
};

struct Synth
{
    Function fn;
    std::vector<std::vector<VInstr>> blocks;
    std::vector<ValueId> persistent;
};

/**
 * A random multi-block stream under heavy register pressure: values
 * stay live until a random later use, some are used twice in one
 * instruction or redefined, and ports, variables that are not
 * persistent and cross-block value ids all appear.
 */
Synth
synth_stream(uint64_t seed, const SynthOptions &o)
{
    Synth sy;
    Lcg rng{seed};
    for (int i = 0; i < o.persistent; i++)
        sy.persistent.push_back(sy.fn.new_value(
            i % 3 ? Type::kI32 : Type::kF32, "p" + std::to_string(i),
            true));
    // Variables homed elsewhere: is_var, yet temporaries here.
    std::vector<ValueId> foreign;
    for (int i = 0; i < 3; i++)
        foreign.push_back(
            sy.fn.new_value(Type::kI32, "f" + std::to_string(i), true));
    std::vector<ValueId> shared;
    sy.blocks.resize(o.blocks);
    for (int b = 0; b < o.blocks; b++) {
        std::vector<VInstr> &code = sy.blocks[b];
        std::vector<ValueId> live;
        auto fresh = [&]() {
            if (o.shared_ids && !shared.empty() && rng.next(4) == 0)
                return shared[rng.next(shared.size())];
            ValueId v = sy.fn.new_value(rng.next(4) ? Type::kI32
                                                    : Type::kF32);
            if (o.shared_ids)
                shared.push_back(v);
            return v;
        };
        auto pick = [&]() -> ValueId {
            uint32_t r = rng.next(16);
            if (r == 0)
                return kPortOperand;
            if (r == 1 && !sy.persistent.empty())
                return sy.persistent[rng.next(sy.persistent.size())];
            if (r == 2)
                return foreign[rng.next(foreign.size())];
            if (live.empty())
                return kNoValue;
            if (o.paired_ends) {
                // Take the oldest live value, so ends come in runs.
                ValueId v = live.front();
                live.erase(live.begin());
                return v;
            }
            size_t i = rng.next(live.size());
            ValueId v = live[i];
            if (rng.next(3) != 0)
                live.erase(live.begin() + i);
            return v;
        };
        for (int k = 0; k < o.block_len; k++) {
            VInstr in;
            in.imm = rng.next(1000);
            in.array = static_cast<int>(rng.next(3)) - 1;
            in.print_seq = static_cast<int>(rng.next(5)) - 1;
            in.target_block = static_cast<int>(rng.next(o.blocks + 1)) - 1;
            uint32_t kind = rng.next(8);
            if (kind < 3 || live.size() < 2) {
                in.op = Op::kConst;
                in.dst = fresh();
                live.push_back(in.dst);
            } else if (kind < 6) {
                in.op = Op::kAdd;
                in.src[0] = pick();
                in.src[1] = rng.next(6) == 0 ? in.src[0] : pick();
                in.dst = rng.next(6) == 0 && in.src[0] >= 0
                             ? in.src[0]
                             : fresh();
                if (rng.next(12) == 0)
                    in.dst = kPortOperand;
                if (in.dst >= 0)
                    live.push_back(in.dst);
            } else if (kind == 6) {
                in.op = Op::kSend;
                in.src[0] = pick();
            } else {
                in.op = Op::kRecv;
                in.dst = rng.next(2) ? fresh() : kNoValue;
                if (in.dst >= 0)
                    live.push_back(in.dst);
            }
            in.type = in.dst >= 0 ? sy.fn.values[in.dst].type
                                  : Type::kI32;
            code.push_back(in);
        }
        // An empty block between busy ones.
        if (b == 0 && o.blocks > 2)
            code.clear();
    }
    return sy;
}

/** Transformed, orchestrated and port-folded code of @p source. */
VirtualProgram
virtual_program(const std::string &source, const MachineConfig &machine,
                Function &fn)
{
    CompilerOptions opts;
    Program ast = parse_program(source);
    UnrollOptions uo = opts.unroll;
    uo.n_tiles = machine.n_tiles;
    unroll_program(ast, uo);
    fn = lower_program(ast);
    constfold_function(fn);
    while (simplify_cfg(fn))
        constfold_function(fn);
    strength_reduce(fn);
    constfold_function(fn);
    split_large_blocks(fn, opts.max_block_len);
    rename_function(fn);
    VirtualProgram vp = orchestrate(fn, machine, opts.orch);
    fold_port_operands(vp, fn);
    return vp;
}


TEST(Regalloc, NoSpillsWhenRegistersSuffice)
{
    Function fn;
    ValueId a = fn.new_value(Type::kI32, "a", true);
    std::vector<std::vector<VInstr>> blocks(1);
    VInstr c;
    c.op = Op::kConst;
    c.dst = a;
    c.imm = int_bits(5);
    blocks[0].push_back(c);
    VInstr h;
    h.op = Op::kHalt;
    blocks[0].push_back(h);
    RegallocResult r = allocate_registers(fn, blocks, {a}, 32);
    EXPECT_EQ(r.spill_ops, 0);
    EXPECT_EQ(r.spill_slots, 0);
    EXPECT_EQ(r.blocks[0].size(), 2u);
}

TEST(Regalloc, TempPressureSpills)
{
    // 40 simultaneously-live temps cannot fit in 16 registers.
    Function fn;
    std::vector<std::vector<VInstr>> blocks(1);
    std::vector<ValueId> temps;
    for (int i = 0; i < 40; i++) {
        ValueId t = fn.new_value(Type::kI32);
        temps.push_back(t);
        VInstr c;
        c.op = Op::kConst;
        c.dst = t;
        c.imm = int_bits(i);
        blocks[0].push_back(c);
    }
    // Consume them all afterwards so every interval overlaps.
    ValueId acc = fn.new_value(Type::kI32);
    VInstr c0;
    c0.op = Op::kConst;
    c0.dst = acc;
    blocks[0].push_back(c0);
    for (ValueId t : temps) {
        ValueId next = fn.new_value(Type::kI32);
        VInstr add;
        add.op = Op::kAdd;
        add.dst = next;
        add.src[0] = acc;
        add.src[1] = t;
        blocks[0].push_back(add);
        acc = next;
    }
    VInstr h;
    h.op = Op::kHalt;
    blocks[0].push_back(h);

    RegallocResult r = allocate_registers(fn, blocks, {}, 16);
    EXPECT_GT(r.spill_ops, 0);
    EXPECT_GT(r.spill_slots, 0);
    // Every physical register index stays within bounds.
    for (const PInstr &p : r.blocks[0]) {
        EXPECT_LT(p.dst, 16);
        EXPECT_LT(p.src[0], 16);
        EXPECT_LT(p.src[1], 16);
    }
}

TEST(Regalloc, ManyPersistentVarsGoMemoryResident)
{
    Function fn;
    std::vector<ValueId> vars;
    std::vector<std::vector<VInstr>> blocks(1);
    for (int i = 0; i < 60; i++) {
        ValueId v =
            fn.new_value(Type::kI32, "v" + std::to_string(i), true);
        vars.push_back(v);
        VInstr c;
        c.op = Op::kConst;
        c.dst = v;
        c.imm = int_bits(i);
        blocks[0].push_back(c);
    }
    VInstr h;
    h.op = Op::kHalt;
    blocks[0].push_back(h);
    RegallocResult r = allocate_registers(fn, blocks, vars, 32);
    EXPECT_GT(r.spill_slots, 0) << "60 vars cannot all live in regs";
    EXPECT_GT(r.spill_ops, 0);
}

/** End-to-end pressure sweep: reduced register files still compute
 *  the right answer, just with more spill traffic. */
class RegisterSweep : public ::testing::TestWithParam<int>
{};

TEST_P(RegisterSweep, CorrectUnderPressure)
{
    int regs = GetParam();
    // Wide FP block with many live values.
    std::ostringstream src;
    src << "float A[24];\nint i;\n";
    src << "for (i = 0; i < 24; i = i + 1) { A[i] = (float)(i + 1); }\n";
    for (int k = 0; k < 12; k++)
        src << "float x" << k << ";\n"
            << "x" << k << " = A[" << k << "] * A[" << (k + 12)
            << "] + " << k << ".5;\n";
    src << "float s;\ns = 0.0;\n";
    for (int k = 0; k < 12; k++)
        src << "s = s + x" << k << ";\n";
    src << "print(s);\n";

    RunResult base = run_baseline(src.str());
    MachineConfig m = MachineConfig::base(4);
    m.num_registers = regs;
    CompilerOptions opts;
    RunResult par = run_rawcc(src.str(), m, "", opts);
    EXPECT_EQ(par.prints, base.prints) << regs << " registers";
    if (regs <= 12) {
        EXPECT_GT(par.stats.spill_ops, 0);
    }
}

INSTANTIATE_TEST_SUITE_P(Pressure, RegisterSweep,
                         ::testing::Values(10, 12, 16, 24, 32, 64));

TEST(Regalloc, InfRegEliminatesSpills)
{
    const BenchmarkProgram &prog = benchmark("fpppp-kernel");
    RunResult base32 = run_rawcc(prog.source, MachineConfig::base(1),
                                 prog.check_array);
    RunResult inf = run_rawcc(prog.source, MachineConfig::inf_reg(1),
                              prog.check_array);
    EXPECT_EQ(inf.stats.spill_ops, 0);
    EXPECT_EQ(inf.check_words, base32.check_words);
    EXPECT_LE(inf.cycles, base32.cycles)
        << "no register pressure can only help";
}

TEST(RegallocOracle, EveryTileOfEveryBenchmark)
{
    RegallocScratch scratch;
    RegallocResult reused;
    for (const BenchmarkProgram &prog : benchmark_suite()) {
        for (int tiles : {1, 16, 128}) {
            Function fn;
            VirtualProgram vp = virtual_program(
                prog.source, MachineConfig::base(tiles), fn);
            for (int regs : {8, 12, 32})
                for (int t = 0; t < tiles; t++)
                    expect_matches_oracle(
                        fn, vp.tiles[t], vp.persistent[t], regs,
                        scratch, reused,
                        prog.name + " n" + std::to_string(tiles) +
                            " tile " + std::to_string(t) + " regs " +
                            std::to_string(regs));
        }
    }
}

/** Pairwise consumption ties interval ends, so the order among equal
 *  ends decides which interval is spilled. */
TEST(RegallocOracle, TiedIntervalEnds)
{
    RegallocScratch scratch;
    RegallocResult reused;
    SynthOptions o;
    o.paired_ends = true;
    for (uint64_t seed = 1; seed <= 60; seed++) {
        Synth sy = synth_stream(seed, o);
        for (int regs : {8, 12, 32})
            expect_matches_oracle(sy.fn, sy.blocks, sy.persistent, regs,
                                  scratch, reused,
                                  "seed " + std::to_string(seed));
    }
}

/** Spilled victims are used again later in their block, and value ids
 *  recur across blocks, so a stale per-block entry would show. */
TEST(RegallocOracle, ReusedSpilledVictims)
{
    RegallocScratch scratch;
    RegallocResult reused;
    SynthOptions o;
    o.blocks = 5;
    o.block_len = 90;
    o.shared_ids = true;
    for (uint64_t seed = 1; seed <= 60; seed++) {
        Synth sy = synth_stream(seed, o);
        for (int regs : {8, 12, 32})
            expect_matches_oracle(sy.fn, sy.blocks, sy.persistent, regs,
                                  scratch, reused,
                                  "seed " + std::to_string(seed));
    }
}

/** More persistent values than max_pers: the rest are memory-resident,
 *  and the next tile's persistent set must start from nothing. */
TEST(RegallocOracle, MorePersistentThanRegisters)
{
    RegallocScratch scratch;
    RegallocResult reused;
    for (uint64_t seed = 1; seed <= 40; seed++) {
        SynthOptions o;
        o.persistent = 2 + static_cast<int>(seed % 25);
        o.shared_ids = seed % 2 == 0;
        Synth sy = synth_stream(seed, o);
        for (int regs : {8, 12, 32})
            expect_matches_oracle(sy.fn, sy.blocks, sy.persistent, regs,
                                  scratch, reused,
                                  "seed " + std::to_string(seed));
    }
}

/** One block of n temporaries all live at once, at 8 registers. */
RegallocResult
allocate_independent_temps(int n)
{
    Function fn;
    std::vector<std::vector<VInstr>> blocks(1);
    std::vector<ValueId> temps;
    for (int i = 0; i < n; i++) {
        VInstr c;
        c.op = Op::kConst;
        c.dst = fn.new_value(Type::kI32);
        c.imm = int_bits(i);
        temps.push_back(c.dst);
        blocks[0].push_back(c);
    }
    for (int i = n; i-- > 0;) {
        VInstr s;
        s.op = Op::kSend;
        s.src[0] = temps[i];
        blocks[0].push_back(s);
    }
    return allocate_registers(fn, blocks, {}, 8);
}

TEST(Regalloc, SpillWorkGrowsLinearly)
{
    const int n = 500;
    RegallocResult r1 = allocate_independent_temps(n);
    RegallocResult r2 = allocate_independent_temps(2 * n);
    RegallocResult r4 = allocate_independent_temps(4 * n);
    // 5 temp registers hold 5 values; every other value spills once
    // and costs one store and one reload.
    EXPECT_EQ(r1.spill_slots, n - 5);
    EXPECT_EQ(r2.spill_slots - r1.spill_slots, n);
    EXPECT_EQ(r4.spill_slots - r2.spill_slots, 2 * n);
    EXPECT_EQ(r2.spill_ops - r1.spill_ops, 2 * n);
    EXPECT_EQ(r4.spill_ops - r2.spill_ops, 4 * n);
    EXPECT_EQ(r4.blocks[0].size(), static_cast<size_t>(
                                       8 * n + r4.spill_ops));
}

} // namespace
} // namespace raw
