#include "rawcc/regalloc.hpp"

#include <algorithm>
#include <utility>

#include "support/error.hpp"

namespace raw {

namespace {

struct Interval
{
    ValueId value;
    int start;
    int end;
};

/** Grow @p sc's tables to cover @p n values; new entries are unset. */
void
size_scratch(RegallocScratch &sc, size_t n)
{
    if (sc.uses.size() >= n)
        return;
    sc.uses.resize(n, -1);
    sc.pers_reg.resize(n, -1);
    sc.mem_slot.resize(n, -1);
    sc.temps.resize(n);
    sc.ival.resize(n, -1);
    sc.temp_reg.resize(n, -1);
    sc.temp_slot.resize(n, -1);
}

} // namespace

RegallocResult
allocate_registers(const Function &fn,
                   const std::vector<std::vector<VInstr>> &blocks,
                   const std::vector<ValueId> &persistent, int num_regs)
{
    RegallocScratch scratch;
    RegallocResult out;
    allocate_registers(fn, blocks, persistent, num_regs, scratch, out);
    return out;
}

void
allocate_registers(const Function &fn,
                   const std::vector<std::vector<VInstr>> &blocks,
                   const std::vector<ValueId> &persistent, int num_regs,
                   RegallocScratch &sc, RegallocResult &out)
{
    check(num_regs >= 8, "regalloc: too few registers");
    const int s0 = num_regs - 3, s1 = num_regs - 2, s2 = num_regs - 1;
    const int pool_size = num_regs - 3;

    out.blocks.resize(blocks.size());
    out.spill_ops = 0;
    size_scratch(sc, fn.values.size());

    // ---- Persistent assignment by use count. ---------------------
    for (ValueId v : persistent) {
        check(v >= 0 && static_cast<size_t>(v) < fn.values.size(),
              "regalloc: persistent value out of range");
        sc.uses[v] = 0;
    }
    for (const auto &blk : blocks) {
        for (const VInstr &in : blk) {
            for (ValueId s : in.src)
                if (s >= 0 && sc.uses[s] >= 0)
                    sc.uses[s]++;
            if (in.dst >= 0 && sc.uses[in.dst] >= 0)
                sc.uses[in.dst]++;
        }
    }
    std::vector<ValueId> pers_sorted = persistent;
    std::sort(pers_sorted.begin(), pers_sorted.end(),
              [&](ValueId a, ValueId b) {
                  if (sc.uses[a] != sc.uses[b])
                      return sc.uses[a] > sc.uses[b];
                  return a < b;
              });
    // Keep at least 8 pool registers for temporaries.
    int max_pers = pool_size > 16 ? pool_size - 8 : pool_size / 2;
    int next_slot = 0;
    for (size_t i = 0; i < pers_sorted.size(); i++) {
        if (static_cast<int>(i) < max_pers)
            sc.pers_reg[pers_sorted[i]] = static_cast<int>(i);
        else
            sc.mem_slot[pers_sorted[i]] = next_slot++;
    }
    const int temp_base = std::min<int>(
        static_cast<int>(pers_sorted.size()), max_pers);
    const int n_temp_regs = pool_size - temp_base;
    check(n_temp_regs >= 1, "regalloc: no temp registers left");

    auto is_temp = [&](ValueId v) {
        return v >= 0 && sc.pers_reg[v] < 0 && sc.mem_slot[v] < 0;
    };

    // ---- Per-block temporaries. ----------------------------------
    std::vector<Interval> order;
    // Active intervals as (end, value), ascending by end; equal ends
    // keep insertion order.
    std::vector<std::pair<int, ValueId>> active;
    // Free temp registers: the never-used ones temp_base + fresh and
    // up sit below the stack of released ones, so the next register
    // handed out is freed.back() if any, else temp_base + fresh.
    std::vector<int> freed;
    for (size_t b = 0; b < blocks.size(); b++) {
        const std::vector<VInstr> &code = blocks[b];
        std::vector<PInstr> &dst_code = out.blocks[b];
        dst_code.clear();
        if (code.empty())
            continue;
        sc.temps.next_epoch();

        order.clear();
        auto touch = [&](ValueId v, int pos) {
            if (!is_temp(v))
                return;
            if (sc.temps.mark(v)) {
                sc.ival[v] = static_cast<int>(order.size());
                sc.temp_reg[v] = -1;
                sc.temp_slot[v] = -1;
                order.push_back({v, pos, pos});
            } else {
                order[sc.ival[v]].end = pos;
            }
        };
        for (size_t k = 0; k < code.size(); k++) {
            const VInstr &in = code[k];
            touch(in.src[0], static_cast<int>(k));
            touch(in.src[1], static_cast<int>(k));
            touch(in.dst, static_cast<int>(k));
        }
        std::sort(order.begin(), order.end(),
                  [](const Interval &a, const Interval &b) {
                      if (a.start != b.start)
                          return a.start < b.start;
                      return a.value < b.value;
                  });

        // Linear scan with furthest-end spilling.
        active.clear();
        freed.clear();
        int fresh = 0;
        auto activate = [&](const Interval &iv) {
            auto at = std::upper_bound(
                active.begin(), active.end(), iv.end,
                [](int end, const std::pair<int, ValueId> &a) {
                    return end < a.first;
                });
            active.insert(at, {iv.end, iv.value});
        };
        for (const Interval &iv : order) {
            size_t expired = 0;
            while (expired < active.size() &&
                   active[expired].first < iv.start)
                freed.push_back(sc.temp_reg[active[expired++].second]);
            active.erase(active.begin(), active.begin() + expired);
            if (!freed.empty()) {
                sc.temp_reg[iv.value] = freed.back();
                freed.pop_back();
                activate(iv);
                continue;
            }
            if (fresh < n_temp_regs) {
                sc.temp_reg[iv.value] = temp_base + fresh++;
                activate(iv);
                continue;
            }
            // Spill the interval with the furthest end.
            if (active.back().first > iv.end) {
                ValueId vv = active.back().second;
                sc.temp_reg[iv.value] = sc.temp_reg[vv];
                sc.temp_reg[vv] = -1;
                if (sc.temp_slot[vv] < 0)
                    sc.temp_slot[vv] = next_slot++;
                active.pop_back();
                activate(iv);
            } else if (sc.temp_slot[iv.value] < 0) {
                sc.temp_slot[iv.value] = next_slot++;
            }
        }

        // ---- Rewrite. --------------------------------------------
        dst_code.reserve(code.size());
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
            if (sc.pers_reg[v] >= 0)
                return sc.pers_reg[v];
            if (sc.mem_slot[v] >= 0) {
                emit_spill_load(sc.mem_slot[v], scratch,
                                fn.values[v].type);
                return scratch;
            }
            if (sc.temp_reg[v] >= 0)
                return sc.temp_reg[v];
            check(sc.temp_slot[v] >= 0,
                  "regalloc: use of unallocated value");
            emit_spill_load(sc.temp_slot[v], scratch,
                            fn.values[v].type);
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
            } else if (sc.pers_reg[d] >= 0) {
                p.dst = sc.pers_reg[d];
            } else if (sc.mem_slot[d] >= 0) {
                p.dst = s2;
                store_slot = sc.mem_slot[d];
                store_type = fn.values[d].type;
            } else if (sc.temp_reg[d] >= 0) {
                p.dst = sc.temp_reg[d];
            } else {
                check(sc.temp_slot[d] >= 0,
                      "regalloc: def of unallocated value");
                p.dst = s2;
                store_slot = sc.temp_slot[d];
                store_type = fn.values[d].type;
            }
            dst_code.push_back(p);
            if (store_slot >= 0)
                emit_spill_store(store_slot, s2, store_type);
        }
    }

    // The persistent class is per tile: unset it for the next call.
    for (ValueId v : persistent) {
        sc.uses[v] = -1;
        sc.pers_reg[v] = -1;
        sc.mem_slot[v] = -1;
    }
    out.spill_slots = next_slot;
}

} // namespace raw
