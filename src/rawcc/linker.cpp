#include "rawcc/linker.hpp"

#include <chrono>

#include "rawcc/regalloc.hpp"
#include "support/error.hpp"

namespace raw {

namespace {

bool is_jump(const PInstr &p) { return p.op == Op::kJump; }
bool is_jump(const SInstr &s) { return s.k == SInstr::K::kJump; }
bool has_target(const PInstr &p) { return is_jump(p) || p.op == Op::kBranch; }

bool
has_target(const SInstr &s)
{
    return is_jump(s) || s.k == SInstr::K::kBnez;
}

/**
 * Lay one tile's block streams, processor or switch, out back to back
 * in @p out.  A block's trailing jump to the next block is dropped,
 * and jump and branch targets go from block ids to stream offsets.
 */
template <typename Instr>
void
splice(const std::vector<std::vector<Instr>> &blocks, int n_blocks,
       std::vector<Instr> &out, const char *bad_target)
{
    check(static_cast<int>(blocks.size()) == n_blocks,
          "linker: stream block count differs from the function's");
    auto kept = [&](int b) {
        const std::vector<Instr> &code = blocks[b];
        bool drop = !code.empty() && is_jump(code.back()) &&
                    code.back().target == b + 1;
        return code.size() - (drop ? 1 : 0);
    };
    std::vector<int64_t> start(n_blocks + 1, 0);
    for (int b = 0; b < n_blocks; b++)
        start[b + 1] = start[b] + static_cast<int64_t>(kept(b));
    out.reserve(start[n_blocks]);
    for (int b = 0; b < n_blocks; b++) {
        for (size_t k = 0, n = kept(b); k < n; k++) {
            out.push_back(blocks[b][k]);
            Instr &in = out.back();
            if (has_target(in)) {
                check(in.target >= 0 && in.target < n_blocks, bad_target);
                in.target = start[in.target];
            }
        }
    }
}

} // namespace

CompiledProgram
link_program(const Function &fn, VirtualProgram &vp,
             const MachineConfig &machine, LinkStats *stats)
{
    using Clock = std::chrono::steady_clock;
    const int n_tiles = machine.n_tiles;
    const int n_blocks = static_cast<int>(fn.blocks.size());

    CompiledProgram cp;
    cp.machine = machine;
    cp.arrays = vp.data.arrays;
    cp.total_words = vp.data.total_words;
    cp.num_prints = vp.num_prints;
    cp.spill_slots.assign(n_tiles, 0);
    cp.tiles.resize(n_tiles);
    cp.switches.resize(n_tiles);

    RegallocScratch scratch;
    RegallocResult ra;
    for (int t = 0; t < n_tiles; t++) {
        Clock::time_point t0 = Clock::now();
        allocate_registers(fn, vp.tiles[t], vp.persistent[t],
                           machine.num_registers, scratch, ra);
        std::chrono::duration<double, std::milli> ms = Clock::now() - t0;
        cp.spill_slots[t] = ra.spill_slots;
        if (stats) {
            stats->regalloc_ms += ms.count();
            stats->spill_ops += ra.spill_ops;
            stats->total_spill_slots += ra.spill_slots;
        }
        splice(ra.blocks, n_blocks, cp.tiles[t].code,
               "linker: bad processor branch target");
    }

    // Switch instructions are copied, and each tile's virtual stream
    // is freed once copied.  Moving them instead saved no measurable
    // compile time and raised mesh_scale's peak RSS: the route lists
    // stayed scattered where orchestration allocated them.
    for (int t = 0; t < n_tiles; t++) {
        if (vp.switch_active[t])
            splice(vp.switches[t], n_blocks, cp.switches[t].code,
                   "linker: bad switch branch target");
        std::vector<std::vector<SInstr>>().swap(vp.switches[t]);
    }
    return cp;
}

} // namespace raw
