#include "sim/memory.hpp"

#include <string>

namespace raw {

MemorySystem::MemorySystem(int n_tiles, int64_t total_words,
                           const std::vector<int> &spill_slots)
    : n_tiles_(n_tiles)
{
    check(n_tiles >= 1, "memory: bad tile count");
    shared_words_ = (total_words + n_tiles - 1) / n_tiles;
    mem_.resize(n_tiles);
    for (int t = 0; t < n_tiles; t++) {
        int64_t spill =
            t < static_cast<int>(spill_slots.size()) ? spill_slots[t]
                                                     : 0;
        mem_[t].assign(shared_words_ + spill, 0);
    }
}

uint32_t
MemorySystem::read_global(int64_t g) const
{
    return read_local(home_of(g), local_of(g));
}

void
MemorySystem::write_global(int64_t g, uint32_t v)
{
    write_local(home_of(g), local_of(g), v);
}

void
MemorySystem::check_local(int tile, int64_t local) const
{
    check(tile >= 0 && tile < n_tiles_, "memory: bad tile");
    // Both cores bound each array access by its own array first
    // (subscript_out_of_range), so only a program whose array layout
    // overruns the region gets here; that is still the program's
    // fault, not the simulator's.
    if (local < 0 || local >= shared_words_)
        fatal("memory: shared access out of range at address " +
              std::to_string(local * n_tiles_ + tile) + " (region is " +
              std::to_string(shared_words_ * n_tiles_) + " words)");
}

uint32_t
MemorySystem::read_local(int tile, int64_t local) const
{
    check_local(tile, local);
    return mem_[tile][local];
}

void
MemorySystem::write_local(int tile, int64_t local, uint32_t v)
{
    check_local(tile, local);
    mem_[tile][local] = v;
}

uint32_t
MemorySystem::read_spill(int tile, int64_t slot) const
{
    check(slot >= 0 &&
              shared_words_ + slot <
                  static_cast<int64_t>(mem_[tile].size()),
          "memory: spill slot out of range");
    return mem_[tile][shared_words_ + slot];
}

void
MemorySystem::write_spill(int tile, int64_t slot, uint32_t v)
{
    check(slot >= 0 &&
              shared_words_ + slot <
                  static_cast<int64_t>(mem_[tile].size()),
          "memory: spill slot out of range");
    mem_[tile][shared_words_ + slot] = v;
}

} // namespace raw
