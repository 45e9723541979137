#ifndef RAW_SIM_MEMORY_HPP
#define RAW_SIM_MEMORY_HPP

/**
 * @file
 * Distributed memory system with low-order interleaving (Section 5.2).
 *
 * The shared region is interleaved element-wise: global word address g
 * lives on tile (g mod N) at local offset (g div N) — exactly the
 * paper's Figure 7 with an interleaving granularity of one word.  Each
 * tile additionally owns a private spill region above the shared
 * region for register spills.
 */

#include <cstdint>
#include <vector>

#include "support/error.hpp"

namespace raw {

/** All tiles' local data memories. */
class MemorySystem
{
  public:
    /**
     * @param n_tiles      machine size (interleaving factor)
     * @param total_words  size of the shared interleaved region
     * @param spill_slots  per-tile private spill words
     */
    MemorySystem(int n_tiles, int64_t total_words,
                 const std::vector<int> &spill_slots);

    /** Home tile of global word @p g. */
    int home_of(int64_t g) const
    {
        return static_cast<int>(g % n_tiles_);
    }
    /** Local offset of global word @p g on its home tile. */
    int64_t local_of(int64_t g) const { return g / n_tiles_; }

    /** Read/write by global address (any tile's share). */
    uint32_t read_global(int64_t g) const;
    void write_global(int64_t g, uint32_t v);

    /** Read/write a tile's local word (shared region offset). */
    uint32_t read_local(int tile, int64_t local) const;
    void write_local(int tile, int64_t local, uint32_t v);

    /** Read/write a tile's private spill slot. */
    uint32_t read_spill(int tile, int64_t slot) const;
    void write_spill(int tile, int64_t slot, uint32_t v);

  private:
    /**
     * Panic on a bad tile (a simulator bug); fatal on an offset past
     * the shared region (a program whose arrays overrun it).
     */
    void check_local(int tile, int64_t local) const;

    int n_tiles_;
    int64_t shared_words_; // per-tile share of the interleaved region
    std::vector<std::vector<uint32_t>> mem_;
};

} // namespace raw

#endif // RAW_SIM_MEMORY_HPP
