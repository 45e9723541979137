#ifndef RAW_SCHEDULE_SCHED_INTERNAL_HPP
#define RAW_SCHEDULE_SCHED_INTERNAL_HPP

/**
 * @file
 * Internals shared by the block schedulers.
 *
 * The greedy list scheduler (event_scheduler.cpp) and the branch-
 * and-bound reference the scheduler tests check it against
 * (tests/oracle.cpp) operate on the same task-graph-plus-comm-paths
 * model: identical dependence bookkeeping, identical priority
 * computation, one space-time reservation table.  This header
 * factors those pieces out so the two schedulers cannot drift on
 * the resource model — a schedule either of them accepts reserves
 * processor slots and switch ports under exactly the same rules.
 */

#include <cstdint>
#include <vector>

#include "schedule/comm.hpp"

namespace raw {
namespace sched {

/** Per-switch, per-cycle reservation state. */
struct SwRes
{
    uint8_t in_used = 0;  // bitmask over Dir
    uint8_t out_used = 0; // bitmask over Dir
    bool reg_used = false;
};

/**
 * Cycles past a path's ready time that a slot search may look before
 * giving up with "no feasible slot".
 */
constexpr int64_t kSlotSearchLimit = 2000000;

/**
 * The space-time reservation table every scheduler books into: one
 * processor slot per tile per cycle and, per switch per cycle, the
 * input/output ports and branch register in use.  Processor rows are
 * bitsets (bit t of a row set = the slot is taken); switch rows are
 * dense arrays indexed by cycle.  Both grow on commit; anything past
 * a row's end is free.  Cycles are non-negative.
 */
class SlotTable
{
  public:
    SlotTable() = default;
    explicit SlotTable(int n_tiles)
        : proc_(n_tiles), sw_(n_tiles)
    {
    }

    bool proc_free(int tile, int64_t t) const
    {
        const std::vector<uint64_t> &row = proc_[tile];
        size_t w = static_cast<size_t>(t) >> 6;
        return w >= row.size() || !((row[w] >> (t & 63)) & 1);
    }

    /** First cycle >= @p t at which @p tile's processor is free. */
    int64_t next_free(int tile, int64_t t) const;

    /** Book @p tile's processor at @p t (panics if already taken). */
    void take(int tile, int64_t t);

    /** Whether hop @p h can cross its switch at cycle @p c. */
    bool hop_free(const TreeHop &h, int64_t c) const
    {
        const std::vector<SwRes> &row = sw_[h.tile];
        if (static_cast<size_t>(c) >= row.size())
            return true;
        const SwRes &r = row[c];
        uint8_t in_bit =
            static_cast<uint8_t>(1u << static_cast<int>(h.in));
        return !((r.in_used & in_bit) || (r.out_used & h.out_mask) ||
                 (h.to_reg && r.reg_used));
    }

    /** Book hop @p h's ports (and register) at cycle @p c. */
    void reserve(const TreeHop &h, int64_t c);

    /**
     * First cycle t >= @p r at which @p tree can run start to finish:
     * SEND on @p src_tile at t, every hop at t + 1 + depth, every
     * RECEIVE at t + 2 + depth.  A failed processor check jumps t to
     * the first cycle that processor could allow; a hop conflict
     * steps by one.  Only cycles a single constraint rules out are
     * skipped, so the result is the linear scan's.  Panics when no
     * cycle below r + kSlotSearchLimit fits.
     */
    int64_t find_path_slot(const RouteTree &tree, int src_tile,
                           int64_t r) const;

  private:
    std::vector<std::vector<uint64_t>> proc_;
    std::vector<std::vector<SwRes>> sw_;
};

/** Priorities: level (critical path) and clamped fertility. */
struct Priorities
{
    std::vector<int64_t> level;
    std::vector<int64_t> fert;
};

/** Topological order of the task graph (panics on a cycle). */
std::vector<int> topo_order(const TaskGraph &g);

Priorities compute_priorities(const TaskGraph &g, const Partition &part,
                              const MachineConfig &m);

/** Dependence bookkeeping shared by every scheduling pass. */
struct DepInfo
{
    /** node -> paths it sources (usually <= 2: data + bcast). */
    std::vector<std::vector<int>> paths_of_node;
    /** Node's non-broadcast (value-carrying) path, or -1. */
    std::vector<int> data_path_of_node;
    /** Initial unsatisfied-dependence count per node. */
    std::vector<int> deps_init;
    std::vector<std::vector<int>> node_waiters; // node -> nodes
    std::vector<std::vector<int>> path_waiters; // path -> nodes
    std::vector<std::vector<int>> in_edges;     // node -> edge ids
};

DepInfo build_deps(const TaskGraph &g, const Partition &part,
                   const std::vector<CommPath> &paths);

} // namespace sched
} // namespace raw

#endif // RAW_SCHEDULE_SCHED_INTERNAL_HPP
