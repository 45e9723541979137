#ifndef RAW_SCHEDULE_EVENT_SCHEDULER_HPP
#define RAW_SCHEDULE_EVENT_SCHEDULER_HPP

/**
 * @file
 * Event scheduler (Section 4.2).
 *
 * Greedy list scheduling of computation instructions and communication
 * paths onto the space-time matrix (tiles x cycles).  A communication
 * path is an atomic task: when scheduled, contiguous time slots are
 * reserved along the whole route (send, one ROUTE per switch per hop,
 * receive) so the transfer proceeds without intermediate stalls in the
 * static schedule — this end-to-end reservation is also what
 * guarantees deadlock freedom, and the static ordering property
 * (Appendix A) extends the guarantee to executions whose timings
 * differ from the estimate.
 *
 * Ready tasks are prioritized by a weighted sum of *level* (longest
 * remaining path to an exit) and *fertility* (descendant count), per
 * the paper.
 */

#include <cstdint>
#include <vector>

#include "schedule/comm.hpp"

namespace raw {

/** Most slack-driven rescheduling passes a caller may ask for. */
constexpr int kMaxSchedIters = 16;

/** Scheduling policy knobs (ablations and optimizations). */
struct SchedOptions
{
    int level_weight = 16;
    int fertility_weight = 1;
    /** Ablation: ignore priorities, schedule in ready-FIFO order. */
    bool fifo_priority = false;
    /**
     * Slack-driven iterated rescheduling: after the first list-
     * scheduling pass, recompute priorities from the *achieved*
     * schedule (realized communication latencies including ROUTE
     * occupancy, minus total slack) and reschedule, up to this many
     * extra passes.  The shortest schedule per block wins; 0 keeps
     * the single greedy pass of the paper.  Bounded (2-3 is enough)
     * so compile time stays near the single-pass cost.
     */
    int sched_iters = 0;

    /** Any best-of-N mechanism beyond the seed single pass enabled? */
    bool multi_pass() const { return sched_iters > 0; }
};

/** One processor-stream entry of the schedule. */
struct TileItem
{
    enum class Kind : uint8_t { kCompute, kSend, kRecv };
    int64_t cycle = 0;
    Kind kind = Kind::kCompute;
    /** Task graph node (kCompute, kSend); -1 for recv. */
    int node = -1;
    /** Value sent/received (kNoValue: ordering token). */
    ValueId value = kNoValue;
    /** Index into the path list (kSend/kRecv). */
    int path = -1;
};

/** One switch-stream entry (one hop of some path). */
struct SwitchItem
{
    int64_t cycle = 0;
    Dir in = Dir::kProc;
    uint8_t out_mask = 0;
    bool to_reg = false;
    ValueId value = kNoValue;
    /**
     * Owning path: same-cycle hops of different paths must become
     * separate ROUTE instructions, consistently ordered by this id on
     * every switch — fusing them would couple the paths' blocking and
     * break the deadlock-freedom argument of Appendix A.
     */
    int path = -1;
};

/** The complete space-time schedule of one basic block. */
struct BlockSchedule
{
    /** Per-tile processor items, sorted by cycle. */
    std::vector<std::vector<TileItem>> tiles;
    /** Per-tile switch items, sorted by cycle. */
    std::vector<std::vector<SwitchItem>> switches;
    /** Estimated parallel run time of the block. */
    int64_t makespan = 0;
    /**
     * Estimated issue slots the schedule occupies on each tile
     * processor (computes + sends + recvs).  The profiling layer
     * cross-checks this against the measured per-tile issue counts
     * (sim/profile.hpp) to validate the scheduler's cost model.
     */
    std::vector<int64_t> tile_busy;
};

/** Schedule one block. */
BlockSchedule schedule_block(const TaskGraph &g, const Partition &part,
                             const MachineConfig &m,
                             const std::vector<CommPath> &paths,
                             const SchedOptions &opts);

} // namespace raw

#endif // RAW_SCHEDULE_EVENT_SCHEDULER_HPP
