#ifndef RAW_TESTS_ORACLE_HPP
#define RAW_TESTS_ORACLE_HPP

/**
 * @file
 * Small-block optimal scheduling oracle (test-only reference).
 *
 * Budget-capped branch-and-bound over ready-task orderings: at every
 * step the search branches on which ready task (compute node or
 * communication path) to commit next and places it with exactly the
 * greedy list scheduler's placement rules (earliest free processor
 * slot; earliest start-to-finish-free slot along the XY route tree).
 * The greedy pass's own ordering is one leaf of this tree, so the
 * incumbent — seeded with the single-pass greedy makespan — can only
 * improve: best <= greedy always, and when the search exhausts the
 * tree within budget the result is the optimal makespan over all
 * list schedules under the shared resource model.
 *
 * The oracle is the reference the scheduler tests compare the greedy
 * pass against; the compiler does not link it.  On every block of the
 * loop benchmarks it could search it found no gap (max_gap 0), so it
 * earns nothing as a compile-time report (docs/scheduling.md §5).
 */

#include <cstdint>
#include <vector>

#include "schedule/event_scheduler.hpp"

namespace raw {

/** Blocks with more branchable tasks than this are not searched. */
constexpr int kOracleTaskLimit = 12;

/** Result of the oracle search on one block. */
struct OracleReport
{
    /** Branchable tasks: compute nodes plus communication paths. */
    int tasks = 0;
    /** Makespan of the single-pass greedy ordering (the incumbent). */
    int64_t greedy_makespan = 0;
    /** Best makespan found; <= greedy_makespan by construction. */
    int64_t best_makespan = 0;
    /** The search tree was exhausted within budget: best is optimal. */
    bool proved_optimal = false;
    /** Search states expanded. */
    int64_t states = 0;
};

/**
 * Run the oracle on one block.  Returns false without a report when
 * the block exceeds kOracleTaskLimit or @p budget is <= 0.
 */
bool oracle_search(const TaskGraph &g, const Partition &part,
                   const MachineConfig &m,
                   const std::vector<CommPath> &paths, int64_t budget,
                   OracleReport &out);

} // namespace raw

#endif // RAW_TESTS_ORACLE_HPP
