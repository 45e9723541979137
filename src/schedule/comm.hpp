#ifndef RAW_SCHEDULE_COMM_HPP
#define RAW_SCHEDULE_COMM_HPP

/**
 * @file
 * Communication paths and multicast route trees.
 *
 * After partitioning, every task-graph edge whose endpoints live on
 * different tiles needs static-network communication.  Edges with the
 * same source are serviced jointly by a single multicast (Section 3.3,
 * communication code generator): one SEND on the source processor, a
 * tree of ROUTE hops over dimension-ordered paths, and a RECEIVE on
 * each consuming processor.  Control broadcasts (branch conditions)
 * are paths whose destinations additionally include switch registers,
 * letting each switch branch locally (Section 3.2).
 */

#include <cstdint>
#include <vector>

#include "analysis/taskgraph.hpp"
#include "machine/machine.hpp"
#include "partition/partition.hpp"

namespace raw {

/** One destination of a communication path. */
struct CommDest
{
    int tile = 0;
    /** Deliver to the tile's processor (RECEIVE). */
    bool to_proc = false;
    /** Latch into the switch's branch register (control broadcast). */
    bool to_sw_reg = false;
};

/** A single-source multi-destination communication path. */
struct CommPath
{
    /** Producing task-graph node (instruction or import). */
    int src_node = -1;
    /** Source tile. */
    int src_tile = 0;
    /** Value carried (kNoValue: ordering token, the word sent is 0). */
    ValueId value = kNoValue;
    std::vector<CommDest> dests;
    /** True for a branch-condition broadcast. */
    bool broadcast = false;
};

/** One switch's action within a route tree. */
struct TreeHop
{
    int tile = 0;
    /** Incoming port (kProc on the source tile's switch). */
    Dir in = Dir::kProc;
    /** Bitmask over Dir of outgoing ports (bit 1 << dir). */
    uint8_t out_mask = 0;
    /** Also latch the word into the switch branch register. */
    bool to_reg = false;
    /** Hops from the source switch (source switch: 0). */
    int depth = 0;
};

/** A multicast tree rooted at the source tile's switch. */
struct RouteTree
{
    std::vector<TreeHop> hops;
    /** (tile, switch depth) for each processor delivery. */
    std::vector<std::pair<int, int>> proc_recvs;
    int max_depth = 0;
};

/** Build the X-then-Y dimension-ordered multicast tree for @p path. */
RouteTree build_route_tree(const MachineConfig &m, const CommPath &path);

/**
 * Derive the communication paths of one scheduled block: one multicast
 * per task-graph node with remote consumers (data and ordering edges),
 * plus, when @p broadcast_cond is a valid node, a control broadcast to
 * every other processor and to every switch flagged in
 * @p sw_targets (empty: all switches).
 */
std::vector<CommPath> build_comm_paths(const TaskGraph &g,
                                       const Partition &part,
                                       const MachineConfig &m,
                                       int broadcast_cond_node,
                                       const std::vector<bool> &sw_targets);

} // namespace raw

#endif // RAW_SCHEDULE_COMM_HPP
