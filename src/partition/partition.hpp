#ifndef RAW_PARTITION_PARTITION_HPP
#define RAW_PARTITION_PARTITION_HPP

/**
 * @file
 * Instruction partitioner (Section 4.1): clustering, merging,
 * placement.
 *
 *  - *Clustering* groups instructions whose parallelism is too fine to
 *    pay for communication, using the Dominant Sequence Clustering
 *    heuristic of Yang & Gerasoulis under an idealized fully-connected
 *    interconnect with uniform latency.
 *  - *Merging* reduces the clusters to N partitions using the load
 *    balance heuristic: visit clusters in decreasing size and merge
 *    each into the least-loaded partition.
 *  - *Placement* drops the idealized-interconnect assumption and maps
 *    partitions onto physical mesh tiles, greedily swapping pairs to
 *    reduce total communication hops (optionally refined by simulated
 *    annealing).
 *
 * Nodes pinned to a tile (static memory references, variable homes)
 * constrain all three phases.
 */

#include <cstdlib>
#include <vector>

#include "analysis/taskgraph.hpp"
#include "machine/machine.hpp"

namespace raw {

/** Clustering algorithm selection (for ablation benches). */
enum class ClusterMode : uint8_t {
    kDSC,        ///< Dominant Sequence Clustering (the paper's choice)
    kUnitNodes,  ///< no clustering: every node its own cluster
};

/** Placement algorithm selection (for ablation benches). */
enum class PlaceMode : uint8_t {
    kGreedySwap, ///< greedy pairwise improvement (the paper's choice)
    kAnneal,     ///< simulated annealing refinement
    kArbitrary,  ///< identity mapping, no optimization
};

/** Options for the partitioner. */
struct PartitionOptions
{
    ClusterMode cluster_mode = ClusterMode::kDSC;
    PlaceMode place_mode = PlaceMode::kGreedySwap;
    /** RNG seed for annealing / tie-breaking. */
    uint32_t seed = 1;
    /**
     * Criticality-weighted placement traffic (PGO): weight each
     * cross-partition edge by how close it sits to the task graph's
     * critical path, so placement shortens the hops that actually
     * gate the schedule instead of treating every word equally.  An
     * edge with zero slack counts (1 + crit_weight) times; an edge
     * with maximal slack counts once.  0 (default) keeps the
     * seed's uniform word counts bit-identical.
     */
    int crit_weight = 0;
};

/** Intermediate result of the clustering phase. */
struct Clustering
{
    /** Cluster id per node. */
    std::vector<int> cluster_of;
    /** Number of clusters. */
    int n_clusters = 0;
    /** Required tile per cluster (-1 if free). */
    std::vector<int> pin_of;
    /** Total computation cost per cluster. */
    std::vector<int64_t> cost_of;
};

/** Final result: a tile for every task graph node. */
struct Partition
{
    std::vector<int> tile_of;
    /** Number of edges whose endpoints ended up on different tiles. */
    int cross_edges = 0;
    /** Candidate swaps evaluated during placement (perf tracking). */
    int64_t swaps_evaluated = 0;
};

/**
 * Total hop-weighted communication cost of mapping partitions onto
 * tiles: sum over partition pairs of traffic × mesh distance.
 * @p w is the symmetric partition-to-partition word-traffic matrix.
 */
int64_t placement_assignment_cost(
    const std::vector<std::vector<int>> &w,
    const std::vector<int> &tile_of_partition,
    const MachineConfig &machine);

/**
 * Incremental placement cost model behind greedy-swap and anneal.
 *
 * Holds each partition's traffic neighbours and the cost table
 * C[p][t] = Σₖ w[p][k]·D[t][tile(k)] — what partition p would pay in
 * hops if it sat on tile t, with D the mesh (Manhattan) distance.  A
 * swap of partitions i and j then costs O(1) to evaluate, since only
 * terms touching i or j change:
 *
 *   Δ = C[i][tj] − C[i][ti] + C[j][ti] − C[j][tj] + 2·w[i][j]·D[ti][tj]
 *
 * (the last term restores the i–j pair, whose distance is invariant
 * but which both C differences subtract once).  Accepting a swap
 * rewrites only the C rows of partitions with traffic to i or j:
 * O(deg·n).  Deltas are exact integers, equal to the difference of
 * two placement_assignment_cost recomputes.  @p w must be symmetric;
 * its diagonal is ignored.
 *
 * A partition without traffic (an *idle* one) has an all-zero C row,
 * so only busy partitions get a row; idle ones share one zero row.
 * A swap of two idle partitions therefore always has Δ = 0.
 */
class PlacementCostTable
{
  public:
    /**
     * Build the tables for @p tile_of_partition (one tile per
     * partition) in O(tiles + Σ deg·tiles).  @p nbr lists each
     * partition's traffic neighbours: every k ≠ p with w[p][k] ≠ 0,
     * in any order.  @p w must outlive the table.
     */
    PlacementCostTable(const std::vector<std::vector<int>> &w,
                       std::vector<int> tile_of_partition,
                       const MachineConfig &machine,
                       std::vector<std::vector<int>> nbr);

    /** Cost change if partitions @p i and @p j swapped tiles; O(1). */
    int64_t swap_delta(int i, int j) const;
    /** Swap the tiles of @p i and @p j; O(deg·tiles). */
    void apply_swap(int i, int j);

    /** True if partition @p p has traffic with some other partition. */
    bool busy(int p) const { return !nbr_[p].empty(); }
    const std::vector<int> &tile_of() const { return tile_of_; }

  private:
    int dist(int t, int u) const
    {
        return std::abs(mesh_row_[t] - mesh_row_[u]) +
               std::abs(mesh_col_[t] - mesh_col_[u]);
    }
    int64_t *c_row(int p) { return &c_[c_row_of_[p] * n_tiles_]; }
    const int64_t *c_row(int p) const
    {
        return &c_[c_row_of_[p] * n_tiles_];
    }

    const std::vector<std::vector<int>> &w_;
    const int n_tiles_;
    std::vector<int> tile_of_;
    std::vector<int> mesh_row_, mesh_col_; ///< coordinates per tile
    std::vector<std::vector<int>> nbr_;  ///< k ≠ p with w[p][k] ≠ 0
    std::vector<int> c_row_of_;          ///< C row per partition; 0 = idle
    std::vector<int64_t> c_;             ///< C, (1 + busy) × tiles
    std::vector<int> shift_;             ///< apply_swap scratch, tiles
};

/** Phase 1: cluster @p g (uniform-latency model). */
Clustering cluster_taskgraph(const TaskGraph &g,
                             const MachineConfig &machine,
                             const PartitionOptions &opts);

/**
 * Phase 2: merge clusters into at most @p machine.n_tiles partitions
 * (load balance heuristic).  Returns a new Clustering whose ids are
 * partition ids, with pins propagated.
 */
Clustering merge_clusters(const TaskGraph &g, const Clustering &c,
                          const MachineConfig &machine);

/** Phase 3: map partitions onto tiles and produce the final result. */
Partition place_partitions(const TaskGraph &g, const Clustering &merged,
                           const MachineConfig &machine,
                           const PartitionOptions &opts);

/** All three phases. */
Partition partition_taskgraph(const TaskGraph &g,
                              const MachineConfig &machine,
                              const PartitionOptions &opts);

} // namespace raw

#endif // RAW_PARTITION_PARTITION_HPP
