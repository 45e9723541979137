#include "partition/partition.hpp"

#include <algorithm>
#include <numeric>
#include <random>

#include "support/error.hpp"

namespace raw {

namespace {

/**
 * Per-edge slack under an idealized uniform-latency interconnect:
 * span minus the longest path through the edge.  Zero for edges on
 * the critical path.
 */
std::vector<int64_t>
edge_slack(const TaskGraph &g, int64_t &span_out)
{
    const int n = static_cast<int>(g.nodes().size());
    constexpr int64_t kComm = 2; // idealized cross-partition latency

    // Topological order via repeated ready-set sweeps.
    std::vector<int> indeg(n, 0), order;
    order.reserve(n);
    for (int v = 0; v < n; v++)
        indeg[v] = static_cast<int>(g.preds(v).size());
    std::vector<int> q;
    for (int v = 0; v < n; v++)
        if (indeg[v] == 0)
            q.push_back(v);
    while (!q.empty()) {
        int v = q.back();
        q.pop_back();
        order.push_back(v);
        for (int s : g.succs(v))
            if (--indeg[s] == 0)
                q.push_back(s);
    }

    std::vector<int64_t> level(n, 0), est(n, 0);
    for (int k = static_cast<int>(order.size()); k-- > 0;) {
        int v = order[k];
        int64_t lvl = 0;
        for (int s : g.succs(v))
            lvl = std::max(lvl, kComm + level[s]);
        level[v] = g.nodes()[v].cost + lvl;
    }
    for (int v : order)
        for (int s : g.succs(v))
            est[s] = std::max(est[s],
                              est[v] + g.nodes()[v].cost + kComm);
    int64_t span = 0;
    for (int v = 0; v < n; v++)
        span = std::max(span, est[v] + level[v]);
    span_out = span;

    std::vector<int64_t> slack(g.edges().size(), 0);
    for (size_t e = 0; e < g.edges().size(); e++) {
        const TGEdge &edge = g.edges()[e];
        int64_t through = est[edge.from] +
                          g.nodes()[edge.from].cost + kComm +
                          level[edge.to];
        slack[e] = std::max<int64_t>(0, span - through);
    }
    return slack;
}

/**
 * Word traffic between each pair of partitions, with each partition's
 * traffic neighbours in @p nbr.  With @p crit_weight > 0 it is
 * criticality-weighted: each cross-partition edge counts
 * 1 + crit_weight * (span - slack) / span words, so tight edges pull
 * their endpoint partitions together harder than slack ones.
 */
std::vector<std::vector<int>>
traffic_matrix(const TaskGraph &g, const Clustering &merged, int n_tiles,
               int crit_weight, std::vector<std::vector<int>> &nbr)
{
    int64_t span = 0;
    std::vector<int64_t> slack;
    if (crit_weight > 0)
        slack = edge_slack(g, span);
    std::vector<std::vector<int>> w(n_tiles,
                                    std::vector<int>(n_tiles, 0));
    nbr.assign(n_tiles, {});
    for (size_t e = 0; e < g.edges().size(); e++) {
        const TGEdge &edge = g.edges()[e];
        int a = merged.cluster_of[edge.from];
        int b = merged.cluster_of[edge.to];
        if (a == b)
            continue;
        int wt = 1;
        if (crit_weight > 0 && span > 0)
            wt += static_cast<int>((crit_weight * (span - slack[e])) /
                                   span);
        if (!w[a][b]) {
            nbr[a].push_back(b);
            nbr[b].push_back(a);
        }
        w[a][b] += wt;
        w[b][a] += wt;
    }
    return w;
}

} // namespace

int64_t
placement_assignment_cost(const std::vector<std::vector<int>> &w,
                          const std::vector<int> &tile_of_partition,
                          const MachineConfig &machine)
{
    int64_t cost = 0;
    const int n = static_cast<int>(tile_of_partition.size());
    for (int a = 0; a < n; a++)
        for (int b = a + 1; b < n; b++)
            cost += static_cast<int64_t>(w[a][b]) *
                    machine.distance(tile_of_partition[a],
                                     tile_of_partition[b]);
    return cost;
}

PlacementCostTable::PlacementCostTable(
    const std::vector<std::vector<int>> &w,
    std::vector<int> tile_of_partition, const MachineConfig &machine,
    std::vector<std::vector<int>> nbr)
    : w_(w), n_tiles_(machine.n_tiles),
      tile_of_(std::move(tile_of_partition)), nbr_(std::move(nbr))
{
    const int n = static_cast<int>(tile_of_.size());
    const int nt = n_tiles_;
    mesh_row_.resize(nt);
    mesh_col_.resize(nt);
    for (int t = 0; t < nt; t++) {
        mesh_row_[t] = machine.row_of(t);
        mesh_col_[t] = machine.col_of(t);
    }

    // Row 0 is the shared all-zero row of every idle partition.
    c_row_of_.assign(n, 0);
    int rows = 1;
    for (int p = 0; p < n; p++)
        if (busy(p))
            c_row_of_[p] = rows++;
    c_.assign(static_cast<size_t>(rows) * nt, 0);
    shift_.resize(nt);
    for (int p = 0; p < n; p++) {
        int64_t *row = c_row(p);
        for (int k : nbr_[p]) {
            const int64_t wpk = w[p][k];
            const int tk = tile_of_[k];
            for (int t = 0; t < nt; t++)
                row[t] += wpk * dist(t, tk);
        }
    }
}

int64_t
PlacementCostTable::swap_delta(int i, int j) const
{
    const int ti = tile_of_[i];
    const int tj = tile_of_[j];
    const int64_t *ci = c_row(i);
    const int64_t *cj = c_row(j);
    return ci[tj] - ci[ti] + cj[ti] - cj[tj] +
           2 * static_cast<int64_t>(w_[i][j]) * dist(ti, tj);
}

void
PlacementCostTable::apply_swap(int i, int j)
{
    const int nt = n_tiles_;
    const int ti = tile_of_[i];
    const int tj = tile_of_[j];
    // i moves to j's tile: each traffic neighbour p of i now pays
    // w[p][i]·(D[t][tj] − D[t][ti]) more on every tile t; j the reverse.
    for (int t = 0; t < nt; t++)
        shift_[t] = dist(t, tj) - dist(t, ti);
    for (int p : nbr_[i]) {
        const int64_t wpi = w_[p][i];
        int64_t *row = c_row(p);
        for (int t = 0; t < nt; t++)
            row[t] += wpi * shift_[t];
    }
    for (int p : nbr_[j]) {
        const int64_t wpj = w_[p][j];
        int64_t *row = c_row(p);
        for (int t = 0; t < nt; t++)
            row[t] -= wpj * shift_[t];
    }
    std::swap(tile_of_[i], tile_of_[j]);
}

Partition
place_partitions(const TaskGraph &g, const Clustering &merged,
                 const MachineConfig &machine,
                 const PartitionOptions &opts)
{
    const int n_tiles = machine.n_tiles;
    check(merged.n_clusters == n_tiles,
          "placement expects one partition per tile");

    // Initial assignment: pinned partitions are fixed on their tiles;
    // the rest take the remaining tiles in order.
    std::vector<int> tile_of_partition(n_tiles, -1);
    std::vector<bool> tile_used(n_tiles, false);
    std::vector<int> movable;
    for (int p = 0; p < n_tiles; p++)
        if (merged.pin_of[p] >= 0) {
            tile_of_partition[p] = merged.pin_of[p];
            tile_used[merged.pin_of[p]] = true;
        } else {
            movable.push_back(p);
        }
    {
        int t = 0;
        for (int p : movable) {
            while (tile_used[t])
                t++;
            tile_of_partition[p] = t;
            tile_used[t] = true;
        }
    }

    std::vector<std::vector<int>> nbr;
    std::vector<std::vector<int>> w =
        traffic_matrix(g, merged, n_tiles, opts.crit_weight, nbr);

    int64_t swaps_evaluated = 0;
    if (opts.place_mode != PlaceMode::kArbitrary &&
        movable.size() > 1) {
        // Candidate swaps are evaluated by the table's O(1) delta and
        // accepted swaps cost O(deg·n), not the O(n²) full recompute.
        // Accept decisions are on exact integer deltas, so the loops
        // pick the same placements as the full-recompute versions.
        PlacementCostTable table(w, tile_of_partition, machine,
                                 std::move(nbr));
        auto delta_of = [&](int pi, int pj) {
            int64_t d = table.swap_delta(pi, pj);
#ifndef NDEBUG
            std::vector<int> tiles = table.tile_of();
            int64_t pre = placement_assignment_cost(w, tiles, machine);
            std::swap(tiles[pi], tiles[pj]);
            check(placement_assignment_cost(w, tiles, machine) - pre == d,
                  "placement: swap delta disagrees with full recompute");
#endif
            return d;
        };

        if (opts.place_mode == PlaceMode::kGreedySwap) {
            // A swap of two idle partitions has Δ = 0, which the
            // strict < 0 test never takes, so each sweep evaluates
            // only the pairs with a busy partition, in the same (i, j)
            // order; swaps_evaluated still counts every pair.
            const size_t m = movable.size();
            std::vector<size_t> busy;
            for (size_t k = 0; k < m; k++)
                if (table.busy(movable[k]))
                    busy.push_back(k);
            bool improved = true;
            auto try_swap = [&](size_t i, size_t j) {
                if (delta_of(movable[i], movable[j]) < 0) {
                    table.apply_swap(movable[i], movable[j]);
                    improved = true;
                }
            };
            while (improved) {
                improved = false;
                swaps_evaluated += static_cast<int64_t>(m * (m - 1) / 2);
                size_t next = 0; // first busy entry past i
                for (size_t i = 0; i < m; i++) {
                    while (next < busy.size() && busy[next] <= i)
                        next++;
                    if (table.busy(movable[i])) {
                        for (size_t j = i + 1; j < m; j++)
                            try_swap(i, j);
                    } else {
                        for (size_t k = next; k < busy.size(); k++)
                            try_swap(i, busy[k]);
                    }
                }
            }
            tile_of_partition = table.tile_of();
        } else { // kAnneal
            std::mt19937 rng(opts.seed);
            std::uniform_int_distribution<int> pick(
                0, static_cast<int>(movable.size()) - 1);
            std::uniform_real_distribution<double> unit(0.0, 1.0);
            double temp = 8.0;
            int64_t cur =
                placement_assignment_cost(w, tile_of_partition, machine);
            std::vector<int> best = tile_of_partition;
            int64_t best_cost = cur;
            for (int iter = 0; iter < 4000; iter++) {
                int i = movable[pick(rng)];
                int j = movable[pick(rng)];
                if (i == j)
                    continue;
                swaps_evaluated++;
                int64_t d = delta_of(i, j);
                // The RNG is drawn only on uphill candidates, exactly
                // as the full-recompute loop did, so the accept
                // stream (and final placement) is unchanged.
                if (d <= 0 || unit(rng) < std::exp(-double(d) / temp)) {
                    table.apply_swap(i, j);
                    cur += d;
                    if (cur < best_cost) {
                        best_cost = cur;
                        best = table.tile_of();
                    }
                }
                temp *= 0.999;
            }
            tile_of_partition = best;
        }
    }

    Partition out;
    out.swaps_evaluated = swaps_evaluated;
    out.tile_of.assign(g.nodes().size(), 0);
    for (size_t i = 0; i < g.nodes().size(); i++)
        out.tile_of[i] = tile_of_partition[merged.cluster_of[i]];
    for (const TGEdge &e : g.edges())
        if (out.tile_of[e.from] != out.tile_of[e.to])
            out.cross_edges++;

    // Pins must be honored exactly.
    for (size_t i = 0; i < g.nodes().size(); i++)
        check(g.nodes()[i].pin < 0 ||
                  g.nodes()[i].pin == out.tile_of[i],
              "placement violated a pin");
    return out;
}

Partition
partition_taskgraph(const TaskGraph &g, const MachineConfig &machine,
                    const PartitionOptions &opts)
{
    Clustering c = cluster_taskgraph(g, machine, opts);
    Clustering m = merge_clusters(g, c, machine);
    return place_partitions(g, m, machine, opts);
}

} // namespace raw
