#include "partition/partition.hpp"

#include <algorithm>
#include <queue>

#include "support/error.hpp"

namespace raw {

namespace {

/** Uniform communication latency of the idealized interconnect. */
int
uniform_comm_cost(const MachineConfig &m)
{
    // inject + average mesh hops + receive.
    return 2 + (m.rows + m.cols) / 2;
}

/** Longest path from each node to any exit (comm cost on all edges). */
std::vector<int64_t>
bottom_levels(const TaskGraph &g, int comm)
{
    const int n = static_cast<int>(g.nodes().size());
    std::vector<int64_t> bl(n, 0);
    // Nodes are created in (import-after-instr) program order; compute
    // with reverse topological relaxation over explicit ordering.
    // Build a topological order first.
    std::vector<int> indeg(n, 0), order;
    for (int i = 0; i < n; i++)
        indeg[i] = static_cast<int>(g.preds(i).size());
    std::queue<int> q;
    for (int i = 0; i < n; i++)
        if (indeg[i] == 0)
            q.push(i);
    while (!q.empty()) {
        int v = q.front();
        q.pop();
        order.push_back(v);
        for (int s : g.succs(v))
            if (--indeg[s] == 0)
                q.push(s);
    }
    check(static_cast<int>(order.size()) == n,
          "taskgraph has a cycle");
    for (int k = n; k-- > 0;) {
        int v = order[k];
        int64_t best = 0;
        for (int s : g.succs(v))
            best = std::max(best, comm + bl[s]);
        bl[v] = g.nodes()[v].cost + best;
    }
    return bl;
}

} // namespace

Clustering
cluster_taskgraph(const TaskGraph &g, const MachineConfig &machine,
                  const PartitionOptions &opts)
{
    const int n = static_cast<int>(g.nodes().size());
    Clustering c;
    c.cluster_of.assign(n, -1);

    if (opts.cluster_mode == ClusterMode::kUnitNodes || n == 0) {
        for (int i = 0; i < n; i++)
            c.cluster_of[i] = i;
        c.n_clusters = n;
        c.pin_of.assign(std::max(n, 1), -1);
        c.cost_of.assign(std::max(n, 1), 0);
        for (int i = 0; i < n; i++) {
            c.pin_of[i] = g.nodes()[i].pin;
            c.cost_of[i] = g.nodes()[i].cost;
        }
        return c;
    }

    const int comm = uniform_comm_cost(machine);
    std::vector<int64_t> blevel = bottom_levels(g, comm);

    // Dominant Sequence Clustering (one-pass greedy): visit nodes in
    // topological order, always expanding the candidate with the
    // longest remaining path; try to absorb the node into a parent's
    // cluster when that reduces its start time.
    std::vector<int> cluster_pin;     // per cluster
    std::vector<int64_t> cluster_free; // earliest free time per cluster
    std::vector<int64_t> finish(n, 0);
    std::vector<int> unvisited_preds(n, 0);

    auto new_cluster = [&](int pin) {
        cluster_pin.push_back(pin);
        cluster_free.push_back(0);
        return static_cast<int>(cluster_pin.size()) - 1;
    };

    using Cand = std::pair<int64_t, int>; // (priority, node)
    std::priority_queue<Cand> ready;
    for (int i = 0; i < n; i++) {
        unvisited_preds[i] = static_cast<int>(g.preds(i).size());
        if (unvisited_preds[i] == 0)
            ready.push({blevel[i], i});
    }

    int visited = 0;
    while (!ready.empty()) {
        int v = ready.top().second;
        ready.pop();
        visited++;
        const TGNode &nd = g.nodes()[v];

        // One pass over the preds finds the two latest cross-cluster
        // arrivals (finish + comm) from distinct clusters.  Joining
        // pred cluster pc waits for pc to be free and for the latest
        // arrival from any other cluster.  pc's own preds arrive
        // without comm and never later than cluster_free[pc]: a
        // cluster's free time is the finish of its latest member and
        // only grows.
        int64_t top = 0, second = 0; // 0: no arrival
        int top_cluster = -1;
        for (int p : g.preds(v)) {
            const int pc = c.cluster_of[p];
            const int64_t arrive = finish[p] + comm;
            if (pc == top_cluster) {
                top = std::max(top, arrive);
            } else if (arrive > top) {
                second = top;
                top = arrive;
                top_cluster = pc;
            } else {
                second = std::max(second, arrive);
            }
        }
        // Start time if v opens its own cluster.
        const int64_t t_alone = top;

        int best_cluster = -1;
        int64_t best_t = t_alone;
        for (int p : g.preds(v)) {
            int pc = c.cluster_of[p];
            // Pin compatibility.
            if (nd.pin >= 0 && cluster_pin[pc] >= 0 &&
                cluster_pin[pc] != nd.pin)
                continue;
            const int64_t t = std::max(
                cluster_free[pc], pc == top_cluster ? second : top);
            if (t < best_t) {
                best_t = t;
                best_cluster = pc;
            }
        }

        int cl = best_cluster;
        if (cl < 0) {
            cl = new_cluster(nd.pin); // best_t is t_alone
        } else if (nd.pin >= 0 && cluster_pin[cl] < 0) {
            cluster_pin[cl] = nd.pin;
        }
        c.cluster_of[v] = cl;
        finish[v] = best_t + nd.cost;
        cluster_free[cl] = finish[v];

        for (int s : g.succs(v))
            if (--unvisited_preds[s] == 0)
                ready.push({blevel[s], s});
    }
    check(visited == n, "DSC did not visit all nodes");

    // Compact cluster ids and fill metadata.
    std::vector<int> remap(cluster_pin.size(), -1);
    int next = 0;
    for (int i = 0; i < n; i++) {
        int &cl = c.cluster_of[i];
        if (remap[cl] < 0)
            remap[cl] = next++;
        cl = remap[cl];
    }
    c.n_clusters = next;
    c.pin_of.assign(next, -1);
    c.cost_of.assign(next, 0);
    for (int i = 0; i < n; i++) {
        int cl = c.cluster_of[i];
        if (g.nodes()[i].pin >= 0) {
            check(c.pin_of[cl] < 0 || c.pin_of[cl] == g.nodes()[i].pin,
                  "cluster with conflicting pins");
            c.pin_of[cl] = g.nodes()[i].pin;
        }
        c.cost_of[cl] += g.nodes()[i].cost;
    }
    return c;
}

} // namespace raw
