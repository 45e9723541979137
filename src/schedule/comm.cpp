#include "schedule/comm.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "support/error.hpp"

namespace raw {

RouteTree
build_route_tree(const MachineConfig &m, const CommPath &path)
{
    RouteTree tree;
    std::map<int, int> hop_of_tile; // tile -> index in tree.hops

    auto ensure_hop = [&](int tile, Dir in, int depth) -> TreeHop & {
        auto it = hop_of_tile.find(tile);
        if (it == hop_of_tile.end()) {
            TreeHop h;
            h.tile = tile;
            h.in = in;
            h.depth = depth;
            tree.hops.push_back(h);
            hop_of_tile[tile] = static_cast<int>(tree.hops.size()) - 1;
            tree.max_depth = std::max(tree.max_depth, depth);
            return tree.hops.back();
        }
        TreeHop &h = tree.hops[it->second];
        check(h.in == in && h.depth == depth,
              "route tree: inconsistent prefix");
        return h;
    };

    for (const CommDest &d : path.dests) {
        int cur = path.src_tile;
        Dir in = Dir::kProc;
        int depth = 0;
        while (cur != d.tile) {
            Dir dir = m.next_hop(cur, d.tile);
            TreeHop &h = ensure_hop(cur, in, depth);
            h.out_mask |= static_cast<uint8_t>(1u << static_cast<int>(
                                                   dir));
            int next = m.neighbor(cur, dir);
            check(next >= 0, "route tree: fell off the mesh");
            in = opposite(dir);
            cur = next;
            depth++;
        }
        TreeHop &h = ensure_hop(cur, in, depth);
        if (d.to_proc) {
            h.out_mask |= static_cast<uint8_t>(
                1u << static_cast<int>(Dir::kProc));
            tree.proc_recvs.push_back({cur, depth});
        }
        if (d.to_sw_reg)
            h.to_reg = true;
    }
    return tree;
}

std::vector<CommPath>
build_comm_paths(const TaskGraph &g, const Partition &part,
                 const MachineConfig &m, int broadcast_cond_node,
                 const std::vector<bool> &sw_targets)
{
    std::vector<CommPath> paths;
    const int nn = static_cast<int>(g.nodes().size());

    for (int p = 0; p < nn; p++) {
        std::set<int> dest_tiles;
        for (int e : g.out_edges(p)) {
            const TGEdge &edge = g.edges()[e];
            if (edge.kind == DepKind::kAnti)
                continue;
            int dt = part.tile_of[edge.to];
            if (dt != part.tile_of[p])
                dest_tiles.insert(dt);
        }
        if (dest_tiles.empty())
            continue;
        CommPath path;
        path.src_node = p;
        path.src_tile = part.tile_of[p];
        path.value = g.nodes()[p].produces;
        for (int t : dest_tiles)
            path.dests.push_back({t, true, false});
        paths.push_back(std::move(path));
    }

    if (broadcast_cond_node >= 0) {
        CommPath bc;
        bc.src_node = broadcast_cond_node;
        bc.src_tile = part.tile_of[broadcast_cond_node];
        bc.value = g.nodes()[broadcast_cond_node].produces;
        bc.broadcast = true;
        for (int t = 0; t < m.n_tiles; t++) {
            bool proc = t != bc.src_tile;
            bool sw = sw_targets.empty() ||
                      (t < static_cast<int>(sw_targets.size()) &&
                       sw_targets[t]);
            if (proc || sw)
                bc.dests.push_back({t, proc, sw});
        }
        if (!bc.dests.empty())
            paths.push_back(std::move(bc));
    }
    return paths;
}

} // namespace raw
