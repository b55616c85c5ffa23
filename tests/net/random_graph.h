// Random connected graphs for the routing tests: a random spanning tree
// plus random extra duplex links, with routes computed.
#pragma once

#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

#include "net/network.h"
#include "sim/random.h"

namespace pert::net::testutil {

struct RandomGraph {
  Network net;
  std::vector<Node*> nodes;
  std::vector<std::vector<int>> adj;

  RandomGraph(std::uint64_t seed, int n, double extra_edge_prob)
      : net(seed) {
    sim::Rng rng(seed * 1234567 + 1);
    adj.assign(n, {});
    for (int i = 0; i < n; ++i) nodes.push_back(net.add_node());
    // Random spanning tree first (guarantees connectivity)...
    for (int i = 1; i < n; ++i) {
      const int j = static_cast<int>(rng.uniform_int(0, i - 1));
      link(i, j);
    }
    // ...plus random extra edges.
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j)
        if (!connected(i, j) && rng.bernoulli(extra_edge_prob)) link(i, j);
    net.compute_routes();
  }

  void link(int i, int j) {
    net.add_duplex_droptail(nodes[i], nodes[j], 1e9, 1e-4, 100);
    adj[i].push_back(j);
    adj[j].push_back(i);
  }

  bool connected(int i, int j) const {
    for (int k : adj[i])
      if (k == j) return true;
    return false;
  }

  int bfs_dist(int from, int to) const {
    std::vector<int> dist(adj.size(), std::numeric_limits<int>::max());
    std::queue<int> q;
    dist[from] = 0;
    q.push(from);
    while (!q.empty()) {
      const int u = q.front();
      q.pop();
      for (int v : adj[u])
        if (dist[v] == std::numeric_limits<int>::max()) {
          dist[v] = dist[u] + 1;
          q.push(v);
        }
    }
    return dist[to];
  }
};

}  // namespace pert::net::testutil
