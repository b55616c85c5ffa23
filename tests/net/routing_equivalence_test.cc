// Routing equivalence: for every (node, destination) pair, compute_routes
// installs exactly the next hop of a BFS over reversed links toward every
// destination, the all-pairs computation it replaced. The experiment
// topologies, random graphs with equal-length ties, and networks that are
// not strongly connected (where the answer is often nullptr) are checked
// pair by pair.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <queue>
#include <vector>

#include "exp/dumbbell.h"
#include "exp/multi_bottleneck.h"
#include "net/network.h"
#include "random_graph.h"

namespace pert::net {
namespace {

/// next[v][dst]: v's next hop toward dst, found by a BFS over reversed links
/// from every destination that records the link which first discovers v.
std::vector<std::vector<Link*>> all_pairs_next_hops(const Network& net) {
  const std::size_t n = net.num_nodes();
  std::vector<std::vector<std::pair<NodeId, Link*>>> radj(n);
  for (const Network::Edge& e : net.edges())
    radj[static_cast<std::size_t>(e.to)].emplace_back(e.from, e.link);

  std::vector<std::vector<Link*>> next(n, std::vector<Link*>(n, nullptr));
  for (std::size_t dst = 0; dst < n; ++dst) {
    std::vector<std::int32_t> dist(n, std::numeric_limits<std::int32_t>::max());
    std::queue<NodeId> bfs;
    dist[dst] = 0;
    bfs.push(static_cast<NodeId>(dst));
    while (!bfs.empty()) {
      const NodeId u = bfs.front();
      bfs.pop();
      for (auto [v, link] : radj[static_cast<std::size_t>(u)]) {
        auto& dv = dist[static_cast<std::size_t>(v)];
        if (dv == std::numeric_limits<std::int32_t>::max()) {
          dv = dist[static_cast<std::size_t>(u)] + 1;
          next[static_cast<std::size_t>(v)][dst] = link;
          bfs.push(v);
        }
      }
    }
  }
  return next;
}

/// Compares route(dst) with the reference for every pair (route(self)
/// included: the reference never sets it) and returns the mismatch count.
std::size_t route_mismatches(const Network& net) {
  const auto want = all_pairs_next_hops(net);
  std::size_t bad = 0;
  for (std::size_t v = 0; v < want.size(); ++v)
    for (std::size_t d = 0; d < want.size(); ++d) {
      const Link* got = net.node(static_cast<NodeId>(v))->route(
          static_cast<NodeId>(d));
      if (got == want[v][d]) continue;
      if (++bad <= 5)
        ADD_FAILURE() << "node " << v << " -> dst " << d << ": route "
                      << got << ", reference " << want[v][d];
    }
  return bad;
}

TEST(RoutingEquivalence, DumbbellWithReverseAndWebFlowsThenAddFlows) {
  exp::DumbbellConfig cfg;
  cfg.num_fwd_flows = 6;
  cfg.num_rev_flows = 3;
  cfg.num_web_sessions = 4;
  exp::Dumbbell d(cfg);
  EXPECT_EQ(route_mismatches(d.network()), 0u);
  d.add_flows(3, 1.0);
  EXPECT_EQ(route_mismatches(d.network()), 0u);
}

TEST(RoutingEquivalence, ShardedDumbbell) {
  exp::DumbbellConfig cfg;
  cfg.num_fwd_flows = 5;
  cfg.num_rev_flows = 2;
  cfg.sim_threads = 2;
  exp::Dumbbell d(cfg);
  ASSERT_GT(d.network().num_shards(), 1);
  EXPECT_EQ(route_mismatches(d.network()), 0u);
}

TEST(RoutingEquivalence, MultiBottleneckChain) {
  exp::MultiBottleneckConfig cfg;
  cfg.num_routers = 5;
  cfg.hosts_per_cloud = 3;
  exp::MultiBottleneck m(cfg);
  EXPECT_EQ(route_mismatches(m.network()), 0u);
}

class RoutingEquivalenceRandom
    : public ::testing::TestWithParam<std::uint64_t> {};

// The routing_property_test graphs, plus sparser and denser ones: their
// spanning-tree leaves take the uplink path, and their extra links create
// equal-length paths whose tie-break a hop-count check cannot see.
TEST_P(RoutingEquivalenceRandom, MatchesAllPairsBfs) {
  EXPECT_EQ(route_mismatches(testutil::RandomGraph(GetParam(), 12, 0.15).net),
            0u);
  EXPECT_EQ(route_mismatches(testutil::RandomGraph(GetParam(), 40, 0.03).net),
            0u);
  EXPECT_EQ(route_mismatches(testutil::RandomGraph(GetParam(), 24, 0.4).net),
            0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingEquivalenceRandom,
                         ::testing::Values(1, 7, 23, 77, 1001));

TEST(RoutingEquivalence, TwoComponentsRouteOnlyWithinEach) {
  Network net;
  std::vector<Node*> n;
  for (int i = 0; i < 5; ++i) n.push_back(net.add_node());
  net.add_duplex_droptail(n[0], n[1], 1e9, 1e-4, 10);  // 0 - 1 - 2
  net.add_duplex_droptail(n[1], n[2], 1e9, 1e-4, 10);
  net.add_duplex_droptail(n[3], n[4], 1e9, 1e-4, 10);  // 3 - 4
  net.compute_routes();
  EXPECT_EQ(route_mismatches(net), 0u);
  EXPECT_NE(n[0]->route(n[2]->id()), nullptr);
  EXPECT_EQ(n[0]->route(n[3]->id()), nullptr);
  EXPECT_EQ(n[4]->route(n[1]->id()), nullptr);
}

TEST(RoutingEquivalence, IsolatedNodeIsUnreachableBothWays) {
  Network net;
  Node* hub = net.add_node();
  std::vector<Node*> hosts;
  for (int i = 0; i < 3; ++i) {
    hosts.push_back(net.add_node());
    net.add_duplex_droptail(hosts.back(), hub, 1e9, 1e-4, 10);
  }
  Node* alone = net.add_node();
  net.compute_routes();
  EXPECT_EQ(route_mismatches(net), 0u);
  EXPECT_NE(hosts[0]->route(hosts[1]->id()), nullptr);
  for (Node* h : hosts) {
    EXPECT_EQ(h->route(alone->id()), nullptr);
    EXPECT_EQ(alone->route(h->id()), nullptr);
  }
}

TEST(RoutingEquivalence, OneWayLinkLeavesNoReturnPath) {
  // 0 <-> 1 -> 2: node 2 is reachable but reaches nobody.
  Network net;
  Node* a = net.add_node();
  Node* b = net.add_node();
  Node* c = net.add_node();
  net.add_duplex_droptail(a, b, 1e9, 1e-4, 10);
  net.add_link(b, c, 1e9, 1e-4,
               std::make_unique<DropTailQueue>(net.sched(), 10));
  net.compute_routes();
  EXPECT_EQ(route_mismatches(net), 0u);
  EXPECT_NE(a->route(c->id()), nullptr);
  EXPECT_EQ(c->route(a->id()), nullptr);
}

TEST(RoutingEquivalence, RouteToSelfAndToUnknownIdsIsNull) {
  Network net;
  Node* a = net.add_node();
  Node* b = net.add_node();
  Node* c = net.add_node();
  net.add_duplex_droptail(a, b, 1e9, 1e-4, 10);  // a and c are leaves
  net.add_duplex_droptail(b, c, 1e9, 1e-4, 10);
  net.compute_routes();
  for (Node* x : {a, b, c}) {
    EXPECT_EQ(x->route(x->id()), nullptr);
    EXPECT_EQ(x->route(3), nullptr);
    EXPECT_EQ(x->route(kNoNode), nullptr);
  }
}

TEST(Node, SetRouteOnALeafBlackHolesOnlyThatDestination) {
  Network net;
  Node* hub = net.add_node();
  std::vector<Node*> hosts;
  for (int i = 0; i < 4; ++i) {
    hosts.push_back(net.add_node());
    net.add_duplex_droptail(hosts.back(), hub, 1e9, 1e-4, 10);
  }
  net.compute_routes();
  Node* leaf = hosts[0];
  Link* saved = leaf->route(hosts[2]->id());
  ASSERT_NE(saved, nullptr);

  leaf->set_route(hosts[2]->id(), nullptr);
  EXPECT_EQ(leaf->route(hosts[2]->id()), nullptr);
  EXPECT_EQ(leaf->route(leaf->id()), nullptr);
  for (Node* other : {hub, hosts[1], hosts[3]})
    EXPECT_EQ(leaf->route(other->id()), saved) << other->id();
  auto p = net.make_packet();
  p->dst = hosts[2]->id();
  leaf->send(std::move(p));
  EXPECT_EQ(leaf->routing_drops(), 1u);

  leaf->set_route(hosts[2]->id(), saved);
  EXPECT_EQ(route_mismatches(net), 0u);
}

TEST(Node, SetRouteWithoutComputedRoutesAddsOneEntry) {
  Network net;
  Node* a = net.add_node();
  Node* b = net.add_node();
  Link* l = net.add_link(a, b, 1e9, 1e-4,
                         std::make_unique<DropTailQueue>(net.sched(), 10));
  a->set_route(7, l);
  EXPECT_EQ(a->route(7), l);
  EXPECT_EQ(a->route(b->id()), nullptr);
  EXPECT_EQ(a->route(8), nullptr);
  a->set_route(7, nullptr);
  EXPECT_EQ(a->route(7), nullptr);
}

}  // namespace
}  // namespace pert::net
