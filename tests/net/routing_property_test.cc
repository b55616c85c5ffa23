// Property test: on random connected graphs, the installed routes deliver
// every packet along a shortest path (hop count verified against an
// independent BFS).
#include <gtest/gtest.h>

#include <memory>

#include "net/network.h"
#include "random_graph.h"
#include "sim/random.h"

namespace pert::net {
namespace {

class Capture final : public Agent {
 public:
  void receive(PacketPtr p) override {
    ++count;
    last_ttl = p->ttl;
  }
  int count = 0;
  std::int32_t last_ttl = -1;
};

using testutil::RandomGraph;

class RoutingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoutingProperty, DeliversAlongShortestPaths) {
  RandomGraph g(GetParam(), 12, 0.15);
  sim::Rng rng(GetParam() + 99);
  for (int trial = 0; trial < 30; ++trial) {
    const int src = static_cast<int>(rng.uniform_int(0, 11));
    int dst = static_cast<int>(rng.uniform_int(0, 11));
    if (dst == src) dst = (dst + 1) % 12;

    auto* cap = g.net.add_agent<Capture>(g.nodes[dst], 1000 + trial);
    auto p = g.net.make_packet();
    p->dst = g.nodes[dst]->id();
    p->dst_port = 1000 + trial;
    p->ttl = 64;
    g.nodes[src]->send(std::move(p));
    g.net.run_until(g.net.now() + 1.0);

    ASSERT_EQ(cap->count, 1) << "src=" << src << " dst=" << dst;
    // Intermediate forwards = path length - 1; each decrements the TTL.
    const int hops_taken = 64 - cap->last_ttl;
    EXPECT_EQ(hops_taken, g.bfs_dist(src, dst) - 1)
        << "src=" << src << " dst=" << dst;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingProperty,
                         ::testing::Values(1, 7, 23, 77, 1001));

}  // namespace
}  // namespace pert::net
