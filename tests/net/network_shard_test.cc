// Network's shard list, tested directly: set_shards, ShardCursor,
// finalize_shards and the engine-backed run_until, without a scenario
// builder in between.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/network.h"
#include "sim/errors.h"
#include "sim/timer.h"

namespace pert::net {
namespace {

/// Records each arriving packet's time and uid, and echoes it back to its
/// source when `echo` is set.
class Recorder final : public Agent {
 public:
  Recorder(Network& net, bool echo) : net_(&net), echo_(echo) {}
  void receive(PacketPtr p) override {
    got.emplace_back(net_->now(), p->uid);
    if (!echo_) return;
    auto back = net_->make_packet();
    back->dst = p->src;
    back->dst_port = p->src_port;
    back->src_port = port();
    back->size_bytes = 500;
    node()->send(std::move(back));
  }
  std::vector<std::pair<sim::Time, std::uint64_t>> got;

 private:
  Network* net_;
  bool echo_;
};

/// Sends one packet to dst:port every millisecond from its own timer.
class Pinger {
 public:
  Pinger(Network& net, Node& from, NodeId dst)
      : net_(&net), from_(&from), dst_(dst),
        timer_(net.sched(), [this] { tick(); }) {
    timer_.schedule_at(0.0);
  }

 private:
  void tick() {
    auto p = net_->make_packet();
    p->dst = dst_;
    p->dst_port = 1;
    p->src_port = 1;
    p->size_bytes = 500;
    from_->send(std::move(p));
    timer_.schedule_in(0.001);
  }
  Network* net_;
  Node* from_;
  NodeId dst_;
  sim::Timer timer_;
};

struct TwoShardRun {
  std::vector<std::pair<sim::Time, std::uint64_t>> at_a, at_b;
};

/// Node a on shard 0 pings node b on shard 1, which echoes every packet;
/// both directions cross the shard boundary over 5 ms links.
TwoShardRun run_two_shards(int threads) {
  Network net(7);
  net.set_shards(2);
  net.set_sim_threads(threads);
  Node* a = net.add_node();
  Node* b;
  {
    Network::ShardCursor at_b(net, 1);
    b = net.add_node();
  }
  net.add_duplex_droptail(a, b, 10e6, 0.005, 100);
  net.compute_routes();
  auto* rec_a = net.add_agent<Recorder>(a, 1, net, /*echo=*/false);
  Recorder* rec_b;
  {
    Network::ShardCursor at_b(net, 1);
    rec_b = net.add_agent<Recorder>(b, 1, net, /*echo=*/true);
  }
  Pinger ping(net, *a, b->id());
  net.finalize_shards();
  net.run_until(0.05);
  net.run_until(0.1);
  return {rec_a->got, rec_b->got};
}

TEST(NetworkShards, SetShardsAfterANodeExistsThrows) {
  Network net;
  net.add_node();
  EXPECT_THROW(net.set_shards(2), sim::ConfigError);
}

TEST(NetworkShards, ZeroDelayCrossShardLinkIsRejected) {
  Network net;
  net.set_shards(2);
  Node* a = net.add_node();
  Node* b;
  {
    Network::ShardCursor at_b(net, 1);
    b = net.add_node();
  }
  net.add_link(a, b, 10e6, 0.0,
               std::make_unique<DropTailQueue>(net.sched(), 10));
  EXPECT_THROW(net.finalize_shards(), sim::ConfigError);
}

TEST(NetworkShards, TwoShardsDeliverTheSameAtOneAndTwoThreads) {
  const TwoShardRun one = run_two_shards(1);
  const TwoShardRun two = run_two_shards(2);
  // A packet takes 0.4 ms to serialize and 5 ms to propagate, so the pings
  // sent at 0..94 ms reach b by 100 ms and their echoes from 0..89 ms get
  // back to a.
  ASSERT_EQ(one.at_b.size(), 95u);
  ASSERT_EQ(one.at_a.size(), 90u);
  EXPECT_EQ(one.at_a, two.at_a);
  EXPECT_EQ(one.at_b, two.at_b);
  // Each direction's packets carry the sending shard's index.
  EXPECT_EQ(one.at_b.front().second >> 56, 0u);
  EXPECT_EQ(one.at_a.front().second >> 56, 1u);
}

TEST(NetworkShards, OneShardCountsUidsAndRunsWithoutFinalize) {
  Network net;
  ASSERT_EQ(net.num_shards(), 1);
  EXPECT_EQ(net.make_packet()->uid, 1u);
  EXPECT_EQ(net.make_packet()->uid, 2u);
  sim::Scheduler* sched = &net.sched();
  {
    Network::ShardCursor at0(net, 0);
    EXPECT_EQ(&net.sched(), sched);
    EXPECT_EQ(net.make_packet()->uid, 3u);
  }
  EXPECT_EQ(&net.sched(), sched);
  EXPECT_EQ(net.make_packet()->uid, 4u);

  bool ran = false;
  net.sched().schedule_at(0.5, [&ran] { ran = true; });
  net.run_until(1.0);
  EXPECT_TRUE(ran);
  EXPECT_EQ(net.now(), 1.0);
  EXPECT_EQ(net.total_dispatched(), 1u);
}

TEST(NetworkShards, UidTopByteIsTheShardIndex) {
  Network net;
  net.set_shards(3);
  for (int s = 0; s < 3; ++s) {
    Network::ShardCursor at(net, s);
    EXPECT_EQ(net.make_packet()->uid,
              (static_cast<std::uint64_t>(s) << 56) | 1u);
  }
}

TEST(NetworkShards, ThrowingShardLeavesNoCursorBehind) {
  {
    Network net;
    net.set_shards(2);
    Node* a = net.add_node();
    Node* b;
    {
      Network::ShardCursor at_b(net, 1);
      b = net.add_node();
      net.sched().schedule_at(0.01, [] { throw std::runtime_error("boom"); });
    }
    net.add_duplex_droptail(a, b, 10e6, 0.005, 10);
    net.finalize_shards();
    EXPECT_THROW(net.run_until(1.0), std::runtime_error);
  }
  // The engine ran both shards on this thread. A fresh network built here
  // must start on shard 0, as if the failed run had never happened.
  Network fresh;
  fresh.set_shards(2);
  const Node* n = fresh.add_node();
  EXPECT_EQ(fresh.node_shard(n), 0);
  EXPECT_EQ(fresh.make_packet()->uid, 1u);
}

}  // namespace
}  // namespace pert::net
