// White-box tests of SACK loss recovery: exact loss patterns are injected
// with FaultInjectionQueue and the scoreboard/pipe behavior is checked
// against first principles (which sequences get retransmitted, how often,
// and what the receiver ends up with).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "net/fault_queue.h"
#include "net/network.h"
#include "tcp/tcp_sender.h"
#include "tcp/tcp_sink.h"

namespace pert::tcp {
namespace {

struct LossyPath {
  net::Network net{17};
  net::Node* a;
  net::Node* b;
  net::FaultInjectionQueue* fq = nullptr;
  TcpSink* sink = nullptr;
  TcpSender* sender = nullptr;
  std::vector<std::int64_t> sent_log;  ///< every data seq offered to the link

  explicit LossyPath(net::FaultInjectionQueue::DropFn drop) {
    a = net.add_node();
    b = net.add_node();
    auto inner = std::make_unique<net::DropTailQueue>(net.sched(), 1000);
    auto fault = std::make_unique<net::FaultInjectionQueue>(
        net.sched(), std::move(inner), std::move(drop));
    fq = fault.get();
    net.add_link(a, b, 10e6, 0.01, std::move(fault));
    net.add_link(b, a, 10e6, 0.01,
                 std::make_unique<net::DropTailQueue>(net.sched(), 10000));
    net.compute_routes();
    sink = net.add_agent<TcpSink>(b, 1, net);
    sender = net.add_agent<TcpSender>(a, 1, net, TcpConfig{}, 0);
    sender->connect(b->id(), 1);
  }
};

/// Drops the *first* transmission of each listed sequence number.
net::FaultInjectionQueue::DropFn drop_first_tx(std::set<std::int64_t> seqs) {
  auto remaining = std::make_shared<std::set<std::int64_t>>(std::move(seqs));
  return [remaining](const net::Packet& p) {
    if (p.is_ack) return false;
    auto it = remaining->find(p.seq);
    if (it == remaining->end()) return false;
    remaining->erase(it);
    return true;
  };
}

TEST(RecoveryWhitebox, SingleLossSingleRetransmission) {
  LossyPath p(drop_first_tx({20}));
  bool done = false;
  p.sender->on_transfer_complete = [&] { done = true; };
  p.sender->start_transfer(100);
  p.net.run_until(10.0);
  ASSERT_TRUE(done);
  EXPECT_EQ(p.sink->rcv_next(), 100);
  EXPECT_EQ(p.sender->flow_stats().rexmits, 1);
  EXPECT_EQ(p.sender->flow_stats().loss_events, 1);
  EXPECT_EQ(p.sender->flow_stats().timeouts, 0);
  // 100 originals + 1 retransmission offered to the link.
  EXPECT_EQ(p.sender->flow_stats().data_pkts_sent, 101);
}

TEST(RecoveryWhitebox, ScatteredLossesRetransmittedExactlyOnce) {
  LossyPath p(drop_first_tx({10, 14, 22, 23, 40}));
  bool done = false;
  p.sender->on_transfer_complete = [&] { done = true; };
  p.sender->start_transfer(200);
  p.net.run_until(20.0);
  ASSERT_TRUE(done);
  EXPECT_EQ(p.sink->rcv_next(), 200);
  EXPECT_EQ(p.sender->flow_stats().rexmits, 5);
  EXPECT_EQ(p.sender->flow_stats().timeouts, 0);
}

TEST(RecoveryWhitebox, BurstLossRecoversWithoutTimeout) {
  // A contiguous burst of 10 lost packets inside one window.
  std::set<std::int64_t> burst;
  for (std::int64_t s = 30; s < 40; ++s) burst.insert(s);
  LossyPath p(drop_first_tx(burst));
  bool done = false;
  p.sender->on_transfer_complete = [&] { done = true; };
  p.sender->start_transfer(200);
  p.net.run_until(20.0);
  ASSERT_TRUE(done);
  EXPECT_EQ(p.sender->flow_stats().rexmits, 10);
  EXPECT_EQ(p.sender->flow_stats().timeouts, 0);  // SACK handles the burst
  EXPECT_EQ(p.sender->flow_stats().loss_events, 1);  // one recovery episode
}

TEST(RecoveryWhitebox, LossOfRetransmissionNeedsRto) {
  // Drop seq 20 twice: fast retransmit's copy dies too; only the RTO can
  // repair it (our scoreboard never re-fast-retransmits a kRexmit packet).
  auto count = std::make_shared<int>(0);
  LossyPath p([count](const net::Packet& pk) {
    if (pk.is_ack || pk.seq != 20) return false;
    return ++*count <= 2;
  });
  bool done = false;
  p.sender->on_transfer_complete = [&] { done = true; };
  p.sender->start_transfer(100);
  p.net.run_until(30.0);
  ASSERT_TRUE(done);
  EXPECT_EQ(p.sink->rcv_next(), 100);
  EXPECT_GE(p.sender->flow_stats().timeouts, 1);
}

TEST(RecoveryWhitebox, LostAcksAreHarmlessWithCumulativeAcking) {
  // Drop every third ACK on the reverse path: cumulative acking masks the
  // gaps; delivery completes without duplicates at the receiver.
  net::Network net(18);
  auto* a = net.add_node();
  auto* b = net.add_node();
  net.add_link(a, b, 10e6, 0.01,
               std::make_unique<net::DropTailQueue>(net.sched(), 1000));
  auto inner = std::make_unique<net::DropTailQueue>(net.sched(), 10000);
  auto cnt = std::make_shared<int>(0);
  auto fault = std::make_unique<net::FaultInjectionQueue>(
      net.sched(), std::move(inner), [cnt](const net::Packet& pk) {
        return pk.is_ack && (++*cnt % 3) == 0;
      });
  net.add_link(b, a, 10e6, 0.01, std::move(fault));
  net.compute_routes();
  TcpConfig cfg;
  auto* sink = net.add_agent<TcpSink>(b, 1, net);
  auto* sender = net.add_agent<TcpSender>(a, 1, net, cfg, 0);
  sender->connect(b->id(), 1);
  bool done = false;
  sender->on_transfer_complete = [&] { done = true; };
  sender->start_transfer(500);
  net.run_until(30.0);
  ASSERT_TRUE(done);
  EXPECT_EQ(sink->total_rx_pkts(), 500);  // no duplicates at the receiver
}

class RandomLossReliability : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RandomLossReliability, AllDataDeliveredUnderRandomLoss) {
  // Property: whatever the (data-packet) loss pattern, a finite transfer
  // completes, the receiver holds exactly the transfer, and snd_una is
  // monotone (checked implicitly by completion).
  auto rng = std::make_shared<sim::Rng>(GetParam());
  LossyPath p([rng](const net::Packet& pk) {
    return !pk.is_ack && rng->bernoulli(0.05);  // 5% data loss
  });
  bool done = false;
  p.sender->on_transfer_complete = [&] { done = true; };
  p.sender->start_transfer(1000);
  p.net.run_until(120.0);
  ASSERT_TRUE(done) << "transfer stalled under seed " << GetParam();
  EXPECT_EQ(p.sink->rcv_next(), 1000);
  EXPECT_EQ(p.sender->snd_una(), 1000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLossReliability,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(RecoveryWhitebox, HeavyLossStillReliable) {
  auto rng = std::make_shared<sim::Rng>(99);
  LossyPath p([rng](const net::Packet& pk) {
    return !pk.is_ack && rng->bernoulli(0.25);  // brutal 25% loss
  });
  bool done = false;
  p.sender->on_transfer_complete = [&] { done = true; };
  p.sender->start_transfer(300);
  p.net.run_until(300.0);
  ASSERT_TRUE(done);
  EXPECT_EQ(p.sink->rcv_next(), 300);
}

}  // namespace
}  // namespace pert::tcp
