#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/network.h"
#include "tcp/tcp_sink.h"

namespace pert::tcp {
namespace {

/// Captures ACKs the sink sends back.
class AckCapture final : public net::Agent {
 public:
  void receive(net::PacketPtr p) override { acks.push_back(*p); }
  std::vector<net::Packet> acks;
};

struct SinkHarness {
  net::Network net{2};
  net::Node* sender_node;
  net::Node* sink_node;
  AckCapture* cap;
  TcpSink* sink;

  SinkHarness() {
    sender_node = net.add_node();
    sink_node = net.add_node();
    net.add_duplex_droptail(sender_node, sink_node, 1e9, 0.001, 1000);
    net.compute_routes();
    cap = net.add_agent<AckCapture>(sender_node, 7);
    sink = net.add_agent<TcpSink>(sink_node, 9, net);
  }

  void deliver(std::int64_t seq, net::Ecn ecn = net::Ecn::NotEct,
               bool cwr = false) {
    auto p = net.make_packet();
    p->flow = 1;
    p->src = sender_node->id();
    p->src_port = 7;
    p->dst = sink_node->id();
    p->dst_port = 9;
    p->seq = seq;
    p->ecn = ecn;
    p->cwr = cwr;
    p->ts_echo = net.now();
    sink_node->receive(std::move(p));
    net.run_until(net.now() + 0.01);  // let the ack propagate back
  }
};

TEST(Sink, CumulativeAckAdvances) {
  SinkHarness h;
  h.deliver(0);
  h.deliver(1);
  h.deliver(2);
  ASSERT_EQ(h.cap->acks.size(), 3u);
  EXPECT_EQ(h.cap->acks[0].ack, 1);
  EXPECT_EQ(h.cap->acks[1].ack, 2);
  EXPECT_EQ(h.cap->acks[2].ack, 3);
  EXPECT_TRUE(h.cap->acks[0].is_ack);
}

TEST(Sink, OutOfOrderGeneratesDupacksWithSack) {
  SinkHarness h;
  h.deliver(0);
  h.deliver(2);  // hole at 1
  h.deliver(3);
  ASSERT_EQ(h.cap->acks.size(), 3u);
  EXPECT_EQ(h.cap->acks[1].ack, 1);  // dupack
  EXPECT_EQ(h.cap->acks[2].ack, 1);
  ASSERT_GE(h.cap->acks[2].n_sack, 1);
  EXPECT_EQ(h.cap->acks[2].sack[0].start, 2);
  EXPECT_EQ(h.cap->acks[2].sack[0].end, 4);
}

TEST(Sink, HoleFillJumpsCumAck) {
  SinkHarness h;
  h.deliver(0);
  h.deliver(2);
  h.deliver(3);
  h.deliver(1);  // fills the hole
  EXPECT_EQ(h.cap->acks.back().ack, 4);
  EXPECT_EQ(h.sink->rcv_next(), 4);
}

TEST(Sink, MultipleSackBlocksReported) {
  SinkHarness h;
  h.deliver(0);
  h.deliver(2);  // block [2,3)
  h.deliver(4);  // block [4,5)
  h.deliver(6);  // block [6,7)
  const auto& last = h.cap->acks.back();
  EXPECT_EQ(last.ack, 1);
  EXPECT_EQ(last.n_sack, 3);
  // Most recent block first.
  EXPECT_EQ(last.sack[0].start, 6);
}

TEST(Sink, AdjacentBlocksMerge) {
  SinkHarness h;
  h.deliver(0);
  h.deliver(2);
  h.deliver(3);
  h.deliver(4);
  const auto& last = h.cap->acks.back();
  ASSERT_GE(last.n_sack, 1);
  EXPECT_EQ(last.sack[0].start, 2);
  EXPECT_EQ(last.sack[0].end, 5);
}

TEST(Sink, DuplicateDataIgnoredInCounting) {
  SinkHarness h;
  h.deliver(0);
  h.deliver(0);  // duplicate
  EXPECT_EQ(h.sink->rcv_next(), 1);
  EXPECT_EQ(h.cap->acks.back().ack, 1);
  EXPECT_EQ(h.sink->total_rx_pkts(), 2);  // counted as received bytes though
}

TEST(Sink, EceEchoedUntilCwr) {
  SinkHarness h;
  h.deliver(0, net::Ecn::Ce);  // congestion experienced
  h.deliver(1, net::Ecn::Ect0);
  h.deliver(2, net::Ecn::Ect0);
  EXPECT_TRUE(h.cap->acks[0].ece);
  EXPECT_TRUE(h.cap->acks[1].ece);  // still echoing
  EXPECT_TRUE(h.cap->acks[2].ece);
  h.deliver(3, net::Ecn::Ect0, /*cwr=*/true);  // sender reduced
  EXPECT_FALSE(h.cap->acks[3].ece);
  h.deliver(4, net::Ecn::Ect0);
  EXPECT_FALSE(h.cap->acks[4].ece);
}

TEST(Sink, CeWithCwrReArmsEcho) {
  SinkHarness h;
  h.deliver(0, net::Ecn::Ce);
  h.deliver(1, net::Ecn::Ce, /*cwr=*/true);  // reduce + new congestion
  EXPECT_TRUE(h.cap->acks[1].ece);
}

TEST(Sink, TimestampEchoedBack) {
  SinkHarness h;
  h.net.run_until(1.25);
  h.deliver(0);
  EXPECT_DOUBLE_EQ(h.cap->acks[0].ts_echo, 1.25);
}

TEST(Sink, CeCountsTracked) {
  SinkHarness h;
  h.deliver(0, net::Ecn::Ce);
  h.deliver(1, net::Ecn::Ect0);
  h.deliver(2, net::Ecn::Ce);
  EXPECT_EQ(h.sink->ce_marks_seen(), 2u);
}

TEST(Sink, IgnoresAcks) {
  SinkHarness h;
  auto p = h.net.make_packet();
  p->is_ack = true;
  p->dst = h.sink_node->id();
  p->dst_port = 9;
  h.sink_node->receive(std::move(p));
  EXPECT_EQ(h.sink->total_rx_pkts(), 0);
  EXPECT_TRUE(h.cap->acks.empty());
}

}  // namespace
}  // namespace pert::tcp
