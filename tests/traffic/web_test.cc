#include "traffic/web_session.h"

#include <gtest/gtest.h>

#include <memory>

#include "net/network.h"
#include "tcp/tcp_sink.h"

namespace pert::traffic {
namespace {

struct WebHarness {
  net::Network net{31};
  net::Node* a;
  net::Node* b;
  tcp::TcpSender* sender;

  WebHarness() {
    a = net.add_node();
    b = net.add_node();
    net.add_duplex_droptail(a, b, 100e6, 0.005, 10000);
    net.compute_routes();
    tcp::TcpConfig cfg;
    net.add_agent<tcp::TcpSink>(b, 3, net);
    sender = net.add_agent<tcp::TcpSender>(a, 3, net, cfg, 0);
    sender->connect(b->id(), 3);
  }
};

TEST(WebSession, GeneratesPagesAndObjects) {
  WebHarness h;
  WebParams wp;
  wp.think_mean = 0.2;
  WebSession session(h.net.sched(), *h.sender, wp, sim::Rng(5), 0.0);
  h.net.run_until(60.0);
  EXPECT_GT(session.pages_completed(), 10);
  EXPECT_GE(session.objects_completed(), session.pages_completed());
}

TEST(WebSession, TrafficActuallyFlows) {
  WebHarness h;
  WebParams wp;
  wp.think_mean = 0.2;
  WebSession session(h.net.sched(), *h.sender, wp, sim::Rng(6), 0.0);
  h.net.run_until(30.0);
  EXPECT_GT(h.sender->acked_bytes(), 100000);
  // We may catch the session mid-transfer; outstanding stays window-bounded.
  EXPECT_LE(h.sender->next_seq() - h.sender->snd_una(),
            static_cast<std::int64_t>(h.sender->cwnd()) + 1);
}

TEST(WebSession, RespectsStartTime) {
  WebHarness h;
  WebParams wp;
  WebSession session(h.net.sched(), *h.sender, wp, sim::Rng(7), 10.0);
  h.net.run_until(9.9);
  EXPECT_EQ(h.sender->next_seq(), 0);
  h.net.run_until(20.0);
  EXPECT_GT(h.sender->next_seq(), 0);
}

TEST(WebSession, DeterministicForSeed) {
  std::int64_t objects[2];
  for (int i = 0; i < 2; ++i) {
    WebHarness h;
    WebParams wp;
    wp.think_mean = 0.3;
    WebSession session(h.net.sched(), *h.sender, wp, sim::Rng(42), 0.0);
    h.net.run_until(30.0);
    objects[i] = session.objects_completed();
  }
  EXPECT_EQ(objects[0], objects[1]);
}

TEST(WebSession, ThinkTimeGapsExist) {
  // With a large think mean the link is mostly idle: goodput far below rate.
  WebHarness h;
  WebParams wp;
  wp.think_mean = 5.0;
  WebSession session(h.net.sched(), *h.sender, wp, sim::Rng(8), 0.0);
  h.net.run_until(60.0);
  const double goodput = static_cast<double>(h.sender->acked_bytes()) * 8 / 60;
  EXPECT_LT(goodput, 10e6);  // 100 Mbps link mostly unused
}

TEST(WebSession, ObjectSizesBounded) {
  // Bounded Pareto object sizes: every transfer between the configured
  // min and cap (in packets).
  WebHarness h;
  WebParams wp;
  wp.think_mean = 0.05;
  wp.size_min = 3000;
  wp.size_cap = 50000;
  std::int64_t last_limit = 0;
  WebSession session(h.net.sched(), *h.sender, wp, sim::Rng(9), 0.0);
  h.net.run_until(30.0);
  // All data fit in [min/seg, cap/seg] sized chunks; total sanity:
  EXPECT_GT(session.objects_completed(), 0);
  EXPECT_GE(h.sender->next_seq(),
            session.objects_completed() * (3000 / 1000));
  EXPECT_LE(h.sender->next_seq(),
            session.objects_completed() * (50000 / 1000 + 1));
  (void)last_limit;
}

}  // namespace
}  // namespace pert::traffic
