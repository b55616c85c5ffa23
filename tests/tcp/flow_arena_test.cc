// Struct-of-arrays flow state: arena-backed senders must behave exactly like
// inline senders (the arena only moves where the doubles live), and a full
// arena must degrade to inline storage, never fail.
#include "tcp/flow_arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "exp/scheme.h"
#include "net/network.h"
#include "tcp/cc_registry.h"
#include "tcp/tcp_sender.h"
#include "tcp/tcp_sink.h"
#include "tcp_test_util.h"

namespace pert::tcp {
namespace {

TEST(FlowArena, AcquireHandsOutSlotsThenFails) {
  FlowArena a(3);
  EXPECT_EQ(a.capacity(), 3);
  EXPECT_EQ(a.acquire(), 0);
  EXPECT_EQ(a.acquire(), 1);
  EXPECT_EQ(a.acquire(), 2);
  EXPECT_EQ(a.acquire(), -1);  // full: callers fall back to inline storage
  EXPECT_EQ(a.size(), 3);
}

TEST(FlowArena, SenderStateLivesInTheArenaLane) {
  net::Network net(1);
  FlowArena arena(4);
  TcpConfig cfg;
  cfg.arena = &arena;
  TcpSender s(net, cfg, /*flow=*/0);
  ASSERT_EQ(arena.size(), 1);
  EXPECT_EQ(arena.cwnd(0), cfg.initial_cwnd);
  EXPECT_EQ(arena.ssthresh(0), cfg.initial_ssthresh);
  // Writes through the lane are the sender's own state: same storage.
  arena.cwnd(0) = 17.0;
  EXPECT_EQ(s.cwnd(), 17.0);
}

TEST(FlowArena, OverflowFallsBackToInlineStorage) {
  net::Network net(1);
  FlowArena arena(1);
  TcpConfig cfg;
  cfg.arena = &arena;
  TcpSender a(net, cfg, 0);
  TcpSender b(net, cfg, 1);  // arena full: inline fallback
  EXPECT_EQ(arena.size(), 1);
  EXPECT_EQ(a.cwnd(), cfg.initial_cwnd);
  EXPECT_EQ(b.cwnd(), cfg.initial_cwnd);
  // The two senders' windows are independent storage.
  arena.cwnd(0) = 99.0;
  EXPECT_EQ(a.cwnd(), 99.0);
  EXPECT_EQ(b.cwnd(), cfg.initial_cwnd);
}

/// One 20-second run of the registry's `cc` module alone on a 10 Mb/s,
/// 40 ms path with a 50-packet DropTail queue.
struct PathRun {
  std::vector<double> cwnd_at_sample;  ///< cwnd() at every RTT sample
  std::int64_t snd_una = 0;
  TcpSender::FlowStats stats;
};

PathRun run_on_path(const std::string& cc, FlowArena* arena) {
  exp::ensure_scheme_modules();
  testutil::Path p(10e6, 0.02, 50);
  CcContext ctx;
  ctx.net = &p.net;
  ctx.tcp.arena = arena;
  ctx.pps = 10e6 / (8.0 * TcpConfig::seg_bytes());
  ctx.rtt_max = 1.2 * 0.04 + 4.0 * ctx.target_delay;  // as Dumbbell designs
  TcpSender* s = CcRegistry::instance().make(cc, ctx);
  p.sink = p.net.add_agent<TcpSink>(p.b, 100, p.net);
  p.a->bind(*s, 100);
  s->connect(p.b->id(), 100);
  PathRun run;
  s->on_rtt_sample = [&run, s](double, sim::Time) {
    run.cwnd_at_sample.push_back(s->cwnd());
  };
  s->start(0.0);
  p.net.run_until(20.0);
  run.snd_una = s->snd_una();
  run.stats = s->flow_stats();
  return run;
}

TEST(FlowArena, ArenaBackedSenderMatchesInline) {
  for (const char* cc : {"pert", "pert-pi", "sack"}) {
    SCOPED_TRACE(cc);
    FlowArena arena(1);
    const PathRun with = run_on_path(cc, &arena);
    ASSERT_EQ(arena.size(), 1);  // the sender took the arena row
    const PathRun without = run_on_path(cc, nullptr);
    ASSERT_FALSE(with.cwnd_at_sample.empty());
    EXPECT_EQ(with.cwnd_at_sample, without.cwnd_at_sample);
    EXPECT_EQ(with.snd_una, without.snd_una);
    EXPECT_EQ(with.stats.data_pkts_sent, without.stats.data_pkts_sent);
    EXPECT_EQ(with.stats.rexmits, without.stats.rexmits);
    EXPECT_EQ(with.stats.acks_rx, without.stats.acks_rx);
    EXPECT_EQ(with.stats.early_responses, without.stats.early_responses);
    EXPECT_EQ(with.stats.loss_events, without.stats.loss_events);
    EXPECT_EQ(with.stats.timeouts, without.stats.timeouts);
    // The path is congested enough to reach each module's response.
    const std::int64_t responses = std::string(cc) == "sack"
                                       ? with.stats.loss_events
                                       : with.stats.early_responses;
    EXPECT_GT(responses, 0);
  }
}

}  // namespace
}  // namespace pert::tcp
