// Scenario-builder validation tests: DumbbellConfig and
// MultiBottleneckConfig reject out-of-domain dimensions with ConfigError at
// construction, before a single event is scheduled, and nested component
// configs (tcp, pert, impairments) are validated through them.
#include <gtest/gtest.h>

#include "exp/dumbbell.h"
#include "exp/multi_bottleneck.h"
#include "sim/errors.h"

namespace pert::exp {
namespace {

TEST(DumbbellValidate, DefaultsPass) {
  EXPECT_NO_THROW(DumbbellConfig{}.validate());
}

TEST(DumbbellValidate, RejectsBadDimensions) {
  DumbbellConfig c;
  c.bottleneck_bps = 0.0;
  EXPECT_THROW(c.validate(), sim::ConfigError);
  c = {};
  c.rtt = -0.01;
  EXPECT_THROW(c.validate(), sim::ConfigError);
  c = {};
  c.num_fwd_flows = 0;
  EXPECT_THROW(c.validate(), sim::ConfigError);
  c = {};
  c.buffer_pkts = -1;
  EXPECT_THROW(c.validate(), sim::ConfigError);
  c = {};
  c.start_window = -1.0;
  EXPECT_THROW(c.validate(), sim::ConfigError);
  c = {};
  c.nonproactive_fraction = 1.5;
  EXPECT_THROW(c.validate(), sim::ConfigError);
  c = {};
  c.flow_rtts = {0.05, 0.0};  // one degenerate per-flow RTT poisons the set
  EXPECT_THROW(c.validate(), sim::ConfigError);
}

TEST(DumbbellValidate, NestedConfigsChecked) {
  DumbbellConfig c;
  c.tcp.initial_cwnd = 0.0;
  EXPECT_THROW(c.validate(), sim::ConfigError);
  c = {};
  c.pert.pmax = 2.0;
  EXPECT_THROW(c.validate(), sim::ConfigError);
  c = {};
  c.impair.loss.p = -0.5;
  EXPECT_THROW(c.validate(), sim::ConfigError);
}

TEST(DumbbellValidate, ConstructorRejects) {
  DumbbellConfig c;
  c.bottleneck_bps = -1.0;
  EXPECT_THROW(Dumbbell{c}, sim::ConfigError);
}

TEST(MultiBottleneckValidate, DefaultsPass) {
  EXPECT_NO_THROW(MultiBottleneckConfig{}.validate());
}

TEST(MultiBottleneckValidate, RejectsBadDimensions) {
  MultiBottleneckConfig c;
  c.num_routers = 2;  // a chain needs >= 3 routers to have an interior hop
  EXPECT_THROW(c.validate(), sim::ConfigError);
  c = {};
  c.hosts_per_cloud = 0;
  EXPECT_THROW(c.validate(), sim::ConfigError);
  c = {};
  c.router_link_bps = 0.0;
  EXPECT_THROW(c.validate(), sim::ConfigError);
  c = {};
  c.router_link_delay = -0.001;
  EXPECT_THROW(c.validate(), sim::ConfigError);
  c = {};
  c.access_bps = -1.0;
  EXPECT_THROW(c.validate(), sim::ConfigError);
}

TEST(MultiBottleneckValidate, NestedConfigsChecked) {
  MultiBottleneckConfig c;
  c.tcp.min_rto = -1.0;
  EXPECT_THROW(c.validate(), sim::ConfigError);
  c = {};
  c.pert.early_beta = 1.0;
  EXPECT_THROW(c.validate(), sim::ConfigError);
}

TEST(MultiBottleneckValidate, ConstructorRejects) {
  MultiBottleneckConfig c;
  c.num_routers = 1;
  EXPECT_THROW(MultiBottleneck{c}, sim::ConfigError);
}

}  // namespace
}  // namespace pert::exp
