// TcpConfig::validate rejection tests: the defaults pass, each out-of-domain
// field throws a typed sim::ConfigError, and constructing a sender with a
// bad config fails before any event is scheduled.
#include "tcp/tcp_config.h"

#include <gtest/gtest.h>

#include <limits>

#include "net/network.h"
#include "sim/errors.h"
#include "tcp/tcp_sender.h"

namespace pert::tcp {
namespace {

TEST(TcpConfig, DefaultsValidate) {
  EXPECT_NO_THROW(TcpConfig{}.validate());
}

TEST(TcpConfig, RejectsBadWindows) {
  TcpConfig c;
  c.initial_cwnd = 0.0;
  EXPECT_THROW(c.validate(), sim::ConfigError);
  c = {};
  c.initial_ssthresh = -1.0;
  EXPECT_THROW(c.validate(), sim::ConfigError);
  c = {};
  c.max_cwnd = 0.0;
  EXPECT_THROW(c.validate(), sim::ConfigError);
  c = {};
  c.max_cwnd = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(c.validate(), sim::ConfigError);
}

TEST(TcpConfig, RejectsBadTimers) {
  TcpConfig c;
  c.min_rto = 0.0;
  EXPECT_THROW(c.validate(), sim::ConfigError);
  c = {};
  c.min_rto = 10.0;
  c.max_rto = 1.0;  // inverted
  EXPECT_THROW(c.validate(), sim::ConfigError);
  c = {};
  c.initial_rto = 0.0;
  EXPECT_THROW(c.validate(), sim::ConfigError);
}

TEST(TcpConfig, SenderConstructionValidates) {
  net::Network net;
  TcpConfig bad;
  bad.min_rto = 0.0;
  EXPECT_THROW(TcpSender(net, bad, /*flow=*/1), sim::ConfigError);
}

}  // namespace
}  // namespace pert::tcp
