// CcRegistry's layer contract: its built-ins, a static registrar beside
// them, DCTCP's ECN default, the unknown-name message, and a factory that
// builds a working sender. tests/sim/registry_test.cc covers the template.
#include "tcp/cc_registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sim/errors.h"
#include "tcp/tcp_sender.h"
#include "tcp_test_util.h"

namespace pert::tcp {
namespace {

TcpSender* make_test_cc(const CcContext& ctx) {
  return ctx.net->add_agent<TcpSender>(nullptr, 0, *ctx.net, ctx.tcp,
                                       ctx.flow);
}

// Static self-registration from a test TU: a file-scope registrar must
// coexist with the lazily registered built-ins regardless of which static
// initializer the linker runs first.
const sim::Registrar<CcInfo> test_registrar(
    {"test-cc", "registrar ordering probe", false, &make_test_cc});

TEST(CcRegistry, BuiltinsAndStaticRegistrarCoexist) {
  auto& r = CcRegistry::instance();
  for (const char* name : {"sack", "vegas", "cubic", "dctcp", "test-cc"})
    EXPECT_NE(r.find(name), nullptr) << name;
  const std::vector<std::string> names = r.names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(CcRegistry, UnknownNameThrowsWithSuggestion) {
  testutil::Path p(10e6, 0.02, 100);
  CcContext ctx;
  ctx.net = &p.net;
  try {
    CcRegistry::instance().make("cubci", ctx);
    FAIL() << "unknown cc module must throw";
  } catch (const sim::ConfigError& e) {
    EXPECT_STREQ(e.what(),
                 "unknown congestion-control module: 'cubci' (did you mean "
                 "'cubic'?)");
  }
}

TEST(CcRegistry, DctcpWantsEcnOthersDoNot) {
  auto& r = CcRegistry::instance();
  EXPECT_TRUE(r.find("dctcp")->wants_ecn);
  EXPECT_FALSE(r.find("sack")->wants_ecn);
  EXPECT_FALSE(r.find("cubic")->wants_ecn);
}

TEST(CcRegistry, FactoryBuildsAWorkingSender) {
  testutil::Path p(10e6, 0.02, 100);
  CcContext ctx;
  ctx.net = &p.net;
  ctx.flow = 0;
  TcpSender* s = CcRegistry::instance().make("cubic", ctx);
  ASSERT_NE(s, nullptr);
  EXPECT_STREQ(s->cc_ops().name, "cubic");
}

}  // namespace
}  // namespace pert::tcp
