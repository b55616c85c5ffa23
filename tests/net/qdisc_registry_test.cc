// QdiscRegistry's layer contract: its built-ins, a static registrar beside
// them, the unknown-name message, the marks_ecn flags, and — load-bearing
// for byte-identical seeds — that only the disciplines that draw random
// numbers touch the builder's RNG fork. tests/sim/registry_test.cc covers
// the template.
#include "net/qdisc_registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sim/errors.h"
#include "sim/scheduler.h"

namespace pert::net {
namespace {

std::unique_ptr<Queue> make_test_qdisc(const QdiscContext& ctx) {
  return std::make_unique<DropTailQueue>(*ctx.sched, ctx.capacity_pkts);
}

// Static self-registration from a test TU: must coexist with the lazily
// registered built-ins regardless of initialization order.
const sim::Registrar<QdiscInfo> test_registrar(
    {"test-qdisc", "registrar ordering probe", false, &make_test_qdisc});

QdiscContext ctx_for(sim::Scheduler& s) {
  QdiscContext c;
  c.sched = &s;
  c.capacity_pkts = 100;
  c.link_bps = 10e6;
  c.pps = 1200.0;
  c.q_ref = 25.0;
  c.q_ref_requested = 25.0;
  return c;
}

TEST(QdiscRegistry, BuiltinsAndStaticRegistrarCoexist) {
  auto& r = QdiscRegistry::instance();
  for (const char* name :
       {"droptail", "red", "pi", "rem", "avq", "codel", "fq-codel", "pie",
        "test-qdisc"})
    EXPECT_NE(r.find(name), nullptr) << name;
  const std::vector<std::string> names = r.names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(QdiscRegistry, UnknownNameThrowsWithSuggestion) {
  sim::Scheduler s;
  try {
    QdiscRegistry::instance().make("codell", ctx_for(s));
    FAIL() << "unknown qdisc must throw";
  } catch (const sim::ConfigError& e) {
    EXPECT_STREQ(e.what(),
                 "unknown queue discipline: 'codell' (did you mean 'codel'?)");
  }
}

TEST(QdiscRegistry, OnlyDrawingDisciplinesForkTheRng) {
  sim::Scheduler s;
  auto& r = QdiscRegistry::instance();
  const struct {
    const char* name;
    bool draws;
  } cases[] = {{"droptail", false}, {"avq", false},      {"codel", false},
               {"fq-codel", false}, {"red", true},       {"pi", true},
               {"rem", true},       {"pie", true}};
  for (const auto& c : cases) {
    QdiscContext ctx = ctx_for(s);
    int forks = 0;
    ctx.fork_rng = [&forks] {
      ++forks;
      return sim::Rng(1);
    };
    auto q = r.make(c.name, ctx);
    ASSERT_NE(q, nullptr) << c.name;
    EXPECT_EQ(forks, c.draws ? 1 : 0)
        << c.name << (c.draws ? " must fork exactly once"
                              : " must leave the parent RNG untouched");
  }
}

TEST(QdiscRegistry, MarksEcnFlagsMatchDisciplineNature) {
  auto& r = QdiscRegistry::instance();
  EXPECT_FALSE(r.find("droptail")->marks_ecn);
  for (const char* aqm : {"red", "pi", "rem", "avq", "codel", "fq-codel",
                          "pie"})
    EXPECT_TRUE(r.find(aqm)->marks_ecn) << aqm;
}

}  // namespace
}  // namespace pert::net
