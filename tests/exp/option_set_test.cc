// OptionSet tests: the one typed command-line grammar shared by the bench
// harnesses, pert_sim, fuzz_scenarios and the dist tools.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/option_set.h"

namespace pert::exp::cli {
namespace {

struct Parsed {
  bool full = false;
  unsigned jobs = 1;
  std::uint64_t seed = 0;
  double budget = 0;
  std::string json;
  std::int32_t flows = 10;
  std::string impairs;  ///< every impair= value, composed by its converter
};

OptionSet make(Parsed& p) {
  OptionSet o("prog", "test grammar");
  o.flag("--full", &p.full, "paper scale")
      .opt("--jobs", &p.jobs, "worker threads")
      .opt("--seed", &p.seed, "base seed")
      .opt("--budget-s", &p.budget, "time budget", "S")
      .opt("--json", &p.json, "report path", "PATH")
      .opt("flows", &p.flows, "long-term flows")
      .opt("impair", &p.impairs,
           [&p](const std::string& v) {
             return p.impairs.empty() ? v : p.impairs + ";" + v;
           },
           "impairment spec; repeats compose", "SPEC");
  return o;
}

TEST(OptionSet, ParsesAllValueFormsAndKeys) {
  Parsed p;
  OptionSet o = make(p);
  EXPECT_TRUE(o.parse({"--full", "--jobs", "4", "--seed=99", "--budget-s",
                       "2.5", "--json=out.json", "flows=50",
                       "impair=loss:p=0.01", "impair=jitter:max_ms=5"}));
  EXPECT_TRUE(p.full);
  EXPECT_EQ(p.jobs, 4u);
  EXPECT_EQ(p.seed, 99u);
  EXPECT_DOUBLE_EQ(p.budget, 2.5);
  EXPECT_EQ(p.json, "out.json");
  EXPECT_EQ(p.flows, 50);
  EXPECT_EQ(p.impairs, "loss:p=0.01;jitter:max_ms=5");
  EXPECT_TRUE(o.given("--seed"));
  EXPECT_TRUE(o.given("flows"));
  EXPECT_FALSE(o.given("--help"));
}

TEST(OptionSet, GivenRecordsOnlyTokensSeen) {
  Parsed p;
  OptionSet o = make(p);
  EXPECT_TRUE(o.parse({"--jobs", "1"}));
  EXPECT_TRUE(o.given("--jobs"));  // even when equal to the default
  EXPECT_FALSE(o.given("--seed"));
  EXPECT_FALSE(o.given("flows"));
}

TEST(OptionSet, RejectsUnknownFlags) {
  Parsed p;
  OptionSet o = make(p);
  EXPECT_THROW(o.parse({"--frobnicate"}), std::invalid_argument);
}

TEST(OptionSet, RejectsBadNumbersAndMissingValues) {
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{
           {"--jobs", "four"},
           {"--json"},
           {"--full=yes"},  // flags take no value
           {"--budget-s", "2.5s"},
       }) {
    Parsed p;
    OptionSet o = make(p);
    EXPECT_THROW(o.parse(args), std::invalid_argument) << args[0];
  }
}

TEST(OptionSet, IntegersAreRangeCheckedAgainstTheBoundType) {
  std::uint16_t port = 0;
  unsigned jobs = 1;
  std::uint64_t seed = 1;
  std::int32_t flows = 10;
  std::int32_t buffer = 0;
  OptionSet o("prog");
  o.opt("--port", &port, "listen port")
      .opt("--jobs", &jobs, "threads")
      .opt("--seed", &seed, "seed")
      .opt("flows", &flows, "flows")
      .opt("buffer", &buffer, "buffer");
  for (const char* bad :
       {"--port=70000", "--port=65537", "--jobs=-1", "--seed=-1",
        "--seed=18446744073709551616", "flows=2.5", "buffer=12.9",
        "flows=1e10", "flows=2147483648", "flows=", "--jobs=+3",
        "--jobs= 3"})
    EXPECT_THROW(o.parse({bad}), std::invalid_argument) << bad;
  EXPECT_TRUE(o.parse({"--port=65535", "--jobs=0",
                       "--seed=18446744073709551615", "flows=-2147483648",
                       "buffer=12"}));
  EXPECT_EQ(port, 65535);
  EXPECT_EQ(jobs, 0u);
  EXPECT_EQ(seed, 18446744073709551615ull);
  EXPECT_EQ(flows, -2147483647 - 1);
  EXPECT_EQ(buffer, 12);
}

TEST(OptionSet, ConverterErrorsNameTheOption) {
  std::string mode;
  OptionSet o("prog");
  o.opt("mode", &mode,
        [](const std::string& v) {
          if (v != "fast" && v != "slow")
            throw std::invalid_argument("expected fast|slow, got: " + v);
          return v;
        },
        "speed", "fast|slow");
  try {
    o.parse({"mode=medium"});
    FAIL() << "mode=medium was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "mode: expected fast|slow, got: medium");
  }
  EXPECT_TRUE(o.parse({"mode=slow"}));
  EXPECT_EQ(mode, "slow");
}

TEST(OptionSet, ChecksRunAfterTheLastToken) {
  bool resume = false;
  std::string journal;
  OptionSet o("prog");
  o.flag("--resume", &resume, "resume")
      .opt("--journal", &journal, "journal", "PATH")
      .check([&] {
        if (resume && journal.empty())
          throw std::invalid_argument("--resume requires --journal");
      });
  EXPECT_THROW(o.parse({"--resume"}), std::invalid_argument);
  EXPECT_TRUE(o.parse({"--resume", "--journal", "j"}));
}

TEST(OptionSet, RejectsUnregisteredKeysAndStrayTokens) {
  Parsed p;
  OptionSet o = make(p);
  EXPECT_THROW(o.parse({"stray"}), std::invalid_argument);
  EXPECT_THROW(o.parse({"mystery=1"}), std::invalid_argument);
  EXPECT_THROW(o.parse({"--flows=3"}), std::invalid_argument);  // a key
  EXPECT_THROW(o.parse({"full=1"}), std::invalid_argument);     // a flag
}

TEST(OptionSet, OperandsCollectBareTokensInOrder) {
  bool partial = false;
  std::vector<std::string> inputs;
  OptionSet o("prog");
  o.flag("--partial", &partial, "allow gaps").operands(&inputs, "INPUT...");
  EXPECT_TRUE(o.parse({"a.journal", "--partial", "b=1.json"}));
  EXPECT_TRUE(partial);
  EXPECT_EQ(inputs, (std::vector<std::string>{"a.journal", "b=1.json"}));
  EXPECT_NE(o.usage().find("INPUT..."), std::string::npos);
}

TEST(OptionSet, HelpListsEveryRegisteredOption) {
  Parsed p;
  OptionSet o = make(p);
  const std::string u = o.usage();
  for (const char* option : {"--full", "--jobs N", "--seed N", "--budget-s S",
                             "--json PATH", "flows=N", "impair=SPEC"})
    EXPECT_NE(u.find(option), std::string::npos) << option;
  EXPECT_NE(u.find("[key=value ...]"), std::string::npos);
  EXPECT_FALSE(o.parse({"--help", "--frobnicate"}));  // stops at --help
  EXPECT_FALSE(o.parse({"-h"}));
}

TEST(OptionSet, HelpOfAnEmptySetIsOneLine) {
  OptionSet o("prog");
  EXPECT_EQ(o.usage(), "usage: prog\n");
  EXPECT_THROW(o.parse({"--full"}), std::invalid_argument);
}

}  // namespace
}  // namespace pert::exp::cli
