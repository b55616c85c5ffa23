// SchemeSpec / registry-backed scheme parsing.
//
// Every paper alias must resolve to its literal descriptor, and a dumbbell
// configured through an alias must reproduce the run of the equivalent
// explicit cc/qdisc spec bit for bit. Free-form cc/qdisc combos, the
// +ecn/-ecn suffix, spec_string round trips, the alias listings and
// did-you-mean diagnostics are pinned here too.
#include "exp/scheme.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "exp/dumbbell.h"
#include "exp/multi_bottleneck.h"
#include "sim/errors.h"

namespace pert::exp {
namespace {

TEST(SchemeSpec, NinePaperNamesMapToEnumDescriptors) {
  // The literal descriptors are the reference: every alias resolves to
  // exactly the {display, cc, qdisc, ecn} the paper tables were built with.
  struct Row {
    const char* alias;
    const char* display;
    const char* cc;
    const char* qdisc;
    bool ecn;
  };
  const Row rows[] = {
      {"sack", "Sack/Droptail", "sack", "droptail", false},
      {"sack-droptail", "Sack/Droptail", "sack", "droptail", false},
      {"sack-red", "Sack/RED-ECN", "sack", "red", true},
      {"sack-pi", "Sack/PI-ECN", "sack", "pi", true},
      {"sack-rem", "Sack/REM-ECN", "sack", "rem", true},
      {"sack-avq", "Sack/AVQ-ECN", "sack", "avq", true},
      {"vegas", "Vegas", "vegas", "droptail", false},
      {"pert", "PERT", "pert", "droptail", false},
      {"pert-pi", "PERT-PI", "pert-pi", "droptail", false},
      {"pert-rem", "PERT-REM", "pert-rem", "droptail", false},
  };
  ASSERT_EQ(scheme_aliases().size(), std::size(rows));
  for (const Row& r : rows) {
    const SchemeSpec s = parse_scheme_spec(r.alias);
    EXPECT_EQ(s.display, r.display) << r.alias;
    EXPECT_EQ(s.cc, r.cc) << r.alias;
    EXPECT_EQ(s.qdisc, r.qdisc) << r.alias;
    EXPECT_EQ(s.ecn, r.ecn) << r.alias;
  }
}

TEST(SchemeSpec, FreeFormDefaultsEcnFromModules) {
  // A marking qdisc turns ECN on by default...
  const SchemeSpec cc = parse_scheme_spec("cubic/codel");
  EXPECT_EQ(cc.cc, "cubic");
  EXPECT_EQ(cc.qdisc, "codel");
  EXPECT_TRUE(cc.ecn);
  EXPECT_EQ(cc.display, "cubic/codel+ecn");
  EXPECT_TRUE(cc.router_aqm());
  // ...droptail leaves it off...
  const SchemeSpec sd = parse_scheme_spec("sack/droptail");
  EXPECT_FALSE(sd.ecn);
  EXPECT_FALSE(sd.router_aqm());
  EXPECT_EQ(sd.display, "sack/droptail");
  // ...and a wants-ecn sender (DCTCP) turns it on even over droptail.
  EXPECT_TRUE(parse_scheme_spec("dctcp/droptail").ecn);
}

TEST(SchemeSpec, EcnSuffixOverridesTheDefault) {
  EXPECT_FALSE(parse_scheme_spec("sack/codel-ecn").ecn);
  EXPECT_TRUE(parse_scheme_spec("sack/droptail+ecn").ecn);
  EXPECT_TRUE(parse_scheme_spec("cubic/pie+ecn").ecn);
  // An override against the default stays in the display label, so the
  // label reparses to the same spec.
  for (const char* text : {"sack/codel-ecn", "sack/droptail+ecn",
                           "dctcp/droptail-ecn", "cubic/pie"}) {
    const SchemeSpec s = parse_scheme_spec(text);
    EXPECT_EQ(parse_scheme_spec(s.display), s) << text;
    EXPECT_EQ(s.display, spec_string(s)) << text;
  }
  EXPECT_EQ(parse_scheme_spec("sack/codel-ecn").display, "sack/codel-ecn");
}

TEST(SchemeSpec, SpecStringPrefersTheAlias) {
  EXPECT_EQ(spec_string(parse_scheme_spec("pert")), "pert");
  EXPECT_EQ(spec_string(parse_scheme_spec("sack-droptail")), "sack");
  EXPECT_EQ(spec_string(parse_scheme_spec("sack/red")), "sack-red");
  EXPECT_EQ(spec_string(parse_scheme_spec("sack/red-ecn")), "sack/red-ecn");
  EXPECT_EQ(spec_string(parse_scheme_spec("cubic/codel")), "cubic/codel+ecn");
}

TEST(SchemeSpec, ParseSchemeListKeepsOrder) {
  const std::vector<SchemeSpec> v =
      parse_scheme_list("pert,sack-red,cubic/pie");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], parse_scheme_spec("pert"));
  EXPECT_EQ(v[1], parse_scheme_spec("sack-red"));
  EXPECT_EQ(v[2], parse_scheme_spec("cubic/pie"));
  EXPECT_THROW(parse_scheme_list("pert,,sack"), sim::ConfigError);
  EXPECT_THROW(parse_scheme_list("pert,"), sim::ConfigError);
}

/// what() of the ConfigError parse_scheme_spec throws for `text`.
std::string parse_error(const std::string& text) {
  try {
    parse_scheme_spec(text);
  } catch (const sim::ConfigError& e) {
    return e.what();
  }
  ADD_FAILURE() << "'" << text << "' must not parse";
  return "";
}

TEST(SchemeSpec, UnknownNamesThrowWithDidYouMean) {
  // An alias typo gets the alias; a bare module name that is no alias gets
  // its droptail spec; dctcp's ECN default must not skip the qdisc lookup.
  const std::pair<const char*, const char*> hints[] = {
      {"pertt", "(did you mean 'pert'?)"},
      {"vegass", "(did you mean 'vegas'?)"},
      {"sackk", "(did you mean 'sack'?)"},
      {"cubic", "(did you mean 'cubic/droptail'?)"},
      {"cubic/codell", "(did you mean 'codel'?)"},
      {"dctcp/redd", "(did you mean 'red'?)"},
  };
  for (const auto& [text, hint] : hints)
    EXPECT_NE(parse_error(text).find(hint), std::string::npos)
        << text << ": " << parse_error(text);
  // An empty name is no typo of a short one.
  for (const char* text : {"cubic/", "/red", ""})
    EXPECT_EQ(parse_error(text).find("did you mean"), std::string::npos)
        << text << ": " << parse_error(text);
  EXPECT_THROW(parse_scheme_spec("nosuchcc/droptail"), sim::ConfigError);
}

TEST(SchemeSpec, ParsedSpecReproducesEnumRunBitForBit) {
  // An alias is only a name: a dumbbell built from it must be
  // event-for-event the run of the explicit cc/qdisc spec it stands for
  // (same RNG forks, same factories, same metrics).
  const std::vector<std::pair<std::string, std::string>> names = {
      {"pert", "pert/droptail"},       {"pert-pi", "pert-pi/droptail"},
      {"pert-rem", "pert-rem/droptail"}, {"vegas", "vegas/droptail"},
      {"sack", "sack/droptail"},       {"sack-red", "sack/red+ecn"},
      {"sack-pi", "sack/pi+ecn"},      {"sack-rem", "sack/rem+ecn"},
      {"sack-avq", "sack/avq+ecn"},
  };
  for (const auto& [alias, explicit_spec] : names) {
    DumbbellConfig cfg;
    cfg.num_fwd_flows = 2;
    cfg.bottleneck_bps = 10e6;
    cfg.rtt = 0.04;
    cfg.seed = 13;

    cfg.scheme = parse_scheme_spec(alias);
    Dumbbell via_alias(cfg);
    const WindowMetrics a = via_alias.measure_window(2.0, 3.0);
    const std::uint64_t events_a = via_alias.network().sched().dispatched();

    cfg.scheme = parse_scheme_spec(explicit_spec);
    Dumbbell via_spec(cfg);
    const WindowMetrics b = via_spec.measure_window(2.0, 3.0);
    const std::uint64_t events_b = via_spec.network().sched().dispatched();

    EXPECT_EQ(a, b) << alias << ": metrics diverge from " << explicit_spec;
    EXPECT_EQ(events_a, events_b)
        << alias << ": event counts diverge from " << explicit_spec;
  }
}

TEST(SchemeSpec, FreeFormComboRunsEndToEnd) {
  DumbbellConfig cfg;
  cfg.scheme = parse_scheme_spec("cubic/codel");
  cfg.num_fwd_flows = 2;
  cfg.bottleneck_bps = 10e6;
  cfg.rtt = 0.04;
  cfg.seed = 5;
  Dumbbell d(cfg);
  const WindowMetrics m = d.measure_window(3.0, 4.0);
  EXPECT_GT(m.utilization, 0.3);
  EXPECT_GT(m.ecn_marks, 0);
}

TEST(SchemeSpec, ValidateRejectsUnknownModulesWithSuggestion) {
  // The registry's own message, prefixed by the config that holds the spec.
  const struct {
    SchemeSpec spec;
    const char* what;
  } cases[] = {
      {SchemeSpec("typo", "cubbic", "droptail", false),
       "DumbbellConfig: unknown congestion-control module: 'cubbic' (did you "
       "mean 'cubic'?)"},
      {SchemeSpec("typo", "cubic", "coddel", false),
       "DumbbellConfig: unknown queue discipline: 'coddel' (did you mean "
       "'codel'?)"},
  };
  for (const auto& c : cases) {
    DumbbellConfig cfg;
    cfg.scheme = c.spec;
    try {
      cfg.validate();
      ADD_FAILURE() << c.what << ": validate() must throw";
    } catch (const sim::ConfigError& e) {
      EXPECT_STREQ(e.what(), c.what);
    }
  }
}

TEST(SchemeSpec, MultiBottleneckValidateSuggestsToo) {
  MultiBottleneckConfig cfg;
  cfg.scheme = SchemeSpec("typo", "cubc", "droptail", false);
  try {
    cfg.validate();
    FAIL() << "unknown cc module must throw";
  } catch (const sim::ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("MultiBottleneckConfig"), std::string::npos) << what;
    EXPECT_NE(what.find("did you mean 'cubic'"), std::string::npos) << what;
  }
}

/// Everything `command` writes to stdout.
std::string run_and_capture(const std::string& command) {
  std::string out;
  std::FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return out;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, pipe)) > 0;)
    out.append(buf, n);
  pclose(pipe);
  return out;
}

TEST(SchemeAliases, EveryAliasIsListedInUsageAndCatalogs) {
  const std::pair<std::string, std::string> outputs[] = {
      {"pert_sim --help", run_and_capture(PERT_SIM_BIN " --help")},
      {"pert_sim --list-schemes",
       run_and_capture(PERT_SIM_BIN " --list-schemes")},
      {"bench --list-schemes",
       run_and_capture(PERT_BENCH_BIN " --list-schemes")},
  };
  for (const auto& [what, text] : outputs) {
    // Whole words only: "sack" must be listed itself, not as part of
    // "sack-red".
    std::set<std::string> words;
    std::string w;
    for (const char c : text + "\n") {
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '-') {
        w += c;
      } else if (!w.empty()) {
        words.insert(w);
        w.clear();
      }
    }
    for (const SchemeAlias& a : scheme_aliases())
      EXPECT_TRUE(words.count(std::string(a.alias)))
          << what << " does not list '" << a.alias << "'";
  }
}

}  // namespace
}  // namespace pert::exp
