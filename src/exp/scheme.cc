#include "exp/scheme.h"

#include <cstdio>
#include <mutex>
#include <utility>

#include "core/cc_pert_modules.h"
#include "exp/table.h"
#include "net/qdisc_registry.h"
#include "sim/errors.h"
#include "sim/suggest.h"
#include "tcp/cc_registry.h"

namespace pert::exp {

namespace {

/// The one place the paper's scheme names live. Rows 0-8 are the nine
/// paper schemes; "sack-droptail" is a second spelling of row 0, listed
/// after it so spec_string() writes "sack". The scheme-sweep test IDs print
/// row indices, so new rows go at the end.
constexpr SchemeAlias kAliases[] = {
    {"sack", "Sack/Droptail", "sack", "droptail", false},
    {"sack-red", "Sack/RED-ECN", "sack", "red", true},
    {"sack-pi", "Sack/PI-ECN", "sack", "pi", true},
    {"sack-rem", "Sack/REM-ECN", "sack", "rem", true},
    {"sack-avq", "Sack/AVQ-ECN", "sack", "avq", true},
    {"vegas", "Vegas", "vegas", "droptail", false},
    {"pert", "PERT", "pert", "droptail", false},
    {"pert-pi", "PERT-PI", "pert-pi", "droptail", false},
    {"pert-rem", "PERT-REM", "pert-rem", "droptail", false},
    {"sack-droptail", "Sack/Droptail", "sack", "droptail", false},
};

[[noreturn]] void throw_unknown(const std::string& what,
                                const std::string& name,
                                const std::string& hint,
                                const std::vector<std::string>& candidates) {
  std::string msg = "unknown " + what + ": '" + name + "'";
  if (!hint.empty()) msg += " (did you mean '" + hint + "'?)";
  std::string known = "known names:";
  for (const std::string& c : candidates) known += " " + c;
  throw sim::ConfigError(msg, known);
}

/// "cc/qdisc", plus "+ecn" when ECN is on or "-ecn" when it is off against
/// the combination's default.
std::string explicit_spec(const std::string& cc, const std::string& qdisc,
                          bool ecn, bool default_ecn) {
  std::string s = cc + "/" + qdisc;
  if (ecn)
    s += "+ecn";
  else if (default_ecn)
    s += "-ecn";
  return s;
}

}  // namespace

std::span<const SchemeAlias> scheme_aliases() noexcept { return kAliases; }

void ensure_scheme_modules() {
  static std::once_flag once;
  std::call_once(once, [] {
    // instance() registers the layer's own built-ins; the PERT family lives
    // in core/ (layering: tcp/ cannot depend on core/) and is added here.
    tcp::CcRegistry::instance();
    net::QdiscRegistry::instance();
    core::register_pert_cc_modules();
  });
}

void require_registered(const SchemeSpec& s, std::string_view component) {
  ensure_scheme_modules();
  const auto& ccs = tcp::CcRegistry::instance();
  const auto& qds = net::QdiscRegistry::instance();
  const bool cc_known = ccs.find(s.cc) != nullptr;
  if (cc_known && qds.find(s.qdisc) != nullptr) return;
  std::string msg = std::string(component) + ": unknown scheme '" + s.cc +
                    "/" + s.qdisc + "'";
  if (const std::string hint = cc_known ? qds.suggestion_for(s.qdisc)
                                        : ccs.suggestion_for(s.cc);
      !hint.empty())
    msg += " (did you mean '" + hint + "'?)";
  throw sim::ConfigError(
      msg, "component=" + std::string(component) + " param=scheme\n");
}

SchemeSpec parse_scheme_spec(std::string_view text) {
  for (const SchemeAlias& a : kAliases)
    if (text == a.alias)
      return SchemeSpec{std::string(a.display), std::string(a.cc),
                        std::string(a.qdisc), a.ecn};

  ensure_scheme_modules();
  auto& ccs = tcp::CcRegistry::instance();
  auto& qds = net::QdiscRegistry::instance();

  const std::size_t slash = text.find('/');
  if (slash == std::string_view::npos) {
    // Not an alias and not a combination: suggest across both the alias
    // table and the CC module names (a bare module name is the most common
    // near-miss for "cc/qdisc"); a module name still needs a discipline.
    std::vector<std::string> candidates;
    for (const SchemeAlias& a : kAliases) candidates.emplace_back(a.alias);
    for (const std::string& n : ccs.names()) candidates.push_back(n);
    std::string hint = sim::closest_match(text, candidates);
    if (ccs.find(hint) != nullptr) hint += "/droptail";
    throw_unknown("scheme (expected a paper scheme name or 'cc/qdisc')",
                  std::string(text), hint, candidates);
  }

  const std::string cc(text.substr(0, slash));
  std::string_view rest = text.substr(slash + 1);
  bool ecn_forced = false, ecn_value = false;
  if (rest.size() > 4 && rest.substr(rest.size() - 4) == "+ecn") {
    ecn_forced = true;
    ecn_value = true;
    rest.remove_suffix(4);
  } else if (rest.size() > 4 && rest.substr(rest.size() - 4) == "-ecn") {
    ecn_forced = true;
    ecn_value = false;
    rest.remove_suffix(4);
  }
  const std::string qdisc(rest);

  const tcp::CcInfo* ci = ccs.find(cc);
  if (ci == nullptr)
    throw_unknown("congestion-control module", cc,
                  sim::closest_match(cc, ccs.names()), ccs.names());
  const net::QdiscInfo* qi = qds.find(qdisc);
  if (qi == nullptr)
    throw_unknown("queue discipline", qdisc,
                  sim::closest_match(qdisc, qds.names()), qds.names());

  const bool default_ecn = ci->wants_ecn || qi->marks_ecn;
  const bool ecn = ecn_forced ? ecn_value : default_ecn;
  return SchemeSpec{explicit_spec(cc, qdisc, ecn, default_ecn), cc, qdisc,
                    ecn};
}

void print_scheme_catalog() {
  ensure_scheme_modules();
  std::printf(
      "congestion-control modules (the <cc> of a <cc>/<qdisc> spec):\n");
  Table cc({"name", "ecn", "summary"});
  for (const tcp::CcInfo& m : tcp::CcRegistry::instance().list())
    cc.row({m.name, m.wants_ecn ? "yes" : "no", m.summary});
  cc.print();
  std::printf("\nqueue disciplines:\n");
  Table qd({"name", "marks", "summary"});
  for (const net::QdiscInfo& m : net::QdiscRegistry::instance().list())
    qd.row({m.name, m.marks_ecn ? "yes" : "no", m.summary});
  qd.print();
  std::printf("\npaper scheme names:");
  for (const SchemeAlias& a : kAliases)
    std::printf(" %.*s", static_cast<int>(a.alias.size()), a.alias.data());
  std::printf(
      "\nfree-form combinations take an optional +ecn/-ecn suffix, e.g.\n"
      "  cubic/codel  dctcp/red+ecn  sack/pie-ecn\n");
}

std::vector<SchemeSpec> parse_scheme_list(std::string_view text) {
  std::vector<SchemeSpec> out;
  for (std::size_t pos = 0;;) {
    const std::size_t comma = text.find(',', pos);
    out.push_back(parse_scheme_spec(text.substr(pos, comma - pos)));
    if (comma == std::string_view::npos) return out;
    pos = comma + 1;
  }
}

std::string spec_string(const SchemeSpec& s) {
  for (const SchemeAlias& a : kAliases)
    if (a.cc == s.cc && a.qdisc == s.qdisc && a.ecn == s.ecn)
      return std::string(a.alias);
  ensure_scheme_modules();
  const tcp::CcInfo* ci = tcp::CcRegistry::instance().find(s.cc);
  const net::QdiscInfo* qi = net::QdiscRegistry::instance().find(s.qdisc);
  const bool default_ecn =
      ci != nullptr && qi != nullptr && (ci->wants_ecn || qi->marks_ecn);
  return explicit_spec(s.cc, s.qdisc, s.ecn, default_ecn);
}

}  // namespace pert::exp
