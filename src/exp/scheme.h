// Scheme descriptors: which congestion-control module runs at the end hosts,
// which queue discipline runs at the bottleneck, and whether the combination
// uses ECN.
//
// A scheme is named by a spec string. The paper's nine combinations keep
// their short names as rows of one alias table (scheme_aliases()); any other
// combination is "cc/qdisc", resolved against tcp::CcRegistry and
// net::QdiscRegistry with did-you-mean suggestions for typos.
// parse_scheme_spec reads a spec string and spec_string writes one.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace pert::exp {

/// An open-ended scheme: a congestion-control module name (tcp::CcRegistry
/// key), a queue-discipline name (net::QdiscRegistry key), and the ECN bit
/// for the combination. Equality ignores the display string — two specs are
/// the same scheme when they build the same simulation.
struct SchemeSpec {
  std::string display;  ///< table/report label
  std::string cc;       ///< tcp::CcRegistry key
  std::string qdisc;    ///< net::QdiscRegistry key
  bool ecn = false;     ///< senders ECN-capable & discipline marks

  /// Does the spec place an AQM at the bottleneck router?
  bool router_aqm() const noexcept { return qdisc != "droptail"; }
};

inline bool operator==(const SchemeSpec& a, const SchemeSpec& b) noexcept {
  return a.cc == b.cc && a.qdisc == b.qdisc && a.ecn == b.ecn;
}
inline bool operator!=(const SchemeSpec& a, const SchemeSpec& b) noexcept {
  return !(a == b);
}

/// A short scheme name and the spec it stands for.
struct SchemeAlias {
  std::string_view alias;    ///< what parse_scheme_spec accepts
  std::string_view display;  ///< SchemeSpec::display
  std::string_view cc;       ///< SchemeSpec::cc
  std::string_view qdisc;    ///< SchemeSpec::qdisc
  bool ecn;                  ///< SchemeSpec::ecn
};

/// The paper's scheme names. The first nine rows are the nine distinct
/// paper schemes; later rows are alternative spellings of one of them.
std::span<const SchemeAlias> scheme_aliases() noexcept;

/// Registers every in-tree congestion-control module and queue discipline
/// (idempotent; thread-safe). Called by the topology builders and the
/// scheme parser before their first registry lookup — out-of-tree modules
/// using CcRegistrar/QdiscRegistrar are independent of it.
void ensure_scheme_modules();

/// Throws sim::ConfigError naming `component` unless both halves of `s` are
/// registered, with a did-you-mean hint for the first unknown half. The
/// topology configs call it from validate().
void require_registered(const SchemeSpec& s, std::string_view component);

/// Prints the scheme vocabulary to stdout: the registered congestion-control
/// modules and queue disciplines, the paper scheme names and the spec
/// syntax. This is --list-schemes in pert_sim and the benches.
void print_scheme_catalog();

/// Parses a scheme string: an alias from scheme_aliases(), or a free-form
/// "cc/qdisc" combination ("cubic/codel", "dctcp/red+ecn"), where an
/// optional "+ecn" / "-ecn" suffix overrides the default (ECN on when the CC
/// module wants it or the discipline can mark). A free-form spec displays
/// as its explicit spec string, so parsing the display gives the spec back.
/// Unknown names throw sim::ConfigError with a did-you-mean suggestion.
SchemeSpec parse_scheme_spec(std::string_view text);

/// Parses a comma list of scheme strings ("pert,sack-red,cubic/pie"), in
/// order. Throws as parse_scheme_spec does on the first bad element.
std::vector<SchemeSpec> parse_scheme_list(std::string_view text);

/// The spec string parse_scheme_spec reads back as `s`: the alias of the
/// first alias row equal to `s`, else "cc/qdisc" with "+ecn" when ECN is on
/// and "-ecn" when it is off against the default.
std::string spec_string(const SchemeSpec& s);

}  // namespace pert::exp
