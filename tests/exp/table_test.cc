#include "exp/table.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "exp/scheme.h"

namespace pert::exp {
namespace {

TEST(Table, AlignsColumnsToWidestCell) {
  Table t({"a", "long-header"});
  t.row({"wide-cell-content", "x"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  // Header line, separator, one row.
  EXPECT_NE(out.find("a                  long-header"), std::string::npos);
  EXPECT_NE(out.find("wide-cell-content  x"), std::string::npos);
}

TEST(Table, MissingCellsRenderEmpty) {
  Table t({"x", "y", "z"});
  t.row({"1"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("1"), std::string::npos);  // no crash, row present
}

TEST(Table, SeparatorMatchesWidth) {
  Table t({"ab", "cd"});
  t.row({"1", "2"});
  std::ostringstream os;
  t.print(os);
  std::istringstream is(os.str());
  std::string header, sep;
  std::getline(is, header);
  std::getline(is, sep);
  EXPECT_EQ(sep.find_first_not_of('-'), std::string::npos);
  EXPECT_GE(sep.size(), 4u);
}

TEST(Fmt, FormatsWithSpec) {
  EXPECT_EQ(fmt(1.23456, "%.2f"), "1.23");
  EXPECT_EQ(fmt(1e-5, "%.1e"), "1.0e-05");
  EXPECT_EQ(fmt(42, "%g"), "42");
}

TEST(Scheme, NamesAreUniqueAndStable) {
  // The nine paper schemes are the first nine alias rows; their display
  // labels key every table, job and journal grid hash.
  std::set<std::string> names;
  for (const SchemeAlias& a : scheme_aliases().first(9)) {
    const SchemeSpec s = parse_scheme_spec(a.alias);
    EXPECT_EQ(s.display, a.display);
    EXPECT_TRUE(names.insert(s.display).second)
        << "duplicate name " << s.display;
  }
}

TEST(Scheme, RouterAqmClassification) {
  for (const char* name : {"sack-red", "sack-pi", "sack-rem", "sack-avq"}) {
    const SchemeSpec s = parse_scheme_spec(name);
    EXPECT_TRUE(s.router_aqm()) << name;
    // ECN-capable senders exactly where the router marks.
    EXPECT_TRUE(s.ecn) << name;
  }
  for (const char* name : {"pert", "pert-pi", "pert-rem", "vegas", "sack"}) {
    const SchemeSpec s = parse_scheme_spec(name);
    EXPECT_FALSE(s.router_aqm()) << name;
    EXPECT_FALSE(s.ecn) << name;
  }
}

}  // namespace
}  // namespace pert::exp
