// Test parameter naming one paper scheme by its row in exp::scheme_aliases().
//
// gtest prints a parameter it cannot format as its raw bytes, and ctest
// carries that text in the test ID. A 4-byte row index keeps the IDs of the
// scheme sweeps stable ("# GetParam() = 4-byte object <06-00 00-00>").
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "exp/scheme.h"

namespace pert::exp {

struct SchemeParam {
  std::int32_t row;

  std::string_view alias() const {
    return scheme_aliases()[static_cast<std::size_t>(row)].alias;
  }
};

inline SchemeParam scheme_param(std::string_view alias) {
  const auto rows = scheme_aliases();
  for (std::size_t i = 0; i < rows.size(); ++i)
    if (rows[i].alias == alias) return {static_cast<std::int32_t>(i)};
  throw std::invalid_argument("no scheme alias " + std::string(alias));
}

/// Test-name generator: the display label with '/' and '-' made '_'.
inline std::string scheme_param_name(
    const ::testing::TestParamInfo<SchemeParam>& info) {
  std::string n = parse_scheme_spec(info.param.alias()).display;
  for (char& c : n)
    if (c == '/' || c == '-') c = '_';
  return n;
}

}  // namespace pert::exp
