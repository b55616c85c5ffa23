// Did-you-mean support for string-keyed registries and CLI parsers: given an
// unknown name and the set of known ones, find the closest known name so the
// error message can suggest it instead of leaving the user to diff by eye.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace pert::sim {

/// Levenshtein distance (insert/delete/substitute, unit costs). Small-string
/// use only — O(|a|*|b|) with a single rolling row.
inline std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      diag = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, sub});
    }
  }
  return row[b.size()];
}

/// The candidate closest to `name`, or "" when nothing is close enough to be
/// a plausible typo (distance > max(2, |name|/3)) or `name` is empty (every
/// name of two letters or fewer would be "close" to it).
inline std::string closest_match(std::string_view name,
                                 const std::vector<std::string>& candidates) {
  std::string best;
  if (name.empty()) return best;
  std::size_t best_d = std::max<std::size_t>(2, name.size() / 3) + 1;
  for (const std::string& c : candidates) {
    const std::size_t d = edit_distance(name, c);
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  return best;
}

}  // namespace pert::sim
