// Shard spec: deterministic partitioning of a sweep's cell grid.
//
// A sweep of N cells (the runner's job vector, submission order) splits
// across `count` shards by stable cell index: shard `index` owns exactly the
// cells i with i % count == index. The rule is pure arithmetic over the
// global cell index — never over thread count, completion order, or the
// content of other shards — so for any fixed grid the shards of every n are
// pairwise disjoint, jointly exhaustive, and cell-for-cell byte-identical to
// the corresponding slice of an unsharded run (per-cell seeds derive from
// keys exactly as before; see runner/seed.h).
//
// Round-robin (not contiguous block) assignment on purpose: sweep grids are
// built x-major, so consecutive cells share an x value and cost roughly the
// same; striding spreads the expensive end of a sweep evenly across shards.
//
// The spelling everywhere (CLI, journal headers, report JSON) is `k/n` with
// 0 <= k < n; "0/1" is the unsharded identity. Every reader of a spec —
// parse_shard, the report and journal decoders, ExperimentRunner::run — goes
// through the checked constructor, so a forged count of 0 or an index past
// the count is an error where it is read, never a division by zero later.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace pert::runner {

struct ShardSpec {
  std::uint32_t index = 0;  ///< this shard, 0-based
  std::uint32_t count = 1;  ///< total shards; 1 = unsharded

  ShardSpec() = default;

  /// Shard `k` of `n`. Throws std::invalid_argument unless
  /// 1 <= n < 2^32 and k < n.
  ShardSpec(std::uint64_t k, std::uint64_t n) {
    if (n == 0 || n > 0xffffffffULL || k >= n)
      throw std::invalid_argument(
          "bad shard spec " + std::to_string(k) + "/" + std::to_string(n) +
          ": expected k/n with 0 <= k < n < 2^32");
    index = static_cast<std::uint32_t>(k);
    count = static_cast<std::uint32_t>(n);
  }

  /// True when this spec selects a strict subset of the grid.
  constexpr bool active() const noexcept { return count > 1; }

  /// Does this shard own global cell `i`?
  constexpr bool owns(std::uint64_t i) const noexcept {
    return i % count == index;
  }

  /// Cells this shard owns out of a `total`-cell grid.
  constexpr std::uint64_t cells_of(std::uint64_t total) const noexcept {
    return total / count + (total % count > index ? 1 : 0);
  }

  /// "k/n".
  std::string to_string() const {
    return std::to_string(index) + "/" + std::to_string(count);
  }

  friend constexpr bool operator==(const ShardSpec&,
                                   const ShardSpec&) = default;
};

/// Parses "k/n" (0 <= k < n, n >= 1). Throws std::invalid_argument naming
/// the defect on anything else — there is no silent fallback, because a
/// mis-parsed shard spec would quietly run the wrong cells.
inline ShardSpec parse_shard(std::string_view s) {
  const auto fail = [&](const char* why) {
    throw std::invalid_argument("bad shard spec \"" + std::string(s) +
                                "\": " + why + " (expected k/n, 0 <= k < n)");
  };
  const std::size_t slash = s.find('/');
  if (slash == std::string_view::npos) fail("missing '/'");
  const auto parse_u32 = [&](std::string_view field) -> std::uint64_t {
    if (field.empty()) fail("empty field");
    std::uint64_t v = 0;
    for (char c : field) {
      if (c < '0' || c > '9') fail("non-digit character");
      v = v * 10 + static_cast<std::uint64_t>(c - '0');
      if (v > 0xffffffffULL) fail("field overflows 32 bits");
    }
    return v;
  };
  return ShardSpec(parse_u32(s.substr(0, slash)),
                   parse_u32(s.substr(slash + 1)));
}

}  // namespace pert::runner
