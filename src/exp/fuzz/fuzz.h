// Randomized scenario fuzzer with shrinking and self-contained repro
// bundles.
//
// Loop: generate a seeded scenario -> run it with the invariant checker on
// -> classify. A violation is any of:
//   - "invariant": the simulation tripped an InvariantViolation,
//   - "stall":     the watchdog declared no progress,
//   - "crash":     any other exception escaped the simulation,
//   - "oracle":    an impairment-free PERT scenario landed outside the
//                  fluid-model tolerance bands (see oracle.h).
//
// Violations are shrunk by a greedy, seed-preserving minimizer (halve flow
// counts, halve the measurement window, drop impairments and background
// traffic one at a time — keeping each step only if the violation survives)
// and written as a JSON repro bundle that `pert_sim repro=<file>` replays.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/fuzz/generator.h"
#include "exp/fuzz/oracle.h"
#include "exp/fuzz/scenario.h"
#include "runner/shard.h"

namespace pert::exp::fuzz {

/// Repro-bundle schema version, stored in the "pert_fuzz_repro" field.
/// Bump when the bundle layout or the scenario vocabulary changes meaning;
/// replay warns (but still tries) on a version mismatch.
inline constexpr std::uint64_t kReproSchemaVersion = 2;

/// Build stamp recorded in bundles ("git describe" at configure time), so a
/// replay on a different build can explain a non-reproducing violation.
const char* build_stamp();

struct Violation {
  Scenario scenario;       ///< shrunk scenario that still violates
  Scenario original;       ///< as generated, before shrinking
  std::string kind;        ///< "invariant" | "stall" | "crash" | "oracle"
  std::string detail;      ///< exception text or oracle failure band
  std::uint64_t iteration = 0;
  std::string bundle_path; ///< repro bundle on disk ("" if not written)
};

struct FuzzOptions {
  std::uint64_t seed = 1;          ///< base seed; iteration i derives from it
  std::uint64_t iterations = 25;
  /// Stop early once this much wall time has elapsed (0 = no budget).
  double time_budget_s = 0;
  GeneratorBounds bounds;
  /// Directory for repro bundles ("" disables writing them).
  std::string repro_dir;
  /// Shrink violations before reporting (on by default; the shrinker
  /// re-runs the scenario several times, so tests with a time budget can
  /// turn it off).
  bool shrink = true;
  /// Test-only fault injection: applied to every generated scenario before
  /// it runs. This is how the acceptance test plants an intentionally
  /// broken sender (e.g. early_beta ~ 1) and proves the oracle finds it.
  std::function<void(Scenario&)> mutate;
  bool verbose = false;            ///< one stderr line per iteration
  /// Deterministic slice for sharded fuzzing: only iterations i with
  /// i % count == index run. Seeds derive from the iteration index, so the
  /// union of all shards reproduces the unsharded campaign exactly.
  runner::ShardSpec shard;
};

struct FuzzSummary {
  std::uint64_t iterations_run = 0;
  std::uint64_t oracle_checked = 0;  ///< scenarios the oracle could judge
  std::vector<Violation> violations;
};

/// Runs the fuzz loop. Never throws on scenario failures (they become
/// violations); throws only on infrastructure errors (unwritable repro dir).
FuzzSummary run_fuzz(const FuzzOptions& opts);

/// Classifies one scenario: runs it and, when applicable, applies the
/// oracle. Returns the violation kind ("" = clean) and detail text.
std::pair<std::string, std::string> classify_scenario(const Scenario& s);

/// Greedy seed-preserving minimizer: returns the smallest scenario found
/// that still produces the same violation kind.
Scenario shrink_scenario(const Scenario& s, const std::string& kind);

/// Writes a self-contained repro bundle; returns its path.
std::string write_repro_bundle(const Violation& v, const std::string& dir);

/// Replays a repro bundle: re-runs the embedded scenario and re-classifies.
/// Returns true when the recorded violation kind reproduces; prints a
/// human-readable account to stderr when `verbose`.
bool replay_repro_bundle(const std::string& path, bool verbose = true);

}  // namespace pert::exp::fuzz
