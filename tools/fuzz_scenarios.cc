// fuzz_scenarios — randomized scenario fuzzer CLI.
//
// Samples seeded random scenarios (dumbbell / multi-bottleneck chains,
// impairments, scheme mixes), runs each under the invariant checker, and
// cross-checks clean PERT scenarios against the fluid-model differential
// oracle. Violations are shrunk and written as repro bundles replayable
// with `pert_sim repro=<bundle>`.
//
//   fuzz_scenarios --seed 7 --iters 40 --repro-dir /tmp/repros
//   fuzz_scenarios --seed 1 --budget-s 60          (CI smoke mode)
//
// With --metamorphic, runs the metamorphic self-validation harness instead:
// each scenario (plus the degenerate-corner family) is checked against
// transformed twins — seed-stream independence, time-origin shift,
// flow relabeling, k=2 time/rate rescaling (see exp/fuzz/metamorphic.h).
//
// Exit status: 0 = no violations, 1 = violations found, 2 = usage error.
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "exp/fuzz/fuzz.h"
#include "exp/fuzz/metamorphic.h"
#include "exp/option_set.h"
#include "runner/run_flags.h"
#include "sim/errors.h"

namespace {

int run_metamorphic_mode(const pert::exp::fuzz::FuzzOptions& base,
                         bool no_corners) {
  using namespace pert::exp::fuzz;
  MetamorphicOptions opts;
  opts.seed = base.seed;
  opts.scenarios = base.iterations;
  opts.time_budget_s = base.time_budget_s;
  opts.include_corners = !no_corners;
  opts.verbose = base.verbose;
  // Each scenario runs up to five times (baseline + four twins): shorter
  // windows than the plain fuzzer keep the campaign inside a CI budget
  // while every feedback loop still converges well before measurement.
  opts.bounds.warmup = 6.0;
  opts.bounds.measure = 4.0;
  const MetamorphicSummary summary = run_metamorphic(opts);
  std::printf("metamorphic: %llu scenario%s, %llu relation check%s, "
              "%zu failure%s\n",
              static_cast<unsigned long long>(summary.scenarios_run),
              summary.scenarios_run == 1 ? "" : "s",
              static_cast<unsigned long long>(summary.relations_checked),
              summary.relations_checked == 1 ? "" : "s",
              summary.failures.size(),
              summary.failures.size() == 1 ? "" : "s");
  for (const MetamorphicFailure& f : summary.failures)
    std::printf("  [%s] seed %llu: %s\n", f.result.relation.c_str(),
                static_cast<unsigned long long>(f.scenario.seed),
                f.result.detail.c_str());
  return summary.failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pert::exp;
  fuzz::FuzzOptions opts;
  opts.verbose = false;
  bool no_shrink = false;
  bool metamorphic = false;
  bool no_corners = false;
  cli::OptionSet flags("fuzz_scenarios",
                       "Randomized scenario fuzzer with invariant checking "
                       "and a fluid-model oracle.");
  flags.opt("--seed", &opts.seed, "base seed; iteration i derives from it")
      .opt("--iters", &opts.iterations,
           "scenarios to run (default 25; unbounded under --budget-s "
           "unless given)")
      .opt("--budget-s", &opts.time_budget_s,
           "stop early after this much wall time (0 = no budget)", "S")
      .opt("--repro-dir", &opts.repro_dir,
           "write repro bundles for violations into DIR", "DIR");
  pert::runner::add_shard_flag(flags, opts.shard, "iterations");
  flags.flag("--no-shrink", &no_shrink, "skip shrinking violating scenarios")
      .flag("--metamorphic", &metamorphic,
            "check metamorphic relations on transformed scenario twins")
      .flag("--no-corners", &no_corners,
            "with --metamorphic: skip the degenerate-corner family")
      .flag("--verbose", &opts.verbose, "per-iteration progress output")
      .check([&opts] {
        if (opts.time_budget_s < 0)
          throw std::invalid_argument("--budget-s must be >= 0");
      });
  flags.parse_or_exit(argc, argv);
  opts.shrink = !no_shrink;
  if (opts.time_budget_s > 0 && !flags.given("--iters"))
    opts.iterations = 100000;  // budget-bounded mode: iterate until time out

  if (metamorphic) {
    try {
      return run_metamorphic_mode(opts, no_corners);
    } catch (const pert::sim::ConfigError& e) {
      std::fprintf(stderr, "error: %s\n%s", e.what(), e.diagnostics().c_str());
      return 2;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }

  try {
    const fuzz::FuzzSummary summary = fuzz::run_fuzz(opts);
    std::printf("fuzz: %llu scenario%s run (%llu oracle-checked), "
                "%zu violation%s\n",
                static_cast<unsigned long long>(summary.iterations_run),
                summary.iterations_run == 1 ? "" : "s",
                static_cast<unsigned long long>(summary.oracle_checked),
                summary.violations.size(),
                summary.violations.size() == 1 ? "" : "s");
    for (const fuzz::Violation& v : summary.violations) {
      std::printf("  [%s] iteration %llu seed %llu: %s\n", v.kind.c_str(),
                  static_cast<unsigned long long>(v.iteration),
                  static_cast<unsigned long long>(v.scenario.seed),
                  v.detail.c_str());
      if (!v.bundle_path.empty())
        std::printf("    repro: pert_sim repro=%s\n", v.bundle_path.c_str());
    }
    return summary.violations.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
