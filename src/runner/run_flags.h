// The run-control flags of pert_sim and the runner-backed benches, declared
// once: --jobs, --json, --journal, --resume and --shard bind straight to the
// RunnerOptions the batch runs with.
#pragma once

#include <string>

#include "runner/runner.h"
#include "runner/shard.h"

namespace pert::exp::cli {
class OptionSet;
}

namespace pert::runner {

struct RunFlags {
  RunnerOptions runner;  ///< --jobs, --journal, --resume, --shard
  std::string json;      ///< --json PATH: where the report goes
};

/// Registers --jobs --json --journal --resume --shard on `opts`, bound to
/// `out`, with the check that runs once they are parsed: --resume needs
/// --journal.
void add_run_flags(exp::cli::OptionSet& opts, RunFlags& out);

/// Registers --shard K/N alone, bound to `out`; `units` names what the
/// index counts ("grid cells", "iterations").
void add_shard_flag(exp::cli::OptionSet& opts, ShardSpec& out,
                    const std::string& units);

}  // namespace pert::runner
