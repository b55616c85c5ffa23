#include "runner/run_flags.h"

#include <stdexcept>

#include "exp/option_set.h"

namespace pert::runner {

void add_shard_flag(exp::cli::OptionSet& opts, ShardSpec& out,
                    const std::string& units) {
  opts.opt("--shard", &out, parse_shard,
           "run only the " + units + " with index % N == K (0-based)", "K/N");
}

void add_run_flags(exp::cli::OptionSet& opts, RunFlags& out) {
  opts.opt("--jobs", &out.runner.threads,
           "cells run in parallel (0 = all cores)")
      .opt("--json", &out.json, "write the RunReport here as JSON", "PATH")
      .opt("--journal", &out.runner.journal_path,
           "journal every completed cell here (crash-safe)", "PATH")
      .flag("--resume", &out.runner.resume,
            "recover completed cells from --journal, run only the rest");
  add_shard_flag(opts, out.runner.shard, "grid cells");
  opts.check([&out] {
    if (out.runner.resume && out.runner.journal_path.empty())
      throw std::invalid_argument("--resume requires --journal PATH");
  });
}

}  // namespace pert::runner
