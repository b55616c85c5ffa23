// sweep_merge — combine per-shard sweep outputs into one full-grid report.
//
// Usage:
//   sweep_merge [--out PATH] [--partial] INPUT...
//
// Each INPUT is either a RunReport JSON (from `--shard k/n --json ...`) or a
// PERTJ1 journal (from `--shard k/n --journal ...`); the format is sniffed
// from the file content. Inputs must all belong to the same sweep grid and
// shard count; see src/runner/merge.h for the validation rules.
//
// The merged report goes to --out (atomic replace) or stdout. Exit codes:
//   0  complete merge (every grid cell covered)
//   1  usage, validation or I/O error (overlap, grid mismatch, missing
//      cells without --partial, unreadable input)
//   2  partial merge emitted under --partial (some cells missing)
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/option_set.h"
#include "runner/merge.h"
#include "runner/report.h"

int main(int argc, char** argv) {
  std::string out_path;
  pert::runner::MergeOptions opts;
  std::vector<std::string> inputs;

  pert::exp::cli::OptionSet flags(
      "sweep_merge",
      "Merges per-shard RunReport JSONs and/or journals of one sweep grid "
      "into one report.");
  flags.opt("--out", &out_path,
            "write the merged report here (atomic replace; default stdout)",
            "PATH")
      .flag("--partial", &opts.allow_partial,
            "emit a partial report (exit 2) when cells are missing")
      .operands(&inputs, "INPUT...")
      .check([&inputs] {
        if (inputs.empty()) throw std::invalid_argument("no INPUT given");
      });
  flags.parse_or_exit(argc, argv, 1);

  try {
    const pert::runner::MergeOutcome m =
        pert::runner::merge_shards(inputs, opts);
    for (const std::string& note : m.notes)
      std::fprintf(stderr, "sweep_merge: note: %s\n", note.c_str());
    if (out_path.empty()) {
      const std::string doc =
          pert::runner::to_json(m.report).dump(2) + "\n";
      std::fwrite(doc.data(), 1, doc.size(), stdout);
    } else {
      pert::runner::write_report(m.report, out_path);
    }
    std::fprintf(stderr,
                 "sweep_merge: %llu/%llu cells from %zu input(s)%s%s\n",
                 static_cast<unsigned long long>(m.total_cells - m.missing),
                 static_cast<unsigned long long>(m.total_cells),
                 inputs.size(),
                 m.superseded > 0 ? ", duplicates superseded" : "",
                 m.complete() ? "" : " (PARTIAL)");
    return m.complete() ? 0 : 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep_merge: error: %s\n", e.what());
    return 1;
  }
}
