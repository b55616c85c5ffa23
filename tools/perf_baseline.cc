// Perf-baseline tool: converts google-benchmark JSON output into the repo's
// committed BENCH_micro.json format, and diffs two baselines so CI (and
// humans) can spot hot-path regressions across PRs.
//
// Usage:
//   perf_baseline convert <gbench.json> <out.json>
//   perf_baseline median <out.json> <in1.json> <in2.json> [in3.json ...]
//   perf_baseline compare <baseline.json> <candidate.json>
//                 [--warn-pct P] [--only PREFIX[,PREFIX...]]
//
// convert reads the file produced by
//   bench_micro --benchmark_format=json --benchmark_out=<gbench.json>
// and writes {"schema", "benchmarks": {name: {ns_per_op, items_per_s}}} with
// stable key order (diffable in review).
//
// median folds several converted baselines (independent bench runs) into one
// by taking the per-benchmark median ns/op — the standard defense against a
// single noisy run when a comparison is meant to gate.
//
// compare prints a per-benchmark table of ns/op deltas for the baseline's
// benchmarks and exits 0 when every one of them is in the candidate and none
// slowed down by more than P percent (default 15), or 3 when one slowed down
// or is missing from the candidate (the summary names it). --only restricts
// the comparison to baseline benchmarks whose name starts with one of the
// given prefixes; an --only that selects none exits 2, since a gate that
// compares nothing would pass anything. CI runs compare twice: a gating
// median-of-3 pass over the stable scheduler/queue micro-benches (allocation-
// free inner loops, low run-to-run variance) and a non-gating pass over
// everything else (end-to-end benches swing with runner hardware); see
// docs/performance.md for how to re-record the baseline after intentional
// changes.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/option_set.h"
#include "runner/json.h"

namespace {

using pert::runner::JsonValue;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "perf_baseline: cannot open " << path << "\n";
    std::exit(2);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// google-benchmark time in `unit` -> nanoseconds.
double to_ns(double t, const std::string& unit) {
  if (unit == "ns") return t;
  if (unit == "us") return t * 1e3;
  if (unit == "ms") return t * 1e6;
  if (unit == "s") return t * 1e9;
  std::cerr << "perf_baseline: unknown time_unit '" << unit << "'\n";
  std::exit(2);
}

int convert(const std::string& in_path, const std::string& out_path) {
  JsonValue doc;
  try {
    doc = JsonValue::parse(read_file(in_path));
  } catch (const std::exception& e) {
    std::cerr << "perf_baseline: " << in_path << ": " << e.what() << "\n";
    return 2;
  }
  const JsonValue* benches = doc.find("benchmarks");
  if (!benches || !benches->is_array()) {
    std::cerr << "perf_baseline: " << in_path
              << " has no 'benchmarks' array (pass --benchmark_format=json "
                 "output)\n";
    return 2;
  }
  JsonValue out{JsonValue::Object{}};
  out.set("schema", "pert-bench-baseline-v1");
  JsonValue table{JsonValue::Object{}};
  for (const JsonValue& b : benches->as_array()) {
    const JsonValue* name = b.find("name");
    const JsonValue* real = b.find("real_time");
    if (!name || !real) continue;
    // Skip aggregate rows (mean/median/stddev) if repetitions were used;
    // plain runs have run_type "iteration".
    if (const JsonValue* rt = b.find("run_type"))
      if (rt->is_string() && rt->as_string() != "iteration") continue;
    if (table.find(name->as_string())) continue;  // first repetition wins
    const JsonValue* unit = b.find("time_unit");
    const std::string u = unit && unit->is_string() ? unit->as_string() : "ns";
    JsonValue row{JsonValue::Object{}};
    row.set("ns_per_op", to_ns(real->as_double(), u));
    if (const JsonValue* ips = b.find("items_per_second"))
      row.set("items_per_s", ips->as_double());
    table.set(name->as_string(), std::move(row));
  }
  if (table.as_object().empty()) {
    std::cerr << "perf_baseline: no benchmark rows found in " << in_path
              << "\n";
    return 2;
  }
  out.set("benchmarks", std::move(table));
  std::ofstream o(out_path, std::ios::binary);
  o << out.dump(2) << "\n";
  if (!o) {
    std::cerr << "perf_baseline: cannot write " << out_path << "\n";
    return 2;
  }
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

/// True when `name` starts with one of the comma-separated prefixes in
/// `only` ("" = no filter, everything matches).
bool matches_only(const std::string& name, const std::string& only) {
  if (only.empty()) return true;
  std::size_t start = 0;
  while (start <= only.size()) {
    const std::size_t comma = only.find(',', start);
    const std::string pfx =
        only.substr(start, comma == std::string::npos ? comma : comma - start);
    if (!pfx.empty() && name.compare(0, pfx.size(), pfx) == 0) return true;
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return false;
}

int median(const std::string& out_path,
           const std::vector<std::string>& in_paths) {
  // name -> samples, in first-file key order (stable, diffable output).
  std::vector<std::string> order;
  std::map<std::string, std::vector<double>> ns, ips;
  for (std::size_t f = 0; f < in_paths.size(); ++f) {
    JsonValue doc;
    try {
      doc = JsonValue::parse(read_file(in_paths[f]));
    } catch (const std::exception& e) {
      std::cerr << "perf_baseline: " << in_paths[f] << ": " << e.what()
                << "\n";
      return 2;
    }
    const JsonValue* table = doc.find("benchmarks");
    if (!table || !table->is_object()) {
      std::cerr << "perf_baseline: " << in_paths[f]
                << " is not a converted baseline\n";
      return 2;
    }
    for (const auto& [name, row] : table->as_object()) {
      if (f == 0) order.push_back(name);
      ns[name].push_back(row.at("ns_per_op").as_double());
      if (const JsonValue* v = row.find("items_per_s"))
        ips[name].push_back(v->as_double());
    }
  }
  JsonValue out{JsonValue::Object{}};
  out.set("schema", "pert-bench-baseline-v1");
  JsonValue table{JsonValue::Object{}};
  const auto mid = [](std::vector<double>& v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];  // upper median for even counts — conservative
  };
  for (const std::string& name : order) {
    JsonValue row{JsonValue::Object{}};
    row.set("ns_per_op", mid(ns[name]));
    if (auto it = ips.find(name); it != ips.end() && !it->second.empty())
      row.set("items_per_s", mid(it->second));
    table.set(name, std::move(row));
  }
  out.set("benchmarks", std::move(table));
  std::ofstream o(out_path, std::ios::binary);
  o << out.dump(2) << "\n";
  if (!o) {
    std::cerr << "perf_baseline: cannot write " << out_path << "\n";
    return 2;
  }
  std::cout << "wrote " << out_path << " (median of " << in_paths.size()
            << " runs)\n";
  return 0;
}

int compare(const std::string& base_path, const std::string& cand_path,
            double warn_pct, const std::string& only) {
  JsonValue base, cand;
  try {
    base = JsonValue::parse(read_file(base_path));
    cand = JsonValue::parse(read_file(cand_path));
  } catch (const std::exception& e) {
    std::cerr << "perf_baseline: " << e.what() << "\n";
    return 2;
  }
  const JsonValue* bt = base.find("benchmarks");
  const JsonValue* ct = cand.find("benchmarks");
  if (!bt || !bt->is_object() || !ct || !ct->is_object()) {
    std::cerr << "perf_baseline: inputs are not baseline files\n";
    return 2;
  }
  int regressions = 0, selected = 0;
  std::vector<std::string> missing;
  std::printf("%-34s %12s %12s %8s\n", "benchmark", "base ns/op", "cand ns/op",
              "delta");
  for (const auto& [name, row] : bt->as_object()) {
    if (!matches_only(name, only)) continue;
    ++selected;
    const JsonValue* crow = ct->find(name);
    if (!crow) {
      std::printf("%-34s %12s %12s %8s  <-- MISSING\n", name.c_str(), "-",
                  "missing", "");
      missing.push_back(name);
      continue;
    }
    const double b = row.at("ns_per_op").as_double();
    const double c = crow->at("ns_per_op").as_double();
    const double pct = b > 0 ? (c / b - 1.0) * 100.0 : 0.0;
    const bool regressed = pct > warn_pct;
    std::printf("%-34s %12.1f %12.1f %+7.1f%%%s\n", name.c_str(), b, c, pct,
                regressed ? "  <-- REGRESSION" : "");
    if (regressed) ++regressions;
  }
  for (const auto& [name, row] : ct->as_object())
    if (matches_only(name, only) && !bt->find(name))
      std::printf("%-34s %12s %12.1f %8s\n", name.c_str(), "new",
                  row.at("ns_per_op").as_double(), "");
  if (selected == 0) {
    std::cerr << "perf_baseline: --only '" << only
              << "' selects no benchmark of " << base_path << "\n";
    return 2;
  }
  for (const std::string& name : missing)
    std::printf("\nFAIL: %s is in the baseline but not in the candidate.",
                name.c_str());
  if (regressions > 0)
    std::printf(
        "\nWARNING: %d benchmark(s) slower than baseline by more than "
        "%.0f%%.",
        regressions, warn_pct);
  if (regressions > 0 || !missing.empty()) {
    std::printf(
        "\nIf intentional, re-record with tools/perf_baseline "
        "(docs/performance.md).\n");
    return 3;
  }
  std::printf("\nOK: no benchmark regressed by more than %.0f%%.\n", warn_pct);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  double warn_pct = 15.0;
  std::string only;
  std::vector<std::string> pos;
  pert::exp::cli::OptionSet opts(
      "perf_baseline",
      "  perf_baseline convert <gbench.json> <out.json>\n"
      "  perf_baseline median <out.json> <in1.json> <in2.json> "
      "[in3.json ...]\n"
      "  perf_baseline compare <baseline.json> <candidate.json>");
  opts.opt("--warn-pct", &warn_pct,
           "compare: fail (exit 3) when a benchmark slows by more than P "
           "percent",
           "P")
      .opt("--only", &only,
           "compare: only benchmarks whose name starts with a PREFIX",
           "PREFIX[,...]")
      .operands(&pos, "COMMAND FILE...");
  opts.parse_or_exit(argc, argv);
  if (pos.size() == 3 && pos[0] == "convert") return convert(pos[1], pos[2]);
  if (pos.size() >= 4 && pos[0] == "median")
    return median(pos[1], {pos.begin() + 2, pos.end()});
  if (pos.size() == 3 && pos[0] == "compare")
    return compare(pos[1], pos[2], warn_pct, only);
  std::fputs(opts.usage().c_str(), stderr);
  return 2;
}
