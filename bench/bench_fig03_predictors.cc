// Figure 3: prediction efficiency, false positives, and false negatives of
// the congestion predictors (losses measured at the bottleneck queue),
// averaged over the six traffic cases. Includes the paper's EWMA-weight
// ablation (7/8 vs 0.99; add 0.995 as an extra point).
//
// Expected shape: Vegas best among the classics; inst-RTT efficient but
// noisy (high FP); MA-750 and EWMA-0.99 both efficient with low FP/FN.
#include <memory>
#include <vector>

#include "exp/table.h"
#include "predict_common.h"
#include "predictors/extra.h"

int main(int argc, char** argv) {
  using namespace pert;
  using namespace pert::predictors;
  const bench::Opts opt = bench::Opts::parse(argc, argv, bench::kFull);
  opt.banner("Figure 3: predictor comparison (queue-level losses)",
             "vegas best classic; inst-rtt high FP; ma-750 and ewma-0.99 "
             "high efficiency with low FP/FN");

  struct Entry {
    std::string name;
    std::unique_ptr<Predictor> p;
    TransitionCounts sum;
  };
  std::vector<Entry> entries;
  entries.push_back({"CARD", std::make_unique<CardPredictor>(), {}});
  entries.push_back({"TRI-S", std::make_unique<TrisPredictor>(), {}});
  entries.push_back({"DUAL", std::make_unique<DualPredictor>(), {}});
  entries.push_back({"Vegas", std::make_unique<VegasPredictor>(), {}});
  entries.push_back({"CIM", std::make_unique<CimPredictor>(), {}});
  entries.push_back(
      {"inst-RTT",
       std::make_unique<ThresholdPredictor>(bench::kRttThreshold), {}});
  entries.push_back(
      {"mavg-750",
       std::make_unique<MovingAvgPredictor>(750, bench::kRttThreshold), {}});
  entries.push_back(
      {"ewma-7/8",
       std::make_unique<EwmaPredictor>(0.875, bench::kRttThreshold), {}});
  entries.push_back(
      {"ewma-0.99 (srtt99)",
       std::make_unique<EwmaPredictor>(0.99, bench::kRttThreshold), {}});
  entries.push_back(
      {"ewma-0.995",
       std::make_unique<EwmaPredictor>(0.995, bench::kRttThreshold), {}});
  // Related-work extras (not in the paper's Figure 3): TCP-BFA variance
  // watcher and a Sync-TCP-style delay-trend detector.
  entries.push_back({"tcp-bfa", std::make_unique<BfaPredictor>(), {}});
  entries.push_back({"sync-trend", std::make_unique<TrendPredictor>(), {}});

  for (const auto& c : bench::paper_cases(opt.full)) {
    std::fprintf(stderr, "  tracing %s ...\n", c.name.c_str());
    const FlowTrace trace = bench::record_case(c, opt.full);
    for (auto& e : entries) {
      const auto counts = classify(trace, *e.p, ClassifyOptions{});
      e.sum.n2 += counts.n2;
      e.sum.n4 += counts.n4;
      e.sum.n5 += counts.n5;
    }
  }

  exp::Table t({"predictor", "efficiency", "false positives",
                "false negatives", "n2", "n4", "n5"});
  for (const auto& e : entries)
    t.row({e.name, exp::fmt(e.sum.efficiency(), "%.3f"),
           exp::fmt(e.sum.false_positive_rate(), "%.3f"),
           exp::fmt(e.sum.false_negative_rate(), "%.3f"),
           std::to_string(e.sum.n2), std::to_string(e.sum.n4),
           std::to_string(e.sum.n5)});
  t.print();
  return 0;
}
