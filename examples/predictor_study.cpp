// Predictor study walkthrough (the Section 2 methodology on your machine):
// run a loaded dumbbell, record the tagged flow's per-ACK trace, save it to
// disk in pert-trace v1 format, reload it, and evaluate every congestion
// predictor against flow-level and queue-level loss events.
#include <cstdio>
#include <memory>
#include <vector>

#include "exp/dumbbell.h"
#include "exp/table.h"
#include "predictors/classic.h"
#include "predictors/extra.h"
#include "predictors/trace_io.h"
#include "predictors/trace_recorder.h"

int main() {
  using namespace pert;
  using namespace pert::predictors;

  // 1. Simulate: standard TCP over a 50 Mbps DropTail bottleneck with web
  //    cross-traffic; flow 0 (60 ms RTT) is the observed flow.
  exp::DumbbellConfig cfg;
  cfg.scheme = exp::parse_scheme_spec("sack");
  cfg.bottleneck_bps = 50e6;
  cfg.rtt = 0.060;
  cfg.flow_rtts = {0.060, 0.030, 0.090, 0.120};
  cfg.num_fwd_flows = 8;
  cfg.num_web_sessions = 40;
  cfg.start_window = 5.0;
  cfg.seed = 77;
  exp::Dumbbell d(cfg);

  d.network().run_until(15.0);  // converge first
  TraceRecorder rec(d.fwd_sender(0), d.fwd_queue());
  d.network().run_until(75.0);

  // 2. Persist + reload (the offline-analysis path).
  const char* path = "/tmp/pert_example_trace.csv";
  save_trace(rec.take(), path);
  const FlowTrace trace = load_trace(path);
  std::printf("recorded %zu ACK samples, %zu flow losses, %zu queue drops "
              "-> %s\n\n",
              trace.samples.size(), trace.flow_losses.size(),
              trace.queue_losses.size(), path);

  // 3. Evaluate predictors against queue-level losses (the paper's fix to
  //    the earlier measurement studies).
  const double threshold = 0.065;  // P + 5 ms for the 60 ms path
  std::vector<std::unique_ptr<Predictor>> preds;
  preds.push_back(std::make_unique<VegasPredictor>());
  preds.push_back(std::make_unique<CardPredictor>());
  preds.push_back(std::make_unique<TrisPredictor>());
  preds.push_back(std::make_unique<DualPredictor>());
  preds.push_back(std::make_unique<CimPredictor>());
  preds.push_back(std::make_unique<ThresholdPredictor>(threshold));
  preds.push_back(std::make_unique<MovingAvgPredictor>(750, threshold));
  preds.push_back(std::make_unique<EwmaPredictor>(0.99, threshold));
  preds.push_back(std::make_unique<BfaPredictor>());
  preds.push_back(std::make_unique<TrendPredictor>());

  exp::Table t({"predictor", "efficiency", "false pos.", "false neg.",
                "eff. (flow-level)"});
  for (auto& p : preds) {
    ClassifyOptions qopt;
    const TransitionCounts q = classify(trace, *p, qopt);
    ClassifyOptions fopt;
    fopt.queue_level_losses = false;
    const TransitionCounts f = classify(trace, *p, fopt);
    t.row({std::string(p->name()), exp::fmt(q.efficiency(), "%.3f"),
           exp::fmt(q.false_positive_rate(), "%.3f"),
           exp::fmt(q.false_negative_rate(), "%.3f"),
           exp::fmt(f.efficiency(), "%.3f")});
  }
  t.print();
  std::puts("\nNote how queue-level efficiency exceeds flow-level for the "
            "delay signals\n(the paper's Figure 2 point), and how smoothing "
            "(ewma/mavg) removes the\ninstantaneous signal's false "
            "positives (Figure 3).");
  return 0;
}
