// Figure 2: fraction of transitions from the "high RTT" state into the
// "loss" state when losses are measured within the tagged flow vs at the
// bottleneck queue, for the six traffic cases.
//
// Expected shape: the queue-level fraction is much higher than the
// flow-level fraction in every case — delay predicts *bottleneck* losses
// well even when the observed flow itself is not the one dropped.
#include "predict_common.h"

#include "exp/table.h"

int main(int argc, char** argv) {
  using namespace pert;
  const bench::Opts opt = bench::Opts::parse(argc, argv, bench::kFull);
  opt.banner("Figure 2: high-RTT -> loss transition fraction, flow vs queue",
             "queue-level correlation >> flow-level correlation, all cases");

  exp::Table t({"case", "LT flows", "web", "flow-level", "queue-level"});
  for (const auto& c : bench::paper_cases(opt.full)) {
    std::fprintf(stderr, "  tracing %s ...\n", c.name.c_str());
    const predictors::FlowTrace trace = bench::record_case(c, opt.full);

    predictors::ThresholdPredictor p(bench::kRttThreshold);
    predictors::ClassifyOptions fo;
    fo.queue_level_losses = false;
    predictors::ClassifyOptions qo;
    qo.queue_level_losses = true;
    const auto cf = predictors::classify(trace, p, fo);
    const auto cq = predictors::classify(trace, p, qo);
    t.row({c.name, std::to_string(c.long_term), std::to_string(c.web),
           exp::fmt(cf.efficiency(), "%.3f"), exp::fmt(cq.efficiency(), "%.3f")});
  }
  t.print();
  return 0;
}
