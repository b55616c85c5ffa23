// Figure 4: probability distribution of the normalized bottleneck queue
// length at the moments srtt_0.99 false positives occur, over the six cases.
//
// Expected shape: the mass concentrates at low normalized queue lengths
// (mostly below 0.5) — uncertainty strikes when the queue is small, which
// is what justifies a RED-like (small response at small delay) curve.
#include <vector>

#include "exp/table.h"
#include "predict_common.h"
#include "stats/stats.h"

int main(int argc, char** argv) {
  using namespace pert;
  using namespace pert::predictors;
  const bench::Opts opt = bench::Opts::parse(argc, argv, bench::kFull);
  opt.banner("Figure 4: PDF of normalized queue length at false positives",
             "false-positive mass concentrated below ~0.5 of the buffer");

  exp::Table t({"case", "bin 0-0.1", "0.1-0.2", "0.2-0.3", "0.3-0.4",
                "0.4-0.5", "0.5-0.6", "0.6-0.7", "0.7-0.8", "0.8-0.9",
                "0.9-1.0", "FPs"});
  stats::Histogram all(0.0, 1.0, 10);
  for (const auto& c : bench::paper_cases(opt.full)) {
    std::fprintf(stderr, "  tracing %s ...\n", c.name.c_str());
    const FlowTrace trace = bench::record_case(c, opt.full);
    EwmaPredictor srtt99(0.99, bench::kRttThreshold);
    std::vector<double> fp_q;
    ClassifyOptions o;
    o.fp_qnorm = &fp_q;
    classify(trace, srtt99, o);

    stats::Histogram h(0.0, 1.0, 10);
    for (double q : fp_q) {
      h.add(q);
      all.add(q);
    }
    std::vector<std::string> row{c.name};
    for (std::size_t b = 0; b < 10; ++b)
      row.push_back(exp::fmt(h.pdf(b), "%.2f"));
    row.push_back(std::to_string(fp_q.size()));
    t.row(std::move(row));
  }
  std::vector<std::string> row{"ALL"};
  for (std::size_t b = 0; b < 10; ++b) row.push_back(exp::fmt(all.pdf(b), "%.2f"));
  row.push_back(std::to_string(all.total()));
  t.row(std::move(row));
  t.print();

  double below_half = 0;
  for (std::size_t b = 0; b < 5; ++b) below_half += all.pdf(b);
  std::printf("\nfraction of false positives at qnorm < 0.5: %.2f\n",
              below_half);
  return 0;
}
