// Figure 5: the PERT probabilistic response curve (response probability vs
// the smoothed queueing-delay signal), gentle and non-gentle variants.
#include "common.h"
#include "core/pert_params.h"
#include "core/response_curve.h"
#include "exp/table.h"

int main(int argc, char** argv) {
  using namespace pert;
  const bench::Opts opt = bench::Opts::parse(argc, argv, 0);
  opt.banner("Figure 5: PERT response curve",
             "0 below T_min=P+5ms; linear to p_max=0.05 at T_max=P+10ms; "
             "gentle ramp to 1 at 2*T_max");

  core::PertParams p;
  const core::ResponseCurve gentle(p);
  core::PertParams np = p;
  np.gentle = false;
  const core::ResponseCurve abrupt(np);

  exp::Table t({"queueing delay (ms)", "srtt_0.99 (P=60ms path)",
                "p(gentle)", "p(non-gentle)"});
  for (int ms = 0; ms <= 25; ++ms) {
    const double tq = ms * 1e-3;
    t.row({exp::fmt(ms, "%g"), exp::fmt(60.0 + ms, "%g ms"),
           exp::fmt(gentle.probability(tq), "%.4f"),
           exp::fmt(abrupt.probability(tq), "%.4f")});
  }
  t.print();
  return 0;
}
