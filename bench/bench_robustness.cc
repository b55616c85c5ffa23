// Robustness sweep: PERT vs SACK/DropTail under non-congestion impairments
// at increasing severity — random loss (Bernoulli), bursty loss
// (Gilbert-Elliott), reordering, delay jitter, payload-size-dependent bit
// errors, and link flaps.
//
// Expected shape: PERT holds its low queue but loses utilization faster than
// SACK as non-congestion loss grows (early response to delay noise +
// ordinary loss response); reordering/jitter perturb PERT's delay predictor
// where SACK only sees dupacks; both collapse equally during an outage.
//
// Every (impairment, severity, scheme) cell is one runner::Job; the grid is
// bit-identical for any --jobs value (each cell's impairment trace is fixed
// by its derived seed), which CI checks with --smoke --jobs 1 vs 4.
#include <string>
#include <vector>

#include "common.h"
#include "sweep.h"

namespace {

struct Cell {
  std::string label;             // e.g. "loss p=0.01"
  pert::net::ImpairmentConfig impair;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace pert;
  const bench::Opts opt = bench::Opts::parse(
      argc, argv, bench::kFull | bench::kSmoke | bench::kSchemes |
                  bench::kRunner);
  opt.banner("Robustness: impairment models at increasing severity",
             "PERT queue stays low under impairments; utilization falls "
             "faster than SACK as non-congestion loss grows");

  const double warmup = opt.smoke ? 5.0 : (opt.full ? 50.0 : 15.0);
  const double measure = opt.smoke ? 10.0 : (opt.full ? 100.0 : 30.0);

  std::vector<Cell> cells;
  cells.push_back({"none", {}});
  auto add = [&cells](const std::string& label,
                      const net::ImpairmentConfig& ic) {
    cells.push_back({label, ic});
  };

  const std::vector<double> loss_ps =
      opt.smoke ? std::vector<double>{0.01}
                : std::vector<double>{0.001, 0.01, 0.05};
  for (double p : loss_ps) {
    net::ImpairmentConfig ic;
    ic.loss.p = p;
    add("loss p=" + exp::fmt(p, "%g"), ic);
  }
  const std::vector<double> ge_enters =
      opt.smoke ? std::vector<double>{0.005}
                : std::vector<double>{0.001, 0.005, 0.02};
  for (double e : ge_enters) {
    net::ImpairmentConfig ic;
    ic.gilbert.p_enter_bad = e;
    ic.gilbert.p_exit_bad = 0.25;
    add("gilbert enter=" + exp::fmt(e, "%g"), ic);
  }
  const std::vector<double> reorder_ps =
      opt.smoke ? std::vector<double>{0.05}
                : std::vector<double>{0.01, 0.05, 0.2};
  for (double p : reorder_ps) {
    net::ImpairmentConfig ic;
    ic.reorder.p = p;
    ic.reorder.min_delay = 0.002;
    ic.reorder.max_delay = 0.010;
    add("reorder p=" + exp::fmt(p, "%g"), ic);
  }
  const std::vector<double> jitter_ms =
      opt.smoke ? std::vector<double>{5.0}
                : std::vector<double>{2.0, 5.0, 10.0};
  for (double ms : jitter_ms) {
    net::ImpairmentConfig ic;
    ic.jitter.max_delay = ms * 1e-3;
    add("jitter max=" + exp::fmt(ms, "%gms"), ic);
  }
  const std::vector<double> bers =
      opt.smoke ? std::vector<double>{5e-7}
                : std::vector<double>{1e-7, 5e-7, 2e-6};
  for (double ber : bers) {
    net::ImpairmentConfig ic;
    ic.bit_error.ber = ber;
    add("biterror ber=" + exp::fmt(ber, "%g"), ic);
  }
  const std::vector<double> outages =
      opt.smoke ? std::vector<double>{0.5}
                : std::vector<double>{0.2, 0.5, 2.0};
  for (double down : outages) {
    net::ImpairmentConfig ic;
    ic.flap.first_down = warmup + 0.25 * measure;
    ic.flap.down_for = down;
    ic.flap.period = 0.5 * measure;
    ic.flap.count = 2;
    add("flap down=" + exp::fmt(down, "%gs"), ic);
  }

  bench::SweepSpec spec;
  spec.name = "robustness";
  spec.x_name = "impairment";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    spec.xs.push_back(static_cast<double>(i));  // index into `cells`
    spec.x_labels.push_back(cells[i].label);
  }
  spec.schemes = opt.schemes_or("pert,sack");
  spec.config = [&](double x, const exp::SchemeSpec& s) {
    exp::DumbbellConfig cfg;
    cfg.scheme = s;
    cfg.bottleneck_bps = opt.smoke ? 20e6 : 50e6;
    cfg.rtt = 0.060;
    cfg.num_fwd_flows = opt.smoke ? 10 : 20;
    cfg.start_window = opt.smoke ? 3.0 : 10.0;
    cfg.seed = 20070827;
    cfg.impair = cells[static_cast<std::size_t>(x)].impair;
    return cfg;
  };
  spec.window = [&](double) { return std::pair{warmup, measure}; };

  const runner::RunReport report = bench::run_dumbbell_sweep(spec, opt);

  // Drop-cause split per cell: shows injected (impairment) losses separated
  // from congestion/overflow drops the AQM itself took.
  std::printf("-- drop causes (congestion/overflow/injected) --\n");
  {
    std::vector<std::string> headers{spec.x_name};
    for (auto s : spec.schemes) headers.emplace_back(s.display);
    exp::Table t(headers);
    const std::size_t ns = spec.schemes.size();
    const std::vector<const runner::JobResult*> by_cell =
        bench::table_cells(report);
    for (std::size_t i = 0; i < spec.xs.size(); ++i) {
      std::vector<std::string> row{spec.x_labels[i]};
      for (std::size_t j = 0; j < ns; ++j) {
        const runner::JobResult* r = by_cell[i * ns + j];
        if (r == nullptr) {
          row.emplace_back("-");
          continue;
        }
        const exp::WindowMetrics& m = r->metrics;
        row.push_back(std::to_string(m.congestion_drops) + "/" +
                      std::to_string(m.overflow_drops) + "/" +
                      std::to_string(m.injected_drops));
      }
      t.row(std::move(row));
    }
    t.print();
    std::printf("\n");
  }

  return opt.finish(report);
}
