#include "exp/fuzz/generator.h"

#include "sim/random.h"

namespace pert::exp::fuzz {

Scenario generate_scenario(std::uint64_t seed, const GeneratorBounds& b) {
  sim::Rng rng(seed);
  Scenario s;
  s.seed = seed;

  s.topology = rng.bernoulli(b.p_chain) ? Topology::kMultiBottleneck
                                        : Topology::kDumbbell;
  s.bottleneck_bps = rng.uniform(b.min_bps, b.max_bps);
  s.rtt = rng.uniform(b.min_rtt, b.max_rtt);
  s.num_fwd_flows = static_cast<std::int32_t>(rng.uniform_int(
      static_cast<std::uint64_t>(b.min_flows),
      static_cast<std::uint64_t>(b.max_flows)));

  const SchemeSpec sack = parse_scheme_spec("sack");
  if (rng.bernoulli(b.p_alt_scheme))
    s.scheme = rng.bernoulli(0.5) ? parse_scheme_spec("pert-pi") : sack;
  else
    s.scheme = parse_scheme_spec("pert");

  if (rng.bernoulli(b.p_rev_flows))
    s.num_rev_flows = static_cast<std::int32_t>(rng.uniform_int(1, 4));
  if (rng.bernoulli(b.p_web))
    s.num_web_sessions = static_cast<std::int32_t>(rng.uniform_int(2, 10));
  if (s.scheme != sack && rng.bernoulli(b.p_sack_mix))
    s.nonproactive_fraction = rng.uniform(0.1, 0.5);

  // Chain dimensions: small, so one scenario stays a few wall-seconds.
  s.num_routers = static_cast<std::int32_t>(rng.uniform_int(3, 4));
  s.hosts_per_cloud = static_cast<std::int32_t>(rng.uniform_int(2, 5));

  // PERT knobs within the paper's studied ranges (pmax around the 0.05
  // default, early response beta around the 0.35 default).
  s.pert_pmax = rng.uniform(0.03, 0.10);
  s.pert_early_beta = rng.uniform(0.25, 0.50);
  s.pert_gentle = true;

  // Impairments within the Section 4 ablation ranges.
  if (rng.bernoulli(b.p_loss)) s.loss_p = rng.uniform(0.0005, 0.01);
  if (rng.bernoulli(b.p_jitter))
    s.jitter_max_delay = rng.uniform(0.001, 0.01);
  if (rng.bernoulli(b.p_reorder)) {
    s.reorder_p = rng.uniform(0.005, 0.05);
    s.reorder_max_delay = rng.uniform(0.002, 0.02);
  }

  s.start_window = 2.0;
  s.warmup = b.warmup;
  s.measure = b.measure;
  return s;
}

}  // namespace pert::exp::fuzz
