// RED / gentle RED / Adaptive RED with ECN marking.
//
// Classic algorithm from Floyd & Jacobson (1993) with the "gentle" extension
// and the Adaptive-RED self-tuning of max_p from Floyd, Gummadi & Shenker
// (2001). This is the router-side baseline that PERT emulates from end hosts.
#pragma once

#include <vector>

#include "net/queue.h"
#include "sim/random.h"
#include "sim/timer.h"

namespace pert::net {

struct RedParams {
  double min_th = 5;        ///< packets
  double max_th = 15;       ///< packets
  double max_p = 0.10;
  double wq = 0.002;        ///< EWMA weight for the average queue length
  bool gentle = true;       ///< linear ramp max_p -> 1 on [max_th, 2*max_th]
  bool ecn = true;          ///< mark ECT packets instead of dropping
  bool adaptive = false;    ///< Adaptive-RED max_p tuning
  double mean_pktsize = 1040;  ///< bytes; for the idle-time decay estimate
  /// Link rate in packets/second, used for idle decay and Adaptive-RED's
  /// automatic wq = 1 - exp(-1/C). Set by the topology builder.
  double link_rate_pps = 1000;

  /// Floyd-2001 defaults scaled to a queue of `cap` packets: thresholds at
  /// cap/6 and cap/2 (min 5/15), automatic wq from the link rate. Floors
  /// that bind are recorded in `clamps` and surface as one-shot trace
  /// warnings through the queue (see Queue::note_param_clamp).
  static RedParams auto_tuned(std::int32_t cap, double link_rate_pps,
                              bool ecn_enabled = true);

  /// Intentional clamps applied while deriving these params: {param,
  /// requested, used}. Forwarded by the RedQueue ctor so auto-tuning floors
  /// are never silently invisible.
  struct Clamp {
    const char* param;
    double requested;
    double used;
  };
  std::vector<Clamp> clamps;

  /// Rejects out-of-domain parameters with sim::ConfigError: inverted
  /// thresholds (min_th >= max_th), probabilities outside [0, 1], EWMA
  /// weight outside (0, 1], non-positive sizes/rates.
  void validate() const {
    sim::require_positive("RedParams", "min_th", min_th);
    sim::require_less("RedParams", "min_th", min_th, "max_th", max_th);
    sim::require_prob("RedParams", "max_p", max_p);
    sim::require_positive("RedParams", "wq", wq);
    sim::require_le("RedParams", "wq", wq, "1", 1.0);
    sim::require_positive("RedParams", "mean_pktsize", mean_pktsize);
    sim::require_positive("RedParams", "link_rate_pps", link_rate_pps);
  }
};

class RedQueue final : public Queue {
 public:
  RedQueue(sim::Scheduler& sched, std::int32_t capacity_pkts, RedParams params,
           sim::Rng rng = sim::Rng(0x4ed5eedULL));

  void enqueue(PacketPtr p) override;
  PacketPtr dequeue() override;

  double avg() const noexcept { return avg_; }
  const RedParams& params() const noexcept { return params_; }
  double cur_max_p() const noexcept { return params_.max_p; }

  /// Base checks plus the averaged queue and adapted max_p.
  std::string numeric_violation() const override;

 private:
  /// Probability of mark/drop for the current average, given the count of
  /// packets since the last mark (Floyd's p_a = p_b / (1 - count*p_b)).
  double mark_probability();

  void update_avg_on_arrival();
  void adapt_max_p();

  RedParams params_;
  double avg_ = 0.0;
  std::int64_t count_ = -1;      ///< packets since last mark; -1 = none yet
  sim::Time idle_since_ = 0.0;   ///< when the queue went empty (kNever if busy)
  sim::Rng rng_;
  sim::Timer adapt_timer_;
};

}  // namespace pert::net
