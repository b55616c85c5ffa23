// Adaptive Virtual Queue (Kunniyur & Srikant, SIGCOMM 2001).
//
// A virtual queue drains at adaptive capacity C~ <= gamma*C; packets that
// would overflow the *virtual* buffer are marked/dropped, so the real queue
// is kept nearly empty. The virtual capacity follows d(C~)/dt =
// alpha*(gamma*C - lambda), implemented exactly at arrival epochs.
#pragma once

#include "net/queue.h"

namespace pert::net {

struct AvqParams {
  double gamma = 0.98;   ///< desired utilization
  double alpha = 0.15;   ///< adaptation gain
  bool ecn = true;

  /// Rejects out-of-domain parameters with sim::ConfigError: gamma is a
  /// target utilization in (0, 1], alpha a positive adaptation gain.
  void validate() const {
    sim::require_positive("AvqParams", "gamma", gamma);
    sim::require_le("AvqParams", "gamma", gamma, "1", 1.0);
    sim::require_positive("AvqParams", "alpha", alpha);
  }
};

class AvqQueue final : public Queue {
 public:
  AvqQueue(sim::Scheduler& sched, std::int32_t capacity_pkts, double link_bps,
           AvqParams params);

  void enqueue(PacketPtr p) override;

  double virtual_capacity_bps() const noexcept { return vcap_bps_; }

  /// Base checks plus virtual capacity/backlog and the mean-packet EWMA.
  std::string numeric_violation() const override;

 private:
  AvqParams params_;
  double link_bps_;
  double vcap_bps_;     ///< C~, bits per second
  double vq_bytes_ = 0; ///< virtual queue backlog
  double mean_pkt_ = 1040;
  sim::Time last_ = 0.0;
};

}  // namespace pert::net
