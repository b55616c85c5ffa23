// Shared TCP configuration knobs.
#pragma once

#include <cstdint>

#include "sim/validate.h"

namespace pert::tcp {

class FlowArena;

struct TcpConfig {
  static constexpr std::int32_t seg_payload = 1000;  ///< payload bytes/segment
  static constexpr std::int32_t header_bytes = 40;   ///< TCP/IP header on wire
  static constexpr std::int32_t ack_bytes = 40;      ///< on-wire ACK size
  static constexpr double loss_beta = 0.5;  ///< decrease on loss/ECE
  static constexpr std::int32_t dupthresh = 3;  ///< dupacks before fast rexmit

  double initial_cwnd = 2.0;         ///< packets
  double initial_ssthresh = 1e12;    ///< packets (effectively unbounded)
  bool ecn = false;                  ///< ECN-capable transport (RFC 3168)
  double min_rto = 0.2;              ///< seconds (ns-2 default minrto_)
  double max_rto = 60.0;             ///< seconds
  double max_cwnd = 1e9;             ///< packets; cap for pathological cases
  /// RTO before the first RTT sample (RFC 6298 suggests 1 s; ns-2 uses 3 s).
  double initial_rto = 3.0;
  /// Optional struct-of-arrays backing store (tcp/flow_arena.h) for the
  /// sender's cwnd and ssthresh. Not owned; must outlive every sender built
  /// with this config. nullptr (default) keeps them inline in the sender.
  /// Either way the arithmetic is identical — this only moves where the
  /// doubles live.
  FlowArena* arena = nullptr;

  static constexpr std::int32_t seg_bytes() noexcept {
    return seg_payload + header_bytes;
  }

  /// Rejects out-of-domain knobs with sim::ConfigError. Called by TcpSender
  /// at construction (covering every CC variant that subclasses it).
  void validate() const {
    sim::require_positive("TcpConfig", "initial_cwnd", initial_cwnd);
    sim::require_positive("TcpConfig", "initial_ssthresh", initial_ssthresh);
    sim::require_positive("TcpConfig", "min_rto", min_rto);
    sim::require_le("TcpConfig", "min_rto", min_rto, "max_rto", max_rto);
    sim::require_positive("TcpConfig", "max_cwnd", max_cwnd);
    sim::require_positive("TcpConfig", "initial_rto", initial_rto);
  }
};

}  // namespace pert::tcp
