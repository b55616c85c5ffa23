// TCP sender at packet granularity (one sequence number per segment, cwnd in
// packets — the ns-2 model). Implements:
//   - slow start / congestion avoidance (Reno increase),
//   - fast retransmit + SACK-based loss recovery with ns-2 "sack1"-style
//     pipe accounting,
//   - retransmission timeout with exponential backoff and go-back-N resend,
//   - ECN response (RFC 3168: one window reduction per RTT, CWR signalling),
//   - exact per-ACK RTT via the receiver's timestamp echo.
//
// Congestion-control variants (Vegas, PERT, CUBIC, DCTCP, ...) plug in
// through a `CongestionOps` table (tcp/cc_ops.h) passed at construction; a
// default-constructed table keeps the built-in Reno/loss_beta behavior —
// that IS the paper's SACK sender. Modules see the sender through the
// `CcHost` facade defined at the bottom of this header.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <string>

#include "net/network.h"
#include "net/node.h"
#include "net/packet.h"
#include "obs/trace.h"
#include "sim/timer.h"
#include "tcp/cc_ops.h"
#include "tcp/tcp_config.h"

namespace pert::tcp {

class TcpSender : public net::Agent {
 public:
  struct FlowStats {
    std::int64_t data_pkts_sent = 0;  ///< includes retransmissions
    std::int64_t rexmits = 0;
    std::int64_t acks_rx = 0;
    std::int64_t loss_events = 0;     ///< fast-retransmit episodes
    std::int64_t timeouts = 0;
    std::int64_t ecn_responses = 0;
    std::int64_t early_responses = 0; ///< PERT proactive reductions
  };

  /// Built-in behavior (empty ops table): the paper's SACK/Reno sender.
  TcpSender(net::Network& net, TcpConfig cfg, net::FlowId flow);
  /// Installs a congestion-control module. `ops.init` runs at the end of
  /// this constructor; `ops.init_arg` must stay valid until then (a
  /// temporary in the caller's mem-initializer qualifies) and is nulled
  /// afterwards.
  TcpSender(net::Network& net, TcpConfig cfg, net::FlowId flow,
            const CongestionOps& ops);
  ~TcpSender() override;

  /// Sets the destination endpoint. Must be called before start().
  void connect(net::NodeId dst, std::int32_t dst_port);

  /// Begins transmission at absolute time `at` (default: immediately).
  void start(sim::Time at = 0.0);

  /// Switches from the default infinite source to a finite transfer of
  /// `pkts` more segments; on_transfer_complete fires when fully acked.
  void start_transfer(std::int64_t pkts, bool fresh_slow_start = false);

  /// Stops offering new data (outstanding data still drains/retransmits).
  void stop() {
    infinite_ = false;
    app_limit_ = next_seq_;
  }

  void receive(net::PacketPtr p) override;

  // --- observers ---
  double cwnd() const noexcept { return cwnd_; }
  double ssthresh() const noexcept { return ssthresh_; }
  std::int64_t snd_una() const noexcept { return snd_una_; }
  std::int64_t next_seq() const noexcept { return next_seq_; }
  bool in_recovery() const noexcept { return in_recovery_; }
  double srtt() const noexcept { return srtt_; }
  double rto() const noexcept { return rto_; }
  double min_rtt() const noexcept { return min_rtt_; }
  const FlowStats& flow_stats() const noexcept { return st_; }
  const TcpConfig& config() const noexcept { return cfg_; }
  net::FlowId flow() const noexcept { return flow_; }
  /// Acked payload bytes — the goodput numerator for fairness metrics.
  std::int64_t acked_bytes() const noexcept {
    return snd_una_ * cfg_.seg_payload;
  }

  /// The installed congestion-control module table.
  const CongestionOps& cc_ops() const noexcept { return ops_; }
  /// The module's private-state slot (null when priv_size == 0). Typed
  /// wrapper classes (CubicSender, PertSender, ...) cast this to their
  /// state struct for tests and predictors.
  void* cc_priv() noexcept { return cc_priv_.get(); }
  const void* cc_priv() const noexcept { return cc_priv_.get(); }

  /// Self-check for the simulation watchdog: cwnd/ssthresh finite, positive,
  /// and bounded; sequence space consistent; RTT state sane; cumulative
  /// counters below saturation; plus the module's own invariant_check hook
  /// (PERT's srtt99 EWMA, PERT/PI's integrator). Returns "" while healthy,
  /// else a message describing the broken invariant.
  std::string invariant_violation() const;

  /// One diagnostic line (cwnd, ssthresh, una/next, recovery, rto) for abort
  /// snapshots.
  std::string state_line() const;

  // --- instrumentation hooks (experiments attach these) ---
  std::function<void(double rtt, sim::Time now)> on_rtt_sample;
  std::function<void(sim::Time now)> on_loss_event;  ///< flow-level loss
  std::function<void()> on_transfer_complete;

  /// Attaches a tracer (not owned; may be null). The sender reports under
  /// its flow id: "tcp.enter_recovery"/"tcp.exit_recovery"/"tcp.ecn_response"
  /// (kInfo), "tcp.rto" (kWarn), and "tcp.cwnd"/"tcp.srtt" counter series
  /// (kDebug, per ACK). CC modules (PERT, PERT/PI) add their own series
  /// through CcHost::tracer().
  void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }

 protected:
  obs::Tracer* tracer() const noexcept { return tracer_; }
  std::uint32_t trace_id() const noexcept {
    return static_cast<std::uint32_t>(flow_);
  }

  /// Reduces cwnd by `beta` (cwnd *= 1-beta) and leaves slow start.
  /// Used by ECN response and PERT's early response.
  void multiplicative_decrease(double beta);

  sim::Time now() const noexcept { return sched_->now(); }
  net::Network& network() noexcept { return *net_; }
  void bump_early_responses() noexcept { ++st_.early_responses; }
  bool has_data_outstanding() const noexcept { return next_seq_ > snd_una_; }

  /// Hot congestion state. References, so every use site reads/writes them
  /// exactly as before: they bind either to this sender's inline fields
  /// or — when cfg.arena has a free slot — to the flow's row in the
  /// struct-of-arrays FlowArena, which packs the per-ACK working set of a
  /// many-flow scenario into contiguous cache lines.
  double& cwnd_;
  double& ssthresh_;

 private:
  /// Delegation target: `slot` is the arena row acquired by the public
  /// constructor (acquire() is stateful, so it must run exactly once,
  /// before the reference members bind).
  TcpSender(net::Network& net, TcpConfig cfg, net::FlowId flow,
            const CongestionOps& ops, std::int32_t slot);

  enum Flag : std::uint8_t { kSacked = 1, kRexmit = 2, kLost = 4 };

  /// How many in-flight copies of a packet the given scoreboard flags imply
  /// (RFC 3517 SetPipe, per packet): the original unless sacked or deemed
  /// lost, plus a retransmission if one was sent.
  static std::int64_t counted(std::uint8_t f) noexcept {
    return ((f & (kSacked | kLost)) == 0 ? 1 : 0) + ((f & kRexmit) ? 1 : 0);
  }

  /// Marks unsacked packets below the highest SACK as lost (exact FACK
  /// inference: this simulator never reorders) and updates pipe.
  void advance_lost_marking();
  /// Recomputes pipe from the scoreboard (recovery entry).
  void rebuild_pipe();

  void handle_new_ack(std::int64_t ack);
  void handle_dupack();
  void process_sack(const net::Packet& ack);
  void handle_ece();
  void enter_recovery();
  void exit_recovery();
  void on_rto();
  void try_send();
  void send_segment(std::int64_t seq, bool rexmit);
  void update_rtt(double sample);
  void restart_rto_timer();
  void check_complete();

  // --- module dispatch ---
  /// ops_.on_ack or the built-in Reno growth.
  void dispatch_ack(std::int64_t newly);
  /// Reno: slow start +1/ack, congestion avoidance +1/cwnd per ack.
  void default_reno_ack(std::int64_t newly);
  /// ops_.on_loss_event (fires before any window reduction).
  void dispatch_loss_event();
  /// ops_.cwnd_event notification.
  void dispatch_cwnd_event(CcEvent e);

  /// Next retransmission candidate in recovery, or -1.
  std::int64_t next_hole();

  std::uint8_t& flag(std::int64_t seq) {
    return sb_[static_cast<std::size_t>(seq - snd_una_)];
  }
  std::uint8_t flag(std::int64_t seq) const {
    return sb_[static_cast<std::size_t>(seq - snd_una_)];
  }

  net::Network* net_;
  /// The scheduler of the shard this sender was built on, where all its
  /// events run: now(), called several times per ACK, reads it without the
  /// network's shard cursor.
  sim::Scheduler* sched_;
  TcpConfig cfg_;
  net::FlowId flow_;
  /// Fallback storage for cwnd_/ssthresh_ when no arena row was available.
  double cwnd_inline_ = 0.0;
  double ssthresh_inline_ = 0.0;
  net::NodeId dst_ = net::kNoNode;
  std::int32_t dst_port_ = 0;

  CongestionOps ops_;
  /// Module private state, max_align_t-aligned, sized by ops_.priv_size.
  std::unique_ptr<std::max_align_t[]> cc_priv_;

  std::int64_t snd_una_ = 0;
  std::int64_t next_seq_ = 0;
  std::int64_t app_limit_ = std::numeric_limits<std::int64_t>::max();
  bool infinite_ = true;
  bool complete_fired_ = false;

  std::int32_t dupacks_ = 0;
  bool in_recovery_ = false;
  bool rto_recovery_ = false;
  std::int64_t recovery_point_ = 0;
  std::int64_t pipe_ = 0;
  std::int64_t scan_ = 0;               ///< hole-scan cursor
  std::int64_t lost_hwm_ = 0;           ///< lost-marking applied below this
  std::deque<std::uint8_t> sb_;         ///< scoreboard flags [snd_una, next_seq)
  std::int64_t highest_sacked_end_ = 0; ///< exclusive end of highest SACK

  double srtt_ = -1.0;
  double rttvar_ = 0.0;
  double rto_ = 3.0;
  std::int32_t backoff_ = 1;
  double min_rtt_ = std::numeric_limits<double>::infinity();

  bool pending_cwr_ = false;
  std::int64_t ece_reduce_point_ = 0;   ///< next_seq at last ECN reduction

  sim::Timer rto_timer_;
  FlowStats st_;
  obs::Tracer* tracer_ = nullptr;

  friend class CcHost;
};

/// Narrow facade over TcpSender's congestion surface, handed to every
/// CongestionOps hook. Modules see the window, the clock, the config,
/// tracing, and the shared reduction helper — not the scoreboard or the
/// retransmission machinery.
class CcHost {
 public:
  explicit CcHost(TcpSender& s) noexcept : s_(&s) {}

  TcpSender& sender() noexcept { return *s_; }
  const TcpSender& sender() const noexcept { return *s_; }
  /// The installed ops table (init reads init_arg through this).
  const CongestionOps& ops() const noexcept { return s_->ops_; }
  const TcpConfig& config() const noexcept { return s_->cfg_; }
  net::Network& net() noexcept { return *s_->net_; }
  sim::Time now() const noexcept { return s_->now(); }

  double& cwnd() noexcept { return s_->cwnd_; }
  double& ssthresh() noexcept { return s_->ssthresh_; }
  bool in_recovery() const noexcept { return s_->in_recovery_; }
  std::int64_t snd_una() const noexcept { return s_->snd_una_; }
  std::int64_t next_seq() const noexcept { return s_->next_seq_; }
  double srtt() const noexcept { return s_->srtt_; }
  double min_rtt() const noexcept { return s_->min_rtt_; }

  /// cwnd *= 1-beta, ssthresh follows; leaves slow start.
  void multiplicative_decrease(double beta) {
    s_->multiplicative_decrease(beta);
  }
  /// Counts a PERT-style proactive reduction in FlowStats.
  void note_early_response() noexcept { s_->bump_early_responses(); }

  obs::Tracer* tracer() const noexcept { return s_->tracer_; }
  std::uint32_t trace_id() const noexcept { return s_->trace_id(); }

 private:
  TcpSender* s_;
};

}  // namespace pert::tcp
