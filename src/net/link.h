// Unidirectional point-to-point link: a queue, a serializing transmitter,
// and a fixed propagation delay. The pipe can hold arbitrarily many packets
// in flight (each delivery is its own event).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "net/packet.h"
#include "net/queue.h"
#include "sim/scheduler.h"

namespace pert::net {

class Node;
class ShardChannel;

class Link {
 public:
  struct Stats {
    std::uint64_t pkts_tx = 0;   ///< packets fully serialized onto the wire
    std::uint64_t bytes_tx = 0;
    /// Integral of "transmitter busy" time; diff snapshots / elapsed = util.
    double busy_integral = 0.0;
    std::uint64_t outages = 0;   ///< down-edge count (link flaps)
    double down_integral = 0.0;  ///< total time spent down
  };

  Link(sim::Scheduler& sched, Node& to, double rate_bps,
       sim::Time prop_delay, std::unique_ptr<Queue> queue);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Entry point for traffic: enqueue and start transmitting if idle.
  void send(PacketPtr p);

  /// Takes the transmitter down / brings it back up (scheduled outages,
  /// impairment flaps). Calls nest: the link is up only when every set_down
  /// (true) has been matched by a set_down(false). While down, arriving
  /// packets queue up (and overflow per the discipline); a transmission
  /// already on the wire completes. On the up-edge the transmitter resumes
  /// draining the queue.
  void set_down(bool down);
  bool down() const noexcept { return down_depth_ > 0; }

  Queue& queue() noexcept { return *queue_; }
  const Queue& queue() const noexcept { return *queue_; }
  double rate_bps() const noexcept { return rate_bps_; }
  sim::Time prop_delay() const noexcept { return prop_delay_; }

  /// Time to serialize one packet of `bytes` at line rate.
  sim::Time tx_time(std::int64_t bytes) const noexcept {
    return static_cast<double>(bytes) * 8.0 / rate_bps_;
  }

  Stats snapshot() const {
    Stats s = stats_;
    if (busy_) s.busy_integral += sched_->now() - busy_since_;
    if (down()) s.down_integral += sched_->now() - down_since_;
    return s;
  }

  /// Numeric sentinel over the transmit counters and busy-time integral
  /// (window metrics difference snapshots of these; a saturated counter or
  /// non-finite integral silently poisons every later window). Returns ""
  /// while healthy. Polled from the watchdog, never the packet path.
  std::string numeric_violation() const;

  /// Marks this link as a shard boundary (parallel engine): the propagation
  /// leg ships packets through `ch` instead of a locally scheduled delivery
  /// event, so the receiving node runs on its own shard's scheduler. Set by
  /// Network::finalize_shards(); null (the default) keeps local delivery.
  void set_boundary(ShardChannel* ch) noexcept { boundary_ = ch; }

  /// Attaches a tracer (not owned; may be null) for this link and its queue.
  /// Emits "link.tx" (kDebug, per packet) and "link.down"/"link.up" (kWarn)
  /// instants; the queue reports under the same entity id.
  void set_tracer(obs::Tracer* tracer, std::uint32_t id) noexcept {
    tracer_ = tracer;
    trace_id_ = id;
    queue_->set_tracer(tracer, id);
  }

 private:
  void try_transmit();

  sim::Scheduler* sched_;
  Node* to_;
  double rate_bps_;
  sim::Time prop_delay_;
  std::unique_ptr<Queue> queue_;
  ShardChannel* boundary_ = nullptr;
  bool busy_ = false;
  sim::Time busy_since_ = 0.0;
  std::int32_t down_depth_ = 0;
  sim::Time down_since_ = 0.0;
  Stats stats_;
  obs::Tracer* tracer_ = nullptr;
  std::uint32_t trace_id_ = 0;
};

}  // namespace pert::net
