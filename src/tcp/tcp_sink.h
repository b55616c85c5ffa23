// TCP receiver: acknowledges every data segment as it arrives, like ns-2's
// Sack1 sink, echoes the sender timestamp for exact RTT measurement plus its
// own arrival clock for one-way-delay measurement, generates up to three
// SACK blocks, and implements RFC 3168 ECE echo semantics.
#pragma once

#include <cstdint>
#include <deque>
#include <map>

#include "net/network.h"
#include "net/node.h"
#include "net/packet.h"
#include "tcp/tcp_config.h"

namespace pert::tcp {

class TcpSink final : public net::Agent {
 public:
  explicit TcpSink(net::Network& net) : net_(&net) {}

  void receive(net::PacketPtr p) override;

  /// Next expected in-order sequence (== count of in-order packets received).
  std::int64_t rcv_next() const noexcept { return rcv_next_; }
  std::int64_t total_rx_pkts() const noexcept { return rx_pkts_; }
  std::uint64_t ce_marks_seen() const noexcept { return ce_seen_; }

 private:
  void note_received(std::int64_t seq);
  void fill_sack(net::Packet& ack) const;
  /// Acks `seg`, the data segment that just arrived.
  void send_ack(const net::Packet& seg);

  net::Network* net_;
  std::int64_t rcv_next_ = 0;
  std::int64_t rx_pkts_ = 0;
  std::uint64_t ce_seen_ = 0;
  bool ece_pending_ = false;

  /// Out-of-order data above rcv_next_: disjoint ranges start -> end.
  std::map<std::int64_t, std::int64_t> ranges_;
  /// Start keys of the most recently updated ranges (newest first).
  std::deque<std::int64_t> recent_;
};

}  // namespace pert::tcp
