#include "tcp/tcp_sink.h"

#include <algorithm>
#include <utility>

namespace pert::tcp {

void TcpSink::note_received(std::int64_t seq) {
  if (seq < rcv_next_) return;  // duplicate of already-delivered data

  if (seq == rcv_next_) {
    ++rcv_next_;
    // Absorb any range now contiguous with the cumulative point.
    auto it = ranges_.find(rcv_next_);
    if (it != ranges_.end()) {
      rcv_next_ = it->second;
      std::erase(recent_, it->first);
      ranges_.erase(it);
    }
    return;
  }

  // Out of order: insert/extend a range. Find the range starting at or
  // before seq.
  auto next = ranges_.lower_bound(seq);
  std::int64_t start = seq, end = seq + 1;
  if (next != ranges_.begin()) {
    auto prev = std::prev(next);
    if (prev->second >= seq) {
      if (prev->second > seq) return;  // already covered
      start = prev->first;             // extends prev
      end = std::max(end, prev->second + 1);
      std::erase(recent_, prev->first);
      ranges_.erase(prev);
    }
  }
  // Merge with the following range if now adjacent.
  next = ranges_.lower_bound(start);
  if (next != ranges_.end() && next->first <= end) {
    end = std::max(end, next->second);
    std::erase(recent_, next->first);
    ranges_.erase(next);
  }
  ranges_[start] = end;
  recent_.push_front(start);
  if (recent_.size() > 8) recent_.pop_back();
}

void TcpSink::fill_sack(net::Packet& ack) const {
  ack.n_sack = 0;
  for (std::int64_t key : recent_) {
    if (ack.n_sack >= static_cast<std::int32_t>(ack.sack.size())) break;
    auto it = ranges_.find(key);
    if (it == ranges_.end()) continue;
    ack.sack[ack.n_sack++] = net::SackBlock{it->first, it->second};
  }
}

void TcpSink::receive(net::PacketPtr p) {
  if (p->is_ack) return;  // not our role

  ++rx_pkts_;

  // RFC 3168: echo ECE on every ACK from the first CE until the sender's
  // CWR arrives; a CE in the same packet as CWR re-arms the echo.
  if (p->cwr) ece_pending_ = false;
  const bool ce = p->ecn == net::Ecn::Ce;
  if (ce) {
    ++ce_seen_;
    ece_pending_ = true;
  }
  note_received(p->seq);
  send_ack(*p);
}

void TcpSink::send_ack(const net::Packet& seg) {
  auto ack = net_->make_packet();
  ack->flow = seg.flow;
  ack->dst = seg.src;
  ack->dst_port = seg.src_port;
  ack->src_port = port();
  ack->is_ack = true;
  ack->ack = rcv_next_;
  ack->seq = seg.seq;  // which segment triggered this ack (diagnostics)
  ack->size_bytes = TcpConfig::ack_bytes;
  ack->ece = ece_pending_;
  ack->ts_echo = seg.ts_echo;
  ack->ts_rx = net_->now();
  fill_sack(*ack);
  node()->send(std::move(ack));
}

}  // namespace pert::tcp
