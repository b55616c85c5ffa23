#include "net/queue.h"

#include <string>

#include "sim/sentinel.h"

namespace pert::net {

PacketPtr Queue::dequeue() {
  if (fifo_.empty()) return nullptr;
  PacketPtr p = take_head();
  count_departure();
  trace_len();
  return p;
}

std::string Queue::conservation_violation() const {
  const Stats s = snapshot();
  const std::int64_t len = len_pkts();
  if (len < 0) return "negative queue length: " + std::to_string(len);
  // Wrappers holding packets in flight (impairments) exempt themselves from
  // the capacity bound; resident-in-buffer packets never exceed capacity.
  if (capacity_check_ && len > capacity_)
    return "queue length " + std::to_string(len) + " exceeds capacity " +
           std::to_string(capacity_);
  const std::uint64_t accounted =
      s.departures + s.drops + static_cast<std::uint64_t>(len);
  if (s.arrivals != accounted)
    return "arrivals " + std::to_string(s.arrivals) + " != departures " +
           std::to_string(s.departures) + " + drops " +
           std::to_string(s.drops) + " + resident " + std::to_string(len);
  if (s.drops != s.forced_drops + s.early_drops + s.injected_drops)
    return "drop-cause counters do not sum to total drops";
  return {};
}

std::string Queue::numeric_violation() const {
  if (std::string v = sim::counter_violation("queue.len_bytes", len_bytes());
      !v.empty())
    return v;
  const Stats s = snapshot();
  if (std::string v = sim::counter_violation("queue.arrivals", s.arrivals);
      !v.empty())
    return v;
  if (std::string v = sim::counter_violation("queue.bytes_in", s.bytes_in);
      !v.empty())
    return v;
  if (std::string v = sim::finite_violation("queue.len_integral",
                                            s.len_integral);
      !v.empty())
    return v;
  return {};
}

void DropTailQueue::enqueue(PacketPtr p) {
  count_arrival();
  if (full()) {
    drop(std::move(p), DropCause::kOverflow);
    return;
  }
  push(std::move(p));
}

}  // namespace pert::net
