#include "net/codel_queue.h"

#include <string>
#include <utility>

namespace pert::net {

/// The FIFO CodelQueue's law polices: the base FIFO and its sojourn ledger.
struct CodelQueue::Fifo {
  CodelQueue& q;

  bool empty() const { return q.fifo_.empty(); }
  PacketPtr pop(sim::Time& enqueued) {
    enqueued = q.ts_.front();
    q.ts_.pop_front();
    return q.take_head();
  }
  bool mark_or_drop(PacketPtr& p) { return q.mark_or_drop(p, q.params_.ecn); }
};

CodelQueue::CodelQueue(sim::Scheduler& sched, std::int32_t capacity_pkts,
                       CodelParams params)
    : Queue(sched, capacity_pkts), params_(params) {
  params_.validate();
}

void CodelQueue::enqueue(PacketPtr p) {
  count_arrival();
  if (full()) {
    drop(std::move(p), DropCause::kOverflow);
    return;
  }
  ts_.push_back(now());
  push(std::move(p));
}

PacketPtr CodelQueue::dequeue() {
  Fifo fifo{*this};
  PacketPtr p = law_.dequeue(fifo, params_, now());
  if (p) {
    count_departure();
    trace_len();
  }
  return p;
}

std::string CodelQueue::numeric_violation() const {
  if (std::string v = Queue::numeric_violation(); !v.empty()) return v;
  if (ts_.size() != fifo_.size())
    return "codel sojourn ledger out of step: " + std::to_string(ts_.size()) +
           " stamps for " + std::to_string(fifo_.size()) + " packets";
  return law_.numeric_violation();
}

}  // namespace pert::net
