#include "net/fq_codel_queue.h"

#include <string>
#include <utility>

#include "sim/sentinel.h"

namespace pert::net {

/// One bucket's FIFO as its CoDel law sees it, with queue-level accounting
/// on every pop (no departure count: dequeue() counts after the deficit).
struct FqCodelQueue::BucketFifo {
  FqCodelQueue& q;
  Bucket& bk;

  bool empty() const { return bk.q.empty(); }
  PacketPtr pop(sim::Time& enqueued) {
    Stamped s = std::move(bk.q.front());
    bk.q.pop_front();
    q.book_remove(*s.p);
    --q.total_;
    enqueued = s.enq;
    return std::move(s.p);
  }
  bool mark_or_drop(PacketPtr& p) {
    return q.mark_or_drop(p, q.params_.codel.ecn);
  }
};

FqCodelQueue::FqCodelQueue(sim::Scheduler& sched, std::int32_t capacity_pkts,
                           FqCodelParams params)
    : Queue(sched, capacity_pkts), params_(params) {
  params_.validate();
  // vector(n) only default-constructs in place; resize() would require the
  // Bucket copy ctor (deque<Stamped>'s move is not noexcept), which the
  // move-only PacketPtr deletes.
  buckets_ = std::vector<Bucket>(static_cast<std::size_t>(params_.flows));
}

std::int32_t FqCodelQueue::bucket_of(FlowId flow) const noexcept {
  // splitmix64 finalizer: deterministic across platforms (std::hash is not).
  std::uint64_t x =
      static_cast<std::uint64_t>(flow) + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<std::int32_t>(x %
                                   static_cast<std::uint64_t>(params_.flows));
}

std::int32_t FqCodelQueue::active_buckets() const noexcept {
  std::int32_t n = 0;
  for (const Bucket& b : buckets_)
    if (!b.q.empty()) ++n;
  return n;
}

void FqCodelQueue::enqueue(PacketPtr p) {
  count_arrival();
  if (full()) {
    drop(std::move(p), DropCause::kOverflow);
    return;
  }
  const std::int32_t idx = bucket_of(p->flow);
  Bucket& bk = buckets_[static_cast<std::size_t>(idx)];
  book_insert(*p);
  bk.q.push_back({std::move(p), now()});
  ++total_;
  trace_len();
  if (!bk.queued) {
    bk.queued = true;
    bk.deficit = params_.quantum_pkts;
    new_flows_.push_back(idx);
  }
}

PacketPtr FqCodelQueue::dequeue() {
  while (true) {
    const bool from_new = !new_flows_.empty();
    if (!from_new && old_flows_.empty()) return nullptr;
    auto& list = from_new ? new_flows_ : old_flows_;
    const std::int32_t idx = list.front();
    Bucket& bk = buckets_[static_cast<std::size_t>(idx)];
    if (bk.deficit <= 0) {
      bk.deficit += params_.quantum_pkts;
      list.pop_front();
      old_flows_.push_back(idx);
      continue;
    }
    BucketFifo fifo{*this, bk};
    PacketPtr p = bk.law.dequeue(fifo, params_.codel, now());
    if (!p) {
      // Bucket ran dry: a new flow gets one more round on the old list
      // (RFC 8290 §4.2's anti-starvation rule); an old flow leaves.
      list.pop_front();
      if (from_new)
        old_flows_.push_back(idx);
      else
        bk.queued = false;
      continue;
    }
    --bk.deficit;
    count_departure();
    trace_len();
    return p;
  }
}

std::string FqCodelQueue::numeric_violation() const {
  if (std::string v = Queue::numeric_violation(); !v.empty()) return v;
  std::int64_t sum = 0;
  for (const Bucket& b : buckets_) {
    if (std::string v = b.law.numeric_violation(); !v.empty()) return v;
    sum += static_cast<std::int64_t>(b.q.size());
  }
  if (sum != total_)
    return "fq_codel bucket accounting out of step: buckets hold " +
           std::to_string(sum) + ", total_ = " + std::to_string(total_);
  if (total_ < 0) return "fq_codel total_ negative";
  return {};
}

}  // namespace pert::net
