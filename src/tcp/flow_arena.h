// Struct-of-arrays storage for each sender's cwnd and ssthresh.
//
// A scenario with a thousand flows touches every flow's cwnd and ssthresh
// on every ACK; a FlowArena packs each into its own contiguous lane. The
// arena holds nothing else: a congestion-control module keeps its own
// per-flow state (PERT's srtt_0.99 estimator, its early-response stamp) as
// plain members of its private-state slot (tcp/cc_ops.h).
//
// Senders do not index the arena on the hot path: TcpSender binds reference
// members to its lane entries once at construction, so every use site
// compiles — and costs — exactly as before. The lanes are pre-sized at
// construction and never resized, so those references stay valid for the
// arena's lifetime.
//
// acquire() hands out slots monotonically and returns -1 when the arena is
// full; callers fall back to inline per-sender storage, which keeps the
// arena an optimization rather than a capacity constraint (dynamic
// add_flows cohorts may overflow a pre-sized arena mid-run).
//
// Scenarios create one arena per endpoint shard so parallel workers never
// write into the same lane — or the same cache line — as a neighbour shard.
// A one-shard network (sim_threads = 0, run without the engine) has one
// arena for every flow.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/validate.h"

namespace pert::tcp {

class FlowArena {
 public:
  explicit FlowArena(std::int32_t capacity) {
    sim::require_at_least("FlowArena", "capacity", capacity, 1);
    const auto n = static_cast<std::size_t>(capacity);
    cwnd_.assign(n, 0.0);
    ssthresh_.assign(n, 0.0);
  }

  // Lanes never move after construction: references into them are stable.
  FlowArena(const FlowArena&) = delete;
  FlowArena& operator=(const FlowArena&) = delete;

  /// Next free slot, or -1 when full (caller falls back to inline storage).
  std::int32_t acquire() noexcept {
    return used_ < static_cast<std::int32_t>(cwnd_.size()) ? used_++ : -1;
  }

  std::int32_t size() const noexcept { return used_; }
  std::int32_t capacity() const noexcept {
    return static_cast<std::int32_t>(cwnd_.size());
  }

  // --- lane accessors (slot must come from acquire()) ---
  double& cwnd(std::int32_t i) { return cwnd_[static_cast<std::size_t>(i)]; }
  double& ssthresh(std::int32_t i) {
    return ssthresh_[static_cast<std::size_t>(i)];
  }

 private:
  std::int32_t used_ = 0;
  std::vector<double> cwnd_;
  std::vector<double> ssthresh_;
};

}  // namespace pert::tcp
