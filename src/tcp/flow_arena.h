// Struct-of-arrays storage for hot per-flow congestion state.
//
// A scenario with a thousand flows touches every flow's cwnd, ssthresh,
// srtt_0.99 EWMA, and min-RTT on every ACK; as individual sender members
// those live ~200 bytes apart and each ACK costs a cold cache line. A
// FlowArena packs each quantity into its own contiguous lane so the per-ACK
// working set of the whole scenario is a handful of sequential lines.
//
// Senders do not index the arena on the hot path: TcpSender binds reference
// members (and SrttEstimator binds pointers) to their lane entries once at
// construction, so every existing use site compiles — and costs — exactly
// as before. The lanes are pre-sized at construction and never resized, so
// those references stay valid for the arena's lifetime.
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
#include <limits>
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
    srtt99_.assign(n, 0.0);
    min_rtt_.assign(n, std::numeric_limits<double>::infinity());
    srtt_seeded_.assign(n, 0.0);
    last_early_.assign(n, 0.0);
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
  double& srtt99(std::int32_t i) {
    return srtt99_[static_cast<std::size_t>(i)];
  }
  double& min_rtt(std::int32_t i) {
    return min_rtt_[static_cast<std::size_t>(i)];
  }
  /// EWMA seeded flag as 0.0/1.0 so every lane is a double (uniform SIMD-
  /// friendly layout; a bool lane would be the lone byte-stride array).
  double& srtt_seeded(std::int32_t i) {
    return srtt_seeded_[static_cast<std::size_t>(i)];
  }
  double& last_early(std::int32_t i) {
    return last_early_[static_cast<std::size_t>(i)];
  }

 private:
  std::int32_t used_ = 0;
  std::vector<double> cwnd_;
  std::vector<double> ssthresh_;
  std::vector<double> srtt99_;
  std::vector<double> min_rtt_;
  std::vector<double> srtt_seeded_;
  std::vector<double> last_early_;
};

}  // namespace pert::tcp
