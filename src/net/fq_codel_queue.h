// FQ-CoDel — flow queueing with per-flow CoDel (RFC 8290), packet-
// granularity variant.
//
// Arriving packets are hashed by flow id into one of `flows` buckets, each
// an independent FIFO with its own CoDel control-law state. Buckets are
// served by deficit round robin over two lists: `new` flows (first packet
// after idle) get one quantum of priority before joining the `old` list,
// which gives sparse flows (ACK streams, short web transfers) low latency
// while long flows share the remainder fairly. The sim is packet-
// granularity with uniform segment sizes, so the DRR quantum is counted in
// packets rather than bytes.
//
// Simplification vs RFC 8290 §4.1.2: on overflow the *arriving* packet is
// dropped (tail drop) rather than the head of the fattest bucket; with the
// per-flow CoDel law doing the real congestion signaling, overflow is a
// rare backstop here.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "net/codel_queue.h"
#include "net/queue.h"

namespace pert::net {

struct FqCodelParams {
  std::int32_t flows = 64;        ///< hash buckets
  std::int32_t quantum_pkts = 1;  ///< DRR quantum, packets
  CodelParams codel = {};         ///< per-flow control-law knobs

  void validate() const {
    sim::require_at_least("FqCodelParams", "flows", flows, 1);
    sim::require_at_least("FqCodelParams", "quantum_pkts", quantum_pkts, 1);
    codel.validate();
  }
};

class FqCodelQueue final : public Queue {
 public:
  FqCodelQueue(sim::Scheduler& sched, std::int32_t capacity_pkts,
               FqCodelParams params = {});

  void enqueue(PacketPtr p) override;
  PacketPtr dequeue() override;

  std::int32_t len_pkts() const noexcept override { return total_; }

  const FqCodelParams& params() const noexcept { return params_; }
  /// Buckets currently holding packets (fairness unit tests).
  std::int32_t active_buckets() const noexcept;
  /// The bucket a flow id hashes to (tests construct colliding flows).
  std::int32_t bucket_of(FlowId flow) const noexcept;

  /// Base checks plus cross-bucket packet accounting.
  std::string numeric_violation() const override;

 protected:
  double integral_len() const noexcept override {
    return static_cast<double>(total_);
  }

 private:
  struct Stamped {
    PacketPtr p;
    sim::Time enq = 0.0;
  };
  struct Bucket {
    std::deque<Stamped> q;
    std::int32_t deficit = 0;
    bool queued = false;  ///< present in new_flows_ or old_flows_
    CodelLaw law;         ///< this flow's CoDel control law
  };
  struct BucketFifo;

  FqCodelParams params_;
  std::vector<Bucket> buckets_;
  std::deque<std::int32_t> new_flows_;
  std::deque<std::int32_t> old_flows_;
  std::int32_t total_ = 0;  ///< packets across all buckets
};

}  // namespace pert::net
