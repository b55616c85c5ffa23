// Packet recycling pool.
//
// Steady-state simulation should allocate zero packets: every packet that
// dies — consumed by a sink, dropped by a queue discipline, lost to
// impairment, or expired in routing — returns to its Network's pool through
// PacketPtr's deleter and is handed out again by Network::make_packet with
// all fields reset to defaults. After a short warm-up the pool reaches the
// scenario's in-flight high-water mark and Stats::allocations stops growing
// (tests assert exactly this).
//
// Ownership rules:
//   - The pool owns parked packets; checked-out packets are owned by their
//     PacketPtr, whose deleter routes them back here via the intrusive
//     Packet::pool_ref back-pointer.
//   - Copying a Packet never copies pool membership (PoolRef resets on
//     copy), so a copy is a plain heap packet deleted normally.
//   - The pool must outlive every packet it ever issued: each Network shard
//     declares its pool before its scheduler, and Network declares its
//     shards before its containers, so teardown releases in-flight packets
//     into a still-live pool.
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.h"

namespace pert::net {

/// Not thread-safe by design: each simulation owns its pool, and the
/// experiment runner gives every job its own simulation.
class PacketPool {
 public:
  struct Stats {
    std::uint64_t allocations = 0;  ///< acquires that had to `new` (pool miss)
    std::uint64_t acquires = 0;     ///< packets handed out
    std::uint64_t releases = 0;     ///< packets returned
    std::uint64_t recycled = 0;     ///< acquires served from the free list
  };

  PacketPool() = default;
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;
  ~PacketPool() {
    for (Packet* p : free_) delete p;
  }

  /// Hands out a packet in default-constructed state (uid unset — the caller
  /// assigns identity), adopted by this pool for recycling on death.
  PacketPtr acquire() {
    Packet* p = nullptr;
    if (!free_.empty()) {
      p = free_.back();
      free_.pop_back();
      *p = Packet{};  // scrub every field — no stale SACK/ECN/flags survive
      ++stats_.recycled;
    } else {
      p = new Packet;
      ++stats_.allocations;
    }
    p->pool_ref.pool = this;
    ++stats_.acquires;
    return PacketPtr{p};
  }

  /// Parks a dead packet for reuse. Called by PacketDeleter; not meant for
  /// direct use (destroying the PacketPtr is the release path).
  void release(Packet* p) {
    p->pool_ref.pool = nullptr;
    ++stats_.releases;
    free_.push_back(p);
  }

  const Stats& stats() const noexcept { return stats_; }
  std::size_t parked() const noexcept { return free_.size(); }
  /// Packets issued by this pool still alive somewhere in the simulation.
  std::uint64_t outstanding() const noexcept {
    return stats_.acquires - stats_.releases;
  }

 private:
  std::vector<Packet*> free_;  ///< parked packets, owned by the pool
  Stats stats_;
};

inline void PacketDeleter::operator()(Packet* p) const noexcept {
  if (p->pool_ref.pool)
    p->pool_ref.pool->release(p);
  else
    delete p;
}

}  // namespace pert::net
