// Conservative parallel discrete-event engine.
//
// Runs N shards — each an independent Scheduler with its own event heap —
// concurrently on worker threads, synchronized null-message/LBTS-style by
// *lookahead*: every cross-shard dependency declares a minimum latency L
// (for the network layer, the propagation delay of the links crossing the
// boundary), which guarantees an event executed at time t on the producer
// shard can influence the consumer no earlier than t + L.
//
// Protocol, per shard, per round:
//
//   1. horizon = min over inbound dependencies of (peer_clock + lookahead)
//      (acquire-load of each peer's published clock; +inf with no inbound)
//   2. drain()  — import every visible cross-shard message into the local
//      scheduler (the transport lives in the net layer; see net/pdes.h)
//   3. run_until_exclusive(horizon) — execute strictly below the horizon
//   4. publish own clock = horizon (release-store)
//
// Safety: a peer release-publishes clock c only after pushing every message
// it produced below c, and the consumer acquire-loads c before draining, so
// when the consumer executes up to min(c_i + L_i) every message that could
// land in that range is already in its heap. Step 4's release pairs with
// step 1's acquire on the other side for messages produced in step 3.
//
// Liveness: the globally earliest shard always has horizon strictly above
// its own clock (lookaheads are required positive), so some shard can make
// progress in every round; workers owning multiple shards round-robin them
// and yield briefly when a full pass makes no progress.
//
// Termination: once horizon > T, every message with arrival <= T is already
// visible (future arrivals are >= horizon), so the shard drains once more,
// runs inclusively to T, publishes +inf, and is done.
//
// Determinism: the engine decides only *when* a shard may run, never the
// order of its events — that is fixed by each scheduler's (time, key)
// comparator, with cross-shard messages keyed by (channel, message index)
// in the drain callbacks (see Scheduler::schedule_at_keyed). Results are
// therefore byte-identical for any worker count, including 1.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "sim/scheduler.h"
#include "sim/time.h"

namespace pert::sim {

class Engine {
 public:
  /// Registers a shard. `drain` imports all currently visible cross-shard
  /// messages into `sched` (keyed; see header comment) and is only ever
  /// called from the worker thread owning the shard. Returns the shard id.
  int add_shard(Scheduler* sched, std::function<void()> drain);

  /// Declares that shard `to` can receive events from shard `from` no
  /// earlier than `lookahead` seconds after they are produced. Lookahead
  /// must be strictly positive — a zero-latency boundary admits no
  /// conservative parallelism and must stay inside one shard.
  void add_dependency(int from, int to, Time lookahead);

  /// Runs every shard through simulated time T (inclusive, matching
  /// Scheduler::run_until) on `threads` workers. Shards are distributed
  /// round-robin across workers; threads are clamped to [1, num_shards()].
  /// Blocks until all shards complete; workers are joined on return.
  /// A callback exception on any shard aborts the run and rethrows here.
  void run_until(Time T, int threads);

 private:
  struct Dep {
    const std::atomic<Time>* peer_clock;
    Time lookahead;
  };

  struct Shard {
    Scheduler* sched = nullptr;
    std::function<void()> drain;
    std::vector<Dep> inbound;
    /// Published guarantee: this shard will never again produce a message
    /// from an event below this time. Padded out by unique_ptr allocation
    /// granularity; read with acquire by consumers, written with release.
    std::unique_ptr<std::atomic<Time>> clock;
    Time executed = 0.0;  // exclusive upper bound already run (worker-local)
    bool done = false;    // worker-local
  };

  /// One synchronization round for shard s. Returns true when the shard
  /// made progress (ran events or finished).
  bool step(Shard& s, Time T);

  std::vector<Shard> shards_;
};

}  // namespace pert::sim
