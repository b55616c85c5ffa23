// Network: the simulation container.
//
// Owns the RNG, the shards, and every node/link/agent (C++ Core Guidelines
// R.3: everything else holds non-owning raw pointers into this container).
// Provides topology construction, deterministic shortest-path routing, and
// the run loop.
//
// Shards: a network is a list of shards, each a Scheduler, a PacketPool and
// a uid counter. It starts with one; set_shards(n) grows it for the
// parallel engine, which runs the shards concurrently with link propagation
// delays as the lookahead (see net/pdes.h and docs/performance.md). A
// thread-local *shard cursor* routes sched()/make_packet()/now() to the
// active shard: during topology construction the builder scopes each
// component with ShardCursor, and at run time each engine worker sets the
// cursor before touching a shard. The cursor is 0 outside those scopes, so
// every accessor reads shard 0 of a one-shard network, and run_until runs
// that shard's scheduler directly, without the engine.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "net/link.h"
#include "net/node.h"
#include "net/packet.h"
#include "net/pdes.h"
#include "net/pool.h"
#include "net/queue.h"
#include "sim/engine.h"
#include "sim/random.h"
#include "sim/scheduler.h"

namespace pert::net {

class Network {
 public:
  explicit Network(std::uint64_t seed = 1) : rng_(seed) {
    shards_.push_back(std::make_unique<Shard>(0));
  }

  /// Scheduler of the *active shard* (this thread's cursor; shard 0 unless
  /// a ShardCursor or an engine worker set it).
  sim::Scheduler& sched() noexcept { return shard().sched; }
  sim::Rng& rng() noexcept { return rng_; }
  sim::Time now() const noexcept { return shard().sched.now(); }

  // ---- Sharding (parallel engine) ----

  /// Grows the shard list to `n` shards (call before building any
  /// topology). Shard 0 keeps its scheduler, pool and address; shards
  /// 1..n-1 get their own. Components constructed while a ShardCursor
  /// scopes shard s belong to s: their events run on s's scheduler,
  /// possibly on a different thread than any other shard's.
  void set_shards(int n);
  int num_shards() const noexcept { return static_cast<int>(shards_.size()); }

  /// Scopes construction (or any direct access) to one shard: while alive,
  /// sched()/make_packet()/now() on this thread address shard `s`.
  class ShardCursor {
   public:
    ShardCursor(Network& net, int s);
    ~ShardCursor();
    ShardCursor(const ShardCursor&) = delete;
    ShardCursor& operator=(const ShardCursor&) = delete;

   private:
    int prev_;
  };

  /// Shard owning a node (the cursor's shard when the node was added).
  int node_shard(const Node* n) const {
    return node_shard_[static_cast<std::size_t>(n->id())];
  }

  /// Call once after the topology is complete (and before run_until) on a
  /// network of two or more shards: walks every link, routes cross-shard
  /// ones through per-shard-pair channels (lookahead = min propagation delay
  /// over the pair's links; zero-delay cross-shard links are a ConfigError),
  /// and assembles the engine. Does nothing on a one-shard network.
  void finalize_shards();

  /// Worker threads for runs of two or more shards (clamped to
  /// [1, num_shards()] by the engine). Results are byte-identical for every
  /// value; 1 is the oracle.
  void set_sim_threads(int threads) noexcept { sim_threads_ = threads; }

  Node* add_node() {
    nodes_.push_back(std::make_unique<Node>(static_cast<NodeId>(nodes_.size())));
    node_shard_.push_back(cursor());
    return nodes_.back().get();
  }

  Node* node(NodeId id) const { return nodes_.at(static_cast<std::size_t>(id)).get(); }
  std::size_t num_nodes() const noexcept { return nodes_.size(); }

  /// Every link in creation order (monitors and invariant checkers walk all
  /// queues through this).
  std::vector<Link*> links() const {
    std::vector<Link*> out;
    out.reserve(links_.size());
    for (const auto& l : links_) out.push_back(l.get());
    return out;
  }

  /// A unidirectional link with its endpoints.
  struct Edge {
    NodeId from, to;
    Link* link;
  };
  /// Every link with its endpoints, in creation order.
  const std::vector<Edge>& edges() const noexcept { return edges_; }

  /// Adds a unidirectional link a -> b with the given queue discipline.
  /// The link's transmitter runs on a's shard — the queue must have been
  /// constructed under that shard's cursor.
  Link* add_link(Node* a, Node* b, double rate_bps, sim::Time delay,
                 std::unique_ptr<Queue> q);

  /// Adds a duplex link (two unidirectional links with independent queues
  /// from the factory). Returns {a->b, b->a}. Each factory call runs under
  /// the cursor of that direction's source shard, so factories should build
  /// queues against sched().
  std::pair<Link*, Link*> add_duplex(
      Node* a, Node* b, double rate_bps, sim::Time delay,
      const std::function<std::unique_ptr<Queue>()>& make_queue);

  /// Convenience duplex with DropTail queues of `cap` packets each way.
  std::pair<Link*, Link*> add_duplex_droptail(Node* a, Node* b,
                                              double rate_bps, sim::Time delay,
                                              std::int32_t cap);

  /// Computes hop-count shortest paths and installs next hops on every node,
  /// replacing any routes set before. Ties between equal-length paths go by
  /// BFS discovery order over links in creation order. Leaves keep only
  /// their uplink; the other nodes get a table with an entry per node (see
  /// node.h). Call after topology changes.
  void compute_routes();

  /// Registers an agent (owned by the network); binds it to node:port when
  /// `at` is non-null (pass nullptr to bind later).
  template <class T, class... Args>
  T* add_agent(Node* at, std::int32_t port, Args&&... args) {
    auto a = std::make_unique<T>(std::forward<Args>(args)...);
    T* raw = a.get();
    if (at) at->bind(*raw, port);
    agents_.push_back(std::move(a));
    return raw;
  }

  /// Hands out a packet from the active shard's pool, recycled when possible
  /// (steady-state simulation allocates no packets). Its uid is unique
  /// across the network: the shard index sits in the top byte, so shard 0
  /// counts 1, 2, 3, ...
  PacketPtr make_packet() {
    Shard& s = shard();
    auto p = s.pool.acquire();
    p->uid = s.next_uid++;
    return p;
  }

  /// The active shard's packet recycling pool (stats inspection; tests
  /// assert steady-state allocation-freedom through this).
  PacketPool& packet_pool() noexcept { return shard().pool; }

  /// Runs to time t (inclusive). A one-shard network runs its scheduler
  /// directly; more shards run the parallel engine with the
  /// set_sim_threads() worker count, after finalize_shards().
  void run_until(sim::Time t);

  /// Events dispatched across all shards. Deterministic for any thread
  /// count.
  std::uint64_t total_dispatched() const;

 private:
  struct Shard {
    explicit Shard(int index)
        : next_uid((static_cast<std::uint64_t>(index) << 56) | 1) {}
    /// Declared first so it is destroyed last: packets still held by
    /// pending events release into a live pool during teardown.
    PacketPool pool;
    sim::Scheduler sched;
    std::uint64_t next_uid;
  };

  Shard& shard() const noexcept {
    assert(cursor() < num_shards() && "stale shard cursor");
    return *shards_[static_cast<std::size_t>(cursor())];
  }

  /// Active shard of the current thread. One variable serves every Network
  /// in the process: a thread interleaves shards of at most one network of
  /// two or more shards at a time (builders scope with ShardCursor; engine
  /// workers set it per round), and every exit from those scopes and from
  /// run_until puts it back.
  static constinit inline thread_local int t_cursor = 0;
  static int cursor() noexcept { return t_cursor; }
  static void set_cursor(int s) noexcept { t_cursor = s; }

  /// Declared first so they are destroyed last: the nodes, links, agents
  /// and channels below hold packets and timers of some shard.
  std::vector<std::unique_ptr<Shard>> shards_;
  sim::Rng rng_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<Edge> edges_;
  std::vector<std::unique_ptr<Agent>> agents_;
  std::vector<int> node_shard_;  // indexed by NodeId
  int sim_threads_ = 1;
  // ---- built by finalize_shards() on two or more shards ----
  std::vector<std::unique_ptr<ShardChannel>> channels_;
  std::unique_ptr<sim::Engine> engine_;
};

}  // namespace pert::net
