#include "net/network.h"

#include <cassert>
#include <map>
#include <string>

#include "sim/validate.h"

namespace pert::net {

namespace {
/// Per node, its (neighbour, link) pairs in link creation order.
using Adjacency = std::vector<std::vector<std::pair<NodeId, Link*>>>;

/// Breadth-first search from `root` over `adj`: calls found(v, link) for
/// every other node it reaches, in discovery order, with the link it was
/// discovered over. Returns the number of nodes reached, root included.
template <class Found>
std::size_t bfs(const Adjacency& adj, NodeId root, const Found& found) {
  std::vector<bool> seen(adj.size(), false);
  std::vector<NodeId> order{root};  // also the FIFO: order[head..] is queued
  seen[static_cast<std::size_t>(root)] = true;
  for (std::size_t head = 0; head < order.size(); ++head)
    for (const auto& [v, link] : adj[static_cast<std::size_t>(order[head])]) {
      if (seen[static_cast<std::size_t>(v)]) continue;
      seen[static_cast<std::size_t>(v)] = true;
      found(v, link);
      order.push_back(v);
    }
  return order.size();
}
}  // namespace

Network::ShardCursor::ShardCursor(Network& net, int s) : prev_(cursor()) {
  assert(s >= 0 && s < net.num_shards());
  (void)net;
  set_cursor(s);
}

Network::ShardCursor::~ShardCursor() { set_cursor(prev_); }

void Network::set_shards(int n) {
  sim::require_at_least("Network", "shards", n, num_shards());
  if (!nodes_.empty() || !links_.empty())
    throw sim::ConfigError(
        "Network: set_shards must precede topology construction",
        "component=Network param=shards nodes=" +
            std::to_string(nodes_.size()) + "\n");
  while (num_shards() < n)
    shards_.push_back(std::make_unique<Shard>(num_shards()));
}

void Network::finalize_shards() {
  if (num_shards() == 1) return;
  assert(!engine_ && "finalize_shards called twice");

  // One channel per ordered shard pair with crossing links, ids assigned by
  // first appearance in link creation order — a pure function of the
  // topology, so event keys match for every thread count.
  std::map<std::pair<int, int>, ShardChannel*> by_pair;
  for (const Edge& e : edges_) {
    const int sf = node_shard_[static_cast<std::size_t>(e.from)];
    const int st = node_shard_[static_cast<std::size_t>(e.to)];
    if (sf == st) continue;
    if (!(e.link->prop_delay() > 0.0))
      throw sim::ConfigError(
          "Network: cross-shard link needs positive propagation delay "
          "(zero lookahead admits no conservative parallelism — keep the "
          "link inside one shard)",
          "component=Network param=prop_delay from_shard=" +
              std::to_string(sf) + " to_shard=" + std::to_string(st) + "\n");
    ShardChannel*& ch = by_pair[{sf, st}];
    if (!ch) {
      channels_.push_back(std::make_unique<ShardChannel>(
          sf, st, static_cast<std::uint32_t>(channels_.size())));
      ch = channels_.back().get();
    }
    ch->note_link_delay(e.link->prop_delay());
    e.link->set_boundary(ch);
  }

  engine_ = std::make_unique<sim::Engine>();
  for (int s = 0; s < num_shards(); ++s) {
    // Inbound channels in id order (any fixed order works — final event
    // order is decided by the keys, not drain sequence).
    std::vector<ShardChannel*> in;
    for (const auto& ch : channels_)
      if (ch->to_shard() == s) in.push_back(ch.get());
    Shard& shard = *shards_[static_cast<std::size_t>(s)];
    // The drain hook doubles as the shard-entry hook: it pins the cursor so
    // agent callbacks executed afterwards (same engine round, same thread)
    // resolve sched()/make_packet() to this shard.
    engine_->add_shard(&shard.sched, [s, in = std::move(in), &shard] {
      set_cursor(s);
      for (ShardChannel* ch : in) ch->drain(shard.sched, shard.pool);
    });
  }
  for (const auto& ch : channels_)
    engine_->add_dependency(ch->from_shard(), ch->to_shard(),
                            ch->lookahead());
}

void Network::run_until(sim::Time t) {
  if (num_shards() == 1) {
    shards_[0]->sched.run_until(t);
    return;
  }
  assert(engine_ && "run_until on a sharded network before finalize_shards");
  // Engine workers leave the cursor on their last shard, and at one thread
  // that is this thread. The scope puts it back on every exit, including a
  // shard's exception rethrown by the engine.
  ShardCursor restore(*this, 0);
  engine_->run_until(t, sim_threads_);
}

std::uint64_t Network::total_dispatched() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->sched.dispatched();
  return total;
}

Link* Network::add_link(Node* a, Node* b, double rate_bps, sim::Time delay,
                        std::unique_ptr<Queue> q) {
  assert(a && b && a != b);
  // The transmitter (and its queue) belong to the source node's shard.
  sim::Scheduler& sched =
      shards_[static_cast<std::size_t>(node_shard(a))]->sched;
  links_.push_back(
      std::make_unique<Link>(sched, *b, rate_bps, delay, std::move(q)));
  Link* l = links_.back().get();
  edges_.push_back(Edge{a->id(), b->id(), l});
  return l;
}

std::pair<Link*, Link*> Network::add_duplex(
    Node* a, Node* b, double rate_bps, sim::Time delay,
    const std::function<std::unique_ptr<Queue>()>& make_queue) {
  Link* ab;
  Link* ba;
  {
    ShardCursor at_a(*this, node_shard(a));
    ab = add_link(a, b, rate_bps, delay, make_queue());
  }
  {
    ShardCursor at_b(*this, node_shard(b));
    ba = add_link(b, a, rate_bps, delay, make_queue());
  }
  return {ab, ba};
}

std::pair<Link*, Link*> Network::add_duplex_droptail(Node* a, Node* b,
                                                     double rate_bps,
                                                     sim::Time delay,
                                                     std::int32_t cap) {
  return add_duplex(a, b, rate_bps, delay, [this, cap] {
    return std::make_unique<DropTailQueue>(sched(), cap);
  });
}

void Network::compute_routes() {
  const std::size_t n = nodes_.size();
  const auto at = [](NodeId v) { return static_cast<std::size_t>(v); };
  // Links out of and into each node, in creation order.
  Adjacency out(n), in(n);
  for (const Edge& e : edges_) {
    out[at(e.from)].emplace_back(e.to, e.link);
    in[at(e.to)].emplace_back(e.from, e.link);
  }

  // A leaf's one link out and one link in join it to the same neighbour.
  // When every node reaches every other, that link out is its next hop
  // toward everything but itself, so it keeps no table.
  const auto none = [](NodeId, Link*) {};
  const bool strongly_connected =
      n > 0 && bfs(out, 0, none) == n && bfs(in, 0, none) == n;
  std::vector<NodeId> routers;
  for (std::size_t v = 0; v < n; ++v) {
    Node& node = *nodes_[v];
    const bool leaf = strongly_connected && out[v].size() == 1 &&
                      in[v].size() == 1 && out[v][0].first == in[v][0].first;
    node.uplink_ = leaf ? out[v][0].second : nullptr;
    node.leaf_span_ = leaf ? n : 0;
    node.routes_.assign(leaf ? 0 : n, nullptr);
    if (!leaf) routers.push_back(static_cast<NodeId>(v));
  }

  // BFS over reversed links toward each router: the link that discovers a
  // node is its next hop toward the router, so equal-length paths resolve
  // by discovery order over links in creation order.
  for (const NodeId dst : routers)
    bfs(in, dst, [&](NodeId v, Link* link) {
      Node& node = *nodes_[at(v)];
      if (!node.uplink_) node.routes_[at(dst)] = link;
    });

  // The BFS toward a leaf discovers its neighbour first, over the link into
  // the leaf, and then every other node in the order the BFS toward the
  // neighbour does. So a router's entry for a leaf is that link if the
  // router is the neighbour, and its entry for the neighbour otherwise.
  for (std::size_t leaf = 0; leaf < n; ++leaf) {
    if (!nodes_[leaf]->uplink_) continue;
    const auto [nb, into] = in[leaf][0];
    for (const NodeId r : routers) {
      std::vector<Link*>& table = nodes_[at(r)]->routes_;
      table[leaf] = r == nb ? into : table[at(nb)];
    }
  }
}

}  // namespace pert::net
