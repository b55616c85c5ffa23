// Node: packet forwarding + local agent demultiplexing.
//
// Routing is static: Network::compute_routes finds hop-count shortest paths
// with a BFS over reversed links toward each destination and installs, per
// node, the link the BFS first discovered it over. Equal-length paths are
// therefore broken by BFS discovery order over links in creation order. A
// leaf (one link out and one link in, both to the same neighbour, in a
// network where every node reaches every other) keeps that link as its
// uplink and no table; every other node keeps a table indexed by NodeId.
// Agents bind to ports; an arriving packet addressed to this node is handed
// to the agent bound to its dst_port.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/packet.h"

namespace pert::net {

class Link;
class Node;

/// Anything that terminates packets at a node (TCP senders/sinks, app stubs).
class Agent {
 public:
  virtual ~Agent() = default;
  virtual void receive(PacketPtr p) = 0;

  Node* node() const noexcept { return node_; }
  std::int32_t port() const noexcept { return port_; }

 private:
  friend class Node;
  Node* node_ = nullptr;
  std::int32_t port_ = -1;
};

class Node {
 public:
  explicit Node(NodeId id) : id_(id) {}
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const noexcept { return id_; }

  /// Installs/overwrites the next hop toward `dst` (nullptr black-holes it).
  /// A leaf first spells its uplink out into a table, so only `dst` changes.
  void set_route(NodeId dst, Link* out);

  /// Next hop toward `dst`; nullptr for this node itself and for
  /// destinations without a route.
  Link* route(NodeId dst) const {
    const auto i = static_cast<std::size_t>(dst);
    if (uplink_) return i < leaf_span_ && dst != id_ ? uplink_ : nullptr;
    return i < routes_.size() ? routes_[i] : nullptr;
  }

  /// Binds an agent to a local port (one agent per port).
  void bind(Agent& a, std::int32_t port);

  /// Handles an arriving packet: local delivery or forwarding.
  void receive(PacketPtr p);

  /// Sends a locally originated packet (fills src if unset).
  void send(PacketPtr p);

  std::uint64_t forwarded() const noexcept { return forwarded_; }
  std::uint64_t delivered() const noexcept { return delivered_; }
  std::uint64_t routing_drops() const noexcept { return routing_drops_; }

 private:
  friend class Network;  // compute_routes installs the routing state

  NodeId id_;
  /// Leaf: the next hop toward every node id below leaf_span_ but its own.
  Link* uplink_ = nullptr;
  std::size_t leaf_span_ = 0;
  /// Everyone else: the next hop by destination id.
  std::vector<Link*> routes_;
  /// Bound agents, scanned in bind order (a host usually has one).
  std::vector<std::pair<std::int32_t, Agent*>> ports_;
  std::uint64_t forwarded_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t routing_drops_ = 0;
};

}  // namespace pert::net
