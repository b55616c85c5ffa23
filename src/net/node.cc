#include "net/node.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "net/link.h"

namespace pert::net {

void Node::set_route(NodeId dst, Link* out) {
  assert(dst >= 0);
  if (uplink_) {
    assert(static_cast<std::size_t>(id_) < leaf_span_);
    routes_.assign(leaf_span_, uplink_);
    routes_[static_cast<std::size_t>(id_)] = nullptr;
    uplink_ = nullptr;
  }
  const auto i = static_cast<std::size_t>(dst);
  if (i >= routes_.size()) routes_.resize(i + 1, nullptr);
  routes_[i] = out;
}

void Node::bind(Agent& a, std::int32_t port) {
  assert(port >= 0);
  assert(std::none_of(ports_.begin(), ports_.end(),
                      [port](const auto& b) { return b.first == port; }) &&
         "port already bound");
  a.node_ = this;
  a.port_ = port;
  ports_.emplace_back(port, &a);
}

void Node::receive(PacketPtr p) {
  if (p->dst == id_) {
    for (const auto& [port, agent] : ports_)
      if (port == p->dst_port) {
        ++delivered_;
        agent->receive(std::move(p));
        return;
      }
    ++routing_drops_;  // no listener: packet silently dies
    return;
  }
  if (--p->ttl <= 0) {
    ++routing_drops_;
    return;
  }
  Link* out = route(p->dst);
  if (!out) {
    ++routing_drops_;
    return;
  }
  ++forwarded_;
  out->send(std::move(p));
}

void Node::send(PacketPtr p) {
  if (p->src == kNoNode) p->src = id_;
  if (p->dst == id_) {  // loopback delivery
    receive(std::move(p));
    return;
  }
  Link* out = route(p->dst);
  if (!out) {
    ++routing_drops_;
    return;
  }
  out->send(std::move(p));
}

}  // namespace pert::net
