// String-keyed registry of queue disciplines (sim::Registry), the
// router-side twin of tcp::CcRegistry.
//
// A topology builder fills a `QdiscContext` with the link's derived
// constants (capacity, packet rate, flow-count and RTT bounds, the target
// backlog it computed) and asks the registry for a discipline by name;
// the factory reproduces exactly the parameter derivations the hard-wired
// scheme switch used to perform, including the q_ref clamp notes. The RNG
// is forked lazily — only disciplines that actually draw (RED, PI, REM,
// PIE) call fork_rng, so DropTail/AVQ/CoDel builds leave the parent RNG
// stream untouched, preserving every legacy seed path.
//
// The built-ins (droptail, red, pi, rem, avq, codel, fq-codel, pie) come
// from QdiscInfo::add_builtins on first instance() access; out-of-tree
// disciplines use a file-scope `sim::Registrar<net::QdiscInfo>`.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "net/queue.h"
#include "sim/random.h"
#include "sim/registry.h"

namespace pert::net {

/// Everything a discipline factory may need to build one bottleneck queue.
struct QdiscContext {
  sim::Scheduler* sched = nullptr;
  std::int32_t capacity_pkts = 0;
  double link_bps = 0.0;
  double pps = 0.0;             ///< capacity in packets/second
  bool ecn = true;              ///< mark (true) or drop (false) on congestion
  double n_flows = 1.0;         ///< lower bound on competing flows
  double rtt_max = 0.2;         ///< upper bound on RTT, seconds
  double target_delay = 0.003;  ///< queueing-delay target, seconds
  double q_ref = 0.0;           ///< target backlog the builder settled on
  double q_ref_requested = 0.0; ///< pre-clamp target (== q_ref when unclamped)
  /// Lazy RNG fork: called at most once, and ONLY by disciplines that draw
  /// random numbers — calling it advances the parent stream, so a
  /// deterministic discipline must never touch it.
  std::function<sim::Rng()> fork_rng;
};

using QdiscFactory = std::unique_ptr<Queue> (*)(const QdiscContext& ctx);

struct QdiscInfo {
  static constexpr std::string_view kRegistry = "QdiscRegistry";
  static constexpr std::string_view kKind = "queue discipline";
  /// Registers the eight built-in disciplines; called once by instance().
  static void add_builtins(sim::Registry<QdiscInfo>& r);

  std::string name;     ///< registry key, e.g. "codel"
  std::string summary;  ///< one line for the `schemes` listing
  bool marks_ecn = false;  ///< discipline can CE-mark (router-AQM schemes)
  QdiscFactory make = nullptr;
};

/// make(name, ctx) builds a queue; an unknown name throws sim::ConfigError
/// with a did-you-mean suggestion when one exists.
using QdiscRegistry = sim::Registry<QdiscInfo>;

}  // namespace pert::net
