// String-keyed registry of congestion-control modules (sim::Registry).
//
// A module registers a `CcInfo` — name, one-line summary, ECN preference,
// and a factory building a started-ready sender from a `CcContext` — and
// from then on `scheme=<name>/<qdisc>` resolves it from the CLI with no
// enum to extend. Topology builders (Dumbbell, MultiBottleneck) fill the
// context with their derived path constants (capacity, flow-count bound,
// RTT bound, target delay) so a module's controller design sees exactly the
// numbers the hard-wired switch used to compute.
//
// The built-ins sack, vegas, cubic and dctcp come from CcInfo::add_builtins
// on first instance() access. The PERT family lives in core/ (tcp/ cannot
// depend on core/) and is added by core::register_pert_cc_modules through
// exp::ensure_scheme_modules(). Out-of-tree modules use a file-scope
// `sim::Registrar<tcp::CcInfo>` in their own TU.
#pragma once

#include <string>
#include <string_view>

#include "net/network.h"
#include "sim/registry.h"
#include "tcp/tcp_config.h"

namespace pert::tcp {

class TcpSender;

/// Everything a module factory may need to build one sender. The topology
/// builder owns the referenced objects; the context is consumed during
/// construction only.
struct CcContext {
  net::Network* net = nullptr;
  /// Sender config with `ecn` and `arena` already set for this flow.
  TcpConfig tcp;
  net::FlowId flow = 0;

  // --- path constants for controller designs (Theorem 2 etc.) ---
  double pps = 0.0;            ///< bottleneck capacity, packets/second
  double n_flows = 1.0;        ///< lower bound on competing flows
  double rtt_max = 0.2;        ///< upper bound on RTT, seconds
  double target_delay = 0.003; ///< queueing-delay target, seconds
  double gain_boost = 1.0;     ///< PERT/PI gain scale (DumbbellConfig knob)
  double sample_hz = 170.0;    ///< end-host controller sampling frequency

  /// PERT knobs (const core::PertParams*) when the builder carries them;
  /// opaque here because tcp/ cannot depend on core/. Null for builders
  /// without PERT configuration — the pert module then uses defaults.
  const void* pert_params = nullptr;
};

/// Factory: constructs the sender as a scheduler agent owned by `ctx.net`
/// (net->add_agent), returns the non-owning pointer.
using CcFactory = TcpSender* (*)(const CcContext& ctx);

struct CcInfo {
  static constexpr std::string_view kRegistry = "CcRegistry";
  static constexpr std::string_view kKind = "congestion-control module";
  /// Registers sack, vegas, cubic and dctcp; called once by instance().
  static void add_builtins(sim::Registry<CcInfo>& r);

  std::string name;     ///< registry key, e.g. "cubic"
  std::string summary;  ///< one line for the `schemes` listing
  /// Module wants ECN-capable transport by default (DCTCP); a scheme spec
  /// may still override per combination.
  bool wants_ecn = false;
  CcFactory make = nullptr;
};

/// make(name, ctx) builds a sender; an unknown name throws sim::ConfigError
/// with a did-you-mean suggestion when one exists.
using CcRegistry = sim::Registry<CcInfo>;

}  // namespace pert::tcp
