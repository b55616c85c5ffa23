// Structured simulation errors.
//
// Every abnormal termination of a simulation — invariant violation, stall,
// runaway event loop — throws one of these. They all derive from
// DiagnosticError, which carries a human-readable diagnostics snapshot
// (event-queue depth, per-flow state, whatever the thrower attached)
// alongside the what() message, so the experiment runner can convert an abort
// into a structured JobResult instead of losing the whole batch.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>

namespace pert::sim {

/// Base for all simulation aborts: what() is the one-line cause,
/// diagnostics() is the multi-line state snapshot captured at throw time.
class DiagnosticError : public std::runtime_error {
 public:
  DiagnosticError(const std::string& what, std::string diagnostics)
      : std::runtime_error(what), diagnostics_(std::move(diagnostics)) {}

  const std::string& diagnostics() const noexcept { return diagnostics_; }

 private:
  std::string diagnostics_;
};

/// A configurable component (queue discipline, sender, link, fluid model,
/// scenario builder) was handed out-of-domain parameters at construction
/// time: negative RTTs, inverted thresholds, probabilities outside [0,1],
/// zero-capacity links. Thrown by the sim/validate.h vocabulary before any
/// event runs, so a bad configuration can never produce a half-run
/// simulation. what() names the component and parameter; diagnostics()
/// carries the offending value and the expected domain.
class ConfigError : public DiagnosticError {
 public:
  using DiagnosticError::DiagnosticError;
};

/// A numeric sentinel detected rotted state while the simulation was
/// running: a non-finite EWMA/integrator/trajectory value or an overflowed
/// counter. Thrown by the sentinel layer (sim/sentinel.h) and the fluid
/// integrator; watchdog-detected sentinel failures surface as
/// InvariantViolation instead (both are DiagnosticErrors).
class NumericError : public DiagnosticError {
 public:
  using DiagnosticError::DiagnosticError;
};

/// A registered invariant (conservation, bounds, monotonicity) failed.
class InvariantViolation : public DiagnosticError {
 public:
  using DiagnosticError::DiagnosticError;
};

/// The watchdog saw no progress for its stall window, or the scheduler
/// dispatched an unreasonable number of events without advancing time
/// (zero-delay event loop).
class StallError : public DiagnosticError {
 public:
  using DiagnosticError::DiagnosticError;
};

}  // namespace pert::sim
