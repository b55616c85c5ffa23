// Composable network impairment models.
//
// ImpairmentQueue wraps any queue discipline and perturbs traffic *before* it
// reaches the wrapped AQM, emulating non-congestion pathologies end hosts
// meet in the wild — the regimes where delay-based congestion predictors are
// known to be fragile:
//
//   - Bernoulli loss: i.i.d. random drop with probability p.
//   - Gilbert-Elliott loss: two-state Markov chain (good/bad) with per-state
//     loss probabilities; models bursty wireless/line errors.
//   - Bit-error loss: drop probability 1-(1-ber)^bits, so bigger packets die
//     more often (payload-size-dependent, cf. De Cnodder et al. on RED's
//     packet-size sensitivity).
//   - Reordering: with probability p a packet is held for a random delay and
//     released behind its successors (hold-and-release via scheduler timers).
//   - Delay jitter: every packet is held for a uniform random extra delay.
//
// All randomness comes from the queue's own sim::Rng stream, seeded by the
// job, so a given seed reproduces the exact impairment trace — drops,
// reorderings, and release times — bit-identically on every run and thread
// count.
//
// Link outages (flaps) live on net::Link (set_down) and are driven by
// schedule_link_flaps(), since an outage pauses the transmitter rather than
// perturbing the queue.
//
// Conservation contract: for every wrapper, at any instant
//   arrivals == departures + drops + len_pkts()
// where len_pkts() counts both the wrapped queue's residents and packets held
// for delayed release. The watchdog's InvariantChecker asserts exactly this.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "net/link.h"
#include "net/queue.h"
#include "sim/random.h"
#include "sim/scheduler.h"
#include "sim/validate.h"

namespace pert::net {

struct ImpairmentConfig {
  struct Bernoulli {
    double p = 0.0;  ///< i.i.d. drop probability; 0 disables
  } loss;

  struct GilbertElliott {
    double p_enter_bad = 0.0;  ///< P(good -> bad) per packet; 0 disables
    double p_exit_bad = 0.0;   ///< P(bad -> good) per packet
    double loss_good = 0.0;    ///< drop probability in the good state
    double loss_bad = 1.0;     ///< drop probability in the bad state
  } gilbert;

  struct BitError {
    double ber = 0.0;  ///< per-bit error probability; 0 disables
  } bit_error;

  struct Reorder {
    double p = 0.0;          ///< probability a packet is held back; 0 disables
    sim::Time min_delay = 0.0;  ///< hold duration drawn uniform [min, max]
    sim::Time max_delay = 0.0;
  } reorder;

  struct Jitter {
    sim::Time max_delay = 0.0;  ///< per-packet extra delay uniform [0, max]
  } jitter;

  struct Flap {
    sim::Time first_down = 0.0;  ///< absolute time of the first outage
    sim::Time down_for = 0.0;    ///< outage duration; 0 disables flapping
    sim::Time period = 0.0;      ///< down-edge spacing; 0 = single outage
    std::int32_t count = 1;      ///< number of outages when period > 0
  } flap;

  bool drops_packets() const {
    return loss.p > 0 || gilbert.p_enter_bad > 0 || bit_error.ber > 0;
  }
  bool delays_packets() const {
    return (reorder.p > 0 && reorder.max_delay > 0) || jitter.max_delay > 0;
  }
  /// True when the queue wrapper is needed at all.
  bool any_queue_impairment() const {
    return drops_packets() || delays_packets();
  }
  bool flaps_link() const { return flap.down_for > 0 && flap.count > 0; }
  bool any() const { return any_queue_impairment() || flaps_link(); }

  /// Rejects out-of-domain impairment parameters with sim::ConfigError:
  /// every probability in [0, 1], every delay/duration non-negative, the
  /// reorder window ordered, and no model that cannot do what it is set up
  /// for (a Gilbert channel that never leaves the bad state, reordering
  /// that never holds a packet, repeated flaps with no period between
  /// them). Called by ImpairmentQueue and schedule_link_flaps; topology
  /// builders validate up front too.
  void validate() const {
    sim::require_prob("ImpairmentConfig", "loss.p", loss.p);
    sim::require_prob("ImpairmentConfig", "gilbert.p_enter_bad",
                      gilbert.p_enter_bad);
    sim::require_prob("ImpairmentConfig", "gilbert.p_exit_bad",
                      gilbert.p_exit_bad);
    if (gilbert.p_enter_bad > 0)
      sim::require_positive("ImpairmentConfig", "gilbert.p_exit_bad",
                            gilbert.p_exit_bad);
    sim::require_prob("ImpairmentConfig", "gilbert.loss_good",
                      gilbert.loss_good);
    sim::require_prob("ImpairmentConfig", "gilbert.loss_bad", gilbert.loss_bad);
    sim::require_prob("ImpairmentConfig", "bit_error.ber", bit_error.ber);
    sim::require_prob("ImpairmentConfig", "reorder.p", reorder.p);
    sim::require_non_negative("ImpairmentConfig", "reorder.min_delay",
                              reorder.min_delay);
    sim::require_non_negative("ImpairmentConfig", "reorder.max_delay",
                              reorder.max_delay);
    sim::require_le("ImpairmentConfig", "reorder.min_delay", reorder.min_delay,
                    "reorder.max_delay", reorder.max_delay);
    if (reorder.p > 0)
      sim::require_positive("ImpairmentConfig", "reorder.max_delay",
                            reorder.max_delay);
    sim::require_non_negative("ImpairmentConfig", "jitter.max_delay",
                              jitter.max_delay);
    sim::require_non_negative("ImpairmentConfig", "flap.first_down",
                              flap.first_down);
    sim::require_non_negative("ImpairmentConfig", "flap.down_for",
                              flap.down_for);
    sim::require_non_negative("ImpairmentConfig", "flap.period", flap.period);
    sim::require_at_least("ImpairmentConfig", "flap.count", flap.count, 0);
    if (flap.count > 1)
      sim::require_positive("ImpairmentConfig", "flap.period", flap.period);
  }
};

/// Delegating base for queue wrappers: forwards length/dequeue to the
/// wrapped discipline and merges stats so callers see one coherent queue
/// (arrivals as offered to the wrapper, drops from both layers, occupancy
/// integral from the inner buffer). The numeric sentinel checks both layers,
/// so a wrapped AQM's own state (RED avg, PI prob, REM price...) stays
/// watched.
class WrapperQueue : public Queue {
 public:
  WrapperQueue(sim::Scheduler& sched, std::unique_ptr<Queue> inner)
      : Queue(sched, inner->capacity_pkts()), inner_(std::move(inner)) {}

  PacketPtr dequeue() override {
    PacketPtr p = inner_->dequeue();
    if (p) count_departure();
    return p;
  }

  std::int32_t len_pkts() const noexcept override { return inner_->len_pkts(); }
  std::int64_t len_bytes() const noexcept override {
    return inner_->len_bytes();
  }

  /// The merged view's check, then the wrapped discipline's own.
  std::string numeric_violation() const override {
    if (std::string v = Queue::numeric_violation(); !v.empty()) return v;
    return inner_->numeric_violation();
  }

  /// Inner snapshot + this wrapper's arrivals/departures/injected drops.
  Stats snapshot() const override {
    Stats s = inner_->snapshot();
    const Stats own = Queue::snapshot();
    s.arrivals = own.arrivals;
    s.departures = own.departures;
    s.drops += own.drops;
    s.injected_drops += own.injected_drops;
    return s;
  }

  /// The wrapped discipline (its stats count what was actually offered to it).
  Queue& inner() noexcept { return *inner_; }

  /// Both layers trace under the same entity id: the wrapper reports its
  /// injected drops, the inner discipline its congestion/overflow drops.
  void set_tracer(obs::Tracer* tracer, std::uint32_t id) noexcept override {
    Queue::set_tracer(tracer, id);
    inner_->set_tracer(tracer, id);
  }

 protected:
  void pass_through(PacketPtr p) { inner_->enqueue(std::move(p)); }

 private:
  std::unique_ptr<Queue> inner_;
};

class ImpairmentQueue final : public WrapperQueue {
 public:
  ImpairmentQueue(sim::Scheduler& sched, std::unique_ptr<Queue> inner,
                  ImpairmentConfig cfg, sim::Rng rng);

  void enqueue(PacketPtr p) override;

  /// Inner residents + packets held for delayed release.
  std::int32_t len_pkts() const noexcept override {
    return WrapperQueue::len_pkts() + static_cast<std::int32_t>(held_.size());
  }
  std::int64_t len_bytes() const noexcept override {
    return WrapperQueue::len_bytes() + held_bytes_;
  }

  // --- introspection (tests, diagnostics) ---
  std::size_t held() const noexcept { return held_.size(); }
  std::uint64_t injected() const noexcept { return injected_; }
  const ImpairmentConfig& config() const noexcept { return cfg_; }

 private:
  /// Consumes RNG and decides whether this packet is lost to impairment.
  bool impairment_drops(const Packet& p);
  /// Extra delay before the packet reaches the inner queue (0 = none).
  sim::Time hold_delay();
  void release(std::uint64_t token);

  ImpairmentConfig cfg_;
  sim::Rng rng_;
  bool bad_state_ = false;          ///< Gilbert-Elliott channel state
  std::uint64_t injected_ = 0;      ///< convenience mirror of injected_drops
  std::uint64_t next_token_ = 1;
  std::map<std::uint64_t, PacketPtr> held_;  ///< token -> held packet
  std::int64_t held_bytes_ = 0;
};

/// Schedules the outage pattern described by cfg.flap onto `link`:
/// `count` outages of `down_for` seconds, the first going down at
/// `first_down`, subsequent down-edges every `period` seconds. Queued packets
/// are retained during an outage and drain when the link comes back up.
void schedule_link_flaps(sim::Scheduler& sched, Link& link,
                         const ImpairmentConfig::Flap& flap);

}  // namespace pert::net
