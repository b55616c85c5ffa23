#include "net/impairment.h"

#include <cmath>

namespace pert::net {

ImpairmentQueue::ImpairmentQueue(sim::Scheduler& sched,
                                 std::unique_ptr<Queue> inner,
                                 ImpairmentConfig cfg, sim::Rng rng)
    : WrapperQueue(sched, std::move(inner)), cfg_(cfg), rng_(rng) {
  cfg_.validate();
  capacity_check_ = false;  // len_pkts() includes held-in-flight packets
}

bool ImpairmentQueue::impairment_drops(const Packet& p) {
  // Fixed evaluation order so a seed reproduces the exact decision trace.
  if (cfg_.gilbert.p_enter_bad > 0) {
    // Advance the channel state once per packet, then sample the per-state
    // loss probability.
    if (bad_state_) {
      if (rng_.bernoulli(cfg_.gilbert.p_exit_bad)) bad_state_ = false;
    } else {
      if (rng_.bernoulli(cfg_.gilbert.p_enter_bad)) bad_state_ = true;
    }
    const double loss =
        bad_state_ ? cfg_.gilbert.loss_bad : cfg_.gilbert.loss_good;
    if (loss > 0 && rng_.bernoulli(loss)) return true;
  }
  if (cfg_.loss.p > 0 && rng_.bernoulli(cfg_.loss.p)) return true;
  if (cfg_.bit_error.ber > 0) {
    const double bits = 8.0 * static_cast<double>(p.size_bytes);
    const double p_drop = -std::expm1(bits * std::log1p(-cfg_.bit_error.ber));
    if (rng_.bernoulli(p_drop)) return true;
  }
  return false;
}

sim::Time ImpairmentQueue::hold_delay() {
  sim::Time d = 0.0;
  if (cfg_.jitter.max_delay > 0) d += rng_.uniform(0.0, cfg_.jitter.max_delay);
  if (cfg_.reorder.p > 0 && rng_.bernoulli(cfg_.reorder.p))
    d += rng_.uniform(cfg_.reorder.min_delay, cfg_.reorder.max_delay);
  return d;
}

void ImpairmentQueue::enqueue(PacketPtr p) {
  count_arrival();
  if (impairment_drops(*p)) {
    ++injected_;
    drop(std::move(p), DropCause::kInjected);
    return;
  }
  const sim::Time d = hold_delay();
  if (d <= 0) {
    pass_through(std::move(p));
    return;
  }
  const std::uint64_t token = next_token_++;
  held_bytes_ += p->size_bytes;
  held_.emplace(token, std::move(p));
  sched().schedule_in(d, [this, token] { release(token); });
}

void ImpairmentQueue::release(std::uint64_t token) {
  auto it = held_.find(token);
  if (it == held_.end()) return;  // defensive; tokens are never reused
  PacketPtr p = std::move(it->second);
  held_.erase(it);
  held_bytes_ -= p->size_bytes;
  pass_through(std::move(p));
  if (on_ready) on_ready();
}

void schedule_link_flaps(sim::Scheduler& sched, Link& link,
                         const ImpairmentConfig::Flap& flap) {
  if (flap.down_for <= 0 || flap.count <= 0) return;
  for (std::int32_t i = 0; i < flap.count; ++i) {
    const sim::Time down_at = flap.first_down + i * flap.period;
    sched.schedule_at(down_at, [&link] { link.set_down(true); });
    sched.schedule_at(down_at + flap.down_for,
                      [&link] { link.set_down(false); });
    if (flap.period <= 0) break;  // single outage
  }
}

}  // namespace pert::net
