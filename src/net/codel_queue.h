// CoDel AQM (Nichols & Jacobson, CACM 2012 — RFC 8289).
//
// Controlled Delay watches each packet's *sojourn time* through the queue
// instead of queue length: when the minimum sojourn over a sliding
// `interval` stays above `target`, the queue holds a standing buffer that
// no burst can explain, and CoDel enters a dropping state. Drops are spaced
// by interval/sqrt(count) — the control law that walks drop frequency up
// until the standing queue drains. Because the decision runs at dequeue
// time, the head packet (the one that actually waited) is the one dropped,
// which is what makes the sojourn signal accurate.
//
// ECN: when `ecn` is set and the head packet is ECT, the "drop" becomes a
// CE mark and the packet is still delivered (RFC 8289 §3), ending that
// round of the control law.
#pragma once

#include <cmath>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>

#include "net/queue.h"
#include "sim/sentinel.h"

namespace pert::net {

struct CodelParams {
  double target = 0.005;   ///< acceptable standing sojourn time, seconds
  double interval = 0.1;   ///< sliding window; ~worst expected RTT
  bool ecn = true;         ///< mark ECT heads instead of dropping them

  void validate() const {
    sim::require_positive("CodelParams", "target", target);
    sim::require_positive("CodelParams", "interval", interval);
    sim::require_less("CodelParams", "target", target, "interval", interval);
  }
};

/// CoDel's control law for one FIFO: the above-target run, the dropping
/// state and the interval/sqrt(count) drop spacing. The FIFO stays with its
/// owner, the split Linux makes with codel_impl.h: CodelQueue runs one law
/// over its buffer, FQ-CoDel one per bucket. dequeue() reaches the FIFO
/// through `Fifo`, which provides
///   bool empty() const;
///   PacketPtr pop(sim::Time& enqueued);  // the head and its enqueue stamp
///   bool mark_or_drop(PacketPtr& p);     // Queue::mark_or_drop with ECN
class CodelLaw {
 public:
  /// RFC 8289's dequeue: the next packet to deliver, or nullptr once the
  /// FIFO is empty (every packet the law drops on the way is gone).
  template <class Fifo>
  PacketPtr dequeue(Fifo& fifo, const CodelParams& params, sim::Time now) {
    Head h = next_head(fifo, params, now);
    if (!h.p) {
      dropping_ = false;
      return nullptr;
    }
    if (dropping_) {
      if (!h.ok_to_drop) {
        dropping_ = false;
      } else {
        while (h.p && dropping_ && now >= drop_next_) {
          ++count_;
          if (fifo.mark_or_drop(h.p)) {
            // The mark stands in for the drop; the packet is delivered and
            // the control law advances one step.
            drop_next_ = control_law(drop_next_, params);
            break;
          }
          h = next_head(fifo, params, now);
          if (!h.ok_to_drop)
            dropping_ = false;
          else
            drop_next_ = control_law(drop_next_, params);
        }
      }
    } else if (h.ok_to_drop) {
      // Enter the dropping state. Re-entry soon after the last exit resumes
      // at the previous drop frequency instead of restarting from 1.
      ++count_;
      if (!fifo.mark_or_drop(h.p)) h = next_head(fifo, params, now);
      dropping_ = true;
      const std::uint32_t delta = count_ - last_count_;
      count_ = (delta > 1 && now - drop_next_ < 16.0 * params.interval)
                   ? delta
                   : 1;
      drop_next_ = control_law(now, params);
      last_count_ = count_;
    }
    return std::move(h.p);
  }

  bool dropping() const noexcept { return dropping_; }
  std::uint32_t drop_count() const noexcept { return count_; }
  sim::Time drop_next() const noexcept { return drop_next_; }

  /// The law's clocks stay finite. "" while healthy.
  std::string numeric_violation() const {
    if (std::string v = sim::finite_violation("codel.first_above",
                                              first_above_);
        !v.empty())
      return v;
    return sim::finite_violation("codel.drop_next", drop_next_);
  }

 private:
  struct Head {
    PacketPtr p;
    bool ok_to_drop = false;
  };

  /// RFC 8289's dodeque(): pops the head and classifies it against the
  /// target/interval law. Clears first_above_ when the standing queue is
  /// gone.
  template <class Fifo>
  Head next_head(Fifo& fifo, const CodelParams& params, sim::Time now) {
    Head h;
    if (fifo.empty()) {
      first_above_ = 0.0;
      return h;
    }
    sim::Time enqueued = 0.0;
    h.p = fifo.pop(enqueued);
    if (now - enqueued < params.target || fifo.empty()) {
      // Below target (or down to the last packet — a standing queue of one
      // is just the packet being served): leave/stay out of the
      // above-target run.
      first_above_ = 0.0;
    } else if (first_above_ == 0.0) {
      // First above-target head: give the queue one interval to drain
      // before declaring a standing queue.
      first_above_ = now + params.interval;
    } else if (now >= first_above_) {
      h.ok_to_drop = true;
    }
    return h;
  }

  sim::Time control_law(sim::Time t, const CodelParams& params) const {
    return t + params.interval / std::sqrt(static_cast<double>(count_));
  }

  sim::Time first_above_ = 0.0; ///< when sojourn first exceeded target; 0=not
  sim::Time drop_next_ = 0.0;   ///< next scheduled drop while dropping
  std::uint32_t count_ = 0;     ///< drops in the current dropping state
  std::uint32_t last_count_ = 0;
  bool dropping_ = false;
};

class CodelQueue final : public Queue {
 public:
  CodelQueue(sim::Scheduler& sched, std::int32_t capacity_pkts,
             CodelParams params = {});

  void enqueue(PacketPtr p) override;
  PacketPtr dequeue() override;

  const CodelParams& params() const noexcept { return params_; }

  /// Control-law state, exposed for the interval/sojourn-law unit tests.
  bool dropping() const noexcept { return law_.dropping(); }
  std::uint32_t drop_count() const noexcept { return law_.drop_count(); }
  sim::Time drop_next() const noexcept { return law_.drop_next(); }

  /// Base checks plus the sojourn ledger and control-law state.
  std::string numeric_violation() const override;

 private:
  struct Fifo;

  CodelParams params_;
  std::deque<sim::Time> ts_;    ///< enqueue stamp per resident packet
  CodelLaw law_;
};

}  // namespace pert::net
