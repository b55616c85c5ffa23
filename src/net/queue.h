// Queue discipline interface and FIFO storage shared by all disciplines.
//
// Capacity is counted in packets (the paper sizes buffers in packets).
// Every discipline keeps cumulative counters plus a time-weighted integral of
// the instantaneous queue length; experiments compute windowed averages by
// differencing snapshots, so no sampling timers are needed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "net/packet.h"
#include "obs/trace.h"
#include "sim/function.h"
#include "sim/scheduler.h"
#include "sim/validate.h"

namespace pert::net {

/// Why a packet was dropped. Congestion (AQM probabilistic) and overflow
/// (buffer full) drops are the discipline's own doing; injected drops come
/// from a fault-injection/impairment wrapper emulating non-congestion loss
/// and must never be conflated with AQM behavior in reported stats.
enum class DropCause : std::uint8_t { kCongestion, kOverflow, kInjected };

class Queue {
 public:
  struct Stats {
    std::uint64_t arrivals = 0;       ///< packets offered to enqueue()
    std::uint64_t departures = 0;     ///< packets handed out by dequeue()
    std::uint64_t drops = 0;          ///< packets dropped (any reason)
    std::uint64_t forced_drops = 0;   ///< overflow drops (buffer full)
    std::uint64_t early_drops = 0;    ///< AQM probabilistic drops
    std::uint64_t injected_drops = 0; ///< fault-injection/impairment drops
    std::uint64_t ecn_marks = 0;      ///< CE marks applied
    std::uint64_t bytes_in = 0;       ///< bytes accepted into the queue
    /// Integral of queue length (packets) over time; diff two snapshots and
    /// divide by elapsed time for the windowed average queue length.
    double len_integral = 0.0;
  };

  Queue(sim::Scheduler& sched, std::int32_t capacity_pkts)
      : sched_(&sched), capacity_(capacity_pkts) {
    sim::require_at_least("Queue", "capacity_pkts", capacity_pkts, 1);
  }
  virtual ~Queue() = default;
  Queue(const Queue&) = delete;
  Queue& operator=(const Queue&) = delete;

  /// Offers a packet; the discipline either stores it, marks+stores it, or
  /// drops it (drop is counted and the on_drop hook fires).
  virtual void enqueue(PacketPtr p) = 0;

  /// Removes the head packet, or returns nullptr when empty.
  virtual PacketPtr dequeue();

  virtual std::int32_t len_pkts() const noexcept {
    return static_cast<std::int32_t>(fifo_.size());
  }
  virtual std::int64_t len_bytes() const noexcept { return bytes_; }
  std::int32_t capacity_pkts() const noexcept { return capacity_; }

  /// Cumulative stats with the length integral advanced to now(). Virtual so
  /// wrapper disciplines (fault injection, impairments) can merge their own
  /// counters with the wrapped discipline's.
  virtual Stats snapshot() const {
    Stats s = stats_;
    const sim::Time now = sched_->now();
    s.len_integral += integral_len() * (now - last_change_);
    return s;
  }

  /// Conservation self-check: every packet ever offered is accounted for as
  /// departed, dropped, or still resident. Returns "" while consistent, else
  /// a message describing the imbalance (watchdog invariant).
  std::string conservation_violation() const;

  /// Numeric-sentinel self-check: byte accounting, the length integral and
  /// cumulative counters must stay finite / non-negative / below counter
  /// saturation. Returns "" while healthy, else a message naming the rotted
  /// state. Polled by the watchdog's "numeric-sentinel" invariant on its
  /// coarse tick, so the packet hot path never pays for it. Disciplines with
  /// their own hidden state (RED avg, PI/REM integrators, AVQ virtual
  /// capacity) extend the base check.
  virtual std::string numeric_violation() const;

  /// Attaches a tracer (not owned; may be null) and the entity id this queue
  /// reports under. Emits "queue.drop.{congestion,overflow,injected}" and
  /// "queue.ecn_mark" instants (kInfo) plus a "queue.len" counter series
  /// (kDebug) on every length change. Virtual so wrapper disciplines can
  /// propagate the tracer to the discipline they wrap.
  virtual void set_tracer(obs::Tracer* tracer, std::uint32_t id) noexcept {
    tracer_ = tracer;
    trace_id_ = id;
    flush_clamp_notes();
  }

  /// Records an intentional setup-time parameter clamp (auto-tuning floors,
  /// q_ref capping — applied by the discipline or the topology builder).
  /// Tracers attach after construction, so notes are buffered and flushed
  /// exactly once as "queue.param_clamped" kWarn instants when set_tracer
  /// runs — a silently adjusted configuration is visible in every trace.
  /// `param` must be a string literal (trace events store the pointer).
  void note_param_clamp(const char* param, double requested, double used) {
    clamp_notes_.push_back({param, requested, used});
  }

  /// Clamp notes not yet flushed to a tracer (tests, diagnostics).
  std::size_t pending_clamp_notes() const noexcept {
    return clamp_notes_.size();
  }

  /// Fired for every dropped packet (after counting). Used by the predictor
  /// study to observe queue-level loss events.
  sim::UniqueFunction<void(const Packet&, sim::Time)> on_drop;

  /// Fired when a packet becomes dequeueable *asynchronously* — i.e. not
  /// during an enqueue() call on this queue. Only impairment wrappers that
  /// hold packets and release them via scheduler timers need this; the Link
  /// registers a kick so its transmitter wakes up for released packets.
  sim::UniqueFunction<void()> on_ready;

 protected:
  sim::Scheduler& sched() noexcept { return *sched_; }
  sim::Time now() const noexcept { return sched_->now(); }

  bool full() const noexcept { return len_pkts() >= capacity_; }

  /// Stores a packet at the tail, maintaining accounting.
  void push(PacketPtr p) {
    advance_integral();
    stats_.bytes_in += static_cast<std::uint64_t>(p->size_bytes);
    bytes_ += p->size_bytes;
    fifo_.push_back(std::move(p));
    trace_len();
  }

  /// Removes and returns the head packet without counting a departure or
  /// emitting a length trace — building block for disciplines that inspect
  /// the head before deciding its fate (CoDel's sojourn law). The caller
  /// must not call this on an empty fifo_ and must finish the packet's
  /// story itself: count_departure()+trace_len() on delivery, or drop().
  PacketPtr take_head() {
    advance_integral();
    PacketPtr p = std::move(fifo_.front());
    fifo_.pop_front();
    bytes_ -= p->size_bytes;
    return p;
  }

  /// Emits the "queue.len" counter sample (kDebug) at the current length.
  void trace_len() {
    if (tracer_ &&
        tracer_->wants(obs::Category::kQueue, obs::Severity::kDebug))
      tracer_->counter(now(), obs::Category::kQueue, obs::Severity::kDebug,
                       "queue.len", trace_id_, integral_len());
  }

  /// Byte/integral bookkeeping of push() for disciplines with their own
  /// storage (FQ-CoDel's per-bucket deques): accepts the packet into the
  /// accounting without touching fifo_. Pair every book_insert with either
  /// a book_remove (delivery) or nothing (the packet left via drop()).
  void book_insert(const Packet& p) {
    advance_integral();
    stats_.bytes_in += static_cast<std::uint64_t>(p.size_bytes);
    bytes_ += p.size_bytes;
  }
  void book_remove(const Packet& p) {
    advance_integral();
    bytes_ -= p.size_bytes;
  }

  /// Counts and disposes a dropped packet.
  void drop(PacketPtr p, DropCause cause) {
    ++stats_.drops;
    switch (cause) {
      case DropCause::kOverflow: ++stats_.forced_drops; break;
      case DropCause::kCongestion: ++stats_.early_drops; break;
      case DropCause::kInjected: ++stats_.injected_drops; break;
    }
    if (tracer_ && tracer_->wants(obs::Category::kQueue, obs::Severity::kInfo))
      tracer_->instant(now(), obs::Category::kQueue, obs::Severity::kInfo,
                       drop_event_name(cause), trace_id_, "len",
                       integral_len(), "flow",
                       static_cast<double>(p->flow));
    if (on_drop) on_drop(*p, now());
  }

  /// The congestion signal of every AQM: CE-marks `p` when `ecn` allows
  /// marking and `p` is ECT, and returns true (the caller keeps the packet);
  /// otherwise drops it as a congestion drop and returns false (`p` is gone).
  bool mark_or_drop(PacketPtr& p, bool ecn) {
    if (ecn && p->ecn == Ecn::Ect0) {
      p->ecn = Ecn::Ce;
      count_mark();
      return true;
    }
    drop(std::move(p), DropCause::kCongestion);
    return false;
  }

  void count_arrival() noexcept { ++stats_.arrivals; }
  void count_departure() noexcept { ++stats_.departures; }
  void count_mark() {
    ++stats_.ecn_marks;
    if (tracer_ && tracer_->wants(obs::Category::kQueue, obs::Severity::kInfo))
      tracer_->instant(now(), obs::Category::kQueue, obs::Severity::kInfo,
                       "queue.ecn_mark", trace_id_, "len", integral_len());
  }

  static constexpr const char* drop_event_name(DropCause cause) noexcept {
    switch (cause) {
      case DropCause::kCongestion: return "queue.drop.congestion";
      case DropCause::kOverflow: return "queue.drop.overflow";
      case DropCause::kInjected: return "queue.drop.injected";
    }
    return "queue.drop";
  }

  obs::Tracer* tracer() const noexcept { return tracer_; }
  std::uint32_t trace_id() const noexcept { return trace_id_; }

  /// Accrues the length integral up to now; call before length changes.
  void advance_integral() {
    const sim::Time t = now();
    stats_.len_integral += integral_len() * (t - last_change_);
    last_change_ = t;
  }

  /// Instantaneous length used for the integral and length-annotated trace
  /// events. Base: resident packets in fifo_. Disciplines with their own
  /// storage (FQ-CoDel) override; wrapper disciplines whose len_pkts()
  /// includes held-in-flight packets deliberately keep the base definition
  /// so their integral stays over the resident buffer.
  virtual double integral_len() const noexcept {
    return static_cast<double>(fifo_.size());
  }

  std::deque<PacketPtr> fifo_;
  /// Wrappers whose len_pkts() includes held-in-flight packets set this false
  /// so the conservation check skips the capacity bound.
  bool capacity_check_ = true;

 private:
  struct ClampNote {
    const char* param;
    double requested;
    double used;
  };

  void flush_clamp_notes() noexcept {
    if (tracer_ == nullptr || clamp_notes_.empty()) return;
    for (const ClampNote& n : clamp_notes_) {
      if (tracer_->wants(obs::Category::kQueue, obs::Severity::kWarn))
        tracer_->instant(now(), obs::Category::kQueue, obs::Severity::kWarn,
                         "queue.param_clamped", trace_id_, n.param,
                         n.requested, "used", n.used);
    }
    clamp_notes_.clear();
  }

  sim::Scheduler* sched_;
  std::int32_t capacity_;
  std::int64_t bytes_ = 0;
  sim::Time last_change_ = 0.0;
  Stats stats_;
  std::vector<ClampNote> clamp_notes_;
  obs::Tracer* tracer_ = nullptr;
  std::uint32_t trace_id_ = 0;
};

/// Plain tail-drop FIFO.
class DropTailQueue final : public Queue {
 public:
  using Queue::Queue;
  void enqueue(PacketPtr p) override;
};

}  // namespace pert::net
