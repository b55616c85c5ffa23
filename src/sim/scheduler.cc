#include "sim/scheduler.h"

#include <cassert>
#include <limits>
#include <string>
#include <utility>

#include "sim/errors.h"

namespace pert::sim {

namespace {
// 4-ary heap: shallower than binary for the same size, so dispatch does
// fewer cache-missing levels; the 4-way min scan is branch-cheap.
constexpr std::size_t kArity = 4;
}  // namespace

void Scheduler::sift_up(std::size_t pos) noexcept {
  const std::uint32_t slot = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!before(slot, heap_[parent])) break;
    heap_set(pos, heap_[parent]);
    pos = parent;
  }
  heap_set(pos, slot);
}

void Scheduler::sift_down(std::size_t pos) noexcept {
  const std::uint32_t slot = heap_[pos];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = pos * kArity + 1;
    if (first >= n) break;
    const std::size_t last = first + kArity < n ? first + kArity : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c)
      if (before(heap_[c], heap_[best])) best = c;
    if (!before(heap_[best], slot)) break;
    heap_set(pos, heap_[best]);
    pos = best;
  }
  heap_set(pos, slot);
}

void Scheduler::heap_erase(std::size_t pos) noexcept {
  assert(pos < heap_.size());
  const std::size_t last = heap_.size() - 1;
  if (pos != last) {
    heap_set(pos, heap_[last]);
    heap_.pop_back();
    // The moved-in element may need to travel either direction.
    sift_down(pos);
    sift_up(pos);
  } else {
    heap_.pop_back();
  }
}

void Scheduler::release_slot(std::uint32_t idx) {
  Slot& s = slots_[idx];
  s.gen += 1;  // odd -> even: any outstanding EventId for this slot is stale
  s.heap_pos = -1;
  s.cb = nullptr;
  free_.push_back(idx);
}

Scheduler::EventId Scheduler::emplace(Time t, std::uint64_t seq, Callback cb) {
  std::uint32_t idx;
  if (!free_.empty()) {
    idx = free_.back();
    free_.pop_back();
  } else {
    idx = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[idx];
  s.t = t;
  s.seq = seq;
  s.gen += 1;  // even -> odd: live
  s.cb = std::move(cb);
  heap_.push_back(idx);
  s.heap_pos = static_cast<std::int32_t>(heap_.size() - 1);
  sift_up(heap_.size() - 1);
  return EventId{idx, s.gen};
}

Scheduler::EventId Scheduler::schedule_at(Time t, Callback cb) {
  assert(cb && "scheduling an empty callback");
  // Numeric sentinel: a NaN time would fail every heap comparison and
  // silently corrupt event ordering (and NaN delays slip through the
  // negative-delay clamp in schedule_in, since NaN compares false). One
  // predictable branch; the schedule path is warm but not arithmetic-bound.
  if (!(t - t == 0.0)) {  // false for NaN and +-inf, no libm call
    throw NumericError(
        "Scheduler: scheduled time is not finite",
        "now=" + std::to_string(now_) + " t=" + std::to_string(t) +
            " pending=" + std::to_string(pending()) + "\n");
  }
  if (t < now_) t = now_;
  return emplace(t, kLocalLane | next_seq_++, std::move(cb));
}

Scheduler::EventId Scheduler::schedule_at_keyed(Time t, std::uint64_t key,
                                                Callback cb) {
  assert(cb && "scheduling an empty callback");
  assert(key < kLocalLane && "explicit keys live below the local lane");
  if (!(t - t == 0.0)) {
    throw NumericError(
        "Scheduler: scheduled time is not finite",
        "now=" + std::to_string(now_) + " t=" + std::to_string(t) +
            " pending=" + std::to_string(pending()) + "\n");
  }
  if (t < now_) t = now_;
  return emplace(t, key, std::move(cb));
}

bool Scheduler::cancel(EventId id) {
  if (!id.valid()) return false;
  assert(id.slot_ < slots_.size());
  Slot& s = slots_[id.slot_];
  // Generation mismatch: the event already ran or was cancelled (and the
  // slot possibly recycled for a newer event this handle must not touch).
  if (s.gen != id.gen_) return false;
  assert(s.heap_pos >= 0);
  heap_erase(static_cast<std::size_t>(s.heap_pos));
  release_slot(id.slot_);
  return true;
}

bool Scheduler::run_next() {
  if (heap_.empty()) return false;
  const std::uint32_t idx = heap_[0];
  heap_erase(0);
  Slot& s = slots_[idx];
  assert(s.t >= now_);
  if (s.t > now_) {
    instant_streak_ = 0;
  } else if (instant_event_limit_ != 0 &&
             ++instant_streak_ > instant_event_limit_) {
    throw StallError(
        "scheduler: " + std::to_string(instant_streak_) +
            " consecutive events at t=" + std::to_string(now_) +
            " without time advancing (zero-delay event loop?)",
        "pending events: " + std::to_string(pending()) +
            "\ndispatched: " + std::to_string(dispatched_) +
            "\nsim time: " + std::to_string(now_));
  }
  now_ = s.t;
  // Move the callback out and free the slot *before* invoking: the callback
  // may schedule (growing slots_) or cancel, and must see itself as done.
  Callback cb = std::move(s.cb);
  release_slot(idx);
  ++dispatched_;
  if (tracer_ && tracer_->wants(obs::Category::kSched, obs::Severity::kDebug))
    tracer_->instant(now_, obs::Category::kSched, obs::Severity::kDebug,
                     "sched.dispatch", 0, "pending",
                     static_cast<double>(pending()));
  cb();
  return true;
}

void Scheduler::run_until(Time t) {
  while (!heap_.empty() && slots_[heap_[0]].t <= t) run_next();
  if (now_ < t) now_ = t;
}

void Scheduler::run_until_exclusive(Time t) {
  while (!heap_.empty() && slots_[heap_[0]].t < t) run_next();
}

Time Scheduler::next_time() const noexcept {
  return heap_.empty() ? std::numeric_limits<Time>::infinity()
                       : slots_[heap_[0]].t;
}

std::size_t Scheduler::run(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && run_next()) ++n;
  return n;
}

}  // namespace pert::sim
