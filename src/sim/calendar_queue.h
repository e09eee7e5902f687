// Calendar queue: an O(1)-amortized event scheduler for POD payloads that
// preserves the binary heap's exact (time, seq) FIFO total order.
//
// Layout.  Pending events live either in a WINDOW — `nb` buckets of equal
// time width covering [origin, origin + nb·width) — or in an overflow
// vector holding everything at or beyond the window's end.  An event lands
// in its bucket by pure arithmetic:
//
//   f(at) = at >= wend ? OVERFLOW : min(floor((at - origin)/width), nb - 1)
//
// Buckets drain in ascending index; a bucket is sorted by (at, seq) once,
// when it becomes the active drain target (events scheduled into the
// active bucket insert at their sorted position, which is always at or
// after the drain cursor — see the ordering argument below).  When the
// window is exhausted, the overflow rebuilds a fresh window sized from the
// remaining events' min/max times: O(pending) moves, amortized O(1) per
// event for the per-round schedule/drain cycles the fleet engine runs.
//
// Ordering equivalence with a binary heap (the test oracle
// tests/typed_event_queue.h):
//   1. Within a bucket events pop in (at, seq) order — explicit sort, then
//      sorted insertion for mid-drain schedules.  A mid-drain insert can
//      never land before the cursor: a new event's time is clamped to
//      now() = the last popped time, and its seq is strictly larger than
//      every already-popped seq, so upper_bound places it at or after the
//      cursor.
//   2. Across buckets, f is monotone in `at`, so bucket ranges partition
//      time in ascending order and draining by ascending index visits
//      events in ascending (at, seq).
//   3. Every overflow event has at >= wend, every window event at < wend,
//      so the window fully drains first; the next rebuild orders the
//      survivors the same way, inductively.
// The comparisons are exact double comparisons on the same (at, seq) keys
// the heap uses, so the two schedulers produce bit-identical pop sequences
// — pinned adversarially by tests/test_calendar_queue.cpp and end-to-end
// by the fleet engine's golden fingerprints.
//
// Non-finite timestamps are rejected (schedule_at returns false): a NaN
// would poison both f() and the comparator's strict weak ordering.
//
// Allocation discipline: buckets and overflow are grow-only vectors that
// clear() but never shrink, and a window rebuild only moves events between
// retained storage.  When a schedule arrives on a fully-drained queue the
// stale window is dropped (see place()), so each schedule/drain cycle
// refits its window and reuses bucket indices from 0 — warmed capacity —
// instead of marching into cold buckets as simulated time advances.  A
// warmed-up per-round cycle therefore runs allocation-free (pinned by the
// counting-allocator test).  reserve() pre-warms the overflow lane, where
// all between-rounds schedules land.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/units.h"

namespace eefei::sim {

template <class P>
class CalendarQueue {
 public:
  /// Current simulated time (the timestamp of the event being processed,
  /// or the last processed event after run() returns).
  [[nodiscard]] Seconds now() const { return now_; }

  /// Schedules `payload` at absolute simulated time `at`.  Past times are
  /// clamped to now(); non-finite times are rejected (returns false).
  bool schedule_at(Seconds at, const P& payload) {
    if (!std::isfinite(at.value())) return false;
    const double t = at < now_ ? now_.value() : at.value();
    place(Item{t, next_seq_++, payload});
    ++pending_;
    if (pending_ > high_water_) high_water_ = pending_;
    return true;
  }

  bool schedule_in(Seconds delay, const P& payload) {
    return schedule_at(now_ + delay, payload);
  }

  /// Processes events in (time, seq) order until the queue is empty or
  /// `max_events` fires, invoking `dispatch(payload, at)` for each.
  /// Handlers may schedule more events (including at the current time); a
  /// stopped run resumes exactly where it left off.
  template <class Dispatch>
  std::size_t run(Dispatch&& dispatch, std::size_t max_events = SIZE_MAX) {
    std::size_t processed = 0;
    Item ev;
    while (processed < max_events && pop(ev)) {
      dispatch(ev.payload, Seconds{ev.at});
      ++processed;
    }
    return processed;
  }

  [[nodiscard]] bool empty() const { return pending_ == 0; }
  [[nodiscard]] std::size_t pending() const { return pending_; }

  /// Deepest the queue has been since construction / the last
  /// reset_high_water().
  [[nodiscard]] std::size_t high_water() const { return high_water_; }
  void reset_high_water() { high_water_ = pending_; }

  /// Drops all pending events but keeps the clock and the FIFO sequence
  /// counter, retaining all bucket capacity.  Re-arms the high-water mark
  /// at the (now empty) depth.
  void clear() {
    for (auto& b : buckets_) b.clear();
    overflow_.clear();
    pending_ = 0;
    cur_ = 0;
    cursor_ = 0;
    active_ = false;
    windowed_ = false;
    high_water_ = 0;
  }

  /// Returns the queue to its freshly-constructed state (clock, sequence
  /// counter and high-water mark all rewound), retaining capacity.
  void reset() {
    clear();
    now_ = Seconds{0.0};
    next_seq_ = 0;
  }

  /// Pre-warms the overflow lane — where every between-rounds schedule
  /// lands — so a warmed queue runs without growing it.
  void reserve(std::size_t events) { overflow_.reserve(events); }

 private:
  struct Item {
    double at = 0.0;
    std::uint64_t seq = 0;  // tie-break: FIFO among equal times
    P payload{};
  };
  struct EarlierKey {
    bool operator()(const Item& a, const Item& b) const {
      if (a.at != b.at) return a.at < b.at;
      return a.seq < b.seq;
    }
  };

  static constexpr std::size_t kInitialBuckets = 16;
  static constexpr std::size_t kMaxBuckets = 4096;
  static constexpr std::size_t kTargetLoad = 4;  // events per bucket

  void place(const Item& it) {
    if (pending_ == 0 && windowed_) {
      // First event of a fresh cycle (the queue fully drained): drop the
      // stale window so the next drain refits one to the new cluster's
      // span.  Without this, a window anchored by an earlier cycle
      // swallows later cycles at ever-higher bucket indices — fresh,
      // cold-capacity buckets every cycle — while the warmed low-index
      // buckets idle behind the drain point; re-anchoring reuses bucket
      // storage from index 0 and keeps the per-cycle steady state
      // allocation-free (pinned by the counting-allocator test).  An
      // empty queue has no relative order to preserve, so this is the
      // ordinary overflow → rebuild path with a better-fitted window.
      if (active_) buckets_[cur_].clear();  // popped remnants of the drain
      cur_ = 0;
      cursor_ = 0;
      active_ = false;
      windowed_ = false;
    }
    if (!windowed_ || it.at >= wend_) {
      overflow_.push_back(it);
      return;
    }
    std::size_t b = static_cast<std::size_t>((it.at - origin_) / width_);
    if (b >= nb_) b = nb_ - 1;  // FP edge: at < wend_ but ratio rounded up
    if (b < cur_) b = cur_;     // defensively never behind the drain point
    auto& bkt = buckets_[b];
    if (b == cur_ && active_) {
      // The active bucket is sorted and mid-drain: insert in order.  The
      // position is always >= cursor_ (argument in the header comment).
      const auto pos = std::upper_bound(bkt.begin() + cursor_, bkt.end(), it,
                                        EarlierKey{});
      bkt.insert(pos, it);
    } else {
      bkt.push_back(it);  // sorted lazily when the bucket activates
    }
  }

  // Rebuilds the window from the overflow lane (the window itself is
  // empty).  Parameters derive only from the remaining events, so the
  // layout — and therefore the allocation pattern — is deterministic.
  void rebuild() {
    assert(!overflow_.empty());
    double mn = overflow_.front().at;
    double mx = mn;
    for (const Item& it : overflow_) {
      mn = std::min(mn, it.at);
      mx = std::max(mx, it.at);
    }
    while (nb_ < kMaxBuckets && overflow_.size() > nb_ * kTargetLoad) {
      nb_ *= 2;
    }
    if (buckets_.size() < nb_) buckets_.resize(nb_);
    origin_ = mn;
    width_ = (mx - mn) / static_cast<double>(nb_);
    if (!(width_ > 0.0)) width_ = 1.0;  // all-equal times
    wend_ = origin_ + width_ * static_cast<double>(nb_);
    cur_ = 0;
    cursor_ = 0;
    active_ = false;
    windowed_ = true;
    // Distribute in place; events at or beyond wend_ (possible when
    // (mx-mn)/nb rounds such that mx maps past the last bucket) stay in
    // overflow for a later window — progress is guaranteed because the
    // minimum always lands in bucket 0.
    std::size_t keep = 0;
    for (const Item& it : overflow_) {
      if (it.at >= wend_) {
        overflow_[keep++] = it;
      } else {
        std::size_t b = static_cast<std::size_t>((it.at - origin_) / width_);
        if (b >= nb_) b = nb_ - 1;
        buckets_[b].push_back(it);
      }
    }
    overflow_.resize(keep);
  }

  bool pop(Item& out) {
    if (pending_ == 0) return false;
    for (;;) {
      if (!windowed_) rebuild();
      if (active_) {
        auto& bkt = buckets_[cur_];
        if (cursor_ < bkt.size()) {
          out = bkt[cursor_++];
          --pending_;
          now_ = Seconds{out.at};
          return true;
        }
        bkt.clear();
        cursor_ = 0;
        active_ = false;
        ++cur_;
      }
      while (cur_ < nb_ && buckets_[cur_].empty()) ++cur_;
      if (cur_ < nb_) {
        auto& bkt = buckets_[cur_];
        std::sort(bkt.begin(), bkt.end(), EarlierKey{});
        active_ = true;
        cursor_ = 0;
      } else {
        windowed_ = false;  // window exhausted: rebuild from overflow
      }
    }
  }

  std::vector<std::vector<Item>> buckets_;
  std::vector<Item> overflow_;
  double origin_ = 0.0;
  double width_ = 1.0;
  double wend_ = 0.0;
  std::size_t nb_ = kInitialBuckets;
  std::size_t cur_ = 0;      // index of the active / next bucket
  std::size_t cursor_ = 0;   // drain position within the active bucket
  bool active_ = false;      // buckets_[cur_] is sorted and draining
  bool windowed_ = false;    // a window is built (else: all in overflow)
  Seconds now_{0.0};
  std::uint64_t next_seq_ = 0;
  std::size_t pending_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace eefei::sim
