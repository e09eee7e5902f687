// CalendarQueue vs the binary-heap reference (TypedEventQueue): the two
// schedulers must produce bit-identical pop sequences — same payload
// order, same timestamps, same clock/pending/high-water telemetry — under
// adversarial workloads: equal-time ties, past-time clamps, mid-drain
// re-entrant schedules, wide and degenerate time scales (window rebuild
// pressure), max_events stop/resume, clear()/reset() reuse.  This is the
// ordering-equivalence pin the fleet engine's determinism contract rests
// on: the engine schedules every event on the calendar queue.
#include "sim/calendar_queue.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "sim/fleet_event.h"
#include "typed_event_queue.h"

namespace eefei::sim {
namespace {

struct Pop {
  std::uint32_t payload = 0;
  double at = 0.0;
  bool operator==(const Pop&) const = default;
};

// Drives one queue through a deterministic adversarial script and returns
// its full pop log.  All decisions — schedule times, re-entrant follow-ups,
// stop points — derive from the seed and from the popped events themselves,
// so two order-equivalent queues consume the identical script.
template <class Q>
std::vector<Pop> drive(std::uint64_t seed) {
  Q q;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> wide(0.0, 1e6);
  std::vector<Pop> log;
  std::uint32_t next_id = 0;

  // A palette with deliberate duplicates so equal-time ties are common.
  std::vector<double> palette;
  for (int i = 0; i < 16; ++i) palette.push_back(wide(rng));
  palette.push_back(palette[3]);
  palette.push_back(palette[7]);
  palette.push_back(0.0);

  auto dispatch = [&](const FleetEvent& ev, Seconds at) {
    log.push_back({ev.a, at.value()});
    // Re-entrant follow-ups, derived from the event itself (identical for
    // any order-equivalent queue): bursts of equal-time and near-past
    // schedules from inside the handler, the fleet engine's hot pattern.
    const std::uint64_t h = ev.a * 0x9e3779b97f4a7c15ULL + ev.b;
    if (ev.b > 0) {
      const int fan = 1 + static_cast<int>(h % 3);
      for (int i = 0; i < fan; ++i) {
        const double delta = (h >> (8 + 4 * i)) % 5 == 0
                                 ? 0.0  // same-timestamp tie
                                 : 1e-3 * static_cast<double>((h >> i) % 97);
        FleetEvent next;
        next.a = next_id++;
        next.b = ev.b - 1;
        EXPECT_TRUE(q.schedule_at(at + Seconds{delta}, next));
      }
    }
    if (h % 7 == 0) {
      // Past timestamp from inside a handler: must clamp to now() and fire
      // after everything already popped, identically in both queues.
      FleetEvent past;
      past.a = next_id++;
      past.b = 0;
      EXPECT_TRUE(q.schedule_at(Seconds{at.value() / 2.0}, past));
    }
  };

  for (int round = 0; round < 6; ++round) {
    // Batch of root schedules: palette times (ties), wide times (window
    // span), and a degenerate all-equal cluster every other round.
    for (int i = 0; i < 40; ++i) {
      FleetEvent ev;
      ev.a = next_id++;
      ev.b = static_cast<std::uint32_t>(rng() % 3);
      const double t = (i % 4 == 0) ? palette[rng() % palette.size()]
                                    : wide(rng);
      EXPECT_TRUE(q.schedule_at(Seconds{t}, ev));
    }
    if (round % 2 == 1) {
      const double t = wide(rng);
      for (int i = 0; i < 10; ++i) {
        FleetEvent ev;
        ev.a = next_id++;
        ev.b = 0;
        EXPECT_TRUE(q.schedule_at(Seconds{t}, ev));
      }
    }
    // Non-finite schedules must be rejected without perturbing state.
    FleetEvent junk;
    junk.a = 0xdeadbeef;
    EXPECT_FALSE(q.schedule_at(
        Seconds{std::numeric_limits<double>::quiet_NaN()}, junk));
    EXPECT_FALSE(q.schedule_at(
        Seconds{std::numeric_limits<double>::infinity()}, junk));
    EXPECT_FALSE(q.schedule_at(
        Seconds{-std::numeric_limits<double>::infinity()}, junk));

    // Drain in randomly-sized slices: a stopped run must resume exactly.
    while (!q.empty()) {
      const std::size_t step = 1 + rng() % 37;
      (void)q.run(dispatch, step);
      log.push_back({0xffffffffu, q.now().value()});  // checkpoint marker
      log.push_back({static_cast<std::uint32_t>(q.pending()),
                     static_cast<double>(q.high_water())});
    }
  }
  return log;
}

TEST(CalendarQueue, MatchesBinaryHeapOnAdversarialWorkload) {
  for (std::uint64_t seed : {1ULL, 42ULL, 977ULL, 31337ULL}) {
    const auto heap_log = drive<TypedEventQueue<FleetEvent>>(seed);
    const auto cal_log = drive<CalendarQueue<FleetEvent>>(seed);
    ASSERT_EQ(heap_log.size(), cal_log.size()) << "seed " << seed;
    for (std::size_t i = 0; i < heap_log.size(); ++i) {
      ASSERT_EQ(heap_log[i], cal_log[i]) << "seed " << seed << " pop " << i;
    }
  }
}

// Times spanning ten orders of magnitude force repeated window rebuilds
// (bucket-count growth, overflow re-spill, the f(at) boundary clamp);
// clustered times force the all-equal degenerate window.  Order must still
// match the heap exactly.
TEST(CalendarQueue, WindowRebuildPressurePreservesOrder) {
  TypedEventQueue<FleetEvent> heap;
  CalendarQueue<FleetEvent> cal;
  std::mt19937_64 rng(7);
  std::uint32_t id = 0;
  for (int burst = 0; burst < 8; ++burst) {
    const double scale = std::pow(10.0, static_cast<double>(burst) - 3.0);
    for (int i = 0; i < 200; ++i) {
      FleetEvent ev;
      ev.a = id++;
      const double t = (i % 5 == 0)
                           ? scale  // heavy cluster at the scale point
                           : scale * (1.0 + static_cast<double>(rng() % 1000) /
                                                1000.0);
      ASSERT_TRUE(heap.schedule_at(Seconds{t}, ev));
      ASSERT_TRUE(cal.schedule_at(Seconds{t}, ev));
    }
  }
  std::vector<Pop> a;
  std::vector<Pop> b;
  (void)heap.run([&](const FleetEvent& e, Seconds t) {
    a.push_back({e.a, t.value()});
  });
  (void)cal.run([&](const FleetEvent& e, Seconds t) {
    b.push_back({e.a, t.value()});
  });
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "pop " << i;
  }
  EXPECT_EQ(heap.now().value(), cal.now().value());
  EXPECT_EQ(heap.high_water(), cal.high_water());
}

template <class Q>
std::vector<std::uint32_t> drain_ids(Q& q) {
  std::vector<std::uint32_t> ids;
  (void)q.run([&](const FleetEvent& e, Seconds) { ids.push_back(e.a); });
  return ids;
}

template <class Q>
void expect_fifo_among_equal_times() {
  Q q;
  for (std::uint32_t i = 0; i < 100; ++i) {
    FleetEvent ev;
    ev.a = i;
    ASSERT_TRUE(q.schedule_at(Seconds{1.0}, ev));
  }
  const auto ids = drain_ids(q);
  ASSERT_EQ(ids.size(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) EXPECT_EQ(ids[i], i);
}

TEST(CalendarQueue, FifoAmongEqualTimes) {
  expect_fifo_among_equal_times<CalendarQueue<FleetEvent>>();
}
TEST(FleetEvent, BinaryHeapFifoAmongEqualTimes) {
  expect_fifo_among_equal_times<TypedEventQueue<FleetEvent>>();
}

template <class Q>
void expect_past_schedules_clamp() {
  Q q;
  std::vector<double> fired_at;
  FleetEvent root;
  root.a = 1;
  ASSERT_TRUE(q.schedule_at(Seconds{5.0}, root));
  (void)q.run([&](const FleetEvent& e, Seconds t) {
    fired_at.push_back(t.value());
    if (e.a == 1) {
      FleetEvent past;
      past.a = 2;
      ASSERT_TRUE(q.schedule_at(Seconds{1.0}, past));  // clamps to 5.0
    }
  });
  ASSERT_EQ(fired_at.size(), 2u);
  EXPECT_EQ(fired_at[1], 5.0);
  EXPECT_EQ(q.now().value(), 5.0);
}

TEST(CalendarQueue, PastSchedulesClampToNow) {
  expect_past_schedules_clamp<CalendarQueue<FleetEvent>>();
}
TEST(FleetEvent, BinaryHeapPastSchedulesClampToNow) {
  expect_past_schedules_clamp<TypedEventQueue<FleetEvent>>();
}

template <class Q>
void expect_max_events_stop_then_resume() {
  Q q;
  std::vector<std::uint32_t> order;
  for (std::uint32_t i = 0; i < 6; ++i) {
    FleetEvent ev;
    ev.a = i;
    ASSERT_TRUE(q.schedule_at(Seconds{static_cast<double>(i)}, ev));
  }
  auto dispatch = [&](const FleetEvent& e, Seconds) { order.push_back(e.a); };
  EXPECT_EQ(q.run(dispatch, 2), 2u);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(q.now().value(), 1.0);
  EXPECT_EQ(q.pending(), 4u);
  EXPECT_EQ(q.run(dispatch, 3), 3u);
  EXPECT_EQ(q.run(dispatch), 1u);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, MaxEventsStopThenResume) {
  expect_max_events_stop_then_resume<CalendarQueue<FleetEvent>>();
}
TEST(FleetEvent, BinaryHeapMaxEventsStopThenResume) {
  expect_max_events_stop_then_resume<TypedEventQueue<FleetEvent>>();
}

// Regression (satellite): schedule_at must reject non-finite timestamps —
// a NaN breaks the (time, seq) comparator's strict weak ordering and the
// bucket arithmetic, silently corrupting the order both queues are sworn
// to.  Nothing may be enqueued and telemetry must not move.
template <class Q>
void expect_rejects_non_finite() {
  Q q;
  FleetEvent ev;
  EXPECT_FALSE(
      q.schedule_at(Seconds{std::numeric_limits<double>::quiet_NaN()}, ev));
  EXPECT_FALSE(
      q.schedule_at(Seconds{std::numeric_limits<double>::infinity()}, ev));
  EXPECT_FALSE(
      q.schedule_at(Seconds{-std::numeric_limits<double>::infinity()}, ev));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.high_water(), 0u);
  EXPECT_EQ(q.run([](const FleetEvent&, Seconds) {}), 0u);
}

TEST(CalendarQueue, RejectsNonFiniteTimestamps) {
  expect_rejects_non_finite<CalendarQueue<FleetEvent>>();
}
TEST(FleetEvent, BinaryHeapRejectsNonFiniteTimestamps) {
  expect_rejects_non_finite<TypedEventQueue<FleetEvent>>();
}

// Regression (satellite): clear()/reset() must re-arm the high-water mark;
// a stale pre-clear depth makes per-phase telemetry windows report ghost
// queue pressure.
template <class Q>
void expect_clear_and_reset_rearm_high_water() {
  Q q;
  for (std::uint32_t i = 0; i < 8; ++i) {
    FleetEvent ev;
    ev.a = i;
    ASSERT_TRUE(q.schedule_at(Seconds{static_cast<double>(i)}, ev));
  }
  EXPECT_EQ(q.high_water(), 8u);
  q.clear();
  EXPECT_EQ(q.high_water(), 0u);
  FleetEvent ev;
  ASSERT_TRUE(q.schedule_at(Seconds{1.0}, ev));
  EXPECT_EQ(q.high_water(), 1u);  // tracks the new window, not the ghost 8
  q.reset();
  EXPECT_EQ(q.high_water(), 0u);
  EXPECT_EQ(q.now().value(), 0.0);
}

TEST(CalendarQueue, ClearAndResetReArmHighWater) {
  expect_clear_and_reset_rearm_high_water<CalendarQueue<FleetEvent>>();
}
TEST(FleetEvent, BinaryHeapClearAndResetReArmHighWater) {
  expect_clear_and_reset_rearm_high_water<TypedEventQueue<FleetEvent>>();
}

// clear() keeps the clock (the reuse semantic shared with the closure
// queue); reset() rewinds it.  Both retain capacity — allocation
// discipline is pinned separately by the counting-allocator binary.
TEST(CalendarQueue, ClearKeepsClockResetRewindsIt) {
  CalendarQueue<FleetEvent> q;
  FleetEvent ev;
  ASSERT_TRUE(q.schedule_at(Seconds{4.0}, ev));
  (void)q.run([](const FleetEvent&, Seconds) {});
  ASSERT_TRUE(q.schedule_at(Seconds{9.0}, ev));
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.now().value(), 4.0);
  double fired_at = -1.0;
  ASSERT_TRUE(q.schedule_at(Seconds{1.0}, ev));  // past: clamps to 4.0
  (void)q.run([&](const FleetEvent&, Seconds t) { fired_at = t.value(); });
  EXPECT_EQ(fired_at, 4.0);
  q.reset();
  EXPECT_EQ(q.now().value(), 0.0);
  fired_at = -1.0;
  ASSERT_TRUE(q.schedule_at(Seconds{1.0}, ev));
  (void)q.run([&](const FleetEvent&, Seconds t) { fired_at = t.value(); });
  EXPECT_EQ(fired_at, 1.0);  // not clamped: the clock was rewound
}

// Re-entrancy stress on the calendar's active-bucket sorted-insert path:
// handlers fan out schedules at the current timestamp and into the active
// bucket's time range while it is mid-drain, forcing inserts relative to
// the drain cursor and bucket-vector reallocation during dispatch.
TEST(CalendarQueue, HandlerFanOutDuringDrainMatchesHeap) {
  auto fan_log = [](auto&& q) {
    std::vector<Pop> log;
    std::uint32_t next_id = 100;
    FleetEvent root;
    root.a = 0;
    root.b = 4;  // fan depth rides in b
    EXPECT_TRUE(q.schedule_at(Seconds{0.0}, root));
    (void)q.run([&](const FleetEvent& e, Seconds at) {
      log.push_back({e.a, at.value()});
      if (e.b == 0) return;
      for (int i = 0; i < 6; ++i) {
        FleetEvent next;
        next.a = next_id++;
        next.b = e.b - 1;
        // Half land exactly at now() (active-bucket insert at the cursor),
        // half a hair later (insert past the cursor).
        const double d = (i % 2 == 0) ? 0.0 : 1e-6 * (i + 1);
        EXPECT_TRUE(q.schedule_at(at + Seconds{d}, next));
      }
    });
    return log;
  };
  TypedEventQueue<FleetEvent> heap;
  CalendarQueue<FleetEvent> cal;
  const auto a = fan_log(heap);
  const auto b = fan_log(cal);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "pop " << i;
  }
}

}  // namespace
}  // namespace eefei::sim
