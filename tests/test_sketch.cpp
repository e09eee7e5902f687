// Quantile sketch: the relative-error guarantee pinned against exact order
// statistics, lossless shard/snapshot merging, zero/NaN/out-of-range
// handling, the bulk recorder's equivalence with the atomic path, and the
// accuracy clamp.
#include "obs/sketch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace eefei::obs {
namespace {

std::vector<double> log_uniform_values(std::size_t n, std::uint64_t seed) {
  // Spread across nine decades — the "nanoseconds to kilojoules" claim.
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = std::pow(10.0, rng.uniform() * 9.0 - 4.0);
  return v;
}

double exact_quantile(std::vector<double> sorted, double q) {
  std::sort(sorted.begin(), sorted.end());
  const auto rank = static_cast<std::size_t>(
      std::llround(q * static_cast<double>(sorted.size() - 1)));
  return sorted[rank];
}

TEST(Sketch, QuantileWithinRelativeErrorBound) {
  const auto values = log_uniform_values(20000, 7);
  QuantileSketch sketch(0.01);
  for (const double v : values) sketch.record(v);
  const auto snap = sketch.snapshot();
  ASSERT_EQ(snap.count, values.size());
  for (const double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
    const double exact = exact_quantile(values, q);
    const double est = snap.quantile(q);
    // The documented bound, padded one ulp-ish for the fp index math.
    EXPECT_NEAR(est, exact, exact * (sketch.relative_accuracy() + 1e-9))
        << "q=" << q;
  }
  EXPECT_EQ(snap.min, *std::min_element(values.begin(), values.end()));
  EXPECT_EQ(snap.max, *std::max_element(values.begin(), values.end()));
  EXPECT_NEAR(snap.sum,
              std::accumulate(values.begin(), values.end(), 0.0),
              1e-6 * snap.sum);
}

TEST(Sketch, DefaultAccuracyIsOnePercentAndClamps) {
  QuantileSketch dflt;
  EXPECT_DOUBLE_EQ(dflt.relative_accuracy(),
                   QuantileSketch::kDefaultRelativeAccuracy);
  QuantileSketch low(1e-9);
  EXPECT_DOUBLE_EQ(low.relative_accuracy(),
                   QuantileSketch::kMinRelativeAccuracy);
  QuantileSketch high(0.9);
  EXPECT_DOUBLE_EQ(high.relative_accuracy(),
                   QuantileSketch::kMaxRelativeAccuracy);
}

TEST(Sketch, EmptySnapshotIsAllZero) {
  QuantileSketch sketch;
  const auto snap = sketch.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.zero_count, 0u);
  EXPECT_TRUE(snap.buckets.empty());
  EXPECT_EQ(snap.quantile(0.5), 0.0);
  EXPECT_EQ(snap.min, 0.0);
  EXPECT_EQ(snap.max, 0.0);
}

TEST(Sketch, ZeroNegativeAndNanHandling) {
  QuantileSketch sketch;
  sketch.record(0.0);
  sketch.record(-3.5);
  sketch.record(std::nan(""));
  sketch.record(10.0);
  const auto snap = sketch.snapshot();
  EXPECT_EQ(snap.count, 3u);  // NaN dropped
  EXPECT_EQ(snap.zero_count, 2u);
  EXPECT_EQ(snap.quantile(0.0), 0.0);   // zero bucket reports 0.0
  EXPECT_NEAR(snap.quantile(1.0), 10.0, 10.0 * 0.011);
  EXPECT_EQ(snap.min, -3.5);
  EXPECT_EQ(snap.max, 10.0);
}

TEST(Sketch, OutOfRangeValuesClampToEdgeBucketsNotDropped) {
  QuantileSketch sketch;
  sketch.record(1e-300);  // below kMinTrackable
  sketch.record(1e300);   // above kMaxTrackable
  const auto snap = sketch.snapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.zero_count, 0u);
  // Rank is preserved; magnitude saturates but the estimate is clamped to
  // the recorded extremes, both finite.
  EXPECT_TRUE(std::isfinite(snap.quantile(0.0)));
  EXPECT_TRUE(std::isfinite(snap.quantile(1.0)));
  EXPECT_LE(snap.quantile(0.0), snap.quantile(1.0));
}

// The composability claim: recording a stream via many threads (hence many
// shards) and snapshotting must equal one serial recording, bit for bit —
// and merging per-half snapshots must equal the whole.
TEST(Sketch, ShardedRecordingEqualsSerialRecording) {
  const auto values = log_uniform_values(8000, 11);

  QuantileSketch serial;
  for (const double v : values) serial.record(v);

  QuantileSketch sharded;
  constexpr std::size_t kThreads = 8;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = t; i < values.size(); i += kThreads) {
        sharded.record(values[i]);
      }
    });
  }
  for (auto& w : workers) w.join();

  const auto a = serial.snapshot();
  const auto b = sharded.snapshot();
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.zero_count, b.zero_count);
  EXPECT_EQ(a.first_index, b.first_index);
  EXPECT_EQ(a.buckets, b.buckets);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
}

TEST(Sketch, MergeOfHalvesEqualsWhole) {
  const auto values = log_uniform_values(4000, 13);
  QuantileSketch whole, lo_half, hi_half;
  for (std::size_t i = 0; i < values.size(); ++i) {
    whole.record(values[i]);
    (i < values.size() / 2 ? lo_half : hi_half).record(values[i]);
  }
  auto merged = lo_half.snapshot();
  merged.name = "merged";
  ASSERT_TRUE(merged.merge_from(hi_half.snapshot()).ok());
  const auto ref = whole.snapshot();
  EXPECT_EQ(merged.name, "merged");  // merge keeps the receiver's name
  EXPECT_EQ(merged.count, ref.count);
  EXPECT_EQ(merged.first_index, ref.first_index);
  EXPECT_EQ(merged.buckets, ref.buckets);
  EXPECT_EQ(merged.min, ref.min);
  EXPECT_EQ(merged.max, ref.max);
  for (const double q : {0.1, 0.5, 0.99}) {
    EXPECT_EQ(merged.quantile(q), ref.quantile(q)) << "q=" << q;
  }
}

TEST(Sketch, MergeIntoEmptyCopiesAndMergeEmptyIsNoop) {
  QuantileSketch src;
  src.record(4.2);
  SketchSnapshot empty;
  empty.name = "dst";
  ASSERT_TRUE(empty.merge_from(src.snapshot()).ok());
  EXPECT_EQ(empty.name, "dst");
  EXPECT_EQ(empty.count, 1u);

  auto snap = src.snapshot();
  const auto before = snap.buckets;
  ASSERT_TRUE(snap.merge_from(SketchSnapshot{}).ok());
  EXPECT_EQ(snap.buckets, before);
}

TEST(Sketch, MergeRejectsMismatchedResolutions) {
  QuantileSketch coarse(0.05), fine(0.01);
  coarse.record(1.0);
  fine.record(1.0);
  auto snap = coarse.snapshot();
  const auto st = snap.merge_from(fine.snapshot());
  EXPECT_FALSE(st.ok());
}

// The fleet engine's O(N) joules pass records through BulkRecorder; it must
// agree with record() on everything a snapshot exposes (boundary values can
// legitimately land one bucket over, so the test stream avoids exact bucket
// boundaries — as any continuous measurement does, probability one).
TEST(Sketch, BulkRecorderMatchesAtomicPath) {
  const auto values = log_uniform_values(5000, 17);
  QuantileSketch atomic_path, bulk_path;
  for (const double v : values) atomic_path.record(v);
  {
    QuantileSketch::BulkRecorder rec(bulk_path);
    for (const double v : values) rec.record(v);
    rec.record(0.0);
    rec.record(std::nan(""));
  }  // destructor flushes
  atomic_path.record(0.0);
  atomic_path.record(std::nan(""));

  const auto a = atomic_path.snapshot();
  const auto b = bulk_path.snapshot();
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.zero_count, b.zero_count);
  EXPECT_EQ(a.first_index, b.first_index);
  EXPECT_EQ(a.buckets, b.buckets);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_NEAR(a.sum, b.sum, 1e-9 * std::abs(a.sum));
}

TEST(Sketch, BulkRecorderBatchesSameBucketRuns) {
  // A run of identical values — the joules-pass common case — must still
  // count every observation.
  QuantileSketch sketch;
  {
    QuantileSketch::BulkRecorder rec(sketch);
    for (int i = 0; i < 100000; ++i) rec.record(113.3);
  }
  const auto snap = sketch.snapshot();
  EXPECT_EQ(snap.count, 100000u);
  EXPECT_EQ(snap.buckets.size(), 1u);
  EXPECT_EQ(snap.buckets[0], 100000u);
  EXPECT_NEAR(snap.quantile(0.999), 113.3, 113.3 * 0.011);
}

}  // namespace
}  // namespace eefei::obs
