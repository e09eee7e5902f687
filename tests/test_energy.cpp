// Tests for the energy substrate: power model, timeline, meter,
// closed-form models, ledger, and the streaming accumulator.
#include <gtest/gtest.h>

#include <cmath>

#include "energy/compact_accumulator.h"
#include "energy/energy_model.h"
#include "energy/ledger.h"
#include "energy/meter.h"
#include "energy/power_model.h"
#include "energy/timeline.h"

namespace eefei::energy {
namespace {

TEST(PowerProfile, PaperMeasuredLevels) {
  const auto p = DevicePowerProfile::raspberry_pi_4b();
  EXPECT_DOUBLE_EQ(p.power(EdgeState::kWaiting).value(), 3.600);
  EXPECT_DOUBLE_EQ(p.power(EdgeState::kDownloading).value(), 4.286);
  EXPECT_DOUBLE_EQ(p.power(EdgeState::kTraining).value(), 5.553);
  EXPECT_DOUBLE_EQ(p.power(EdgeState::kUploading).value(), 5.015);
}

TEST(TrainingTimeModel, ReproducesTableOne) {
  // Every row of the paper's Table I within ~6% (their data has noise;
  // the model is the least-squares line through it).
  const TrainingTimeModel m;
  const struct {
    std::size_t e, n;
    double expected;
  } rows[] = {
      {10, 100, 0.0197},  {10, 500, 0.0749},  {10, 1000, 0.1471},
      {10, 2000, 0.2855}, {20, 100, 0.0403},  {20, 500, 0.1508},
      {20, 1000, 0.2912}, {20, 2000, 0.5721}, {40, 100, 0.0799},
      {40, 500, 0.3026},  {40, 1000, 0.5554}, {40, 2000, 1.1451},
  };
  for (const auto& r : rows) {
    const double predicted = m.duration(r.e, r.n).value();
    EXPECT_NEAR(predicted, r.expected, r.expected * 0.08)
        << "E=" << r.e << " n=" << r.n;
  }
}

TEST(TrainingTimeModel, LinearInEpochsAndSamples) {
  const TrainingTimeModel m;
  EXPECT_NEAR(m.duration(20, 500).value(), 2.0 * m.duration(10, 500).value(),
              1e-12);
}

TEST(LocalTrainingModel, PaperCoefficients) {
  // c0 = P_train · t0 and c1 = P_train · t1 must reproduce §VI-B's fit.
  const auto model = LocalTrainingModel::from_timing(
      TrainingTimeModel{}, Watts{5.553});
  EXPECT_NEAR(model.c0, 7.79e-5, 2e-7);
  EXPECT_NEAR(model.c1, 3.34e-3, 5e-5);
}

TEST(LocalTrainingModel, Eq5Form) {
  const LocalTrainingModel m{1e-4, 2e-3};
  // e^P = c0·E·n + c1·E.
  EXPECT_NEAR(m.energy(40, 3000).value(), 1e-4 * 40 * 3000 + 2e-3 * 40,
              1e-12);
  EXPECT_NEAR(m.per_epoch(3000).value(), 0.302, 1e-12);
}

TEST(DataCollectionModel, Eq4Form) {
  const DataCollectionModel m{Joules{6.08}};
  EXPECT_NEAR(m.energy(100).value(), 608.0, 1e-9);
  const DataCollectionModel prototype{Joules{0.0}};
  EXPECT_DOUBLE_EQ(prototype.energy(5000).value(), 0.0);
}

TEST(UploadModel, FromLink) {
  // 31440 bytes at 3.4 Mbps + 2 ms latency, at 5.015 W.
  const auto m = UploadModel::from_link(Bytes{31440.0},
                                        BitsPerSecond::from_mbps(3.4),
                                        Seconds::from_millis(2.0),
                                        Watts{5.015});
  const double duration = 31440.0 * 8.0 / 3.4e6 + 0.002;
  EXPECT_NEAR(m.energy().value(), 5.015 * duration, 1e-9);
}

TEST(FeiEnergyModel, TotalsAndCoefficients) {
  FeiEnergyModel m;
  m.samples_per_server = 3000;
  m.training = {7.79e-5, 3.34e-3};
  m.upload = {Joules{0.381}};
  m.collection = {Joules{0.0}};
  EXPECT_NEAR(m.b0(), 7.79e-5 * 3000 + 3.34e-3, 1e-12);
  EXPECT_NEAR(m.b1(), 0.381, 1e-12);
  const double per_round = m.per_server_round(10).value();
  EXPECT_NEAR(per_round, 10 * m.b0() + m.b1(), 1e-12);
  EXPECT_NEAR(m.total(10, 4, 25).value(), per_round * 100.0, 1e-9);
}

TEST(Timeline, PushAndTotals) {
  PowerStateTimeline tl;
  tl.push(EdgeState::kWaiting, Seconds{1.0});
  tl.push(EdgeState::kTraining, Seconds{2.0});
  tl.push(EdgeState::kUploading, Seconds{0.5});
  EXPECT_DOUBLE_EQ(tl.total_duration().value(), 3.5);
  EXPECT_NEAR(tl.total_energy().value(),
              3.6 * 1.0 + 5.553 * 2.0 + 5.015 * 0.5, 1e-12);
  EXPECT_NEAR(tl.energy_in_state(EdgeState::kTraining).value(), 11.106,
              1e-12);
  EXPECT_DOUBLE_EQ(tl.time_in_state(EdgeState::kUploading).value(), 0.5);
}

TEST(Timeline, CoalescesRepeatedStates) {
  PowerStateTimeline tl;
  tl.push(EdgeState::kWaiting, Seconds{1.0});
  tl.push(EdgeState::kWaiting, Seconds{2.0});
  EXPECT_EQ(tl.intervals().size(), 1u);
  EXPECT_DOUBLE_EQ(tl.intervals()[0].duration.value(), 3.0);
}

TEST(Timeline, IgnoresZeroDuration) {
  PowerStateTimeline tl;
  tl.push(EdgeState::kTraining, Seconds{0.0});
  EXPECT_TRUE(tl.empty());
}

TEST(Timeline, PowerAt) {
  PowerStateTimeline tl;
  tl.push(EdgeState::kDownloading, Seconds{1.0});
  tl.push(EdgeState::kTraining, Seconds{1.0});
  EXPECT_DOUBLE_EQ(tl.power_at(Seconds{0.5}).value(), 4.286);
  EXPECT_DOUBLE_EQ(tl.power_at(Seconds{1.5}).value(), 5.553);
  // Outside the timeline: waiting power.
  EXPECT_DOUBLE_EQ(tl.power_at(Seconds{99.0}).value(), 3.6);
  EXPECT_DOUBLE_EQ(tl.power_at(Seconds{-1.0}).value(), 3.6);
}

TEST(Timeline, Clear) {
  PowerStateTimeline tl;
  tl.push(EdgeState::kTraining, Seconds{1.0});
  tl.clear();
  EXPECT_TRUE(tl.empty());
  EXPECT_DOUBLE_EQ(tl.total_duration().value(), 0.0);
}

TEST(Meter, TraceEnergyMatchesExactIntegral) {
  PowerStateTimeline tl;
  tl.push(EdgeState::kWaiting, Seconds{0.5});
  tl.push(EdgeState::kTraining, Seconds{1.7});
  tl.push(EdgeState::kUploading, Seconds{0.3});
  MeterConfig cfg;
  cfg.sample_rate_hz = 1000.0;  // the prototype's rate
  PowerMeter meter(cfg);
  const PowerTrace trace = meter.capture(tl);
  EXPECT_NEAR(trace.energy().value(), tl.total_energy().value(),
              tl.total_energy().value() * 0.01);
  EXPECT_EQ(trace.size(), 2500u);
}

TEST(Meter, MeanPowerPerStepMatchesProfile) {
  PowerStateTimeline tl;
  tl.push(EdgeState::kDownloading, Seconds{1.0});
  tl.push(EdgeState::kTraining, Seconds{1.0});
  PowerMeter meter{MeterConfig{}};
  const PowerTrace trace = meter.capture(tl);
  EXPECT_NEAR(trace.mean_power(Seconds{0.0}, Seconds{1.0}).value(), 4.286,
              1e-9);
  EXPECT_NEAR(trace.mean_power(Seconds{1.0}, Seconds{2.0}).value(), 5.553,
              1e-9);
}

TEST(Meter, NoiseAveragesOut) {
  PowerStateTimeline tl;
  tl.push(EdgeState::kTraining, Seconds{5.0});
  MeterConfig cfg;
  cfg.noise_stddev_watts = 0.5;
  cfg.seed = 42;
  PowerMeter meter(cfg);
  const PowerTrace trace = meter.capture(tl);
  EXPECT_NEAR(trace.mean_power(Seconds{0.0}, Seconds{5.0}).value(), 5.553,
              0.05);
}

TEST(Meter, DropoutsReduceSampleCount) {
  PowerStateTimeline tl;
  tl.push(EdgeState::kWaiting, Seconds{2.0});
  MeterConfig cfg;
  cfg.dropout_prob = 0.25;
  cfg.seed = 7;
  PowerMeter meter(cfg);
  const PowerTrace trace = meter.capture(tl);
  EXPECT_NEAR(static_cast<double>(trace.size()), 1500.0, 100.0);
}

TEST(Meter, CsvExport) {
  PowerStateTimeline tl;
  tl.push(EdgeState::kWaiting, Seconds{0.01});
  PowerMeter meter{MeterConfig{}};
  const std::string csv = meter.capture(tl).to_csv();
  EXPECT_NE(csv.find("time_s,power_w"), std::string::npos);
  EXPECT_NE(csv.find("3.6"), std::string::npos);
}

TEST(Ledger, ChargeAndTotals) {
  EnergyLedger ledger(3);
  ledger.charge(0, EnergyCategory::kTraining, Joules{5.0});
  ledger.charge(0, EnergyCategory::kUpload, Joules{1.0});
  ledger.charge(2, EnergyCategory::kTraining, Joules{2.0});
  EXPECT_DOUBLE_EQ(ledger.server_total(0).value(), 6.0);
  EXPECT_DOUBLE_EQ(ledger.server_total(1).value(), 0.0);
  EXPECT_DOUBLE_EQ(ledger.category_total(EnergyCategory::kTraining).value(),
                   7.0);
  EXPECT_DOUBLE_EQ(ledger.total().value(), 8.0);
  EXPECT_DOUBLE_EQ(ledger.entry(0, EnergyCategory::kUpload).value(), 1.0);
}

TEST(Ledger, ModeledTotalExcludesOverheads) {
  EnergyLedger ledger(1);
  ledger.charge(0, EnergyCategory::kDataCollection, Joules{1.0});
  ledger.charge(0, EnergyCategory::kTraining, Joules{2.0});
  ledger.charge(0, EnergyCategory::kUpload, Joules{3.0});
  ledger.charge(0, EnergyCategory::kWaiting, Joules{10.0});
  ledger.charge(0, EnergyCategory::kDownload, Joules{20.0});
  EXPECT_DOUBLE_EQ(ledger.modeled_total().value(), 6.0);
  EXPECT_DOUBLE_EQ(ledger.total().value(), 36.0);
}

TEST(Ledger, MergeAndReset) {
  EnergyLedger a(2), b(2);
  a.charge(0, EnergyCategory::kTraining, Joules{1.0});
  b.charge(0, EnergyCategory::kTraining, Joules{2.0});
  b.charge(1, EnergyCategory::kUpload, Joules{4.0});
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.total().value(), 7.0);
  a.reset();
  EXPECT_DOUBLE_EQ(a.total().value(), 0.0);
}

TEST(Ledger, RenderContainsCategories) {
  EnergyLedger ledger(1);
  ledger.charge(0, EnergyCategory::kTraining, Joules{1.5});
  const std::string s = ledger.render();
  EXPECT_NE(s.find("training"), std::string::npos);
  EXPECT_NE(s.find("1.5"), std::string::npos);
}

TEST(EdgeStateNames, AllDistinct) {
  EXPECT_STREQ(to_string(EdgeState::kWaiting), "waiting");
  EXPECT_STREQ(to_string(EdgeState::kDownloading), "downloading");
  EXPECT_STREQ(to_string(EdgeState::kTraining), "training");
  EXPECT_STREQ(to_string(EdgeState::kUploading), "uploading");
  EXPECT_STREQ(to_string(EnergyCategory::kDataCollection),
               "data_collection");
}

// ------------------------------------------------------- accumulator bits

// The fleet engine's O(1)-per-server stand-in for a timeline must agree
// with PowerStateTimeline to the last bit.
TEST(FleetAccumulator, BitIdenticalToTimelineUnderInterleavedQueries) {
  const DevicePowerProfile profile;
  PowerStateTimeline timeline(profile);
  CompactEnergyAccumulator acc(profile);

  auto phase = [&](EdgeState s, double start, double dur) {
    // Timeline semantics of EdgeServerSim::run_phase: waiting gap, then
    // the phase itself.
    const double gap = start - timeline.total_duration().value();
    if (gap > 0.0) {
      timeline.push(EdgeState::kWaiting, Seconds{gap});
    }
    timeline.push(s, Seconds{dur});
    acc.run_phase(s, Seconds{start}, Seconds{dur});
  };

  phase(EdgeState::kDownloading, 0.125, 0.7);
  phase(EdgeState::kTraining, 0.825, 3.25);
  // Query mid-stream: must not disturb coalescing of the next push.
  EXPECT_EQ(acc.total_energy().value(), timeline.total_energy().value());
  phase(EdgeState::kTraining, 4.075, 1.5);  // coalesces with prior
  phase(EdgeState::kUploading, 6.0, 0.375);
  phase(EdgeState::kUploading, 6.375, 0.625);  // coalesces again
  acc.idle_until(Seconds{10.0});
  timeline.push(EdgeState::kWaiting,
                Seconds{10.0} - timeline.total_duration());

  EXPECT_EQ(acc.total_energy().value(), timeline.total_energy().value());
  EXPECT_EQ(acc.total_duration().value(), timeline.total_duration().value());
  for (std::size_t s = 0; s < kNumEdgeStates; ++s) {
    const auto state = static_cast<EdgeState>(s);
    EXPECT_EQ(acc.energy_in_state(state).value(),
              timeline.energy_in_state(state).value())
        << "state " << s;
    EXPECT_EQ(acc.time_in_state(state).value(),
              timeline.time_in_state(state).value())
        << "state " << s;
  }
}

TEST(FleetAccumulator, ClearResets) {
  CompactEnergyAccumulator acc{DevicePowerProfile{}};
  acc.run_phase(EdgeState::kTraining, Seconds{0.0}, Seconds{2.0});
  EXPECT_GT(acc.total_energy().value(), 0.0);
  acc.clear();
  EXPECT_EQ(acc.total_energy().value(), 0.0);
  EXPECT_EQ(acc.total_duration().value(), 0.0);
}

}  // namespace
}  // namespace eefei::energy
