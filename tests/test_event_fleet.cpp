// Event-driven fleet engine: golden byte-identity against the pre-fleet
// FeiSystem fingerprint, bitwise equivalence with FeiSystem on overlapping
// configurations (fault-free, CSMA), golden fingerprints of the jittered
// N = 1k, jittered CSMA and fault-injection paths, thread-count
// invariance in the default and the tiered configuration, data pooling,
// the virtual-population contract, tier latency semantics, per-gateway
// contention determinism, and config validation.
#include "sim/event_fleet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "obs/telemetry.h"
#include "sim/fei_system.h"

namespace eefei::sim {
namespace {

// The exact configuration whose FeiSystem output was fingerprinted before
// any fleet engine existed (threads ∈ {1, 4} produced identical bits).
// Hexfloat, so comparisons are bit-exact: if these move, the simulation's
// physics changed — a regression, not a tolerance issue.
FeiSystemConfig golden_config() {
  FeiSystemConfig cfg = prototype_config();
  cfg.samples_per_server = 120;
  cfg.test_samples = 400;
  cfg.fl.clients_per_round = 10;
  cfg.fl.local_epochs = 5;
  cfg.fl.max_rounds = 8;
  cfg.fl.eval_every = 2;
  cfg.fl.target_accuracy = 2.0;  // unreachable: always runs all 8 rounds
  cfg.fl.threads = 4;
  cfg.seed = 3;
  return cfg;
}

constexpr double kGoldenLedgerTotal = 0x1.fe8f44bc615ffp+7;
constexpr double kGoldenModeledTotal = 0x1.1c7bb34044fadp+5;
constexpr double kGoldenCategory[7] = {
    0x0p+0,                // data collection (off)
    0x1.8354ace0ea07bp+7,  // waiting
    0x1.a0dd585b30ce1p+4,  // download
    0x1.44ca946be5dfep+2,  // training
    0x1.e7c4c165907dbp+4,  // upload
    0x0p+0,                // retry (faults off)
    0x0p+0,                // aborted (faults off)
};
constexpr double kGoldenWallClock = 0x1.850c37394590cp+3;
constexpr double kGoldenTimelineSum = 0x1.bcf4fb069b7bcp+9;
constexpr double kGoldenFinalAccuracy = 0x1.170a3d70a3d71p-1;
constexpr double kGoldenFinalLoss = 0x1.082c5a9bb4488p+1;

void expect_golden(const EventFleetRunResult& r) {
  EXPECT_EQ(r.training.rounds_run, 8u);
  EXPECT_EQ(r.ledger.total().value(), kGoldenLedgerTotal);
  EXPECT_EQ(r.ledger.modeled_total().value(), kGoldenModeledTotal);
  for (std::size_t c = 0; c < energy::kNumEnergyCategories; ++c) {
    EXPECT_EQ(r.ledger.category_total(static_cast<energy::EnergyCategory>(c))
                  .value(),
              kGoldenCategory[c])
        << "category " << c;
  }
  EXPECT_EQ(r.wall_clock.value(), kGoldenWallClock);
  EXPECT_EQ(r.accumulated_energy().value(), kGoldenTimelineSum);
  EXPECT_EQ(r.training.record.last().test_accuracy, kGoldenFinalAccuracy);
  EXPECT_EQ(r.training.record.last().global_loss, kGoldenFinalLoss);
}

void expect_bitwise_equal(const EventFleetRunResult& a,
                          const EventFleetRunResult& b,
                          std::size_t n_servers) {
  EXPECT_EQ(a.ledger.total().value(), b.ledger.total().value());
  EXPECT_EQ(a.wall_clock.value(), b.wall_clock.value());
  EXPECT_EQ(a.training.final_params, b.training.final_params);
  EXPECT_EQ(a.total_retries, b.total_retries);
  EXPECT_EQ(a.total_aborted_updates, b.total_aborted_updates);
  EXPECT_EQ(a.total_straggler_drops, b.total_straggler_drops);
  EXPECT_EQ(a.total_crashed_servers, b.total_crashed_servers);
  ASSERT_EQ(a.accumulators.size(), n_servers);
  ASSERT_EQ(b.accumulators.size(), n_servers);
  for (std::size_t sid = 0; sid < n_servers; ++sid) {
    EXPECT_EQ(a.ledger.server_total(sid).value(),
              b.ledger.server_total(sid).value())
        << "server " << sid;
    EXPECT_EQ(a.accumulators[sid].total_energy().value(),
              b.accumulators[sid].total_energy().value())
        << "server " << sid;
  }
}

// Per-server timelines of the reference engine against the fleet engine's
// streaming accumulators and ledger rows, bit for bit.
void expect_matches_fei_system(const FeiRunResult& ref,
                               const EventFleetRunResult& r) {
  EXPECT_EQ(ref.ledger.total().value(), r.ledger.total().value());
  EXPECT_EQ(ref.wall_clock.value(), r.wall_clock.value());
  EXPECT_EQ(ref.training.final_params, r.training.final_params);
  ASSERT_EQ(ref.timelines.size(), r.accumulators.size());
  Joules timeline_sum{0.0};
  for (std::size_t sid = 0; sid < ref.timelines.size(); ++sid) {
    timeline_sum += ref.timelines[sid].total_energy();
    EXPECT_EQ(ref.timelines[sid].total_energy().value(),
              r.accumulators[sid].total_energy().value())
        << "server " << sid;
    EXPECT_EQ(ref.ledger.server_total(sid).value(),
              r.ledger.server_total(sid).value())
        << "server " << sid;
  }
  EXPECT_EQ(timeline_sum.value(), r.accumulated_energy().value());
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

// The exact bits of a run too large to pin value by value: scalar totals
// as hexfloats, the final model and every server's (ledger total,
// accumulator total) pair, in server order, as FNV-1a digests of their
// bytes.
struct Fingerprint {
  double ledger_total;
  double wall_clock;
  std::uint64_t params_fnv;
  std::uint64_t per_server_fnv;
  std::size_t retries;
  std::size_t aborted_updates;
  std::size_t straggler_drops;
  std::size_t crashed_servers;
};

Fingerprint fingerprint(const EventFleetRunResult& r) {
  const auto& params = r.training.final_params;
  std::uint64_t per_server = kFnvBasis;
  for (std::size_t sid = 0; sid < r.accumulators.size(); ++sid) {
    const double totals[2] = {r.ledger.server_total(sid).value(),
                              r.accumulators[sid].total_energy().value()};
    per_server = fnv1a(per_server, totals, sizeof totals);
  }
  return {r.ledger.total().value(),
          r.wall_clock.value(),
          fnv1a(kFnvBasis, params.data(), params.size() * sizeof(double)),
          per_server,
          r.total_retries,
          r.total_aborted_updates,
          r.total_straggler_drops,
          r.total_crashed_servers};
}

void expect_fingerprint(const EventFleetRunResult& r,
                        const Fingerprint& want, std::size_t n_servers) {
  ASSERT_EQ(r.accumulators.size(), n_servers);
  const Fingerprint got = fingerprint(r);
  EXPECT_EQ(got.ledger_total, want.ledger_total);
  EXPECT_EQ(got.wall_clock, want.wall_clock);
  EXPECT_EQ(got.params_fnv, want.params_fnv);
  EXPECT_EQ(got.per_server_fnv, want.per_server_fnv);
  EXPECT_EQ(got.retries, want.retries);
  EXPECT_EQ(got.aborted_updates, want.aborted_updates);
  EXPECT_EQ(got.straggler_drops, want.straggler_drops);
  EXPECT_EQ(got.crashed_servers, want.crashed_servers);
}

TEST(EventFleetEngine, MatchesGoldenFingerprint) {
  EventFleetEngineConfig cfg;
  cfg.system = golden_config();
  cfg.sampled_timelines = 20;
  // Several gateways and regions (N = 20, fan-ins 4 and 2): the tier
  // completion chain runs for real, and with zero latencies it must not
  // move the clock by a single bit.
  cfg.tiers.gateway_fanin = 4;
  cfg.tiers.region_fanin = 2;
  EventFleetEngine engine(cfg);
  const auto r = engine.run();
  ASSERT_TRUE(r.ok()) << r.error().message;
  expect_golden(*r);
  EXPECT_EQ(r->num_gateways, 5u);
  EXPECT_EQ(r->num_regions, 3u);
  // Every selected server contributes at least download-done, epoch-done
  // and upload-done; tier completions come on top.
  EXPECT_GE(r->events_processed, 3u * 10u * 8u);

  for (std::size_t i = 0; i < r->sampled_servers.size(); ++i) {
    const std::size_t sid = r->sampled_servers[i];
    EXPECT_EQ(r->sampled_timelines[i].total_energy().value(),
              r->accumulators[sid].total_energy().value());
  }
}

TEST(EventFleetEngine, ThreadCountInvariant) {
  EventFleetEngineConfig serial;
  serial.system = golden_config();
  serial.system.fl.threads = 1;
  serial.sampled_timelines = 20;
  serial.shard_size = 3;  // force many shards even at N = 20
  serial.tiers.gateway_fanin = 4;
  EventFleetEngine engine(serial);
  const auto r = engine.run();
  ASSERT_TRUE(r.ok()) << r.error().message;
  expect_golden(*r);
}

// N = 1k with timing jitter and transient stragglers on, so the RNG
// streams are consumed for real and uploads complete out of index order.
FeiSystemConfig jittered_n1k_config() {
  FeiSystemConfig sys = prototype_config();
  sys.num_servers = 1000;
  sys.net.num_edge_servers = 1000;
  sys.samples_per_server = 30;
  sys.test_samples = 200;
  sys.data.image_side = 12;
  sys.model.input_dim = 144;
  sys.sgd.learning_rate = 0.1;
  sys.fl.clients_per_round = 20;
  sys.fl.local_epochs = 2;
  sys.fl.max_rounds = 4;
  sys.fl.eval_every = 2;
  sys.fl.threads = 4;
  sys.timing_jitter = 0.05;
  sys.straggler_fraction = 0.2;
  sys.straggler_slowdown = 3.0;
  sys.charge_idle_servers = true;
  sys.seed = 17;
  return sys;
}

EventFleetEngineConfig jittered_n1k_event_config() {
  EventFleetEngineConfig cfg;
  cfg.system = jittered_n1k_config();
  cfg.data_pool_shards = 50;
  cfg.tiers.gateway_fanin = 32;
  cfg.tiers.region_fanin = 8;
  return cfg;
}

// jittered_n1k_event_config() as the former round-synchronous fleet
// engine computed it with an explicitly sorted (train_end, index) upload
// drain.
constexpr Fingerprint kGoldenN1k{0x1.19a4f5c42b42ep+13,
                                 0x1.43676087293afp+1,
                                 0x229aaa5b697adb83ULL,
                                 0x652827bbb29dee50ULL,
                                 0,
                                 0,
                                 0,
                                 0};

// The equivalence pin at scale: the event order must reproduce the sorted
// upload drain exactly.
TEST(EventFleetEngine, JitteredN1kMatchesGoldenFingerprint) {
  EventFleetEngine engine(jittered_n1k_event_config());
  const auto r = engine.run();
  ASSERT_TRUE(r.ok()) << r.error().message;
  expect_fingerprint(*r, kGoldenN1k, 1000);
}

TEST(EventFleetEngine, VirtualPopulationMatchesMaterialized) {
  FeiSystemConfig sys = prototype_config();
  sys.num_servers = 200;
  sys.net.num_edge_servers = 200;
  sys.samples_per_server = 40;
  sys.test_samples = 200;
  sys.data.image_side = 12;
  sys.model.input_dim = 144;
  sys.sgd.learning_rate = 0.1;
  sys.fl.clients_per_round = 12;
  sys.fl.local_epochs = 2;
  sys.fl.max_rounds = 3;
  sys.fl.threads = 4;
  sys.timing_jitter = 0.1;
  sys.charge_idle_servers = true;
  sys.seed = 5;

  EventFleetEngineConfig mat;
  mat.system = sys;
  mat.data_pool_shards = 16;
  EventFleetEngineConfig virt = mat;
  virt.virtual_population = true;

  EventFleetEngine ea(mat);
  EventFleetEngine eb(virt);
  const auto ra = ea.run();
  const auto rb = eb.run();
  ASSERT_TRUE(ra.ok()) << ra.error().message;
  ASSERT_TRUE(rb.ok()) << rb.error().message;
  expect_bitwise_equal(*ra, *rb, 200);
  EXPECT_EQ(ra->events_processed, rb->events_processed);
}

TEST(EventFleetEngine, MatchesFeiSystemBitwise) {
  FeiSystem reference(golden_config());
  const auto ref = reference.run();
  ASSERT_TRUE(ref.ok()) << ref.error().message;

  EventFleetEngineConfig cfg;
  cfg.system = golden_config();
  cfg.sampled_timelines = 20;
  EventFleetEngine engine(cfg);
  const auto r = engine.run();
  ASSERT_TRUE(r.ok()) << r.error().message;
  expect_matches_fei_system(*ref, *r);
}

FeiSystemConfig csma_jittered_config() {
  FeiSystemConfig sys = golden_config();
  sys.lan_contention = FeiSystemConfig::LanContention::kCsma;
  sys.timing_jitter = 0.05;  // upload jitter draws in completion order
  sys.fl.max_rounds = 4;
  return sys;
}

// csma_jittered_config() as the former round-synchronous fleet engine
// computed it with its sorted (train_end, index) upload drain.
constexpr Fingerprint kGoldenCsmaJittered{0x1.a2e39b550459fp+6,
                                          0x1.57620d3b14d3ep+2,
                                          0xe9e33f886bfd5e7eULL,
                                          0x794b2c4a829350f9ULL,
                                          0,
                                          0,
                                          0,
                                          0};

// CSMA consumes a single shared RNG in upload-completion order; bit
// equality proves the queue's (time, FIFO) order IS the sorted drain order.
TEST(EventFleetEngine, CsmaContentionMatchesFleetEngine) {
  EventFleetEngineConfig cfg;
  cfg.system = csma_jittered_config();
  EventFleetEngine engine(cfg);
  const auto r = engine.run();
  ASSERT_TRUE(r.ok()) << r.error().message;
  expect_fingerprint(*r, kGoldenCsmaJittered, 20);
}

TEST(EventFleetEngine, CsmaContentionMatchesFeiSystem) {
  const FeiSystemConfig sys = csma_jittered_config();

  FeiSystem reference(sys);
  const auto ref = reference.run();
  ASSERT_TRUE(ref.ok()) << ref.error().message;

  EventFleetEngineConfig cfg;
  cfg.system = sys;
  EventFleetEngine engine(cfg);
  const auto r = engine.run();
  ASSERT_TRUE(r.ok()) << r.error().message;

  // CSMA consumes a single shared RNG in upload-completion order; bit
  // equality proves the queue's (time, FIFO) order IS the reference
  // engine's drain order.
  expect_matches_fei_system(*ref, *r);
}

TEST(EventFleetEngine, DataPoolingRunsAndFullPoolIsIdentity) {
  FeiSystemConfig sys = golden_config();
  sys.num_servers = 24;
  sys.net.num_edge_servers = 24;
  sys.fl.max_rounds = 3;

  // P >= N must be byte-identical to the unpooled population.
  EventFleetEngineConfig full;
  full.system = sys;
  EventFleetEngineConfig pooled_full = full;
  pooled_full.data_pool_shards = 24;
  EventFleetEngine ea(full);
  EventFleetEngine eb(pooled_full);
  const auto ra = ea.run();
  const auto rb = eb.run();
  ASSERT_TRUE(ra.ok()) << ra.error().message;
  ASSERT_TRUE(rb.ok()) << rb.error().message;
  expect_bitwise_equal(*ra, *rb, 24);

  // P < N shares shards round-robin but still trains and accounts energy
  // for every distinct server.
  EventFleetEngineConfig pooled;
  pooled.system = sys;
  pooled.data_pool_shards = 6;
  EventFleetEngine ec(pooled);
  const auto rc = ec.run();
  ASSERT_TRUE(rc.ok()) << rc.error().message;
  EXPECT_EQ(rc->accumulators.size(), 24u);
  EXPECT_GT(rc->ledger.total().value(), 0.0);
  EXPECT_EQ(rc->training.rounds_run, 3u);
}

FeiSystemConfig faulty_config() {
  FeiSystemConfig cfg = prototype_config();
  cfg.num_servers = 30;
  cfg.net.num_edge_servers = 30;
  cfg.samples_per_server = 60;
  cfg.test_samples = 200;
  cfg.data.image_side = 12;
  cfg.model.input_dim = 144;
  cfg.sgd.learning_rate = 0.1;
  cfg.fl.clients_per_round = 8;
  cfg.fl.local_epochs = 3;
  cfg.fl.max_rounds = 5;
  cfg.fl.overselect = 2;
  cfg.fl.threads = 4;
  cfg.net.link_faults.loss_probability = 0.2;
  cfg.net.link_faults.max_attempts = 3;
  cfg.round_deadline = Seconds{60.0};
  cfg.crashes.mtbf = Seconds{400.0};
  cfg.crashes.mttr = Seconds{20.0};
  cfg.charge_idle_servers = true;
  cfg.seed = 11;
  return cfg;
}

// faulty_config() as the former round-synchronous fleet engine computed
// it.  Transfer fault plans draw from per-(server, round) counted RNG
// streams, so a server's fault fate does not depend on scan order;
// FeiSystem's single shared fault stream deliberately diverges, so only
// this golden pins the fault path.
constexpr Fingerprint kGoldenFaultPath{0x1.80ce4e5484462p+7,
                                       0x1.0c12ad81adeadp+1,
                                       0xce33268f23f7fd95ULL,
                                       0x120be24c93a3eac2ULL,
                                       20,  // retries
                                       1,   // aborted updates
                                       0,   // straggler drops
                                       0};  // crashed servers

TEST(EventFleetEngine, FaultPathMatchesGoldenFingerprint) {
  EventFleetEngineConfig cfg;
  cfg.system = faulty_config();
  cfg.tiers.gateway_fanin = 8;
  EventFleetEngine engine(cfg);
  const auto r = engine.run();
  ASSERT_TRUE(r.ok()) << r.error().message;
  expect_fingerprint(*r, kGoldenFaultPath, 30);
}

TEST(EventFleetEngine, FaultPathThreadInvariant) {
  EventFleetEngineConfig a;
  a.system = faulty_config();
  a.tiers.gateway_fanin = 8;
  EventFleetEngineConfig b = a;
  b.system.fl.threads = 1;
  b.shard_size = 4;

  EventFleetEngine ea(a);
  EventFleetEngine eb(b);
  const auto ra = ea.run();
  const auto rb = eb.run();
  ASSERT_TRUE(ra.ok()) << ra.error().message;
  ASSERT_TRUE(rb.ok()) << rb.error().message;
  expect_bitwise_equal(*ra, *rb, 30);
  EXPECT_EQ(ra->events_processed, rb->events_processed);
}

// --- Default configuration -------------------------------------------------

// The FleetEngine suite runs the engine as bench_fleet and iot_fleet_sim
// do: a materialized population on a shared medium behind one gateway,
// with zero tier latencies.  The EventFleetEngine suite adds gateways,
// regions, tier latencies and the backhaul graph on the same configs.

TEST(FleetEngine, MatchesGoldenFingerprint) {
  EventFleetEngineConfig cfg;
  cfg.system = golden_config();
  cfg.sampled_timelines = 20;  // keep every timeline at this scale
  EventFleetEngine engine(cfg);
  const auto r = engine.run();
  ASSERT_TRUE(r.ok()) << r.error().message;
  expect_golden(*r);
  EXPECT_EQ(r->num_gateways, 1u);

  // Every sampled timeline must agree with its streaming accumulator to
  // the last bit.
  ASSERT_EQ(r->sampled_timelines.size(), 20u);
  for (std::size_t i = 0; i < r->sampled_servers.size(); ++i) {
    const std::size_t sid = r->sampled_servers[i];
    const auto& tl = r->sampled_timelines[i];
    const auto& acc = r->accumulators[sid];
    EXPECT_EQ(tl.total_energy().value(), acc.total_energy().value());
    EXPECT_EQ(tl.total_duration().value(), acc.total_duration().value());
  }
}

TEST(FleetEngine, ThreadCountInvariant) {
  EventFleetEngineConfig serial;
  serial.system = golden_config();
  serial.system.fl.threads = 1;
  serial.sampled_timelines = 20;
  serial.shard_size = 3;  // force many shards even at N = 20
  EventFleetEngine engine(serial);
  const auto r = engine.run();
  ASSERT_TRUE(r.ok()) << r.error().message;
  expect_golden(*r);
}

// Without timing jitter, CSMA's shared RNG is the only stream consumed in
// completion order.
TEST(FleetEngine, CsmaContentionMatchesFeiSystem) {
  FeiSystemConfig sys = golden_config();
  sys.lan_contention = FeiSystemConfig::LanContention::kCsma;
  sys.fl.max_rounds = 4;

  FeiSystem reference(sys);
  const auto ref = reference.run();
  ASSERT_TRUE(ref.ok()) << ref.error().message;

  EventFleetEngineConfig cfg;
  cfg.system = sys;
  EventFleetEngine engine(cfg);
  const auto r = engine.run();
  ASSERT_TRUE(r.ok()) << r.error().message;
  expect_matches_fei_system(*ref, *r);
}

TEST(FleetEngine, FaultPathThreadInvariant) {
  EventFleetEngineConfig a;
  a.system = faulty_config();
  EventFleetEngineConfig b = a;
  b.system.fl.threads = 1;
  b.shard_size = 4;

  EventFleetEngine ea(a);
  EventFleetEngine eb(b);
  const auto ra = ea.run();
  const auto rb = eb.run();
  ASSERT_TRUE(ra.ok()) << ra.error().message;
  ASSERT_TRUE(rb.ok()) << rb.error().message;
  expect_bitwise_equal(*ra, *rb, 30);
  // The fault knobs actually fired (otherwise this test proves nothing).
  EXPECT_GT(ra->total_retries + ra->total_aborted_updates +
                ra->total_straggler_drops + ra->total_crashed_servers,
            0u);
}

TEST(FleetEngine, RejectsCsmaWithFaultInjection) {
  // Fault injection models FCFS uploads only.
  EventFleetEngineConfig cfg;
  cfg.system = faulty_config();
  cfg.system.lan_contention = FeiSystemConfig::LanContention::kCsma;
  EXPECT_FALSE(EventFleetEngine(cfg).run().ok());
}

// --- Tiers, gateways and config validation --------------------------------

TEST(EventFleetEngine, TierLatenciesExtendTheMakespan) {
  EventFleetEngineConfig base;
  base.system = golden_config();
  base.tiers.gateway_fanin = 4;
  base.tiers.region_fanin = 2;
  EventFleetEngineConfig slow = base;
  slow.gateway_latency = Seconds{0.5};
  slow.region_latency = Seconds{0.25};
  slow.root_latency = Seconds{0.25};

  EventFleetEngine ea(base);
  EventFleetEngine eb(slow);
  const auto ra = ea.run();
  const auto rb = eb.run();
  ASSERT_TRUE(ra.ok()) << ra.error().message;
  ASSERT_TRUE(rb.ok()) << rb.error().message;
  // Every round now ends at root-done, which trails the last upload by at
  // least the three hop latencies.
  EXPECT_GE(rb->wall_clock.value(),
            ra->wall_clock.value() + 8 * (0.5 + 0.25 + 0.25));
  // Aggregation latency idles servers longer but changes no phase energy:
  // training totals are unaffected.
  EXPECT_EQ(
      ra->ledger.category_total(energy::EnergyCategory::kTraining).value(),
      rb->ledger.category_total(energy::EnergyCategory::kTraining).value());
}

TEST(EventFleetEngine, GatewayContentionIsDeterministicAcrossThreads) {
  FeiSystemConfig sys = golden_config();
  sys.num_servers = 200;
  sys.net.num_edge_servers = 200;
  sys.samples_per_server = 40;
  sys.fl.clients_per_round = 40;
  sys.fl.max_rounds = 3;
  sys.timing_jitter = 0.05;
  sys.charge_idle_servers = true;

  EventFleetEngineConfig a;
  a.system = sys;
  a.tiers.gateway_fanin = 16;
  a.gateway_contention = true;
  EventFleetEngineConfig b = a;
  b.system.fl.threads = 1;

  EventFleetEngine ea(a);
  EventFleetEngine eb(b);
  const auto ra = ea.run();
  const auto rb = eb.run();
  ASSERT_TRUE(ra.ok()) << ra.error().message;
  ASSERT_TRUE(rb.ok()) << rb.error().message;
  expect_bitwise_equal(*ra, *rb, 200);
  EXPECT_EQ(ra->events_processed, rb->events_processed);

  // Per-gateway segments only queue uploads behind gateway-mates, so the
  // makespan cannot exceed the shared-medium run's.
  EventFleetEngineConfig shared = a;
  shared.gateway_contention = false;
  EventFleetEngine ec(shared);
  const auto rc = ec.run();
  ASSERT_TRUE(rc.ok()) << rc.error().message;
  EXPECT_LE(ra->wall_clock.value(), rc->wall_clock.value());
}

TEST(EventFleetEngine, ScalableSelectionRunsAndStaysUniform) {
  EventFleetEngineConfig cfg;
  cfg.system = golden_config();
  cfg.system.num_servers = 100;
  cfg.system.net.num_edge_servers = 100;
  cfg.system.fl.max_rounds = 4;
  cfg.data_pool_shards = 10;
  cfg.scalable_selection = true;
  EventFleetEngine engine(cfg);
  const auto r = engine.run();
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(r->training.rounds_run, 4u);
  for (const auto& rec : r->training.record.all()) {
    EXPECT_EQ(rec.selected.size(), 10u);
    std::set<std::size_t> distinct(rec.selected.begin(), rec.selected.end());
    EXPECT_EQ(distinct.size(), rec.selected.size());
    for (const auto sid : rec.selected) EXPECT_LT(sid, 100u);
  }
}

TEST(EventFleetEngine, PerServerAccumulatorsCanBeDisabled) {
  EventFleetEngineConfig cfg;
  cfg.system = golden_config();
  cfg.per_server_accumulators = false;
  EventFleetEngine engine(cfg);
  const auto r = engine.run();
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_TRUE(r->accumulators.empty());
  // The ledger is accumulator-independent and still matches golden.
  EXPECT_EQ(r->ledger.total().value(), kGoldenLedgerTotal);
  EXPECT_EQ(r->wall_clock.value(), kGoldenWallClock);
}

TEST(EventFleetEngine, RejectsInvalidConfigs) {
  {  // gateway contention is FCFS-only
    EventFleetEngineConfig cfg;
    cfg.system = golden_config();
    cfg.system.lan_contention = FeiSystemConfig::LanContention::kCsma;
    cfg.gateway_contention = true;
    EXPECT_FALSE(EventFleetEngine(cfg).run().ok());
  }
  {  // gateway contention + fault injection unsupported
    EventFleetEngineConfig cfg;
    cfg.system = faulty_config();
    cfg.gateway_contention = true;
    EXPECT_FALSE(EventFleetEngine(cfg).run().ok());
  }
  {  // virtual population requires data pooling
    EventFleetEngineConfig cfg;
    cfg.system = golden_config();
    cfg.virtual_population = true;
    EXPECT_FALSE(EventFleetEngine(cfg).run().ok());
  }
  {  // ... and a loss-free LAN
    EventFleetEngineConfig cfg;
    cfg.system = golden_config();
    cfg.system.net.lan.loss_probability = 0.1;
    cfg.virtual_population = true;
    cfg.data_pool_shards = 4;
    EXPECT_FALSE(EventFleetEngine(cfg).run().ok());
  }
  {  // ... and no per-device IoT collection
    EventFleetEngineConfig cfg;
    cfg.system = golden_config();
    cfg.system.iot_collection = true;
    cfg.virtual_population = true;
    cfg.data_pool_shards = 4;
    EXPECT_FALSE(EventFleetEngine(cfg).run().ok());
  }
  {  // degenerate tier fan-in
    EventFleetEngineConfig cfg;
    cfg.system = golden_config();
    cfg.tiers.gateway_fanin = 0;
    EXPECT_FALSE(EventFleetEngine(cfg).run().ok());
  }
}

// --- Multi-hop backhaul graph ---------------------------------------------

// The golden twin: zero-rate / zero-latency / unbounded links make every
// hop instantaneous, charge no energy and consume no RNG — the run must
// reproduce the point-to-point golden fingerprint bit for bit, while the
// hop chain demonstrably ran (two admissions per upload).
TEST(EventFleetEngine, MultiHopZeroConfigMatchesGoldenFingerprint) {
  EventFleetEngineConfig cfg;
  cfg.system = golden_config();
  cfg.sampled_timelines = 20;
  cfg.tiers.gateway_fanin = 4;
  cfg.tiers.region_fanin = 2;
  cfg.multi_hop = true;  // default LinkConfigs: transparent links
  EventFleetEngine engine(cfg);
  const auto r = engine.run();
  ASSERT_TRUE(r.ok()) << r.error().message;
  expect_golden(*r);
  // 5 gateways + 3 regions -> 5 gateway links + 3 backhaul links.
  EXPECT_EQ(r->num_links, 8u);
  // Every upload crosses gateway -> region -> coordinator: 2 admissions.
  EXPECT_EQ(r->link_messages, 10u * 8u * 2u);
  EXPECT_EQ(r->link_drops, 0u);
  EXPECT_EQ(r->link_wait.value(), 0.0);
  EXPECT_EQ(r->link_util_peak, 0.0);
}

// Bit-identity for any thread count at N = 1k, and the zero-config
// multi-hop run is byte-identical to the point-to-point engine on the
// same jittered / straggler-heavy configuration.
TEST(EventFleetEngine, MultiHopZeroConfigBitwiseTwinAtN1k) {
  const EventFleetEngineConfig plain = jittered_n1k_event_config();
  EventFleetEngine ref_engine(plain);
  const auto ref = ref_engine.run();
  ASSERT_TRUE(ref.ok()) << ref.error().message;

  EventFleetEngineConfig mh = plain;
  mh.multi_hop = true;
  EventFleetEngine e4(mh);
  const auto r4 = e4.run();
  ASSERT_TRUE(r4.ok()) << r4.error().message;

  EventFleetEngineConfig mh1 = mh;
  mh1.system.fl.threads = 1;
  mh1.shard_size = 64;
  EventFleetEngine e1(mh1);
  const auto r1 = e1.run();
  ASSERT_TRUE(r1.ok()) << r1.error().message;

  expect_bitwise_equal(*ref, *r4, 1000);
  expect_bitwise_equal(*r4, *r1, 1000);
  EXPECT_EQ(r4->events_processed, r1->events_processed);
  EXPECT_EQ(r4->link_messages, r1->link_messages);
  EXPECT_EQ(r4->link_wait.value(), 0.0);
  EXPECT_EQ(r4->link_messages, 20u * 4u * 2u);
}

// Congestion config: 8 gateways funneling into ONE region whose backhaul
// link is narrow — every upload serializes through it, so queueing delay
// emerges from the offered load.
EventFleetEngineConfig congested_config(std::size_t clients_per_round) {
  EventFleetEngineConfig cfg;
  cfg.system = prototype_config();
  cfg.system.num_servers = 64;
  cfg.system.net.num_edge_servers = 64;
  cfg.system.samples_per_server = 30;
  cfg.system.test_samples = 200;
  cfg.system.data.image_side = 12;
  cfg.system.model.input_dim = 144;
  cfg.system.sgd.learning_rate = 0.1;
  cfg.system.fl.clients_per_round = clients_per_round;
  cfg.system.fl.local_epochs = 2;
  cfg.system.fl.max_rounds = 3;
  cfg.system.fl.threads = 4;
  cfg.system.seed = 23;
  cfg.tiers.gateway_fanin = 8;
  cfg.tiers.region_fanin = 64;  // one region: a single backhaul bottleneck
  cfg.multi_hop = true;
  cfg.backhaul_uplink.rate = BitsPerSecond::from_mbps(0.2);
  return cfg;
}

TEST(EventFleetEngine, MultiHopCongestionGrowsWithOfferedLoad) {
  EventFleetEngine light(congested_config(8));
  EventFleetEngine heavy(congested_config(32));
  const auto rl = light.run();
  const auto rh = heavy.run();
  ASSERT_TRUE(rl.ok()) << rl.error().message;
  ASSERT_TRUE(rh.ok()) << rh.error().message;

  // The narrow link actually queued messages, and 4x the offered load
  // means more total waiting — congestion is emergent, not configured.
  EXPECT_GT(rl->link_wait.value(), 0.0);
  EXPECT_GT(rh->link_wait.value(), rl->link_wait.value());
  EXPECT_GT(rh->link_util_peak, 0.0);
  EXPECT_LE(rh->link_util_peak, 1.0);

  // The backhaul stretches the makespan relative to transparent links.
  EventFleetEngineConfig transparent = congested_config(32);
  transparent.backhaul_uplink = net::LinkConfig{};
  EventFleetEngine fast(transparent);
  const auto rf = fast.run();
  ASSERT_TRUE(rf.ok()) << rf.error().message;
  EXPECT_GT(rh->wall_clock.value(), rf->wall_clock.value());
  // ... but hops charge nothing: every energy category is bit-identical
  // except kWaiting, whose LAN queue-wait is a subtraction of absolute
  // event times — congestion shifts later rounds' absolute clock, so its
  // LOW BITS may round differently even though no hop books a joule.
  for (std::size_t c = 0; c < energy::kNumEnergyCategories; ++c) {
    const auto cat = static_cast<energy::EnergyCategory>(c);
    if (cat == energy::EnergyCategory::kWaiting) {
      EXPECT_NEAR(rh->ledger.category_total(cat).value(),
                  rf->ledger.category_total(cat).value(), 1e-9);
    } else {
      EXPECT_EQ(rh->ledger.category_total(cat).value(),
                rf->ledger.category_total(cat).value())
          << energy::to_string(cat);
    }
  }
  EXPECT_NEAR(rh->ledger.total().value(), rf->ledger.total().value(), 1e-9);
  EXPECT_EQ(rh->training.final_params, rf->training.final_params);
}

TEST(EventFleetEngine, MultiHopBoundedQueueDropsAreTimingOnly) {
  EventFleetEngineConfig bounded = congested_config(32);
  bounded.backhaul_uplink.queue_capacity = 2;
  EventFleetEngine eb(bounded);
  const auto rb = eb.run();
  ASSERT_TRUE(rb.ok()) << rb.error().message;
  EXPECT_GT(rb->link_drops, 0u);
  // Rounds still complete (a drop resolves the member at drop time) and
  // the numeric aggregation is untouched: same params as unbounded.
  EXPECT_EQ(rb->training.rounds_run, 3u);
  EventFleetEngine eu(congested_config(32));
  const auto ru = eu.run();
  ASSERT_TRUE(ru.ok()) << ru.error().message;
  EXPECT_EQ(rb->training.final_params, ru->training.final_params);
  // Same absolute-clock caveat as the congestion test: drops charge
  // nothing, but shifting round starts can move kWaiting's low bits.
  for (std::size_t c = 0; c < energy::kNumEnergyCategories; ++c) {
    const auto cat = static_cast<energy::EnergyCategory>(c);
    if (cat == energy::EnergyCategory::kWaiting) {
      EXPECT_NEAR(rb->ledger.category_total(cat).value(),
                  ru->ledger.category_total(cat).value(), 1e-9);
    } else {
      EXPECT_EQ(rb->ledger.category_total(cat).value(),
                ru->ledger.category_total(cat).value())
          << energy::to_string(cat);
    }
  }
  EXPECT_NEAR(rb->ledger.total().value(), ru->ledger.total().value(), 1e-9);
}

TEST(EventFleetEngine, MultiHopRejectsIncompatibleModes) {
  {  // CSMA access medium
    EventFleetEngineConfig cfg;
    cfg.system = golden_config();
    cfg.system.lan_contention = FeiSystemConfig::LanContention::kCsma;
    cfg.multi_hop = true;
    EXPECT_FALSE(EventFleetEngine(cfg).run().ok());
  }
  {  // per-gateway contention is the other exclusive backhaul model
    EventFleetEngineConfig cfg;
    cfg.system = golden_config();
    cfg.multi_hop = true;
    cfg.gateway_contention = true;
    EXPECT_FALSE(EventFleetEngine(cfg).run().ok());
  }
  {  // fault injection unsupported
    EventFleetEngineConfig cfg;
    cfg.system = faulty_config();
    cfg.multi_hop = true;
    EXPECT_FALSE(EventFleetEngine(cfg).run().ok());
  }
  {  // invalid link config caught at validation
    EventFleetEngineConfig cfg;
    cfg.system = golden_config();
    cfg.multi_hop = true;
    cfg.gateway_uplink.latency = Seconds{-1.0};
    EXPECT_FALSE(EventFleetEngine(cfg).run().ok());
  }
}

// Multi-hop telemetry: the link columns land in the round table, the
// per-hop wait sketch is registered, and totals reconcile with the run
// result — while recording perturbs nothing (same fingerprint bits as the
// untraced congested run).
TEST(EventFleetEngine, MultiHopTelemetryExportsLinkColumns) {
  EventFleetEngine untraced(congested_config(16));
  const auto ru = untraced.run();
  ASSERT_TRUE(ru.ok()) << ru.error().message;

  obs::Telemetry tel;
  EventFleetEngine engine(congested_config(16));
  const auto r = [&] {
    obs::TelemetryScope scope(tel);
    return engine.run();
  }();
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(r->ledger.total().value(), ru->ledger.total().value());
  EXPECT_EQ(r->wall_clock.value(), ru->wall_clock.value());
  EXPECT_EQ(r->link_wait.value(), ru->link_wait.value());

  ASSERT_EQ(tel.rounds.size(), 3u);
  const auto rounds = tel.rounds.snapshot();
  const auto& msgs = *rounds.column("link_msgs");
  const auto& wait = *rounds.column("link_wait_s");
  const auto& util = *rounds.column("link_util_max");
  const auto& drops = *rounds.column("link_drops");
  double total_msgs = 0.0;
  double total_wait = 0.0;
  double total_drops = 0.0;
  double util_peak = 0.0;
  for (std::size_t i = 0; i < rounds.rows(); ++i) {
    total_msgs += msgs[i];
    total_wait += wait[i];
    total_drops += drops[i];
    util_peak = std::max(util_peak, util[i]);
    EXPECT_GE(util[i], 0.0);
    EXPECT_LE(util[i], 1.0);
  }
  EXPECT_EQ(total_msgs, static_cast<double>(r->link_messages));
  EXPECT_EQ(total_drops, static_cast<double>(r->link_drops));
  EXPECT_NEAR(total_wait, r->link_wait.value(),
              1e-9 * (1.0 + r->link_wait.value()));
  EXPECT_EQ(util_peak, r->link_util_peak);

  const auto metrics = tel.metrics.snapshot();
  EXPECT_EQ(metrics.gauge_value("fleet.links"),
            static_cast<double>(r->num_links));
  const auto* wait_sketch = metrics.sketch("fleet.link.wait_s");
  ASSERT_NE(wait_sketch, nullptr);
  EXPECT_EQ(wait_sketch->count, r->link_messages);
}

// The telemetry contract at fleet scale: tracing with *sampled* tracks must
// leave the simulation byte-identical (the golden fingerprint pins every
// result bit), keep the track count bounded by the sampler, fill the round
// table one row per round, and populate the first-class sketches.
TEST(EventFleetEngine, TracedRunIsGoldenWithBoundedSampledTracks) {
  EventFleetEngineConfig cfg;
  cfg.system = golden_config();
  cfg.sampled_timelines = 20;
  cfg.trace_tracks.max_tracks = 4;  // fewer tracks than mirrored timelines
  cfg.tiers.gateway_fanin = 4;
  cfg.tiers.region_fanin = 2;

  obs::Telemetry tel;
  EventFleetEngine engine(cfg);
  const auto r = [&] {
    obs::TelemetryScope scope(tel);
    return engine.run();
  }();
  ASSERT_TRUE(r.ok()) << r.error().message;
  expect_golden(*r);  // bit-for-bit the untraced result

  // The sampler bounds per-server lanes; coordinator/tier lanes stay on.
  std::size_t edge_tracks = 0;
  bool has_coordinator = false;
  for (const auto& [pid, name] : tel.tracer.track_names()) {
    if (name.rfind("edge_server_", 0) == 0) ++edge_tracks;
    if (name == "coordinator") has_coordinator = true;
  }
  EXPECT_EQ(edge_tracks, 4u);
  EXPECT_TRUE(has_coordinator);
  EXPECT_FALSE(tel.tracer.empty());

  // Round table: one row per round, radar-annotated.
  ASSERT_EQ(tel.rounds.size(), 8u);
  const auto rounds = tel.rounds.snapshot();
  const auto& selected = *rounds.column("selected");
  const auto& duration = *rounds.column("duration_s");
  for (std::size_t i = 0; i < rounds.rows(); ++i) {
    EXPECT_EQ(selected[i], 10.0) << "round " << i;
    EXPECT_GT(duration[i], 0.0) << "round " << i;
  }

  // First-class sketches: one round-time sample per round, one joules
  // sample per server (N = 20 is far below the sampling cap).
  const auto metrics = tel.metrics.snapshot();
  const auto* round_s = metrics.sketch("fleet.round.seconds");
  ASSERT_NE(round_s, nullptr);
  EXPECT_EQ(round_s->count, 8u);
  const auto* joules = metrics.sketch("fleet.server.joules");
  ASSERT_NE(joules, nullptr);
  EXPECT_EQ(joules->count, 20u);
  // The sketch saw exactly the per-server ledger totals (different
  // accumulation order, so a tight relative tolerance, not bitwise).
  double per_server_sum = 0.0;
  for (std::size_t sid = 0; sid < 20; ++sid) {
    per_server_sum += r->ledger.server_total(sid).value();
  }
  EXPECT_NEAR(joules->sum, per_server_sum, 1e-9 * per_server_sum);
  ASSERT_NE(metrics.sketch("fleet.upload.wait_s"), nullptr);
  ASSERT_NE(metrics.sketch("fleet.server.turnaround_s"), nullptr);
}

// max_tracks = 0 mutes every per-server lane but must not perturb the run
// or the round table.
TEST(EventFleetEngine, ZeroSampledTracksStillGoldenAndRecordsRounds) {
  EventFleetEngineConfig cfg;
  cfg.system = golden_config();
  cfg.sampled_timelines = 20;
  cfg.trace_tracks.max_tracks = 0;
  cfg.tiers.gateway_fanin = 4;
  cfg.tiers.region_fanin = 2;

  obs::Telemetry tel;
  EventFleetEngine engine(cfg);
  const auto r = [&] {
    obs::TelemetryScope scope(tel);
    return engine.run();
  }();
  ASSERT_TRUE(r.ok()) << r.error().message;
  expect_golden(*r);

  for (const auto& [pid, name] : tel.tracer.track_names()) {
    EXPECT_NE(name.rfind("edge_server_", 0), 0u) << name;
  }
  EXPECT_EQ(tel.rounds.size(), 8u);
}

// The joules sampling cap: with the cap forced below N the sketch must hold
// exactly ceil(N / stride) observations (stride bumped to odd), and the
// stride-sampled subset must still produce finite quantiles.
TEST(EventFleetEngine, JoulesSampleCapBoundsSketchObservations) {
  EventFleetEngineConfig cfg;
  cfg.system = golden_config();
  cfg.sampled_timelines = 8;
  cfg.joules_sample_cap = 6;  // N = 20 -> stride 3 (20/6 = 3, already odd)
  cfg.tiers.gateway_fanin = 4;

  obs::Telemetry tel;
  EventFleetEngine engine(cfg);
  const auto r = [&] {
    obs::TelemetryScope scope(tel);
    return engine.run();
  }();
  ASSERT_TRUE(r.ok()) << r.error().message;
  expect_golden(*r);  // the cap only changes what telemetry reads

  const auto metrics = tel.metrics.snapshot();
  const auto* joules = metrics.sketch("fleet.server.joules");
  ASSERT_NE(joules, nullptr);
  EXPECT_EQ(joules->count, 7u);  // ceil(20 / 3)
  EXPECT_GT(joules->quantile(0.5), 0.0);
  EXPECT_LE(joules->quantile(0.999), r->ledger.total().value());
}

}  // namespace
}  // namespace eefei::sim
