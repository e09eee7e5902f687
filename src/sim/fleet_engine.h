// Fleet-scale FEI simulation engine: the same round model as FeiSystem,
// restructured to run 10k–100k edge servers instead of 20.
//
// What changes at fleet scale — and what deliberately does not:
//
//   - Energy accounting streams through CompactEnergyAccumulator (O(1)
//     memory per server) instead of materializing a PowerStateTimeline per
//     server.  A configurable sampled subset of servers still gets full
//     EdgeServerSim timelines, so Fig. 3-style traces and the observability
//     tracer keep working.
//   - The O(N) per-round work — idle-server charging, end-of-run timeline
//     closing, totals reduction — is sharded across the ThreadPool.  Every
//     shard touches disjoint per-server state (ledger rows, accumulators),
//     so results are byte-identical for any thread count.
//   - The O(K) per-round medium simulation (the FCFS/CSMA LAN scan) stays
//     serial and consumes the exact RNG streams FeiSystem does: for a given
//     config the fleet engine's ledger, accumulator totals and training
//     trajectory match FeiSystem's to the last bit (tests/test_fleet_engine
//     pins this against a golden fingerprint).
//   - The global model is serialized once per round through the
//     coordinator's shared-payload path, not once per client.
//
// The fault-tolerant path mirrors FeiSystem's fault filter with one
// documented divergence: transfer fault plans draw from per-(server, round)
// counted RNG streams (RngStreamFamily) instead of one shared stream, so a
// server's fault fate no longer depends on which other servers happened to
// be scanned before it.  With fault injection off the paths are identical.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "energy/compact_accumulator.h"
#include "energy/ledger.h"
#include "fl/coordinator.h"
#include "obs/track_sampler.h"
#include "sim/edge_server_sim.h"
#include "sim/fei_system.h"
#include "sim/population.h"

namespace eefei::sim {

struct FleetEngineConfig {
  /// The full system description (population, learning, network, energy,
  /// faults).  `system.fl.threads` also sizes the fleet's shard pool.
  FeiSystemConfig system;

  /// Servers per shard for the parallel O(N) passes.  Purely a work-split
  /// knob: any value produces byte-identical results.
  std::size_t shard_size = 1024;

  /// How many servers keep a full PowerStateTimeline (evenly spaced over
  /// the fleet).  Clamped to N; set to N to retain every timeline, as the
  /// reference FeiSystem does.
  std::size_t sampled_timelines = 8;

  /// Data pooling for very large fleets: generate P < N distinct local
  /// datasets and map server k to pool shard k mod P.  0 keeps the full
  /// per-server population (byte-identical to FeiSystem).
  std::size_t data_pool_shards = 0;

  /// Which of the sampled-timeline mirrors also own a per-server trace
  /// track when tracing is on (see EventFleetEngineConfig::trace_tracks).
  /// Pure telemetry: any setting produces byte-identical run results.
  obs::TrackSamplerConfig trace_tracks;

  /// At most this many servers feed the fleet.server.joules sketch (0 =
  /// all).  Above the cap the end-of-run pass stride-samples server ids
  /// (odd stride, so power-of-two data-pool periods stay fully covered) —
  /// a full O(N) ledger read at N = 10^6 costs more memory bandwidth than
  /// the whole telemetry overhead budget.  Pure telemetry.
  std::size_t joules_sample_cap = 131072;
};

struct FleetRunResult {
  fl::TrainingOutcome training;
  energy::EnergyLedger ledger{1};
  Seconds wall_clock{0.0};  // simulated makespan

  /// One streaming accumulator per server — the fleet-scale stand-in for
  /// FeiRunResult::timelines, bit-identical in every total.
  std::vector<energy::CompactEnergyAccumulator> accumulators;
  /// Server ids that kept full timelines, and those timelines, aligned.
  std::vector<std::size_t> sampled_servers;
  std::vector<energy::PowerStateTimeline> sampled_timelines;

  // Fault-tolerance telemetry, summed over rounds (zero with faults off).
  std::size_t total_retries = 0;
  std::size_t total_aborted_updates = 0;
  std::size_t total_straggler_drops = 0;
  std::size_t total_crashed_servers = 0;

  [[nodiscard]] Joules measured_energy() const { return ledger.total(); }

  /// Sum of per-server accumulator energies, added in server order — the
  /// quantity that matches a FeiSystem run's summed timeline energies bit
  /// for bit.
  [[nodiscard]] Joules accumulated_energy() const {
    Joules total{0.0};
    for (const auto& acc : accumulators) total += acc.total_energy();
    return total;
  }
};

class FleetEngine {
 public:
  explicit FleetEngine(FleetEngineConfig config);

  /// Builds the population without running (benches, memory probes).
  [[nodiscard]] Status prepare();

  /// Runs the federated loop with full timing/energy simulation.
  [[nodiscard]] Result<FleetRunResult> run();

  [[nodiscard]] const FleetEngineConfig& config() const { return config_; }

 private:
  [[nodiscard]] bool fault_injection_active() const {
    const FeiSystemConfig& sys = config_.system;
    return sys.net.link_faults.enabled() ||
           sys.round_deadline.value() > 0.0 || sys.crashes.enabled();
  }

  /// Applies fn(server) for every server, sharded `shard_size` at a time
  /// across the pool.  `fn` must only touch state owned by that server.
  void for_each_server_sharded(const std::function<void(std::size_t)>& fn);

  FleetEngineConfig config_;
  bool prepared_ = false;
  Population population_;
  std::unique_ptr<ThreadPool> owned_pool_;
  /// Worker pool for system.fl.threads (null = serial), set by prepare().
  ThreadPool* pool_ = nullptr;
};

}  // namespace eefei::sim
