// Event-driven fleet engine: the FEI round model of the reference
// FeiSystem (select K servers, E local epochs, upload, FedAvg, Eq. 12
// energy), rebuilt as a discrete-event simulation so idle servers cost
// nothing per round and N = 10^6 becomes tractable.
//
// What changes relative to FeiSystem:
//
//   - Per-server phase completions are EVENTS (download-done, epoch-done,
//     upload-done, server-crash) scheduled on a typed sim::CalendarQueue;
//     the round clock is whatever the queue drained to, not an O(N)
//     barrier sweep.
//   - Energy accounting streams through CompactEnergyAccumulator (O(1)
//     memory per server) instead of a PowerStateTimeline per server.  A
//     configurable sampled subset of servers still gets full EdgeServerSim
//     timelines, so Fig. 3-style traces and the tracer keep working.
//   - Aggregation is hierarchical: device → gateway → regional coordinator
//     → root (fl::TierPlan), each tier's fan-in bounded by configuration.
//     A gateway completes when its last selected member resolves, a region
//     when its last active gateway reports, the root when the last region
//     does — three more event layers, each with an optional per-hop
//     latency.  The NUMERIC FedAvg reduction stays flat at the root (the
//     coordinator aggregates the K survivors in index order): re-running
//     the floating-point sum per tier would re-associate it and break the
//     bit-identity contract below.
//   - Idle-server waiting energy is settled LAZILY (energy/idle_settlement):
//     one deferred charge per touched server plus a single fold for
//     never-selected servers, with the per-cell addition order of an eager
//     per-round sweep preserved — so the ledger is bit-identical to it.
//   - The population can be VIRTUAL: datasets and shards are built eagerly
//     (same bytes as ever), but Client objects materialize lazily on first
//     selection (fl::LazyClientPool) and LAN timings come from the shared
//     WifiLanConfig instead of per-server channel objects.  Requires a
//     loss-free LAN and no IoT collection; under those conditions the run
//     is bit-identical to a materialized one.
//   - The rare O(N) passes (end-of-run timeline closing, totals reduction)
//     are sharded across the ThreadPool over disjoint per-server state.
//
// Determinism contract (pinned by tests/test_event_fleet.cpp): results are
// byte-identical for any thread count, and — on overlapping configurations
// (zero tier latencies, shared-medium contention, materialized or
// loss-free-virtual population, no fault injection, no data pooling) —
// byte-identical to FeiSystem.  The argument: the dispatch scan consumes
// the FeiSystem RNG streams serially in selection order, uploads drain in
// the queue's (time, FIFO) order, which equals a (train_end, index) sort,
// per-server state is disjoint across the sharded O(N) passes, and
// parallel per-gateway drains merge in ascending gateway order.
//
// Fault injection is FeiSystem's fault filter with one deliberate
// divergence: transfer fault plans draw from per-(server, round) counted
// RNG streams (RngStreamFamily) instead of one shared stream, so a
// server's fault fate does not depend on which other servers were scanned
// before it.  Golden fingerprints pin that path.
//
// Trained models route through the coordinator's ml::ModelBank batched
// path — the DES replaces the *timing* layer, not the fused training hot
// loop.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "energy/compact_accumulator.h"
#include "energy/ledger.h"
#include "energy/timeline.h"
#include "fl/client_pool.h"
#include "fl/coordinator.h"
#include "fl/tiering.h"
#include "net/link_queue.h"
#include "obs/track_sampler.h"
#include "sim/fei_system.h"
#include "sim/population.h"

namespace eefei::sim {

struct EventFleetEngineConfig {
  /// Full system description; `system.fl.threads` sizes the worker pool
  /// for sharded passes and per-gateway drains.
  FeiSystemConfig system;

  /// Servers per shard for the (rare) O(N) passes.  Work-split knob only:
  /// any value produces byte-identical results.
  std::size_t shard_size = 1024;

  /// How many servers keep a full PowerStateTimeline (evenly spaced over
  /// the fleet).  Clamped to N; set to N to retain every timeline, as the
  /// reference FeiSystem does.
  std::size_t sampled_timelines = 8;

  /// Data pooling for very large fleets: generate P < N distinct local
  /// datasets and map server k to pool shard k mod P.  0 (or P >= N)
  /// keeps the full per-server population, byte-identical to FeiSystem.
  /// Mandatory (0 < P < N) in virtual-population mode: without pooling the
  /// dataset itself is O(N) and the virtual mode's memory argument is void.
  std::size_t data_pool_shards = 0;

  /// Aggregation hierarchy fan-in bounds (servers per gateway, gateways
  /// per region).  The root's fan-in is then at most
  /// ceil(N / (gateway_fanin · region_fanin)).
  fl::TierConfig tiers;

  /// Per-hop aggregation latencies.  All zero (the default) keeps the
  /// makespan — and therefore every energy bit — identical to a flat
  /// aggregation; nonzero values model the tier hops' communication cost.
  Seconds gateway_latency{0.0};
  Seconds region_latency{0.0};
  Seconds root_latency{0.0};

  /// true: do not materialize Client/Topology arrays; clients build lazily
  /// on first selection.  Requires data pooling, a loss-free LAN and
  /// iot_collection off (rejected otherwise).
  bool virtual_population = false;

  /// false: skip the O(N) CompactEnergyAccumulator array (the ledger and
  /// sampled timelines remain).  The memory lever for N = 10^6; leave on
  /// for results comparable with FeiSystem's timelines
  /// (accumulated_energy()).
  bool per_server_accumulators = true;

  /// true: each gateway is its own FCFS LAN segment instead of one shared
  /// medium — uploads only queue behind their gateway-mates, and the
  /// per-gateway event streams drain in parallel across the thread pool
  /// (deterministic ascending-gateway merge).  A new scenario, not
  /// FeiSystem-comparable; FCFS only, fault injection off.
  bool gateway_contention = false;

  /// true: replace the O(N)-per-round partial-Fisher–Yates selection with
  /// the O(K) Floyd sampler (fl::ScalableUniformSelection).  Still exactly
  /// uniform, but a different random stream — selections (and therefore
  /// results) no longer match FeiSystem for the same seed.  The knob the
  /// N = 1M bench row turns on.
  bool scalable_selection = false;

  /// Which of the sampled-timeline mirrors also own a per-server trace
  /// track when tracing is on (sampling is over the mirror list, since
  /// only mirrors replay per-phase spans).  The default stride mode with
  /// max_tracks >= sampled_timelines keeps every mirror traced, exactly
  /// the pre-sampling behavior; at fleet scale the bound keeps a traced
  /// N = 1M run's track count — and trace size — fixed.  Pure telemetry:
  /// any setting produces byte-identical run results.
  obs::TrackSamplerConfig trace_tracks;

  /// At most this many servers feed the fleet.server.joules sketch (0 =
  /// all).  Above the cap the end-of-run pass stride-samples server ids
  /// (odd stride, so power-of-two data-pool periods stay fully covered) —
  /// a full O(N) ledger read at N = 10^6 costs more memory bandwidth than
  /// the whole telemetry overhead budget.  Pure telemetry.
  std::size_t joules_sample_cap = 131072;

  /// true: after its access-medium upload completes, each update traverses
  /// a multi-hop backhaul graph (net::NetGraph) mapped from the tier plan
  /// — gateway → backhaul → coordinator — where every hop is a scheduled
  /// arrival event through a per-link FIFO queue (net::LinkQueue), so
  /// queueing delay and congestion emerge from the round's offered load.
  /// A member's tier resolution moves from upload-done to
  /// coordinator-arrival; when a bounded queue drops the update, the
  /// member resolves at the drop time instead (observer-mode aggregation
  /// is never vetoed — a drop is a timing/telemetry outcome, mirroring
  /// how tier latencies never gate the numeric FedAvg).  With the default
  /// zero-rate/zero-latency/unbounded links every hop is instantaneous,
  /// charges no energy and consumes no RNG, so results stay bit-identical
  /// to the point-to-point path (the golden twin test).  FCFS access only;
  /// incompatible with gateway_contention, CSMA and fault injection.
  bool multi_hop = false;
  /// Per-link model for each gateway → backhaul link.
  net::LinkConfig gateway_uplink;
  /// Per-link model for each backhaul → coordinator link.
  net::LinkConfig backhaul_uplink;
};

struct EventFleetRunResult {
  fl::TrainingOutcome training;
  energy::EnergyLedger ledger{1};
  Seconds wall_clock{0.0};  // simulated makespan

  /// One streaming accumulator per server (empty when
  /// per_server_accumulators is off) — the fleet-scale stand-in for
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

  /// Total events the simulation processed (phase completions, crashes,
  /// tier completions, hop arrivals) — the DES cost measure: O(K·T), not
  /// O(N·T).
  std::size_t events_processed = 0;
  /// Tier-plan shape actually used.
  std::size_t num_gateways = 0;
  std::size_t num_regions = 0;
  /// Multi-hop link totals (all zero when multi_hop is off).
  std::size_t num_links = 0;
  std::size_t link_messages = 0;   // hop admissions across the run
  std::size_t link_drops = 0;      // messages rejected by bounded queues
  Seconds link_wait{0.0};          // summed per-hop queueing delay
  double link_util_peak = 0.0;     // max per-round single-link utilization
  /// Deepest any event queue got across the run (global queue and, in
  /// gateway-contention mode, the per-gateway local queues).
  std::size_t queue_high_water = 0;

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

class EventFleetEngine {
 public:
  explicit EventFleetEngine(EventFleetEngineConfig config);

  /// Builds the population (or, in virtual mode, just the datasets)
  /// without running.
  [[nodiscard]] Status prepare();

  /// Runs the federated loop under the event-driven timing simulation.
  [[nodiscard]] Result<EventFleetRunResult> run();

  [[nodiscard]] const EventFleetEngineConfig& config() const {
    return config_;
  }

 private:
  [[nodiscard]] bool fault_injection_active() const {
    const FeiSystemConfig& sys = config_.system;
    return sys.net.link_faults.enabled() ||
           sys.round_deadline.value() > 0.0 || sys.crashes.enabled();
  }

  [[nodiscard]] Status validate() const;

  /// Applies fn(server) for every server, sharded `shard_size` at a time
  /// across the pool.  `fn` must only touch state owned by that server.
  void for_each_server_sharded(const std::function<void(std::size_t)>& fn);

  EventFleetEngineConfig config_;
  bool prepared_ = false;
  Population population_;
  std::unique_ptr<ThreadPool> owned_pool_;
  /// Worker pool for system.fl.threads (null = serial), set by prepare().
  ThreadPool* pool_ = nullptr;
};

}  // namespace eefei::sim
