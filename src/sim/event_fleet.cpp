#include "sim/event_fleet.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <limits>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "energy/idle_settlement.h"
#include "fl/selection.h"
#include "ml/quantize.h"
#include "ml/serialize.h"
#include "net/csma.h"
#include "net/fault.h"
#include "net/graph.h"
#include "net/router.h"
#include "obs/telemetry.h"
#include "sim/calendar_queue.h"
#include "sim/edge_server_sim.h"
#include "sim/fault_process.h"
#include "sim/fleet_event.h"

namespace eefei::sim {

EventFleetEngine::EventFleetEngine(EventFleetEngineConfig config)
    : config_(std::move(config)) {}

Status EventFleetEngine::validate() const {
  const FeiSystemConfig& sys = config_.system;
  if (!config_.tiers.valid()) {
    return Error::invalid_argument("event fleet: tier fan-in must be >= 1");
  }
  if (sys.num_servers > std::numeric_limits<std::uint32_t>::max()) {
    return Error::invalid_argument(
        "event fleet: num_servers must fit 32 bits (typed event ids)");
  }
  if (config_.gateway_latency.value() < 0.0 ||
      config_.region_latency.value() < 0.0 ||
      config_.root_latency.value() < 0.0) {
    return Error::invalid_argument(
        "event fleet: tier latencies must be >= 0");
  }
  if (config_.virtual_population) {
    if (sys.net.lan.loss_probability != 0.0) {
      return Error::invalid_argument(
          "event fleet: virtual population requires a loss-free LAN "
          "(per-server channel RNG streams are never materialized)");
    }
    if (sys.iot_collection) {
      return Error::invalid_argument(
          "event fleet: virtual population cannot simulate per-device IoT "
          "collection (device fleets are never materialized)");
    }
    if (config_.data_pool_shards == 0 ||
        config_.data_pool_shards >= sys.num_servers) {
      return Error::invalid_argument(
          "event fleet: virtual population requires data pooling "
          "(0 < data_pool_shards < num_servers)");
    }
  }
  if (config_.gateway_contention) {
    if (sys.lan_contention == FeiSystemConfig::LanContention::kCsma) {
      return Error::invalid_argument(
          "event fleet: gateway contention models FCFS segments only");
    }
    if (fault_injection_active()) {
      return Error::invalid_argument(
          "event fleet: gateway contention does not support fault "
          "injection");
    }
  }
  if (fault_injection_active() &&
      sys.lan_contention == FeiSystemConfig::LanContention::kCsma) {
    return Error::invalid_argument(
        "fleet: link fault injection models FCFS LAN contention only");
  }
  if (config_.multi_hop) {
    if (sys.lan_contention == FeiSystemConfig::LanContention::kCsma) {
      return Error::invalid_argument(
          "event fleet: multi-hop backhaul models FCFS access only");
    }
    if (config_.gateway_contention) {
      return Error::invalid_argument(
          "event fleet: multi_hop and gateway_contention are exclusive "
          "backhaul models");
    }
    if (fault_injection_active()) {
      return Error::invalid_argument(
          "event fleet: multi-hop backhaul does not support fault "
          "injection");
    }
    if (const auto st = config_.gateway_uplink.validate(); !st.ok()) {
      return st;
    }
    if (const auto st = config_.backhaul_uplink.validate(); !st.ok()) {
      return st;
    }
  }
  return Status::success();
}

Status EventFleetEngine::prepare() {
  if (prepared_) return Status::success();
  if (const auto st = validate(); !st.ok()) return st;
  PopulationConfig pop = population_config_for(config_.system);
  pop.data_pool_shards = config_.data_pool_shards;
  pop.materialize_world = !config_.virtual_population;
  pool_ = ThreadPool::acquire(config_.system.fl.threads, owned_pool_);
  if (const auto st = population_.build(pop, pool_); !st.ok()) return st;
  prepared_ = true;
  return Status::success();
}

void EventFleetEngine::for_each_server_sharded(
    const std::function<void(std::size_t)>& fn) {
  const std::size_t n = config_.system.num_servers;
  const std::size_t shard = std::max<std::size_t>(1, config_.shard_size);
  const std::size_t num_shards = (n + shard - 1) / shard;
  auto run_shard = [&](std::size_t s) {
    const std::size_t lo = s * shard;
    const std::size_t hi = std::min(n, lo + shard);
    for (std::size_t k = lo; k < hi; ++k) fn(k);
  };
  if (pool_ != nullptr && num_shards > 1) {
    pool_->parallel_for(num_shards, run_shard);
  } else {
    for (std::size_t s = 0; s < num_shards; ++s) run_shard(s);
  }
}

// The whole simulation.  Every event is a POD FleetEvent dispatched through
// the switch below; by-value state rides in the event's t0/t1/t2 fields and
// shared state is read from the engine's round state at fire time, so the
// event order, every floating-point expression and every RNG draw are a
// pure function of the configuration.
Result<EventFleetRunResult> EventFleetEngine::run() {
  if (const auto st = prepare(); !st.ok()) return st.error();
  const FeiSystemConfig& sys = config_.system;
  const std::size_t n_servers = sys.num_servers;
  const bool faults = fault_injection_active();
  const bool virtual_pop = config_.virtual_population;
  const bool charge_idle = sys.charge_idle_servers;

  EventFleetRunResult result;
  result.ledger = energy::EnergyLedger(n_servers);
  if (config_.per_server_accumulators) {
    result.accumulators.assign(n_servers,
                               energy::CompactEnergyAccumulator(sys.profile));
  }

  fl::TierPlan tier_plan(n_servers, config_.tiers);
  result.num_gateways = tier_plan.num_gateways();
  result.num_regions = tier_plan.num_regions();

  // Sampled full-timeline mirrors, evenly spaced over the fleet, found
  // through a hash map instead of an O(N) mirror index array.
  const std::size_t n_sampled = std::min(config_.sampled_timelines, n_servers);
  std::unordered_map<std::size_t, std::uint32_t> mirror_of;
  std::vector<EdgeServerSim> mirrors;
  mirrors.reserve(n_sampled);
  if (n_sampled > 0) {
    const std::size_t stride = n_servers / n_sampled;
    for (std::size_t k = 0; k < n_sampled; ++k) {
      const std::size_t sid = k * stride;
      mirror_of.emplace(sid, static_cast<std::uint32_t>(mirrors.size()));
      result.sampled_servers.push_back(sid);
      mirrors.emplace_back(sid, sys.profile);
    }
  }

  obs::Tracer* const tracer = obs::tracer();

  // Trace-track sampling: a bounded, deterministic subset of the mirrors
  // owns a pseudo-process track; the rest keep full timelines but stay
  // mute.  Coordinator/tier lanes are always on.  This is the fix for the
  // O(N) track-name loop: naming is driven by the sampled set, never by
  // the server count.
  const obs::TrackSampler track_sampler(mirrors.size(), config_.trace_tracks);
  std::unordered_set<std::size_t> tracked_sids;
  tracked_sids.reserve(track_sampler.size() * 2);
  for (const std::size_t mi : track_sampler.ids()) {
    tracked_sids.insert(result.sampled_servers[mi]);
  }
  for (std::size_t mi = 0; mi < mirrors.size(); ++mi) {
    mirrors[mi].set_traced(track_sampler.contains(mi));
  }

  std::unordered_set<std::int32_t> named_tracks;
  auto name_track = [&](std::int32_t pid, std::string name) {
    if (tracer != nullptr && named_tracks.insert(pid).second) {
      tracer->set_track_name(pid, std::move(name));
    }
  };
  if (tracer != nullptr) {
    name_track(obs::Tracer::kCoordinatorPid, "coordinator");
    name_track(obs::Tracer::kTierRootPid, "fleet_root");
    for (const std::size_t mi : track_sampler.ids()) {
      const std::size_t sid = result.sampled_servers[mi];
      name_track(obs::Tracer::server_pid(sid),
                 "edge_server_" + std::to_string(sid));
    }
  }
  // Telemetry handles are resolved once per run (registry lookups are
  // mutex + map — too hot for per-event or per-round paths).  All of these
  // are null/unused when telemetry is off, and recording into them only
  // READS sim state, so the non-perturbation contract holds.
  obs::QuantileSketch* sk_round_s = nullptr;     // per-round makespan
  obs::QuantileSketch* sk_wait_s = nullptr;      // per-upload queue wait
  obs::QuantileSketch* sk_turnaround_s = nullptr;  // dispatch->delivered
  obs::QuantileSketch* sk_joules = nullptr;      // per-server run total
  obs::QuantileSketch* sk_link_wait_s = nullptr;  // per-hop queueing delay
  std::array<obs::Counter*, energy::kNumEnergyCategories> energy_counters{};
  std::array<double, energy::kNumEnergyCategories> prev_energy{};
  if (obs::Telemetry* tel = obs::telemetry()) {
    tel->metrics.gauge("fleet.servers").set(static_cast<double>(n_servers));
    tel->metrics.gauge("fleet.gateways")
        .set(static_cast<double>(result.num_gateways));
    tel->metrics.gauge("fleet.regions")
        .set(static_cast<double>(result.num_regions));
    sk_round_s = &tel->metrics.sketch("fleet.round.seconds");
    sk_wait_s = &tel->metrics.sketch("fleet.upload.wait_s");
    sk_turnaround_s = &tel->metrics.sketch("fleet.server.turnaround_s");
    sk_joules = &tel->metrics.sketch("fleet.server.joules");
    if (config_.multi_hop) {
      // Registered only for multi-hop runs so point-to-point runs keep
      // their exact pre-existing sketch export set.
      sk_link_wait_s = &tel->metrics.sketch("fleet.link.wait_s");
    }
    for (std::size_t c = 0; c < energy::kNumEnergyCategories; ++c) {
      energy_counters[c] = &tel->metrics.counter(
          std::string("energy.joules.") +
          energy::to_string(static_cast<energy::EnergyCategory>(c)));
      prev_energy[c] = energy_counters[c]->value();
    }
  }

  // One row of the round time-series, appended O(1) per round by every
  // round path.  Per-category joules come from the energy.joules.* counter
  // deltas (idle settlement is lazy, so non-selected servers' waiting
  // energy lands in the rounds where it is folded, i.e. at end of run).
  auto append_round_stats = [&](obs::Telemetry* tel, obs::RoundStats rs) {
    double total = 0.0;
    std::array<double*, energy::kNumEnergyCategories> cols = {
        &rs.energy_data_collection_j, &rs.energy_waiting_j,
        &rs.energy_download_j,        &rs.energy_training_j,
        &rs.energy_upload_j,          &rs.energy_retry_j,
        &rs.energy_aborted_j};
    for (std::size_t c = 0; c < energy::kNumEnergyCategories; ++c) {
      const double now = energy_counters[c]->value();
      *cols[c] = now - prev_energy[c];
      total += now - prev_energy[c];
      prev_energy[c] = now;
    }
    rs.energy_j = total;
    if (sk_round_s != nullptr) sk_round_s->record(rs.duration_s);
    tel->rounds.append(rs);
  };

  const bool track_accumulators = config_.per_server_accumulators;
  auto run_phase = [&](std::size_t sid, energy::EdgeState state, Seconds start,
                       Seconds duration) {
    if (track_accumulators) {
      result.accumulators[sid].run_phase(state, start, duration);
    }
    if (const auto it = mirror_of.find(sid); it != mirror_of.end()) {
      mirrors[it->second].run_phase(state, start, duration);
    }
  };

  const std::size_t param_count = sys.model.parameter_count();
  net::Message down_msg;
  down_msg.payload_bytes = ml::wire_size(param_count);
  net::Message up_msg = down_msg;
  if (ml::valid_quant_bits(sys.upload_quant_bits)) {
    up_msg.payload_bytes =
        ml::quantized_wire_size(param_count, sys.upload_quant_bits);
  }

  // Same seed derivations as FeiSystem; the dispatch scan consumes these
  // streams serially in selection order, so a fault-free materialized run
  // matches the reference engine bit for bit.
  Rng jitter_rng(sys.seed * 104729 + 5);
  Rng straggler_rng(sys.seed * 15485863 + 7);
  net::CsmaCell csma(sys.csma, Rng(sys.seed * 48611 + 9));
  auto jittered = [&](Seconds nominal) {
    if (sys.timing_jitter <= 0.0) return nominal;
    const double f =
        std::max(0.5, 1.0 + jitter_rng.normal(0.0, sys.timing_jitter));
    return nominal * f;
  };
  std::vector<double> persistent_slowdown;
  if (sys.straggler_persistent && sys.straggler_fraction > 0.0) {
    // Same draws as FeiSystem; the O(N) array only exists when the knob
    // is on (it is one of the few remaining per-server allocations).
    persistent_slowdown.assign(n_servers, 1.0);
    for (auto& f : persistent_slowdown) {
      if (straggler_rng.bernoulli(sys.straggler_fraction)) {
        f = std::max(1.0, sys.straggler_slowdown);
      }
    }
  }
  auto straggler_factor = [&](std::size_t sid) {
    if (sys.straggler_fraction <= 0.0) return 1.0;
    if (sys.straggler_persistent) return persistent_slowdown[sid];
    return straggler_rng.bernoulli(sys.straggler_fraction)
               ? std::max(1.0, sys.straggler_slowdown)
               : 1.0;
  };

  // Virtual mode never materializes per-server channels: every server
  // shares the WifiLanConfig, and with loss_probability == 0 a transfer's
  // duration IS the nominal duration (one attempt, no loss roll), so the
  // shared model reproduces the per-server objects' bits exactly.
  net::WifiLan shared_lan(sys.net.lan, Rng(0));
  struct LegTiming {
    Seconds duration{0.0};
    Seconds wasted{0.0};  // retransmitted share (materialized lossy LAN)
  };
  auto down_leg = [&](std::size_t sid) -> LegTiming {
    if (virtual_pop) {
      return {shared_lan.nominal_duration(down_msg.wire_bytes()),
              Seconds{0.0}};
    }
    const auto r = population_.topology().lan(sid).transfer(down_msg);
    return {r.duration, r.wasted};
  };
  auto up_leg = [&](std::size_t sid) -> LegTiming {
    if (virtual_pop) {
      return {shared_lan.nominal_duration(up_msg.wire_bytes()), Seconds{0.0}};
    }
    const auto r = population_.topology().lan(sid).transfer(up_msg);
    return {r.duration, r.wasted};
  };
  // Retransmitted share of the jittered leg duration: scaled, never
  // re-rolled — jittered() consumes exactly one normal per leg either way.
  auto wasted_share = [](Seconds scaled, const LegTiming& leg) -> Seconds {
    if (leg.wasted.value() <= 0.0) return Seconds{0.0};
    return scaled * (leg.wasted / leg.duration);
  };
  auto nominal_duration = [&](std::size_t sid, Bytes bytes) -> Seconds {
    if (virtual_pop) return shared_lan.nominal_duration(bytes);
    return population_.topology().lan(sid).nominal_duration(bytes);
  };

  const Watts p_down = sys.profile.power(energy::EdgeState::kDownloading);
  const Watts p_train = sys.profile.power(energy::EdgeState::kTraining);
  const Watts p_up = sys.profile.power(energy::EdgeState::kUploading);
  const Watts p_wait = sys.profile.power(energy::EdgeState::kWaiting);

  Seconds clock{0.0};
  std::size_t events_processed = 0;

  // Lazy idle settlement (see energy/idle_settlement.h): no O(N) sweep per
  // round.  Dense state instead of a hash map: settled_upto[sid] stores
  // (rounds already reflected in sid's row) + 1, 0 meaning never selected,
  // and settled_sids lists touched servers in first-touch order — so the
  // per-selection path never allocates and the end-of-run fold iterates
  // only touched servers (per-row charges, so order cannot change bits).
  energy::IdleChargeSchedule idle_schedule(p_wait);
  std::vector<std::uint32_t> settled_upto;
  std::vector<std::uint32_t> settled_sids;
  if (charge_idle) {
    settled_upto.assign(n_servers, 0);
    settled_sids.reserve(std::min<std::size_t>(
        n_servers, sys.fl.clients_per_round *
                       std::max<std::size_t>(1, sys.fl.max_rounds)));
  }
  auto settle_and_mark_active = [&](std::size_t sid) {
    std::uint32_t& s = settled_upto[sid];
    const auto charges = idle_schedule.per_round();
    if (s == 0) settled_sids.push_back(static_cast<std::uint32_t>(sid));
    for (std::size_t r = (s == 0 ? 0 : s - 1); r < charges.size(); ++r) {
      result.ledger.charge(sid, energy::EnergyCategory::kWaiting, charges[r]);
    }
    // +1 skips the round now starting: the server is active, not idle
    // (and +1 again for the 0-means-untouched encoding).
    s = static_cast<std::uint32_t>(charges.size() + 1) + 1;
  };

  // ---- typed event queue + per-round tier completion state --------------
  // Dense tier tables replace the per-round ordered maps: node state is
  // indexed by gateway/region id, and the per-round touched-id lists both
  // bound the reset cost to O(touched) and provide the deterministic
  // iteration order (sorted where it matters — the per-gateway merge).
  CalendarQueue<FleetEvent> queue;
  struct TierNodeState {
    std::size_t remaining = 0;  // children not yet resolved this round
    std::size_t members = 0;    // children active this round
    Seconds last{0.0};          // latest child resolution time
  };
  std::vector<TierNodeState> gw_nodes(tier_plan.num_gateways());
  std::vector<TierNodeState> rg_nodes(tier_plan.num_regions());
  std::vector<std::uint32_t> round_gw_ids;
  std::vector<std::uint32_t> round_rg_ids;
  std::size_t root_remaining = 0;
  Seconds root_last{0.0};
  Seconds root_done{0.0};
  Seconds round_start_time{0.0};
  std::size_t current_round = 0;

  auto root_member_resolved = [&](Seconds at) {
    root_last = std::max(root_last, at);
    if (--root_remaining == 0) {
      const Seconds done = root_last + config_.root_latency;
      queue.schedule_at(done, FleetEvent{FleetEventKind::kRootDone});
    }
  };
  auto region_member_resolved = [&](std::size_t rid, Seconds at) {
    TierNodeState& r = rg_nodes[rid];
    r.last = std::max(r.last, at);
    if (--r.remaining == 0) {
      const Seconds done = r.last + config_.region_latency;
      queue.schedule_at(done,
                        FleetEvent{FleetEventKind::kRegionDone,
                                   static_cast<std::uint32_t>(rid)});
    }
  };
  // A member "resolves" its gateway by uploading — or, on the fault path,
  // by definitively failing (crash, deadline, lost transfer): either way
  // the gateway knows it will hear nothing more from it this round.
  auto gateway_member_resolved = [&](std::size_t sid, Seconds at) {
    const std::size_t gid = tier_plan.gateway_of(sid);
    TierNodeState& g = gw_nodes[gid];
    g.last = std::max(g.last, at);
    if (--g.remaining == 0) {
      const Seconds done = g.last + config_.gateway_latency;
      queue.schedule_at(done,
                        FleetEvent{FleetEventKind::kGatewayDone,
                                   static_cast<std::uint32_t>(gid)});
    }
  };

  // ---- multi-hop backhaul graph -----------------------------------------
  // Tier plan → graph mapping: one gateway node per tier-plan gateway, one
  // backhaul node per region, one coordinator node; links follow the
  // aggregation tree.  At N = 1M the graph holds ~16k nodes — the device →
  // gateway leg stays the access-medium model (WifiLan/CSMA), so no O(N)
  // per-device nodes are ever materialized.
  net::NetGraph net_graph;
  net::Router router(&net_graph);
  std::vector<net::LinkQueue> link_queues;
  std::vector<std::size_t> gateway_node;
  std::size_t coordinator_node = 0;
  // Per-round link aggregates, maintained incrementally by hop_arrival;
  // touched_links dedups via a round epoch so round-end cost is O(touched),
  // never O(links).
  struct RoundLinkStats {
    std::size_t msgs = 0;
    std::size_t drops = 0;
    double wait_s = 0.0;
  };
  RoundLinkStats round_links;
  std::vector<double> link_busy_prev;  // cumulative busy at last round end
  std::vector<std::uint32_t> link_epoch;
  std::vector<std::size_t> touched_links;
  std::uint32_t round_epoch = 0;
  if (config_.multi_hop) {
    const std::size_t n_gateways = tier_plan.num_gateways();
    const std::size_t n_regions = tier_plan.num_regions();
    gateway_node.reserve(n_gateways);
    for (std::size_t g = 0; g < n_gateways; ++g) {
      gateway_node.push_back(net_graph.add_node(net::NodeKind::kGateway));
    }
    std::vector<std::size_t> region_node;
    region_node.reserve(n_regions);
    for (std::size_t r = 0; r < n_regions; ++r) {
      region_node.push_back(net_graph.add_node(net::NodeKind::kBackhaul));
    }
    coordinator_node = net_graph.add_node(net::NodeKind::kCoordinator);
    for (std::size_t g = 0; g < n_gateways; ++g) {
      const auto lid = net_graph.add_link(
          gateway_node[g], region_node[tier_plan.region_of_gateway(g)],
          config_.gateway_uplink);
      if (!lid.ok()) return lid.error();
    }
    for (std::size_t r = 0; r < n_regions; ++r) {
      const auto lid = net_graph.add_link(region_node[r], coordinator_node,
                                          config_.backhaul_uplink);
      if (!lid.ok()) return lid.error();
    }
    if (const auto st = router.add_destination(coordinator_node); !st.ok()) {
      return st.error();
    }
    link_queues.reserve(net_graph.num_links());
    for (std::size_t l = 0; l < net_graph.num_links(); ++l) {
      link_queues.emplace_back(net_graph.link(l).config);
    }
    link_busy_prev.assign(net_graph.num_links(), 0.0);
    link_epoch.assign(net_graph.num_links(), 0);
    result.num_links = net_graph.num_links();
    if (obs::Telemetry* tel = obs::telemetry()) {
      tel->metrics.gauge("fleet.links")
          .set(static_cast<double>(net_graph.num_links()));
    }
  }

  // Hop-by-hop forwarding: each admission schedules the next hop's arrival
  // as an event, so queueing delay accumulates along the path and
  // congestion emerges from the round's offered load.  Hop events charge
  // no energy and consume no RNG; with the default zero-config links every
  // admission is instantaneous (wait 0, arrive == at), which is why the
  // zero-config twin reproduces the point-to-point bits exactly.
  auto hop_arrival = [&](std::size_t node, std::size_t sid, Seconds at) {
    if (node == coordinator_node) {
      gateway_member_resolved(sid, at);
      return;
    }
    const std::size_t lid = router.next_link(node, coordinator_node);
    assert(lid != net::Router::kNoRoute);
    net::LinkQueue& lq = link_queues[lid];
    const auto adm = lq.offer(at, up_msg.wire_bytes());
    if (link_epoch[lid] != round_epoch) {
      link_epoch[lid] = round_epoch;
      touched_links.push_back(lid);
    }
    if (!adm.accepted) {
      // Bounded queue full: the update is lost in the backhaul.  The
      // member still resolves — at the drop time — so the tier chain
      // completes; observer-mode aggregation is never vetoed (drops
      // are a timing/telemetry outcome, like tier latencies).
      ++round_links.drops;
      gateway_member_resolved(sid, at);
      return;
    }
    ++round_links.msgs;
    round_links.wait_s += adm.wait.value();
    if (sk_link_wait_s != nullptr) {
      sk_link_wait_s->record(adm.wait.value());
    }
    const std::size_t next_node = net_graph.link(lid).to;
    queue.schedule_at(adm.arrive,
                      FleetEvent{FleetEventKind::kHopArrival,
                                 static_cast<std::uint32_t>(next_node),
                                 static_cast<std::uint32_t>(sid)});
  };

  // ---- round state shared by the dispatch switch ------------------------
  // Everything a closure handler used to capture by reference: the FCFS
  // chain, the round end watermark, the fault path's deadline/stats, the
  // selected updates span.  All round-scoped — every event fires inside
  // its own round's drain.
  Seconds lan_free{0.0};
  Seconds round_end{0.0};
  std::size_t uploads_pending = 0;
  const bool has_deadline = sys.round_deadline.value() > 0.0;
  Seconds deadline{0.0};
  fl::RoundFaultStats* fstats = nullptr;
  std::span<fl::LocalTrainResult> fupdates;

  auto begin_round = [&](std::size_t round,
                         std::span<const fl::ClientId> selected) {
    round_start_time = clock;
    current_round = round;
    deadline = round_start_time + sys.round_deadline;
    queue.reset_high_water();  // per-round queue-depth window
    for (const std::uint32_t gid : round_gw_ids) {
      gw_nodes[gid] = TierNodeState{};
    }
    for (const std::uint32_t rid : round_rg_ids) {
      rg_nodes[rid] = TierNodeState{};
    }
    round_gw_ids.clear();
    round_rg_ids.clear();
    // Direct dense fill of the round participation (the block arithmetic
    // TierPlan::participation() sorts into maps): per gateway the number
    // of selected members, per region the number of active gateways, at
    // the root the number of active regions — selection never repeats a
    // server, so counting occurrences equals counting distinct members.
    for (const auto sid : selected) {
      const std::size_t gid = tier_plan.gateway_of(sid);
      TierNodeState& g = gw_nodes[gid];
      if (g.members == 0) {
        round_gw_ids.push_back(static_cast<std::uint32_t>(gid));
        const std::size_t rid = tier_plan.region_of_gateway(gid);
        TierNodeState& r = rg_nodes[rid];
        if (r.members == 0) {
          round_rg_ids.push_back(static_cast<std::uint32_t>(rid));
        }
        ++r.members;
        ++r.remaining;
      }
      ++g.members;
      ++g.remaining;
    }
    root_remaining = round_rg_ids.size();
    root_last = Seconds{0.0};
    root_done = round_start_time;
    if (config_.multi_hop) {
      round_links = RoundLinkStats{};
      touched_links.clear();
      ++round_epoch;
    }
    if (charge_idle) {
      for (const auto sid : selected) settle_and_mark_active(sid);
    }
  };

  // Fault constants and processes: FeiSystem's fault filter, except that
  // transfer fault plans draw from per-(server, round) counted streams.
  const net::LinkFaultConfig link_faults = sys.net.link_faults;
  const RngStreamFamily fault_streams(
      link_faults.seed * 0x9e3779b97f4a7c15ULL + sys.seed * 7349 + 101);
  CrashProcessConfig crash_cfg = sys.crashes;
  crash_cfg.seed =
      crash_cfg.seed * 2862933555777941757ULL + sys.seed * 977 + 3;
  // CrashProcess keeps an O(N) timeline array — only pay for it when the
  // fault path is actually live.
  std::unique_ptr<CrashProcess> crash_process;
  if (faults) {
    crash_process = std::make_unique<CrashProcess>(n_servers, crash_cfg);
  }

  const auto trace_fault = [&](const char* name, std::size_t sid,
                               Seconds at) {
    if (tracked_sids.find(sid) == tracked_sids.end()) return;
    if (tracer != nullptr) {
      tracer->sim_instant(name, "sim.fault", obs::Tracer::server_pid(sid),
                          at);
    }
  };
  const auto note_end = [&](Seconds at) {
    round_end =
        std::max(round_end, has_deadline ? std::min(at, deadline) : at);
  };
  const auto plan_transfer = [&](std::size_t sid, bool upload,
                                 Seconds start, Seconds nominal) {
    Rng stream =
        fault_streams.stream(current_round, sid * 2 + (upload ? 1 : 0));
    return net::plan_faulty_transfer(stream, link_faults, start, nominal);
  };

  // ---- the typed dispatch -----------------------------------------------
  // One switch replaces the ~20 capturing-lambda handlers.  Per-kind field
  // mapping is documented in sim/fleet_event.h; each case is the former
  // closure body with `at` standing in for the value the closure recomputed
  // from its captures (bit-identical: the scheduled time IS that value, and
  // the engine's monotone round structure means the past-time clamp never
  // actually rewrites it).
  auto dispatch = [&](const FleetEvent& ev, Seconds at) {
    switch (ev.kind) {
      case FleetEventKind::kRootDone: {
        root_done = at;
        if (tracer != nullptr) {
          tracer->sim_span(
              "fleet.root.aggregate", "sim.tier", obs::Tracer::kTierRootPid,
              round_start_time, at - round_start_time,
              {{"round", static_cast<double>(current_round)}});
        }
        break;
      }
      case FleetEventKind::kRegionDone: {
        const std::size_t rid = ev.a;
        if (tracer != nullptr) {
          name_track(obs::Tracer::tier_region_pid(rid),
                     "fleet_region_" + std::to_string(rid));
          tracer->sim_span(
              "fleet.region.aggregate", "sim.tier",
              obs::Tracer::tier_region_pid(rid), round_start_time,
              at - round_start_time,
              {{"round", static_cast<double>(current_round)},
               {"gateways", static_cast<double>(rg_nodes[rid].members)}});
        }
        root_member_resolved(at);
        break;
      }
      case FleetEventKind::kGatewayDone: {
        const std::size_t gid = ev.a;
        if (tracer != nullptr) {
          name_track(obs::Tracer::tier_gateway_pid(gid),
                     "fleet_gateway_" + std::to_string(gid));
          tracer->sim_span(
              "fleet.gateway.aggregate", "sim.tier",
              obs::Tracer::tier_gateway_pid(gid), round_start_time,
              at - round_start_time,
              {{"round", static_cast<double>(current_round)},
               {"devices", static_cast<double>(gw_nodes[gid].members)}});
        }
        region_member_resolved(tier_plan.region_of_gateway(gid), at);
        break;
      }
      case FleetEventKind::kHopArrival: {
        hop_arrival(ev.a, ev.b, at);
        break;
      }
      case FleetEventKind::kDownloadDone: {
        const std::size_t sid = ev.a;
        const Seconds download_start = ev.t0;
        const Seconds d = ev.t1;
        const Seconds dw = ev.t2;
        run_phase(sid, energy::EdgeState::kDownloading, download_start, d);
        if (dw.value() > 0.0) {
          result.ledger.charge(sid, energy::EnergyCategory::kRetry,
                               p_down * dw);
          result.ledger.charge(sid, energy::EnergyCategory::kDownload,
                               p_down * (d - dw));
        } else {
          result.ledger.charge(sid, energy::EnergyCategory::kDownload,
                               p_down * d);
        }
        break;
      }
      case FleetEventKind::kEpochDone: {
        const std::size_t sid = ev.a;
        const Seconds train_start = ev.t0;
        const Seconds t = ev.t1;
        run_phase(sid, energy::EdgeState::kTraining, train_start, t);
        result.ledger.charge(sid, energy::EnergyCategory::kTraining,
                             p_train * t);
        const Seconds train_end = train_start + t;
        Seconds u{0.0};
        Seconds uw{0.0};
        Seconds upload_start = train_end;
        if (sys.lan_contention == FeiSystemConfig::LanContention::kCsma) {
          const auto r =
              csma.transfer(up_msg.wire_bytes(), uploads_pending - 1);
          u = jittered(r.duration);
        } else {
          const auto ul = up_leg(sid);
          u = jittered(ul.duration);
          uw = wasted_share(u, ul);
          upload_start = std::max(train_end, lan_free);
          const Seconds queue_wait = upload_start - train_end;
          lan_free = upload_start + u;
          if (queue_wait.value() > 0.0) {
            result.ledger.charge(sid, energy::EnergyCategory::kWaiting,
                                 p_wait * queue_wait);
          }
          if (sk_wait_s != nullptr) sk_wait_s->record(queue_wait.value());
        }
        --uploads_pending;
        queue.schedule_at(upload_start + u,
                          FleetEvent{FleetEventKind::kUploadDone,
                                     static_cast<std::uint32_t>(sid), 0,
                                     upload_start, u, uw});
        break;
      }
      case FleetEventKind::kUploadDone: {
        const std::size_t sid = ev.a;
        const Seconds upload_start = ev.t0;
        const Seconds u = ev.t1;
        const Seconds uw = ev.t2;
        run_phase(sid, energy::EdgeState::kUploading, upload_start, u);
        if (uw.value() > 0.0) {
          result.ledger.charge(sid, energy::EnergyCategory::kRetry,
                               p_up * uw);
          result.ledger.charge(sid, energy::EnergyCategory::kUpload,
                               p_up * (u - uw));
        } else {
          result.ledger.charge(sid, energy::EnergyCategory::kUpload,
                               p_up * u);
        }
        round_end = std::max(round_end, at);
        if (sk_turnaround_s != nullptr) {
          sk_turnaround_s->record((at - round_start_time).value());
        }
        if (config_.multi_hop) {
          hop_arrival(gateway_node[tier_plan.gateway_of(sid)], sid, at);
        } else {
          gateway_member_resolved(sid, at);
        }
        break;
      }
      case FleetEventKind::kFaultServerDown: {
        trace_fault("server.down", ev.a, round_start_time);
        gateway_member_resolved(ev.a, round_start_time);
        break;
      }
      case FleetEventKind::kFaultDeadlineDrop: {
        trace_fault("deadline.drop", ev.a, deadline);
        gateway_member_resolved(ev.a, deadline);
        break;
      }
      case FleetEventKind::kFaultDownloadCut: {
        const std::size_t sid = ev.a;
        const Seconds download_start = ev.t0;
        const Seconds cut = ev.t1;
        result.ledger.charge(sid, energy::EnergyCategory::kAborted,
                             p_down * cut);
        run_phase(sid, energy::EdgeState::kDownloading, download_start, cut);
        trace_fault("deadline.drop", sid, deadline);
        gateway_member_resolved(sid, deadline);
        break;
      }
      case FleetEventKind::kFaultDownloadLost: {
        const std::size_t sid = ev.a;
        const Seconds download_start = ev.t0;
        const Seconds air = ev.t1;
        result.ledger.charge(sid, energy::EnergyCategory::kAborted,
                             p_down * air);
        run_phase(sid, energy::EdgeState::kDownloading, download_start, air);
        trace_fault("update.lost", sid, at);
        gateway_member_resolved(sid, at);
        break;
      }
      case FleetEventKind::kFaultDownloadDone: {
        const std::size_t sid = ev.a;
        const Seconds download_start = ev.t0;
        const Seconds wasted = ev.t1;
        const Seconds air = ev.t2;
        result.ledger.charge(sid, energy::EnergyCategory::kRetry,
                             p_down * wasted);
        result.ledger.charge(sid, energy::EnergyCategory::kDownload,
                             p_down * (air - wasted));
        run_phase(sid, energy::EdgeState::kDownloading, download_start, air);
        break;
      }
      case FleetEventKind::kFaultTrainCrash: {
        const std::size_t sid = ev.a;
        const Seconds train_start = ev.t0;
        result.ledger.charge(sid, energy::EnergyCategory::kAborted,
                             p_train * (at - train_start));
        run_phase(sid, energy::EdgeState::kTraining, train_start,
                  at - train_start);
        trace_fault("server.crash", sid, at);
        gateway_member_resolved(sid, at);
        break;
      }
      case FleetEventKind::kFaultTrainDeadline: {
        const std::size_t sid = ev.a;
        const Seconds train_start = ev.t0;
        result.ledger.charge(sid, energy::EnergyCategory::kAborted,
                             p_train * (deadline - train_start));
        if (deadline > train_start) {
          run_phase(sid, energy::EdgeState::kTraining, train_start,
                    deadline - train_start);
        }
        trace_fault("deadline.drop", sid, deadline);
        gateway_member_resolved(sid, deadline);
        break;
      }
      case FleetEventKind::kFaultEpochDone: {
        // Book the full training phase, then run the upload leg against
        // the (event-ordered) FCFS chain — exactly a sorted
        // (train_end, index) drain, produced by the queue's FIFO.
        const std::size_t sid = ev.a;
        const Seconds train_start = ev.t0;
        const Seconds t = ev.t1;
        result.ledger.charge(sid, energy::EnergyCategory::kTraining,
                             p_train * t);
        run_phase(sid, energy::EdgeState::kTraining, train_start, t);
        auto& uu = fupdates[ev.b];
        const Seconds train_end = at;
        const Seconds upload_start = std::max(train_end, lan_free);
        const Seconds queue_wait_end =
            has_deadline ? std::min(upload_start, deadline) : upload_start;
        if (queue_wait_end > train_end) {
          result.ledger.charge(sid, energy::EnergyCategory::kWaiting,
                               p_wait * (queue_wait_end - train_end));
        }
        if (sk_wait_s != nullptr) {
          sk_wait_s->record((queue_wait_end - train_end).value());
        }
        if (has_deadline && upload_start >= deadline) {
          trace_fault("deadline.drop", sid, deadline);
          uu.aggregated = false;
          ++fstats->straggler_drops;
          note_end(deadline);
          gateway_member_resolved(sid, deadline);
          break;
        }
        const Seconds u1 =
            jittered(nominal_duration(sid, up_msg.wire_bytes()));
        const auto up = plan_transfer(sid, /*upload=*/true, upload_start, u1);
        fstats->retries += up.attempts - 1;
        lan_free = has_deadline ? std::min(up.finish, deadline) : up.finish;
        if (has_deadline && up.finish > deadline) {
          const double frac =
              (deadline - upload_start) / (up.finish - upload_start);
          const Seconds cut = up.air_time * std::clamp(frac, 0.0, 1.0);
          queue.schedule_at(deadline,
                            FleetEvent{FleetEventKind::kFaultUploadCut,
                                       static_cast<std::uint32_t>(sid), 0,
                                       upload_start, cut});
          uu.aggregated = false;
          ++fstats->straggler_drops;
          note_end(deadline);
          break;
        }
        if (!up.delivered) {
          queue.schedule_at(up.finish,
                            FleetEvent{FleetEventKind::kFaultUploadLost,
                                       static_cast<std::uint32_t>(sid), 0,
                                       upload_start, up.air_time});
          uu.aggregated = false;
          ++fstats->aborted_updates;
          note_end(up.finish);
          break;
        }
        // upload-done: delivery books the phase and resolves the tier.
        queue.schedule_at(up.finish,
                          FleetEvent{FleetEventKind::kFaultUploadDone,
                                     static_cast<std::uint32_t>(sid), 0,
                                     upload_start, up.wasted_air_time,
                                     up.air_time});
        note_end(up.finish);
        break;
      }
      case FleetEventKind::kFaultUploadCut: {
        const std::size_t sid = ev.a;
        const Seconds upload_start = ev.t0;
        const Seconds cut = ev.t1;
        result.ledger.charge(sid, energy::EnergyCategory::kAborted,
                             p_up * cut);
        run_phase(sid, energy::EdgeState::kUploading, upload_start, cut);
        trace_fault("deadline.drop", sid, deadline);
        gateway_member_resolved(sid, deadline);
        break;
      }
      case FleetEventKind::kFaultUploadLost: {
        const std::size_t sid = ev.a;
        const Seconds upload_start = ev.t0;
        const Seconds air = ev.t1;
        result.ledger.charge(sid, energy::EnergyCategory::kAborted,
                             p_up * air);
        run_phase(sid, energy::EdgeState::kUploading, upload_start, air);
        trace_fault("update.lost", sid, at);
        gateway_member_resolved(sid, at);
        break;
      }
      case FleetEventKind::kFaultUploadDone: {
        const std::size_t sid = ev.a;
        const Seconds upload_start = ev.t0;
        const Seconds wasted = ev.t1;
        const Seconds air = ev.t2;
        result.ledger.charge(sid, energy::EnergyCategory::kRetry,
                             p_up * wasted);
        result.ledger.charge(sid, energy::EnergyCategory::kUpload,
                             p_up * (air - wasted));
        run_phase(sid, energy::EdgeState::kUploading, upload_start, air);
        if (sk_turnaround_s != nullptr) {
          sk_turnaround_s->record((at - round_start_time).value());
        }
        gateway_member_resolved(sid, at);
        break;
      }
      case FleetEventKind::kGwDownloadDone:
      case FleetEventKind::kGwEpochDone:
      case FleetEventKind::kGwUploadDone: {
        // Gateway-local events dispatch on the per-gateway queues, never
        // the global one.
        assert(false);
        break;
      }
    }
  };

  // --- Fault-free round simulation: one shared LAN, global event queue ---
  // Equivalence with FeiSystem's upload drain: epoch-done events fire in
  // (train_end, FIFO) order and FIFO order equals selection-index order, so
  // the upload legs consume jitter_rng / csma / lan_free in exactly the
  // (train_end, index) order of an explicit sort.
  auto observer = [&](const fl::RoundRecord& record,
                      std::span<const fl::LocalTrainResult> updates) {
    begin_round(record.round, record.selected);
    const Seconds round_start = round_start_time;
    lan_free = round_start;
    round_end = round_start;
    uploads_pending = record.selected.size();

    for (std::size_t i = 0; i < record.selected.size(); ++i) {
      const std::size_t sid = record.selected[i];
      const std::size_t n_k = updates[i].samples_used;

      if (sys.iot_collection) {
        const auto collected = population_.topology().fleet(sid).collect(n_k);
        if (collected.wasted_energy.value() > 0.0) {
          result.ledger.charge(sid, energy::EnergyCategory::kRetry,
                               collected.wasted_energy);
          result.ledger.charge(
              sid, energy::EnergyCategory::kDataCollection,
              collected.total_energy - collected.wasted_energy);
        } else {
          result.ledger.charge(sid, energy::EnergyCategory::kDataCollection,
                               collected.total_energy);
        }
      }

      const auto dl = down_leg(sid);
      const Seconds d = jittered(dl.duration);
      const Seconds dw = wasted_share(d, dl);
      const Seconds download_start = lan_free;
      lan_free += d;
      Seconds t = jittered(sys.timing.duration(record.local_epochs, n_k));
      t *= straggler_factor(sid);

      // download-done: book the reception phase on the event boundary.
      queue.schedule_at(download_start + d,
                        FleetEvent{FleetEventKind::kDownloadDone,
                                   static_cast<std::uint32_t>(sid), 0,
                                   download_start, d, dw});

      // epoch-done: book training, then resolve this upload's contention
      // at its actual completion time (the dispatch schedules upload-done).
      const Seconds train_start = download_start + d;
      queue.schedule_at(train_start + t,
                        FleetEvent{FleetEventKind::kEpochDone,
                                   static_cast<std::uint32_t>(sid), 0,
                                   train_start, t});
    }

    const std::size_t n_events = queue.run(dispatch);
    events_processed += n_events;
    result.queue_high_water =
        std::max(result.queue_high_water, queue.high_water());
    clock = std::max(std::max(round_end, lan_free), root_done);

    // Per-round link utilization: busy-time delta over the round span,
    // maxed across the links this round actually touched.
    double link_util_max = 0.0;
    if (config_.multi_hop) {
      const double span = (clock - round_start).value();
      for (const std::size_t lid : touched_links) {
        const double busy = link_queues[lid].stats().busy.value();
        if (span > 0.0) {
          link_util_max = std::max(
              link_util_max,
              std::min(1.0, (busy - link_busy_prev[lid]) / span));
        }
        link_busy_prev[lid] = busy;
      }
      result.link_messages += round_links.msgs;
      result.link_drops += round_links.drops;
      result.link_wait += Seconds{round_links.wait_s};
      result.link_util_peak =
          std::max(result.link_util_peak, link_util_max);
    }

    if (charge_idle) idle_schedule.push_round(clock - round_start);

    if (obs::Telemetry* tel = obs::telemetry()) {
      tel->tracer.sim_span(
          "round", "sim.round", obs::Tracer::kCoordinatorPid, round_start,
          clock - round_start,
          {{"round", static_cast<double>(record.round)},
           {"selected", static_cast<double>(record.selected.size())},
           {"accuracy", record.test_accuracy},
           {"loss", record.global_loss}});
      tel->metrics.counter("fleet.rounds").increment();
      tel->metrics.counter("fleet.selected")
          .add(static_cast<double>(record.selected.size()));
      tel->metrics.counter("fleet.events")
          .add(static_cast<double>(n_events));
      obs::RoundStats rs;
      rs.round = static_cast<double>(record.round);
      rs.start_s = round_start.value();
      rs.duration_s = (clock - round_start).value();
      rs.selected = static_cast<double>(record.selected.size());
      rs.aggregated = static_cast<double>(record.updates_aggregated);
      rs.events = static_cast<double>(n_events);
      rs.queue_peak = static_cast<double>(queue.high_water());
      rs.gateways = static_cast<double>(round_gw_ids.size());
      rs.link_msgs = static_cast<double>(round_links.msgs);
      rs.link_wait_s = round_links.wait_s;
      rs.link_util_max = link_util_max;
      rs.link_drops = static_cast<double>(round_links.drops);
      append_round_stats(tel, rs);
    }
  };

  // --- Per-gateway contention mode ---------------------------------------
  // Each gateway is its own FCFS LAN segment, so the per-gateway event
  // streams are independent: they drain in PARALLEL across the thread
  // pool, each on a private typed queue, touching only its own members'
  // ledger rows / accumulators / mirrors.  All RNG (download, training,
  // upload jitter) is consumed at dispatch in selection order, so results
  // are byte-identical for any thread count; outcomes merge in ascending
  // gateway order.
  struct Job {
    std::size_t sid = 0;
    Seconds download_start{0.0};
    Seconds d{0.0};
    Seconds dw{0.0};  // retransmitted share of d
    Seconds t{0.0};
    Seconds u{0.0};
    Seconds uw{0.0};  // retransmitted share of u
  };
  // Dense per-gateway job lists + lan_free chain, reused across rounds
  // (grow-only: jobs vectors clear but keep capacity).  Allocated only in
  // gateway-contention mode.
  std::vector<std::vector<Job>> gw_jobs;
  std::vector<Seconds> gw_lan_free;
  if (config_.gateway_contention) {
    gw_jobs.resize(tier_plan.num_gateways());
    gw_lan_free.assign(tier_plan.num_gateways(), Seconds{0.0});
  }

  auto gateway_observer = [&](const fl::RoundRecord& record,
                              std::span<const fl::LocalTrainResult> updates) {
    begin_round(record.round, record.selected);
    const Seconds round_start = round_start_time;

    // Per-round gateway job grouping, ascending-gateway drain order.  The
    // touched-gateway list is exactly round_gw_ids (every selected member
    // contributes one job), sorted ascending for the deterministic merge.
    std::vector<std::uint32_t> active_gids(round_gw_ids);
    std::sort(active_gids.begin(), active_gids.end());
    for (std::size_t i = 0; i < record.selected.size(); ++i) {
      const std::size_t sid = record.selected[i];
      const std::size_t n_k = updates[i].samples_used;
      // The gateway drains below charge rows in parallel, and the ledger's
      // touched bitmap packs 64 servers per word: first touch happens here,
      // serially.  Nothing moves the baseline before the drains, so an
      // early materialize() copies the same values a lazy one would.
      result.ledger.materialize(sid);
      if (sys.iot_collection) {
        const auto collected = population_.topology().fleet(sid).collect(n_k);
        if (collected.wasted_energy.value() > 0.0) {
          result.ledger.charge(sid, energy::EnergyCategory::kRetry,
                               collected.wasted_energy);
          result.ledger.charge(
              sid, energy::EnergyCategory::kDataCollection,
              collected.total_energy - collected.wasted_energy);
        } else {
          result.ledger.charge(sid, energy::EnergyCategory::kDataCollection,
                               collected.total_energy);
        }
      }
      const std::size_t gid = tier_plan.gateway_of(sid);
      if (gw_jobs[gid].empty()) gw_lan_free[gid] = round_start;
      const auto dl = down_leg(sid);
      const Seconds d = jittered(dl.duration);
      const Seconds download_start = gw_lan_free[gid];
      gw_lan_free[gid] = download_start + d;
      Seconds t = jittered(sys.timing.duration(record.local_epochs, n_k));
      t *= straggler_factor(sid);
      const auto ul = up_leg(sid);
      const Seconds u = jittered(ul.duration);
      gw_jobs[gid].push_back({sid, download_start, d, wasted_share(d, dl), t,
                              u, wasted_share(u, ul)});
    }

    struct GatewayOutcome {
      Seconds done{0.0};
      std::size_t events = 0;
      std::size_t queue_peak = 0;
    };
    std::vector<GatewayOutcome> outcomes(active_gids.size());

    auto drain_gateway = [&](std::size_t gi) {
      const std::size_t gid = active_gids[gi];
      const std::vector<Job>& jobs = gw_jobs[gid];
      CalendarQueue<FleetEvent> local;
      // Uploads queue behind this gateway's downloads, like the shared
      // medium does globally.
      Seconds lf = gw_lan_free[gid];
      Seconds gw_end = round_start;
      auto local_dispatch = [&](const FleetEvent& lev, Seconds lat) {
        const Job& job = jobs[lev.a];
        switch (lev.kind) {
          case FleetEventKind::kGwDownloadDone: {
            run_phase(job.sid, energy::EdgeState::kDownloading,
                      job.download_start, job.d);
            if (job.dw.value() > 0.0) {
              result.ledger.charge(job.sid, energy::EnergyCategory::kRetry,
                                   p_down * job.dw);
              result.ledger.charge(job.sid,
                                   energy::EnergyCategory::kDownload,
                                   p_down * (job.d - job.dw));
            } else {
              result.ledger.charge(job.sid,
                                   energy::EnergyCategory::kDownload,
                                   p_down * job.d);
            }
            break;
          }
          case FleetEventKind::kGwEpochDone: {
            const Seconds train_start = job.download_start + job.d;
            run_phase(job.sid, energy::EdgeState::kTraining, train_start,
                      job.t);
            result.ledger.charge(job.sid, energy::EnergyCategory::kTraining,
                                 p_train * job.t);
            const Seconds train_end = lat;
            const Seconds upload_start = std::max(train_end, lf);
            const Seconds queue_wait = upload_start - train_end;
            lf = upload_start + job.u;
            if (queue_wait.value() > 0.0) {
              result.ledger.charge(job.sid, energy::EnergyCategory::kWaiting,
                                   p_wait * queue_wait);
            }
            if (sk_wait_s != nullptr) sk_wait_s->record(queue_wait.value());
            local.schedule_at(upload_start + job.u,
                              FleetEvent{FleetEventKind::kGwUploadDone,
                                         lev.a, 0, upload_start});
            break;
          }
          case FleetEventKind::kGwUploadDone: {
            const Seconds upload_start = lev.t0;
            run_phase(job.sid, energy::EdgeState::kUploading, upload_start,
                      job.u);
            if (job.uw.value() > 0.0) {
              result.ledger.charge(job.sid, energy::EnergyCategory::kRetry,
                                   p_up * job.uw);
              result.ledger.charge(job.sid, energy::EnergyCategory::kUpload,
                                   p_up * (job.u - job.uw));
            } else {
              result.ledger.charge(job.sid, energy::EnergyCategory::kUpload,
                                   p_up * job.u);
            }
            gw_end = std::max(gw_end, lat);
            if (sk_turnaround_s != nullptr) {
              sk_turnaround_s->record((lat - round_start).value());
            }
            break;
          }
          default:
            assert(false);
            break;
        }
      };
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        const Job& job = jobs[j];
        local.schedule_at(job.download_start + job.d,
                          FleetEvent{FleetEventKind::kGwDownloadDone,
                                     static_cast<std::uint32_t>(j)});
        const Seconds train_start = job.download_start + job.d;
        local.schedule_at(train_start + job.t,
                          FleetEvent{FleetEventKind::kGwEpochDone,
                                     static_cast<std::uint32_t>(j)});
      }
      outcomes[gi].events = local.run(local_dispatch);
      outcomes[gi].done = gw_end;
      outcomes[gi].queue_peak = local.high_water();
    };
    if (pool_ != nullptr && active_gids.size() > 1) {
      pool_->parallel_for(active_gids.size(), drain_gateway);
    } else {
      for (std::size_t gi = 0; gi < active_gids.size(); ++gi) {
        drain_gateway(gi);
      }
    }

    // Deterministic merge: ascending gateway order, independent of which
    // worker finished first.  Gateway completion feeds the same tier chain
    // the global mode uses (its events drain on the global queue).
    round_end = round_start;
    std::size_t n_events = 0;
    for (std::size_t gi = 0; gi < active_gids.size(); ++gi) {
      n_events += outcomes[gi].events;
      round_end = std::max(round_end, outcomes[gi].done);
      TierNodeState& g = gw_nodes[active_gids[gi]];
      g.remaining = 1;  // resolve the whole gateway at once
      gateway_member_resolved(
          tier_plan.first_member_of_gateway(active_gids[gi]),
          outcomes[gi].done);
    }
    n_events += queue.run(dispatch);
    events_processed += n_events;
    clock = std::max(round_end, root_done);

    std::size_t peak = queue.high_water();
    for (const auto& o : outcomes) peak = std::max(peak, o.queue_peak);
    result.queue_high_water = std::max(result.queue_high_water, peak);

    // Round teardown: release the job lists (capacity retained).
    for (const std::uint32_t gid : active_gids) gw_jobs[gid].clear();

    if (charge_idle) idle_schedule.push_round(clock - round_start);

    if (obs::Telemetry* tel = obs::telemetry()) {
      tel->tracer.sim_span(
          "round", "sim.round", obs::Tracer::kCoordinatorPid, round_start,
          clock - round_start,
          {{"round", static_cast<double>(record.round)},
           {"selected", static_cast<double>(record.selected.size())},
           {"gateways", static_cast<double>(active_gids.size())},
           {"loss", record.global_loss}});
      tel->metrics.counter("fleet.rounds").increment();
      tel->metrics.counter("fleet.selected")
          .add(static_cast<double>(record.selected.size()));
      tel->metrics.counter("fleet.events")
          .add(static_cast<double>(n_events));
      obs::RoundStats rs;
      rs.round = static_cast<double>(record.round);
      rs.start_s = round_start.value();
      rs.duration_s = (clock - round_start).value();
      rs.selected = static_cast<double>(record.selected.size());
      rs.aggregated = static_cast<double>(record.updates_aggregated);
      rs.events = static_cast<double>(n_events);
      rs.queue_peak = static_cast<double>(peak);
      rs.gateways = static_cast<double>(active_gids.size());
      append_round_stats(tel, rs);
    }
  };

  // --- Fault-mode round simulation ---------------------------------------
  // The control flow (what fails, when, what it costs) is FeiSystem's
  // fault filter — the timing plan is computed in the dispatch
  // scan because the FCFS lan_free chain needs it — but every energy
  // booking now lands on its event boundary: download-done, epoch-done,
  // upload-done, server-crash, deadline truncations and lost transfers all
  // fire as queue events, and each failure resolves its aggregation tier
  // (a reboot is implicit: CrashProcess's down interval ends and the
  // server is selectable again).
  auto fault_filter = [&](std::size_t round,
                          std::span<const fl::ClientId> selected,
                          std::span<fl::LocalTrainResult> updates)
      -> fl::RoundFaultStats {
    begin_round(round, selected);
    fl::RoundFaultStats stats;
    fstats = &stats;
    fupdates = updates;
    const Seconds round_start = round_start_time;

    lan_free = round_start;
    round_end = round_start;

    for (std::size_t i = 0; i < selected.size(); ++i) {
      const std::size_t sid = selected[i];
      auto& u = updates[i];

      if (sys.iot_collection) {
        const auto collected =
            population_.topology().fleet(sid).collect(u.samples_used);
        result.ledger.charge(sid, energy::EnergyCategory::kDataCollection,
                             collected.total_energy);
      }

      if (crash_process->is_down(sid, round_start)) {
        queue.schedule_at(round_start,
                          FleetEvent{FleetEventKind::kFaultServerDown,
                                     static_cast<std::uint32_t>(sid)});
        u.aggregated = false;
        ++stats.crashed_servers;
        continue;
      }

      const Seconds download_start = lan_free;
      if (has_deadline && download_start >= deadline) {
        queue.schedule_at(deadline,
                          FleetEvent{FleetEventKind::kFaultDeadlineDrop,
                                     static_cast<std::uint32_t>(sid)});
        u.aggregated = false;
        ++stats.straggler_drops;
        note_end(deadline);
        continue;
      }
      const Seconds d1 =
          jittered(nominal_duration(sid, down_msg.wire_bytes()));
      const auto down = plan_transfer(sid, /*upload=*/false, download_start,
                                      d1);
      stats.retries += down.attempts - 1;
      lan_free = has_deadline ? std::min(down.finish, deadline) : down.finish;
      if (has_deadline && down.finish > deadline) {
        const double frac =
            (deadline - download_start) / (down.finish - download_start);
        const Seconds cut = down.air_time * std::clamp(frac, 0.0, 1.0);
        queue.schedule_at(deadline,
                          FleetEvent{FleetEventKind::kFaultDownloadCut,
                                     static_cast<std::uint32_t>(sid), 0,
                                     download_start, cut});
        u.aggregated = false;
        ++stats.straggler_drops;
        note_end(deadline);
        continue;
      }
      if (!down.delivered) {
        queue.schedule_at(down.finish,
                          FleetEvent{FleetEventKind::kFaultDownloadLost,
                                     static_cast<std::uint32_t>(sid), 0,
                                     download_start, down.air_time});
        u.aggregated = false;
        ++stats.aborted_updates;
        note_end(down.finish);
        continue;
      }
      // download-done (possibly with retried attempts folded in).
      queue.schedule_at(down.finish,
                        FleetEvent{FleetEventKind::kFaultDownloadDone,
                                   static_cast<std::uint32_t>(sid), 0,
                                   download_start, down.wasted_air_time,
                                   down.air_time});

      const Seconds train_start = down.finish;
      Seconds t = jittered(sys.timing.duration(u.epochs_run, u.samples_used));
      t *= straggler_factor(sid);
      const Seconds train_end = train_start + t;
      const Seconds train_cap =
          has_deadline ? std::min(train_end, deadline) : train_end;
      if (const auto crash =
              crash_process->next_crash_in(sid, train_start, train_cap)) {
        queue.schedule_at(*crash,
                          FleetEvent{FleetEventKind::kFaultTrainCrash,
                                     static_cast<std::uint32_t>(sid), 0,
                                     train_start});
        u.aggregated = false;
        ++stats.crashed_servers;
        note_end(*crash);
        continue;
      }
      if (has_deadline && train_end > deadline) {
        queue.schedule_at(deadline,
                          FleetEvent{FleetEventKind::kFaultTrainDeadline,
                                     static_cast<std::uint32_t>(sid), 0,
                                     train_start});
        u.aggregated = false;
        ++stats.straggler_drops;
        note_end(deadline);
        continue;
      }

      // epoch-done: the dispatch books training and runs the upload leg.
      queue.schedule_at(train_end,
                        FleetEvent{FleetEventKind::kFaultEpochDone,
                                   static_cast<std::uint32_t>(sid),
                                   static_cast<std::uint32_t>(i),
                                   train_start, t});
    }

    const std::size_t n_events = queue.run(dispatch);
    events_processed += n_events;
    result.queue_high_water =
        std::max(result.queue_high_water, queue.high_water());
    clock = std::max(std::max(round_end, round_start), root_done);
    fstats = nullptr;
    fupdates = {};

    if (charge_idle) idle_schedule.push_round(clock - round_start);

    if (obs::Telemetry* tel = obs::telemetry()) {
      tel->tracer.sim_span(
          "round", "sim.round", obs::Tracer::kCoordinatorPid, round_start,
          clock - round_start,
          {{"round", static_cast<double>(round)},
           {"selected", static_cast<double>(selected.size())},
           {"retries", static_cast<double>(stats.retries)},
           {"dropped", static_cast<double>(stats.straggler_drops +
                                           stats.aborted_updates +
                                           stats.crashed_servers)}});
      tel->metrics.counter("fleet.rounds").increment();
      tel->metrics.counter("fleet.selected")
          .add(static_cast<double>(selected.size()));
      tel->metrics.counter("fleet.events")
          .add(static_cast<double>(n_events));
      obs::RoundStats rs;
      rs.round = static_cast<double>(round);
      rs.start_s = round_start.value();
      rs.duration_s = (clock - round_start).value();
      rs.selected = static_cast<double>(selected.size());
      rs.aggregated = static_cast<double>(
          selected.size() - stats.crashed_servers - stats.straggler_drops -
          stats.aborted_updates);
      rs.stragglers = static_cast<double>(stats.straggler_drops);
      rs.crashes = static_cast<double>(stats.crashed_servers);
      rs.retries = static_cast<double>(stats.retries);
      rs.aborted = static_cast<double>(stats.aborted_updates);
      rs.events = static_cast<double>(n_events);
      rs.queue_peak = static_cast<double>(queue.high_water());
      rs.gateways = static_cast<double>(round_gw_ids.size());
      append_round_stats(tel, rs);
    }
    return stats;
  };

  // ---- coordinator wiring ------------------------------------------------
  fl::CoordinatorConfig fl_cfg = sys.fl;
  fl_cfg.upload_quant_bits = sys.upload_quant_bits;
  fl_cfg.update_drop_probability = sys.update_drop_probability;
  fl_cfg.drop_seed = sys.seed * 2654435761 + 13;
  // Batches view Population-owned shard storage — immutable and
  // address-stable for the run — so repeat selections of pooled shards can
  // reuse their packed feature rows across rounds (bit-identical; see
  // ModelBank::set_pack_cache).
  fl_cfg.pack_cache = true;
  std::unique_ptr<fl::SelectionPolicy> policy;
  if (config_.scalable_selection) {
    policy = std::make_unique<fl::ScalableUniformSelection>(
        Rng(sys.seed * 613 + 29));
  } else {
    policy = std::make_unique<fl::UniformRandomSelection>(
        Rng(sys.seed * 613 + 29));
  }

  std::unique_ptr<fl::ClientPool> clients;
  if (virtual_pop) {
    fl::ClientConfig ccfg;
    ccfg.model = sys.model;
    ccfg.sgd = sys.sgd;
    clients = std::make_unique<fl::LazyClientPool>(
        n_servers, &population_.shards(), ccfg);
  } else {
    clients = std::make_unique<fl::DenseClientPool>(&population_.clients());
  }
  fl::Coordinator coordinator(clients.get(), &population_.test_set(), fl_cfg,
                              std::move(policy));
  if (faults) {
    coordinator.set_update_filter(fault_filter);
  } else if (config_.gateway_contention) {
    coordinator.set_round_observer(gateway_observer);
  } else {
    coordinator.set_round_observer(observer);
  }

  auto outcome = coordinator.run();
  if (!outcome.ok()) return outcome.error();
  result.training = std::move(outcome).value();
  result.wall_clock = clock;
  result.events_processed = events_processed;
  for (const auto& r : result.training.record.all()) {
    result.total_retries += r.retries;
    result.total_aborted_updates += r.aborted_updates;
    result.total_straggler_drops += r.straggler_drops;
    result.total_crashed_servers += r.crashed_servers;
  }

  // ---- lazy idle settlement: bring every ledger row up to date ----------
  if (charge_idle) {
    const auto charges = idle_schedule.per_round();
    // Selected servers replay their outstanding idle rounds in round order
    // (per-row, so iteration order cannot change any bits).  materialize()
    // first: a server whose only selection ended in a pre-round crash may
    // have an empty replay AND no direct charges, and such a row must not
    // receive the never-selected bulk fold below.
    for (const std::uint32_t sid : settled_sids) {
      result.ledger.materialize(sid);
      for (std::size_t r = settled_upto[sid] - 1; r < charges.size(); ++r) {
        result.ledger.charge(sid, energy::EnergyCategory::kWaiting,
                             charges[r]);
      }
      settled_upto[sid] = static_cast<std::uint32_t>(charges.size()) + 1;
    }
    // Never-selected servers get the whole run's idle energy through the
    // ledger's shared baseline row: ONE O(1) add instead of the O(N)
    // per-row sweep (0.0 + x == x, so every readable value is bitwise what
    // the sweep produced).  Only the telemetry energy counter still wants
    // the per-server add sequence — traced runs pay an O(N) counter loop
    // to keep energy.joules.waiting bitwise equal to category_total.
    const Joules untouched_total = idle_schedule.all_rounds_total();
    if (obs::Telemetry* tel = obs::telemetry()) {
      obs::Counter& waiting = tel->metrics.counter(
          std::string("energy.joules.") +
          energy::to_string(energy::EnergyCategory::kWaiting));
      for_each_server_sharded([&](std::size_t sid) {
        if (settled_upto[sid] == 0) waiting.add(untouched_total.value());
      });
      tel->metrics.counter("fleet.idle_charges")
          .add(static_cast<double>(n_servers));
    }
    result.ledger.charge_untouched(energy::EnergyCategory::kWaiting,
                                   untouched_total);
  }

  // Joules-per-server distribution: one read-only sharded pass over the
  // settled ledger.  Telemetry-gated, so untraced runs never pay it; the
  // bulk recorder (one local bucket run per shard, no log per value) keeps
  // the traced N = 1M pass inside the 5% overhead budget.
  if (sk_joules != nullptr) {
    std::size_t stride = 1;
    if (const std::size_t cap = config_.joules_sample_cap;
        cap != 0 && n_servers > cap) {
      stride = n_servers / cap;
      if (stride % 2 == 0) ++stride;  // coprime with pow-2 pool periods
    }
    const std::size_t n_rec = (n_servers + stride - 1) / stride;
    const std::size_t shard = std::max<std::size_t>(1, config_.shard_size);
    const std::size_t n_sh = (n_rec + shard - 1) / shard;
    auto record_shard = [&](std::size_t s) {
      obs::QuantileSketch::BulkRecorder rec(*sk_joules);
      const std::size_t lo = s * shard;
      const std::size_t hi = std::min(n_rec, lo + shard);
      for (std::size_t k = lo; k < hi; ++k) {
        rec.record(result.ledger.server_total(k * stride).value());
      }
    };
    if (pool_ != nullptr && n_sh > 1) {
      pool_->parallel_for(n_sh, record_shard);
    } else {
      for (std::size_t s = 0; s < n_sh; ++s) record_shard(s);
    }
  }

  // Close every tracked timeline at the makespan.
  if (track_accumulators) {
    for_each_server_sharded(
        [&](std::size_t sid) { result.accumulators[sid].idle_until(clock); });
  }
  for (auto& m : mirrors) m.idle_until(clock);
  result.sampled_timelines.reserve(mirrors.size());
  for (auto& m : mirrors) result.sampled_timelines.push_back(m.timeline());

  return result;
}

}  // namespace eefei::sim
