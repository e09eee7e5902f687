#include "sim/fleet_engine.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <limits>
#include <string>
#include <unordered_set>

#include "common/rng.h"
#include "ml/quantize.h"
#include "ml/serialize.h"
#include "net/csma.h"
#include "net/fault.h"
#include "obs/telemetry.h"
#include "sim/fault_process.h"

namespace eefei::sim {

namespace {

constexpr std::uint32_t kNoMirror = std::numeric_limits<std::uint32_t>::max();

}  // namespace

FleetEngine::FleetEngine(FleetEngineConfig config)
    : config_(std::move(config)) {}

Status FleetEngine::prepare() {
  if (prepared_) return Status::success();
  PopulationConfig pop = population_config_for(config_.system);
  pop.data_pool_shards = config_.data_pool_shards;
  pool_ = ThreadPool::acquire(config_.system.fl.threads, owned_pool_);
  if (const auto st = population_.build(pop, pool_); !st.ok()) return st;
  prepared_ = true;
  return Status::success();
}

void FleetEngine::for_each_server_sharded(
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

Result<FleetRunResult> FleetEngine::run() {
  if (const auto st = prepare(); !st.ok()) return st.error();
  const FeiSystemConfig& sys = config_.system;
  const std::size_t n_servers = sys.num_servers;

  FleetRunResult result;
  result.ledger = energy::EnergyLedger(n_servers);
  result.accumulators.assign(n_servers,
                             energy::CompactEnergyAccumulator(sys.profile));

  // Sampled subset keeping full timelines: evenly spaced over the fleet so
  // a trace shows representative servers, not just the first few ids.
  const std::size_t n_sampled = std::min(config_.sampled_timelines, n_servers);
  std::vector<std::uint32_t> mirror_of(n_servers, kNoMirror);
  std::vector<EdgeServerSim> mirrors;
  mirrors.reserve(n_sampled);
  if (n_sampled > 0) {
    const std::size_t stride = n_servers / n_sampled;
    for (std::size_t k = 0; k < n_sampled; ++k) {
      const std::size_t sid = k * stride;
      mirror_of[sid] = static_cast<std::uint32_t>(mirrors.size());
      result.sampled_servers.push_back(sid);
      mirrors.emplace_back(sid, sys.profile);
    }
  }

  const std::size_t shard_width = std::max<std::size_t>(1, config_.shard_size);
  const std::size_t num_shards = (n_servers + shard_width - 1) / shard_width;

  // Trace-track sampling over the mirror list (see event_fleet.cpp): only
  // the sampled subset owns a per-server track; the rest keep full
  // timelines but emit no spans.  Shard tracks stay always-on — they are
  // the bounded fleet-scale view.
  const obs::TrackSampler track_sampler(mirrors.size(), config_.trace_tracks);
  std::unordered_set<std::size_t> tracked_sids;
  tracked_sids.reserve(track_sampler.size() * 2);
  for (const std::size_t mi : track_sampler.ids()) {
    tracked_sids.insert(result.sampled_servers[mi]);
  }
  for (std::size_t mi = 0; mi < mirrors.size(); ++mi) {
    mirrors[mi].set_traced(track_sampler.contains(mi));
  }

  if (obs::Tracer* tr = obs::tracer()) {
    tr->set_track_name(obs::Tracer::kCoordinatorPid, "coordinator");
    for (const std::size_t mi : track_sampler.ids()) {
      const std::size_t sid = result.sampled_servers[mi];
      tr->set_track_name(obs::Tracer::server_pid(sid),
                         "edge_server_" + std::to_string(sid));
    }
    for (std::size_t s = 0; s < num_shards; ++s) {
      tr->set_track_name(obs::Tracer::fleet_shard_pid(s),
                         "fleet_shard_" + std::to_string(s));
    }
  }

  // Telemetry handles resolved once per run (registry lookups are
  // mutex + map).  Null when telemetry is off; recording only READS sim
  // state, so the non-perturbation contract holds.
  obs::QuantileSketch* sk_round_s = nullptr;       // per-round makespan
  obs::QuantileSketch* sk_wait_s = nullptr;        // per-upload queue wait
  obs::QuantileSketch* sk_turnaround_s = nullptr;  // dispatch->delivered
  obs::QuantileSketch* sk_joules = nullptr;        // per-server run total
  std::array<obs::Counter*, energy::kNumEnergyCategories> energy_counters{};
  std::array<double, energy::kNumEnergyCategories> prev_energy{};
  if (obs::Telemetry* tel = obs::telemetry()) {
    tel->metrics.gauge("fleet.servers")
        .set(static_cast<double>(n_servers));
    tel->metrics.gauge("fleet.shards").set(static_cast<double>(num_shards));
    sk_round_s = &tel->metrics.sketch("fleet.round.seconds");
    sk_wait_s = &tel->metrics.sketch("fleet.upload.wait_s");
    sk_turnaround_s = &tel->metrics.sketch("fleet.server.turnaround_s");
    sk_joules = &tel->metrics.sketch("fleet.server.joules");
    for (std::size_t c = 0; c < energy::kNumEnergyCategories; ++c) {
      energy_counters[c] = &tel->metrics.counter(
          std::string("energy.joules.") +
          energy::to_string(static_cast<energy::EnergyCategory>(c)));
      prev_energy[c] = energy_counters[c]->value();
    }
  }

  // One round time-series row per round, O(1) to append.  Per-category
  // joules are energy.joules.* counter deltas; this engine charges idle
  // servers eagerly, so (unlike the event engine) every round's waiting
  // energy lands in its own row.
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

  // Per-server phase recording: every server streams into its compact
  // accumulator; sampled servers additionally mirror into a full
  // EdgeServerSim (timeline + tracer spans).
  auto run_phase = [&](std::size_t sid, energy::EdgeState state, Seconds start,
                       Seconds duration) {
    result.accumulators[sid].run_phase(state, start, duration);
    if (mirror_of[sid] != kNoMirror) {
      mirrors[mirror_of[sid]].run_phase(state, start, duration);
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

  // Same seed derivations as FeiSystem, so a fault-free fleet run consumes
  // the exact same random streams as the reference system.
  Rng jitter_rng(sys.seed * 104729 + 5);
  Rng straggler_rng(sys.seed * 15485863 + 7);
  net::CsmaCell csma(sys.csma, Rng(sys.seed * 48611 + 9));
  auto jittered = [&](Seconds nominal) {
    if (sys.timing_jitter <= 0.0) return nominal;
    const double f =
        std::max(0.5, 1.0 + jitter_rng.normal(0.0, sys.timing_jitter));
    return nominal * f;
  };
  std::vector<double> persistent_slowdown(n_servers, 1.0);
  if (sys.straggler_persistent && sys.straggler_fraction > 0.0) {
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

  const Watts p_down = sys.profile.power(energy::EdgeState::kDownloading);
  const Watts p_train = sys.profile.power(energy::EdgeState::kTraining);
  const Watts p_up = sys.profile.power(energy::EdgeState::kUploading);
  const Watts p_wait = sys.profile.power(energy::EdgeState::kWaiting);

  Seconds clock{0.0};
  // Round-scoped selected marks, reused across rounds (set/cleared O(K)).
  std::vector<char> selected_mark(n_servers, 0);

  // Sharded O(N) pass: charge every idle (non-selected) server for the
  // round.  Rows are per-server, so shards never contend; per-row charge
  // order is the serial order, so ledger bits are thread-invariant.
  auto charge_idle_sharded = [&](Seconds round_duration) {
    for_each_server_sharded([&](std::size_t sid) {
      if (!selected_mark[sid]) {
        result.ledger.charge(sid, energy::EnergyCategory::kWaiting,
                             p_wait * round_duration);
      }
    });
    if (obs::Telemetry* tel = obs::telemetry()) {
      tel->metrics.counter("fleet.idle_charges")
          .add(static_cast<double>(n_servers));
    }
  };

  // Per-shard round spans: the 100k-server answer to one-track-per-server
  // traces.  Tracer-gated, so untraced runs skip the bucketing entirely.
  auto trace_shard_round = [&](std::size_t round, Seconds round_start,
                               std::span<const fl::ClientId> selected) {
    obs::Tracer* tr = obs::tracer();
    if (tr == nullptr) return;
    std::vector<std::int32_t> per_shard(num_shards, 0);
    for (const auto sid : selected) ++per_shard[sid / shard_width];
    for (std::size_t s = 0; s < num_shards; ++s) {
      const std::size_t lo = s * shard_width;
      const std::size_t count = std::min(n_servers, lo + shard_width) - lo;
      tr->sim_span("fleet.shard.round", "sim.fleet",
                   obs::Tracer::fleet_shard_pid(s), round_start,
                   clock - round_start,
                   {{"round", static_cast<double>(round)},
                    {"servers", static_cast<double>(count)},
                    {"selected", static_cast<double>(per_shard[s])}});
    }
  };

  // --- Fault-free round simulation --------------------------------------
  // The medium scan is the exact FeiSystem observer, with the event queue
  // replaced by an explicit (train_end, index)-ordered drain (the same
  // order the queue produces, since uploads are enqueued in index order).
  auto observer = [&](const fl::RoundRecord& record,
                      std::span<const fl::LocalTrainResult> updates) {
    const Seconds round_start = clock;
    Seconds lan_free = round_start;
    Seconds round_end = round_start;
    std::size_t uploads_pending = record.selected.size();

    struct PendingUpload {
      std::size_t index = 0;
      std::size_t server = 0;
      Seconds train_end{0.0};
    };
    std::vector<PendingUpload> pending;
    pending.reserve(record.selected.size());

    for (std::size_t i = 0; i < record.selected.size(); ++i) {
      const std::size_t sid = record.selected[i];
      const std::size_t n_k = updates[i].samples_used;
      selected_mark[sid] = 1;

      if (sys.iot_collection) {
        const auto collected = population_.topology().fleet(sid).collect(n_k);
        if (collected.wasted_energy.value() > 0.0) {
          // Collision/battery-death energy books as kRetry so the
          // data-collection category only carries useful uplink work.
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

      const auto down = population_.topology().lan(sid).transfer(down_msg);
      const Seconds d = jittered(down.duration);
      const Seconds download_start = lan_free;
      lan_free += d;
      run_phase(sid, energy::EdgeState::kDownloading, download_start, d);
      if (down.wasted.value() > 0.0) {
        // The retransmitted share of the (jittered) air time books as
        // kRetry; loss-free links take the exact pre-existing single
        // charge, keeping golden fingerprints bit-identical.
        const Seconds dw = d * (down.wasted / down.duration);
        result.ledger.charge(sid, energy::EnergyCategory::kRetry,
                             p_down * dw);
        result.ledger.charge(sid, energy::EnergyCategory::kDownload,
                             p_down * (d - dw));
      } else {
        result.ledger.charge(sid, energy::EnergyCategory::kDownload,
                             p_down * d);
      }

      Seconds t = jittered(sys.timing.duration(record.local_epochs, n_k));
      t *= straggler_factor(sid);
      run_phase(sid, energy::EdgeState::kTraining, download_start + d, t);
      result.ledger.charge(sid, energy::EnergyCategory::kTraining,
                           p_train * t);

      pending.push_back({i, sid, download_start + d + t});
    }

    std::sort(pending.begin(), pending.end(),
              [](const PendingUpload& a, const PendingUpload& b) {
                if (a.train_end.value() != b.train_end.value()) {
                  return a.train_end.value() < b.train_end.value();
                }
                return a.index < b.index;
              });
    for (const auto& p : pending) {
      const std::size_t sid = p.server;
      Seconds u{0.0};
      Seconds u_wasted{0.0};
      Seconds upload_start = p.train_end;
      if (sys.lan_contention == FeiSystemConfig::LanContention::kCsma) {
        const auto r =
            csma.transfer(up_msg.wire_bytes(), uploads_pending - 1);
        u = jittered(r.duration);
      } else {
        const auto up = population_.topology().lan(sid).transfer(up_msg);
        u = jittered(up.duration);
        if (up.wasted.value() > 0.0) {
          u_wasted = u * (up.wasted / up.duration);
        }
        upload_start = std::max(p.train_end, lan_free);
        const Seconds queue_wait = upload_start - p.train_end;
        lan_free = upload_start + u;
        if (queue_wait.value() > 0.0) {
          result.ledger.charge(sid, energy::EnergyCategory::kWaiting,
                               p_wait * queue_wait);
        }
        if (sk_wait_s != nullptr) sk_wait_s->record(queue_wait.value());
      }
      --uploads_pending;
      run_phase(sid, energy::EdgeState::kUploading, upload_start, u);
      if (u_wasted.value() > 0.0) {
        result.ledger.charge(sid, energy::EnergyCategory::kRetry,
                             p_up * u_wasted);
        result.ledger.charge(sid, energy::EnergyCategory::kUpload,
                             p_up * (u - u_wasted));
      } else {
        result.ledger.charge(sid, energy::EnergyCategory::kUpload, p_up * u);
      }
      round_end = std::max(round_end, upload_start + u);
      if (sk_turnaround_s != nullptr) {
        sk_turnaround_s->record((upload_start + u - round_start).value());
      }
    }

    clock = std::max(round_end, lan_free);

    if (sys.charge_idle_servers) {
      charge_idle_sharded(clock - round_start);
    }
    for (const auto sid : record.selected) selected_mark[sid] = 0;

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
      obs::RoundStats rs;
      rs.round = static_cast<double>(record.round);
      rs.start_s = round_start.value();
      rs.duration_s = (clock - round_start).value();
      rs.selected = static_cast<double>(record.selected.size());
      rs.aggregated = static_cast<double>(record.updates_aggregated);
      append_round_stats(tel, rs);
    }
    trace_shard_round(record.round, round_start, record.selected);
  };

  // --- Fault-mode round simulation --------------------------------------
  // Mirrors FeiSystem's fault filter with one deliberate difference: each
  // transfer's fault plan draws from a per-(round, server, direction)
  // counted stream instead of one shared generator, so a server's fault
  // fate is independent of the scan order of its round-mates.
  const net::LinkFaultConfig link_faults = sys.net.link_faults;
  const RngStreamFamily fault_streams(
      link_faults.seed * 0x9e3779b97f4a7c15ULL + sys.seed * 7349 + 101);
  CrashProcessConfig crash_cfg = sys.crashes;
  crash_cfg.seed =
      crash_cfg.seed * 2862933555777941757ULL + sys.seed * 977 + 3;
  CrashProcess crash_process(n_servers, crash_cfg);

  auto fault_filter = [&](std::size_t round,
                          std::span<const fl::ClientId> selected,
                          std::span<fl::LocalTrainResult> updates)
      -> fl::RoundFaultStats {
    fl::RoundFaultStats stats;
    const Seconds round_start = clock;
    const auto trace_fault = [&](const char* name, std::size_t sid,
                                 Seconds at) {
      if (tracked_sids.find(sid) == tracked_sids.end()) return;
      if (obs::Tracer* tr = obs::tracer()) {
        tr->sim_instant(name, "sim.fault", obs::Tracer::server_pid(sid), at);
      }
    };
    const bool has_deadline = sys.round_deadline.value() > 0.0;
    const Seconds deadline = round_start + sys.round_deadline;

    Seconds lan_free = round_start;
    Seconds round_end = round_start;
    const auto note_end = [&](Seconds at) {
      round_end =
          std::max(round_end, has_deadline ? std::min(at, deadline) : at);
    };
    const auto plan = [&](std::size_t sid, bool upload, Seconds start,
                          Seconds nominal) {
      Rng stream = fault_streams.stream(round, sid * 2 + (upload ? 1 : 0));
      return net::plan_faulty_transfer(stream, link_faults, start, nominal);
    };

    struct PendingUpload {
      std::size_t index = 0;
      std::size_t server = 0;
      Seconds train_end{0.0};
    };
    std::vector<PendingUpload> pending;
    pending.reserve(selected.size());

    for (std::size_t i = 0; i < selected.size(); ++i) {
      const std::size_t sid = selected[i];
      auto& u = updates[i];
      selected_mark[sid] = 1;

      if (sys.iot_collection) {
        const auto collected =
            population_.topology().fleet(sid).collect(u.samples_used);
        result.ledger.charge(sid, energy::EnergyCategory::kDataCollection,
                             collected.total_energy);
      }

      if (crash_process.is_down(sid, round_start)) {
        trace_fault("server.down", sid, round_start);
        u.aggregated = false;
        ++stats.crashed_servers;
        continue;
      }

      const Seconds download_start = lan_free;
      if (has_deadline && download_start >= deadline) {
        trace_fault("deadline.drop", sid, deadline);
        u.aggregated = false;
        ++stats.straggler_drops;
        note_end(deadline);
        continue;
      }
      const Seconds d1 = jittered(
          population_.topology().lan(sid).nominal_duration(
              down_msg.wire_bytes()));
      const auto down = plan(sid, /*upload=*/false, download_start, d1);
      stats.retries += down.attempts - 1;
      lan_free = has_deadline ? std::min(down.finish, deadline) : down.finish;
      if (has_deadline && down.finish > deadline) {
        const double frac =
            (deadline - download_start) / (down.finish - download_start);
        const Seconds cut = down.air_time * std::clamp(frac, 0.0, 1.0);
        result.ledger.charge(sid, energy::EnergyCategory::kAborted,
                             p_down * cut);
        run_phase(sid, energy::EdgeState::kDownloading, download_start, cut);
        trace_fault("deadline.drop", sid, deadline);
        u.aggregated = false;
        ++stats.straggler_drops;
        note_end(deadline);
        continue;
      }
      if (!down.delivered) {
        result.ledger.charge(sid, energy::EnergyCategory::kAborted,
                             p_down * down.air_time);
        run_phase(sid, energy::EdgeState::kDownloading, download_start,
                  down.air_time);
        trace_fault("update.lost", sid, down.finish);
        u.aggregated = false;
        ++stats.aborted_updates;
        note_end(down.finish);
        continue;
      }
      result.ledger.charge(sid, energy::EnergyCategory::kRetry,
                           p_down * down.wasted_air_time);
      result.ledger.charge(sid, energy::EnergyCategory::kDownload,
                           p_down * (down.air_time - down.wasted_air_time));
      run_phase(sid, energy::EdgeState::kDownloading, download_start,
                down.air_time);

      const Seconds train_start = down.finish;
      Seconds t = jittered(sys.timing.duration(u.epochs_run, u.samples_used));
      t *= straggler_factor(sid);
      const Seconds train_end = train_start + t;
      const Seconds train_cap =
          has_deadline ? std::min(train_end, deadline) : train_end;
      if (const auto crash =
              crash_process.next_crash_in(sid, train_start, train_cap)) {
        result.ledger.charge(sid, energy::EnergyCategory::kAborted,
                             p_train * (*crash - train_start));
        run_phase(sid, energy::EdgeState::kTraining, train_start,
                  *crash - train_start);
        trace_fault("server.crash", sid, *crash);
        u.aggregated = false;
        ++stats.crashed_servers;
        note_end(*crash);
        continue;
      }
      if (has_deadline && train_end > deadline) {
        result.ledger.charge(sid, energy::EnergyCategory::kAborted,
                             p_train * (deadline - train_start));
        if (deadline > train_start) {
          run_phase(sid, energy::EdgeState::kTraining, train_start,
                    deadline - train_start);
        }
        trace_fault("deadline.drop", sid, deadline);
        u.aggregated = false;
        ++stats.straggler_drops;
        note_end(deadline);
        continue;
      }
      result.ledger.charge(sid, energy::EnergyCategory::kTraining,
                           p_train * t);
      run_phase(sid, energy::EdgeState::kTraining, train_start, t);
      pending.push_back({i, sid, train_end});
    }

    std::sort(pending.begin(), pending.end(),
              [](const PendingUpload& a, const PendingUpload& b) {
                if (a.train_end.value() != b.train_end.value()) {
                  return a.train_end.value() < b.train_end.value();
                }
                return a.index < b.index;
              });
    for (const auto& p : pending) {
      auto& u = updates[p.index];
      const std::size_t sid = p.server;
      const Seconds upload_start = std::max(p.train_end, lan_free);
      const Seconds queue_wait_end =
          has_deadline ? std::min(upload_start, deadline) : upload_start;
      if (queue_wait_end > p.train_end) {
        result.ledger.charge(sid, energy::EnergyCategory::kWaiting,
                             p_wait * (queue_wait_end - p.train_end));
      }
      if (sk_wait_s != nullptr) {
        sk_wait_s->record((queue_wait_end - p.train_end).value());
      }
      if (has_deadline && upload_start >= deadline) {
        trace_fault("deadline.drop", sid, deadline);
        u.aggregated = false;
        ++stats.straggler_drops;
        note_end(deadline);
        continue;
      }
      const Seconds u1 = jittered(
          population_.topology().lan(sid).nominal_duration(
              up_msg.wire_bytes()));
      const auto up = plan(sid, /*upload=*/true, upload_start, u1);
      stats.retries += up.attempts - 1;
      lan_free = has_deadline ? std::min(up.finish, deadline) : up.finish;
      if (has_deadline && up.finish > deadline) {
        const double frac =
            (deadline - upload_start) / (up.finish - upload_start);
        const Seconds cut = up.air_time * std::clamp(frac, 0.0, 1.0);
        result.ledger.charge(sid, energy::EnergyCategory::kAborted,
                             p_up * cut);
        run_phase(sid, energy::EdgeState::kUploading, upload_start, cut);
        trace_fault("deadline.drop", sid, deadline);
        u.aggregated = false;
        ++stats.straggler_drops;
        note_end(deadline);
        continue;
      }
      if (!up.delivered) {
        result.ledger.charge(sid, energy::EnergyCategory::kAborted,
                             p_up * up.air_time);
        run_phase(sid, energy::EdgeState::kUploading, upload_start,
                  up.air_time);
        trace_fault("update.lost", sid, up.finish);
        u.aggregated = false;
        ++stats.aborted_updates;
        note_end(up.finish);
        continue;
      }
      result.ledger.charge(sid, energy::EnergyCategory::kRetry,
                           p_up * up.wasted_air_time);
      result.ledger.charge(sid, energy::EnergyCategory::kUpload,
                           p_up * (up.air_time - up.wasted_air_time));
      run_phase(sid, energy::EdgeState::kUploading, upload_start,
                up.air_time);
      if (sk_turnaround_s != nullptr) {
        sk_turnaround_s->record((up.finish - round_start).value());
      }
      note_end(up.finish);
    }

    clock = std::max(round_end, round_start);

    if (sys.charge_idle_servers) {
      charge_idle_sharded(clock - round_start);
    }
    for (const auto sid : selected) selected_mark[sid] = 0;

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
      obs::RoundStats rs;
      rs.round = static_cast<double>(round);
      rs.start_s = round_start.value();
      rs.duration_s = (clock - round_start).value();
      rs.selected = static_cast<double>(selected.size());
      // Coordinator-level update drops are decided after this filter, so
      // "aggregated" here is the filter's survivor count.
      rs.aggregated = static_cast<double>(
          selected.size() - stats.crashed_servers - stats.straggler_drops -
          stats.aborted_updates);
      rs.stragglers = static_cast<double>(stats.straggler_drops);
      rs.crashes = static_cast<double>(stats.crashed_servers);
      rs.retries = static_cast<double>(stats.retries);
      rs.aborted = static_cast<double>(stats.aborted_updates);
      append_round_stats(tel, rs);
    }
    trace_shard_round(round, round_start, selected);
    return stats;
  };

  fl::CoordinatorConfig fl_cfg = sys.fl;
  fl_cfg.upload_quant_bits = sys.upload_quant_bits;
  fl_cfg.update_drop_probability = sys.update_drop_probability;
  fl_cfg.drop_seed = sys.seed * 2654435761 + 13;
  auto policy =
      std::make_unique<fl::UniformRandomSelection>(Rng(sys.seed * 613 + 29));
  fl::Coordinator coordinator(&population_.clients(),
                              &population_.test_set(), fl_cfg,
                              std::move(policy));
  if (fault_injection_active()) {
    if (sys.lan_contention == FeiSystemConfig::LanContention::kCsma) {
      return Error::invalid_argument(
          "fleet: link fault injection models FCFS LAN contention only");
    }
    coordinator.set_update_filter(fault_filter);
  } else {
    coordinator.set_round_observer(observer);
  }

  auto outcome = coordinator.run();
  if (!outcome.ok()) return outcome.error();
  result.training = std::move(outcome).value();
  result.wall_clock = clock;
  for (const auto& r : result.training.record.all()) {
    result.total_retries += r.retries;
    result.total_aborted_updates += r.aborted_updates;
    result.total_straggler_drops += r.straggler_drops;
    result.total_crashed_servers += r.crashed_servers;
  }

  // Close every server at the makespan — the O(N) pass runs sharded; each
  // shard touches only its own servers' accumulators.
  for_each_server_sharded(
      [&](std::size_t sid) { result.accumulators[sid].idle_until(clock); });

  // Joules-per-server distribution over the (fully charged) ledger.
  // Telemetry-gated; the bulk recorder batches same-bucket runs so the
  // pass stays inside the telemetry overhead budget at fleet scale.
  if (sk_joules != nullptr) {
    std::size_t stride = 1;
    if (const std::size_t cap = config_.joules_sample_cap;
        cap != 0 && n_servers > cap) {
      stride = n_servers / cap;
      if (stride % 2 == 0) ++stride;  // coprime with pow-2 pool periods
    }
    const std::size_t n_rec = (n_servers + stride - 1) / stride;
    const std::size_t n_sh = (n_rec + shard_width - 1) / shard_width;
    auto record_shard = [&](std::size_t s) {
      obs::QuantileSketch::BulkRecorder rec(*sk_joules);
      const std::size_t lo = s * shard_width;
      const std::size_t hi = std::min(n_rec, lo + shard_width);
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
  for (auto& m : mirrors) m.idle_until(clock);
  result.sampled_timelines.reserve(mirrors.size());
  for (auto& m : mirrors) result.sampled_timelines.push_back(m.timeline());

  return result;
}

}  // namespace eefei::sim
