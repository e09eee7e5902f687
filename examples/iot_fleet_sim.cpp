// IoT fleet simulation: the full Eq. 3 system, including the data-
// collection term the prototype omits (its dataset was preloaded).
//
// Every round, each selected edge server pulls n_k fresh samples from its
// NB-IoT device fleet (per-byte energy 7.74 mW·s, optional unlicensed-band
// collisions), trains E local epochs, and uploads its model over the
// shared WiFi LAN.  The example prints the per-category energy ledger and
// shows how the data-collection term changes the optimal E*: uploading
// fresh data every round makes rounds far more expensive, so EE-FEI
// pushes E* up to amortize them.
//
// The second half scales the same scenario to a real fleet with
// sim::EventFleetEngine: thousands of servers, streaming energy
// accumulators instead of per-server timelines, pooled training data, and
// a sampled subset of full timelines for inspection.
//
// Usage: ./examples/iot_fleet_sim [servers=12] [rounds=15] [collision=0.1]
//                                 [fleet=2000]
#include <chrono>
#include <cstdio>

#include "common/config.h"
#include "core/planner.h"
#include "sim/event_fleet.h"
#include "sim/fei_system.h"

using namespace eefei;

int main(int argc, char** argv) {
  const auto args = Config::from_args(argc, argv);
  const std::size_t servers =
      args.ok() ? static_cast<std::size_t>(args->get_int_or("servers", 12))
                : 12;
  const std::size_t rounds =
      args.ok() ? static_cast<std::size_t>(args->get_int_or("rounds", 15))
                : 15;
  const double collision =
      args.ok() ? args->get_double_or("collision", 0.1) : 0.1;
  const std::size_t fleet_servers =
      args.ok() ? static_cast<std::size_t>(args->get_int_or("fleet", 2000))
                : 2000;

  auto cfg = sim::prototype_config();
  cfg.num_servers = servers;
  cfg.samples_per_server = 200;
  cfg.test_samples = 400;
  cfg.data.image_side = 16;
  cfg.model.input_dim = 256;
  cfg.sgd.learning_rate = 0.05;
  cfg.sgd.decay = 0.997;
  cfg.fl.clients_per_round = servers / 2;
  cfg.fl.local_epochs = 10;
  cfg.fl.max_rounds = rounds;
  cfg.fl.threads = 4;
  cfg.iot_collection = true;  // the full Eq. 3 accounting
  cfg.net.devices_per_edge = 6;
  cfg.net.device.uplink.collision_probability = collision;
  cfg.net.device.sample_bytes = Bytes{256.0 + 1.0};  // 16x16 uint8 + label
  cfg.seed = 11;

  std::printf("== IoT fleet FEI simulation ==\n");
  std::printf("%zu edge servers x %zu NB-IoT devices, collision p=%.2f, "
              "K=%zu, E=%zu, %zu rounds\n\n",
              servers, cfg.net.devices_per_edge, collision,
              cfg.fl.clients_per_round, cfg.fl.local_epochs, rounds);

  sim::FeiSystem system(cfg);
  const auto run = system.run();
  if (!run.ok()) {
    std::fprintf(stderr, "simulation failed: %s\n",
                 run.error().message.c_str());
    return 1;
  }

  std::printf("final test accuracy: %.3f (loss %.4f) after %zu rounds\n",
              run->training.record.last().test_accuracy,
              run->training.record.last().global_loss,
              run->training.rounds_run);
  std::printf("simulated makespan: %.2f s\n\n", run->wall_clock.value());

  std::printf("-- per-server energy ledger --\n%s\n",
              run->ledger.render().c_str());

  const double collection =
      run->ledger.category_total(energy::EnergyCategory::kDataCollection)
          .value();
  const double total = run->ledger.total().value();
  std::printf("data collection: %.1f J of %.1f J total (%.1f%%) — the term "
              "the paper's prototype setup excludes\n\n",
              collection, total, 100.0 * collection / total);

  // How the IoT term moves the optimum: plan with and without Eq. 4.
  const auto model_with_iot = system.energy_model();
  core::PlannerInputs with_iot;
  with_iot.num_servers = servers;
  with_iot.samples_per_server = cfg.samples_per_server;
  with_iot.energy = model_with_iot;
  core::PlannerInputs without_iot = with_iot;
  without_iot.energy.collection.rho = Joules{0.0};

  const auto plan_with = core::EeFeiPlanner(with_iot).plan();
  const auto plan_without = core::EeFeiPlanner(without_iot).plan();
  if (plan_with.ok() && plan_without.ok()) {
    std::printf("EE-FEI plan, preloaded data (rho = 0):   K*=%zu E*=%zu "
                "T*=%zu -> %.4g J\n",
                plan_without->k, plan_without->e, plan_without->t,
                plan_without->predicted_energy_j);
    std::printf("EE-FEI plan, fresh IoT data (rho = %.3g J/sample): K*=%zu "
                "E*=%zu T*=%zu -> %.4g J\n",
                model_with_iot.collection.rho.value(), plan_with->k,
                plan_with->e, plan_with->t, plan_with->predicted_energy_j);
    std::printf("fresh data per round makes each round costlier, so the "
                "planner amortizes with a larger E* (%zu -> %zu)\n",
                plan_without->e, plan_with->e);
  }

  // -- fleet scale ---------------------------------------------------------
  // The same round model, now over thousands of servers.  EventFleetEngine
  // streams energy through O(1) accumulators, pools the training data into
  // 128 distinct shards shared round-robin, and keeps full timelines only
  // for a small sampled subset.
  std::printf("\n== fleet scale: %zu edge servers ==\n", fleet_servers);
  sim::EventFleetEngineConfig fleet_cfg;
  fleet_cfg.system = sim::prototype_config();
  fleet_cfg.system.num_servers = fleet_servers;
  fleet_cfg.system.net.num_edge_servers = fleet_servers;
  fleet_cfg.system.net.devices_per_edge = 1;
  fleet_cfg.system.samples_per_server = 50;
  fleet_cfg.system.test_samples = 400;
  fleet_cfg.system.data.image_side = 12;
  fleet_cfg.system.model.input_dim = 144;
  fleet_cfg.system.sgd.learning_rate = 0.1;
  fleet_cfg.system.fl.clients_per_round = 10;
  fleet_cfg.system.fl.local_epochs = 3;
  fleet_cfg.system.fl.max_rounds = rounds;
  fleet_cfg.system.fl.eval_every = 5;
  fleet_cfg.system.fl.threads = 4;
  fleet_cfg.system.charge_idle_servers = true;
  fleet_cfg.system.seed = 11;
  fleet_cfg.data_pool_shards = 128;
  fleet_cfg.sampled_timelines = 4;

  sim::EventFleetEngine fleet(fleet_cfg);
  const auto t0 = std::chrono::steady_clock::now();
  const auto fleet_run = fleet.run();
  const auto t1 = std::chrono::steady_clock::now();
  if (!fleet_run.ok()) {
    std::fprintf(stderr, "fleet simulation failed: %s\n",
                 fleet_run.error().message.c_str());
    return 1;
  }
  const double elapsed =
      std::chrono::duration<double>(t1 - t0).count();
  std::printf("%zu servers x %zu rounds simulated in %.2f s host time "
              "(%.0f server-rounds/sec)\n",
              fleet_servers, fleet_run->training.rounds_run, elapsed,
              static_cast<double>(fleet_servers) *
                  static_cast<double>(fleet_run->training.rounds_run) /
                  elapsed);
  std::printf("fleet energy: %.1f J measured (ledger), %.1f J accumulated "
              "(streaming per-server), makespan %.1f s\n",
              fleet_run->measured_energy().value(),
              fleet_run->accumulated_energy().value(),
              fleet_run->wall_clock.value());
  std::printf("final test accuracy at fleet scale: %.3f after %zu rounds\n",
              fleet_run->training.record.last().test_accuracy,
              fleet_run->training.rounds_run);
  std::printf("sampled full timelines kept for %zu of %zu servers:\n",
              fleet_run->sampled_servers.size(), fleet_servers);
  for (std::size_t k = 0; k < fleet_run->sampled_servers.size(); ++k) {
    const auto& tl = fleet_run->sampled_timelines[k];
    std::printf("  server %6zu: %5zu intervals, %.2f J over %.1f s\n",
                fleet_run->sampled_servers[k], tl.intervals().size(),
                tl.total_energy().value(), tl.total_duration().value());
  }
  return 0;
}
