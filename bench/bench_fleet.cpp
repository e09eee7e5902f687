// Fleet-scale engine bench: runs the event-driven EventFleetEngine at
// N ∈ {100, 1k, 10k} edge servers (100k opt-in via `n100k=1`), batched and
// serial training twins per size, reporting simulation throughput
// (servers·rounds per second), peak RSS, and energy at the end of the run.
// `n1m=1` adds the million-server row: a virtual population, O(K)
// selection and no per-server accumulator array, at a pinned 100 federated
// rounds.  Also proves the thread-count and FeiSystem byte-identity claims
// in-process before timing anything.
//
//   build/bench/bench_fleet [rounds=20] [threads=0] [n100k=1] [n1m=1]
//                           [trace=fleet.json] [overhead=1.05] [gate=1]
//
// Headline rows additionally report the dispatch throughput
// (events_per_s) and the queue's high-water backlog; with n1m=1 the
// million-server row is gated IN-PROCESS against the recorded closure-queue
// baseline — the typed calendar-queue path must hold a >= 1.5x speedup or
// the bench fails (`gate=0` opts out on machines where the recorded
// baseline is foreign).
//
// With n1m=1 and a trace path, the million-server row runs a TRACED twin:
// telemetry on, same config.  The twin must be byte-identical to the
// untraced row (energy + final params), stay within the overhead budget
// (default 5%), and its trace sidecar must stay bounded — the fleet
// observability layer's three contract gates, run as one bench.
//
// Writes BENCH_fleet.json; tools/bench_compare.py gates CI on the
// ns_per_server_round metrics (>15% regression fails).
#include <sys/resource.h>
#include <sys/stat.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/config.h"
#include "obs/telemetry.h"
#include "obs/trace_export.h"
#include "sim/event_fleet.h"
#include "sim/fei_system.h"

namespace {

using namespace eefei;

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB → MiB
}

sim::EventFleetEngineConfig event_config(std::size_t n, std::size_t rounds,
                                         std::size_t threads) {
  sim::EventFleetEngineConfig cfg;
  cfg.system = sim::prototype_config();
  cfg.system.num_servers = n;
  cfg.system.net.num_edge_servers = n;
  cfg.system.net.devices_per_edge = 1;  // fleets idle; keep topology lean
  cfg.system.samples_per_server = 50;
  cfg.system.test_samples = 500;
  cfg.system.data.image_side = 12;
  cfg.system.model.input_dim = 144;
  cfg.system.sgd.learning_rate = 0.1;
  cfg.system.fl.clients_per_round = 10;
  cfg.system.fl.local_epochs = 3;
  cfg.system.fl.max_rounds = rounds;
  cfg.system.fl.eval_every = 5;
  cfg.system.fl.threads = threads;
  cfg.system.charge_idle_servers = true;  // the O(N) per-round fleet work
  cfg.system.seed = 3;
  // Above 1k servers, pool the training data (256 distinct shards shared
  // round-robin) so the dataset footprint stays flat while every server
  // still trains, uploads and accounts energy individually.
  cfg.data_pool_shards = n > 1000 ? 256 : 0;
  cfg.sampled_timelines = 8;
  if (n >= 1000000) {
    // The million-server shape: datasets stay pooled and eager, but
    // clients materialize lazily, per-server LAN objects are never built,
    // the O(N) accumulator array is skipped (the ledger remains), and
    // selection runs Floyd's O(K) sampler instead of the O(N) shuffle.
    cfg.virtual_population = true;
    cfg.per_server_accumulators = false;
    cfg.scalable_selection = true;
  }
  return cfg;
}

// Multi-hop backhaul variant of event_config.  With `clients == 0` the
// links stay at their transparent defaults (the zero-config twin row);
// otherwise the round selects `clients` servers and the single
// region→coordinator link is narrowed so every upload funnels through a
// congested backhaul (at N = 1000 the default 64/64 fan-ins give 16
// gateways and exactly one region).
sim::EventFleetEngineConfig multihop_config(std::size_t n, std::size_t rounds,
                                            std::size_t threads,
                                            std::size_t clients) {
  auto cfg = event_config(n, rounds, threads);
  cfg.multi_hop = true;
  if (clients > 0) {
    cfg.system.fl.clients_per_round = clients;
    cfg.backhaul_uplink.rate = BitsPerSecond::from_mbps(0.5);
  }
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t rounds = 20;
  std::size_t threads = std::max(1u, std::thread::hardware_concurrency());
  bool include_100k = false;
  bool include_1m = false;
  bool gate = true;
  std::string trace_path;
  double overhead_budget = 1.05;
  if (const auto cfg = Config::from_args(argc, argv); cfg.ok()) {
    rounds = static_cast<std::size_t>(
        cfg->get_int_or("rounds", static_cast<long>(rounds)));
    if (const long t = cfg->get_int_or("threads", 0); t > 0) {
      threads = static_cast<std::size_t>(t);
    }
    include_100k = cfg->get_int_or("n100k", 0) != 0;
    include_1m = cfg->get_int_or("n1m", 0) != 0;
    gate = cfg->get_int_or("gate", 1) != 0;
    trace_path = cfg->get_string_or("trace", "");
    overhead_budget = cfg->get_double_or("overhead", overhead_budget);
  }

  // Byte-identity proof: a serial and a threaded run of the same fleet,
  // and the reference FeiSystem on the same (unpooled) configuration, must
  // agree on every energy bit before any throughput number means anything.
  {
    auto serial_cfg = event_config(200, 6, 1);
    serial_cfg.shard_size = 16;
    const auto threaded_cfg = event_config(200, 6, threads);
    sim::EventFleetEngine serial(serial_cfg);
    sim::EventFleetEngine threaded(threaded_cfg);
    sim::FeiSystem reference(threaded_cfg.system);
    const auto a = serial.run();
    const auto b = threaded.run();
    const auto ref = reference.run();
    if (!a.ok() || !b.ok() || !ref.ok()) {
      std::fprintf(stderr, "identity probe failed to run\n");
      return 1;
    }
    const bool thread_identical =
        a->ledger.total().value() == b->ledger.total().value() &&
        a->accumulated_energy().value() == b->accumulated_energy().value() &&
        a->wall_clock.value() == b->wall_clock.value() &&
        a->training.final_params == b->training.final_params;
    std::printf("thread identity (t=1 vs t=%zu): %s\n", threads,
                thread_identical ? "byte-identical" : "MISMATCH");
    Joules timeline_sum{0.0};
    for (const auto& tl : ref->timelines) timeline_sum += tl.total_energy();
    const bool reference_identical =
        ref->ledger.total().value() == b->ledger.total().value() &&
        timeline_sum.value() == b->accumulated_energy().value() &&
        ref->wall_clock.value() == b->wall_clock.value() &&
        ref->training.final_params == b->training.final_params;
    std::printf("event/FeiSystem identity (N=200): %s\n",
                reference_identical ? "byte-identical" : "MISMATCH");
    if (!thread_identical || !reference_identical) return 1;
  }

  bench::BenchReport report("fleet");
  std::vector<std::size_t> sizes = {100, 1000, 10000};
  if (include_100k) sizes.push_back(100000);

  // One timed federated run.  prepare() — the one-time population build
  // (dataset rendering + shard wiring, O(N) but amortized over a whole
  // simulation campaign) — runs OUTSIDE the timed region so
  // ns_per_server_round measures the per-round loop it names; at N = 1000
  // the build used to dominate the metric ~18:1 and buried any hot-loop
  // change in construction noise.
  struct TimedRun {
    double ns_per_server_round = 0.0;
    double energy_j = 0.0;
    double sim_secs = 0.0;
    std::size_t rounds = 0;
    double events = 0.0;
    double events_per_s = 0.0;              // dispatch throughput, best rep
    double queue_high_water = 0.0;          // deepest pending-event backlog
    double link_wait_s = 0.0;               // multi-hop runs only
    double link_util_peak = 0.0;
    std::vector<double> final_params;       // for traced-twin identity
  };
  // Best of kReps fresh runs: a timed region of `rounds` federated rounds
  // is a few milliseconds, small enough that scheduler noise on a shared
  // core dominates a single sample.  Energy must be bit-equal across reps
  // (the simulation is deterministic) or the measurement is rejected.
  constexpr int kReps = 3;
  auto measure = [&](std::size_t n, const sim::EventFleetEngineConfig& cfg,
                     TimedRun& out) -> bool {
    for (int rep = 0; rep < kReps; ++rep) {
      sim::EventFleetEngine engine(cfg);
      if (const auto st = engine.prepare(); !st.ok()) {
        std::fprintf(stderr, "N=%zu prepare failed: %s\n", n,
                     st.error().message.c_str());
        return false;
      }
      const auto t0 = std::chrono::steady_clock::now();
      const auto r = engine.run();
      const auto t1 = std::chrono::steady_clock::now();
      if (!r.ok()) {
        std::fprintf(stderr, "N=%zu failed: %s\n", n,
                     r.error().message.c_str());
        return false;
      }
      const double elapsed_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count();
      const double server_rounds =
          static_cast<double>(n) * static_cast<double>(r->training.rounds_run);
      const double ns = elapsed_ns / server_rounds;
      if (rep > 0 && r->ledger.total().value() != out.energy_j) {
        std::fprintf(stderr, "N=%zu energy drift across reps\n", n);
        return false;
      }
      const bool best = rep == 0 || ns < out.ns_per_server_round;
      if (best) out.ns_per_server_round = ns;
      out.energy_j = r->ledger.total().value();
      out.sim_secs = r->wall_clock.value();
      out.rounds = r->training.rounds_run;
      out.final_params = r->training.final_params;
      out.events = static_cast<double>(r->events_processed);
      if (best) out.events_per_s = out.events * 1e9 / elapsed_ns;
      out.queue_high_water = static_cast<double>(r->queue_high_water);
      out.link_wait_s = r->link_wait.value();
      out.link_util_peak = r->link_util_peak;
    }
    return true;
  };

  std::printf("%8s %8s %8s %14s %10s %12s %10s\n", "servers", "rounds",
              "mode", "servers/sec", "rss MB", "energy J", "sim secs");
  auto print_row = [&](std::size_t n, const TimedRun& run, const char* mode,
                       double rss) {
    std::printf("%8zu %8zu %8s %14.0f %10.1f %12.2f %10.2f\n", n, run.rounds,
                mode, 1e9 / run.ns_per_server_round, rss, run.energy_j,
                run.sim_secs);
  };

  // The million-server row runs FIRST so its rss_mb reading is its own
  // peak, not an earlier row's (ru_maxrss is monotone for the process).
  // 100 federated rounds, pinned: this row is the paper-scale capacity
  // claim, not a smoke loop.
  if (include_1m) {
    constexpr std::size_t kMillion = 1000000;
    constexpr std::size_t kMillionRounds = 100;
    TimedRun event_run;
    if (!measure(kMillion, event_config(kMillion, kMillionRounds, threads),
                 event_run)) {
      return 1;
    }
    const double rss = peak_rss_mb();
    const std::string tag = "fleet/event/N=" + std::to_string(kMillion);
    report.add(tag + "/ns_per_server_round", event_run.ns_per_server_round,
               {{"events_processed", event_run.events},
                {"events_per_s", event_run.events_per_s},
                {"queue_high_water", event_run.queue_high_water}});
    report.add(tag + "/rss_mb", rss);
    report.add(tag + "/energy_j", event_run.energy_j);
    print_row(kMillion, event_run, "event", rss);

    // The typed-queue speedup gate: this row's whole point is the de-
    // virtualized event loop, so hold it to the recorded closure-queue
    // baseline in-process instead of trusting an external diff.  `gate=0`
    // opts out for cross-machine runs where the recorded baseline does not
    // transfer.
    constexpr double kClosureBaselineNs = 1.5401382400000001;
    const double speedup = kClosureBaselineNs / event_run.ns_per_server_round;
    std::printf("typed-queue speedup vs closure baseline: %.2fx "
                "(gate: >= 1.50x, %s)\n",
                speedup, gate ? "on" : "off");
    if (gate && speedup < 1.5) {
      std::fprintf(stderr,
                   "typed-queue gate failed: %.3f ns/server-round is only "
                   "%.2fx the %.3f ns closure baseline (need >= 1.5x)\n",
                   event_run.ns_per_server_round, speedup,
                   kClosureBaselineNs);
      return 1;
    }

    // Million-server multi-hop twin: the ~16k-node gateway/region graph
    // with transparent links must reproduce the point-to-point row bit
    // for bit, inside the same time/RSS envelope.  This is the capacity
    // claim for the network layer itself.
    {
      TimedRun mh_run;
      if (!measure(kMillion,
                   multihop_config(kMillion, kMillionRounds, threads, 0),
                   mh_run)) {
        return 1;
      }
      const bool twin_ok = mh_run.energy_j == event_run.energy_j &&
                           mh_run.final_params == event_run.final_params &&
                           mh_run.link_wait_s == 0.0;
      std::printf("multihop zero-config twin (N=%zu): %s\n", kMillion,
                  twin_ok ? "byte-identical" : "MISMATCH");
      if (!twin_ok) return 1;
      const double mh_rss = peak_rss_mb();
      const std::string mtag =
          "fleet/multihop/N=" + std::to_string(kMillion);
      report.add(mtag + "/ns_per_server_round", mh_run.ns_per_server_round,
                 {{"events_processed", mh_run.events},
                  {"events_per_s", mh_run.events_per_s},
                  {"queue_high_water", mh_run.queue_high_water}});
      report.add(mtag + "/rss_mb", mh_rss);
      print_row(kMillion, mh_run, "mhop", mh_rss);
    }

    // Traced twin: telemetry on, identical config.  Three gates — the
    // non-perturbation contract (energy + final params bit-identical to
    // the untraced row), the overhead budget, and a bounded trace file.
    if (!trace_path.empty()) {
      TimedRun traced;
      std::unique_ptr<obs::Telemetry> telemetry;
      for (int rep = 0; rep < kReps; ++rep) {
        auto fresh = std::make_unique<obs::Telemetry>();
        sim::EventFleetEngine engine(
            event_config(kMillion, kMillionRounds, threads));
        if (const auto st = engine.prepare(); !st.ok()) {
          std::fprintf(stderr, "traced prepare failed: %s\n",
                       st.error().message.c_str());
          return 1;
        }
        auto scope = std::make_unique<obs::TelemetryScope>(*fresh);
        const auto t0 = std::chrono::steady_clock::now();
        const auto r = engine.run();
        const auto t1 = std::chrono::steady_clock::now();
        scope.reset();
        if (!r.ok()) {
          std::fprintf(stderr, "traced run failed: %s\n",
                       r.error().message.c_str());
          return 1;
        }
        const double ns =
            static_cast<double>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                    .count()) /
            (static_cast<double>(kMillion) *
             static_cast<double>(r->training.rounds_run));
        if (rep == 0 || ns < traced.ns_per_server_round) {
          traced.ns_per_server_round = ns;
        }
        traced.energy_j = r->ledger.total().value();
        traced.rounds = r->training.rounds_run;
        traced.sim_secs = r->wall_clock.value();
        traced.final_params = r->training.final_params;
        telemetry = std::move(fresh);
      }
      const bool identical = traced.energy_j == event_run.energy_j &&
                             traced.final_params == event_run.final_params;
      std::printf("traced identity (N=%zu): %s\n", kMillion,
                  identical ? "byte-identical" : "MISMATCH");
      if (!identical) return 1;
      const double overhead =
          traced.ns_per_server_round / event_run.ns_per_server_round;
      std::printf("traced overhead: %.1f%% (budget %.1f%%)\n",
                  (overhead - 1.0) * 100.0, (overhead_budget - 1.0) * 100.0);
      if (overhead > overhead_budget) {
        std::fprintf(stderr, "traced overhead %.3fx exceeds budget %.3fx\n",
                     overhead, overhead_budget);
        return 1;
      }

      std::string base = trace_path;
      if (const auto dot = base.rfind(".json");
          dot != std::string::npos && dot + 5 == base.size()) {
        base.resize(dot);
      }
      for (const auto& st :
           {obs::write_chrome_trace(telemetry->tracer, trace_path),
            obs::write_metrics_json(telemetry->metrics.snapshot(),
                                    base + ".metrics.json"),
            obs::write_timeseries_json(telemetry->rounds.snapshot(),
                                       base + ".timeseries.json")}) {
        if (!st.ok()) {
          std::fprintf(stderr, "sidecar write failed: %s\n",
                       st.error().message.c_str());
          return 1;
        }
      }
      struct stat sb{};
      const double trace_mb =
          stat(trace_path.c_str(), &sb) == 0
              ? static_cast<double>(sb.st_size) / (1024.0 * 1024.0)
              : 0.0;
      std::printf("wrote %s (%.1f MB) + metrics, timeseries\n",
                  trace_path.c_str(), trace_mb);
      if (trace_mb > 20.0) {
        std::fprintf(stderr,
                     "trace sidecar %.1f MB exceeds the 20 MB bound — track "
                     "sampling is not holding\n",
                     trace_mb);
        return 1;
      }
      report.add(tag + "/traced_overhead_pct", (overhead - 1.0) * 100.0);
      report.add(tag + "/trace_mb", trace_mb);
    }
  }

  for (const std::size_t n : sizes) {
    // Twin rows: the batched ModelBank path (the default, the headline
    // metric) and the serial per-client reference.  Both are bit-identical
    // by contract, so energy must agree exactly between the twins.
    auto batched_cfg = event_config(n, rounds, threads);
    batched_cfg.system.fl.batched_training = true;
    auto serial_cfg = batched_cfg;
    serial_cfg.system.fl.batched_training = false;
    TimedRun batched, serial;
    if (!measure(n, batched_cfg, batched) || !measure(n, serial_cfg, serial)) {
      return 1;
    }
    if (batched.energy_j != serial.energy_j) {
      std::fprintf(stderr, "N=%zu batched/serial energy mismatch\n", n);
      return 1;
    }
    const double rss = peak_rss_mb();
    const std::string tag = "fleet/N=" + std::to_string(n);
    report.add(tag + "/ns_per_server_round", batched.ns_per_server_round,
               {{"speedup_vs_serial",
                 serial.ns_per_server_round / batched.ns_per_server_round},
                {"events_processed", batched.events},
                {"events_per_s", batched.events_per_s},
                {"queue_high_water", batched.queue_high_water}});
    report.add(tag + "/batched=0/ns_per_server_round",
               serial.ns_per_server_round);
    report.add(tag + "/rss_mb", rss);
    report.add(tag + "/energy_j", batched.energy_j);
    print_row(n, batched, "batched", rss);
    print_row(n, serial, "serial", rss);

    // Multi-hop rows at N = 1000: first the zero-config twin gate (default
    // transparent links must reproduce the point-to-point event row bit
    // for bit), then the congested-gateway pair — 16 gateways funneling
    // into one narrow region→coordinator backhaul at two offered loads.
    // The queueing delay must grow with the offered load or the row fails:
    // congestion is the feature under test, not an incidental number.
    if (n == 1000) {
      TimedRun twin;
      if (!measure(n, multihop_config(n, rounds, threads, 0), twin)) {
        return 1;
      }
      const bool twin_ok = twin.energy_j == batched.energy_j &&
                           twin.final_params == batched.final_params &&
                           twin.link_wait_s == 0.0;
      std::printf("multihop zero-config twin (N=%zu): %s\n", n,
                  twin_ok ? "byte-identical" : "MISMATCH");
      if (!twin_ok) return 1;

      TimedRun light, heavy;
      if (!measure(n, multihop_config(n, rounds, threads, 10), light) ||
          !measure(n, multihop_config(n, rounds, threads, 40), heavy)) {
        return 1;
      }
      if (!(light.link_wait_s > 0.0 &&
            heavy.link_wait_s > light.link_wait_s)) {
        std::fprintf(stderr,
                     "congestion gate failed: link wait K=40 %.6fs vs "
                     "K=10 %.6fs (must grow with offered load)\n",
                     heavy.link_wait_s, light.link_wait_s);
        return 1;
      }
      std::printf("multihop congestion (N=%zu): wait K=10 %.3fs -> "
                  "K=40 %.3fs, peak util %.2f\n",
                  n, light.link_wait_s, heavy.link_wait_s,
                  heavy.link_util_peak);
      const std::string mtag = "fleet/multihop/N=" + std::to_string(n);
      report.add(mtag + "/K=10/ns_per_server_round",
                 light.ns_per_server_round,
                 {{"link_wait_s", light.link_wait_s},
                  {"link_util_peak", light.link_util_peak}});
      report.add(mtag + "/K=40/ns_per_server_round",
                 heavy.ns_per_server_round,
                 {{"link_wait_s", heavy.link_wait_s},
                  {"link_util_peak", heavy.link_util_peak}});
      print_row(n, light, "mh k10", rss);
      print_row(n, heavy, "mh k40", rss);
    }
  }
  report.write();
  return 0;
}
