// Benchmark runner: runs one named workload through the simulator's public
// entry points (sim::FeiSystem, sim::EventFleetEngine, core::EeFeiPlanner,
// data::SynthDigits) and prints one JSON object per line on stdout.
//
//   perfbench_runner --workload NAME --seed N [--rounds R] [--threads T]
//                    [--trace 0|1] [--pairs P] [--trace-dir DIR]
//
// --trace 0 runs one untraced repetition and prints one "rep"
// line: host times (plan, prepare, run, time to result), the loop's
// client-epoch count, peak RSS and the run's simulated outputs.
//
// --trace 1 runs P untraced/traced pairs in this process (alternating which
// goes first) and prints a "rep" line for each, then one "layers" line with
// the traced breakdown: counters and sketches the library already exports,
// read as deltas around each traced repetition.  The spans this file
// records around each public call, and the library's own telemetry, are
// kept in memory and written through the obs exporters at exit.
//
// Every layer is timed from outside; nothing here changes what the library
// computes, and the outputs of traced and untraced runs must be identical.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/planner.h"
#include "data/synth_digits.h"
#include "energy/ledger.h"
#include "ml/simd.h"
#include "obs/build_info.h"
#include "obs/telemetry.h"
#include "obs/trace_export.h"
#include "sim/event_fleet.h"
#include "sim/fei_system.h"

namespace {

using namespace eefei;

// ---------------------------------------------------------------- workloads

struct Workload {
  std::string name;
  bool fleet = false;  // EventFleetEngine; otherwise FeiSystem
  bool plan = false;   // (K, E) from core::EeFeiPlanner::plan()
  std::size_t rounds = 0;
  sim::EventFleetEngineConfig cfg;  // cfg.system alone drives FeiSystem
};

/// The shared fleet shape: a virtual population on pooled 12×12 shards,
/// O(K) selection, no per-server accumulator array, lazy idle charging.
sim::EventFleetEngineConfig fleet_base(std::size_t n, std::size_t k,
                                       std::size_t e, std::size_t n_k) {
  sim::EventFleetEngineConfig cfg;
  sim::FeiSystemConfig& sys = cfg.system;
  sys = sim::prototype_config();
  sys.num_servers = n;
  sys.net.num_edge_servers = n;
  sys.net.devices_per_edge = 1;
  sys.samples_per_server = n_k;
  sys.test_samples = 500;
  sys.data.image_side = 12;
  sys.model.input_dim = 144;
  sys.sgd.learning_rate = 0.1;
  sys.fl.clients_per_round = k;
  sys.fl.local_epochs = e;
  sys.fl.eval_every = 5;
  sys.charge_idle_servers = true;
  cfg.data_pool_shards = 256;
  cfg.sampled_timelines = 8;
  cfg.virtual_population = true;
  cfg.per_server_accumulators = false;
  cfg.scalable_selection = true;
  return cfg;
}

std::optional<Workload> make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "prototype_acs") {
    // The paper's prototype: N=20, n_k=3000, 28×28, 784→10 LR, 2000 test
    // samples, evaluated every round; (K, E) come from the planner.
    w.plan = true;
    w.rounds = 40;
    w.cfg.system = sim::prototype_config();
    w.cfg.system.fl.eval_every = 1;
  } else if (name == "fleet_cohort") {
    w.fleet = true;
    w.rounds = 60;
    w.cfg = fleet_base(1000000, 1000, 3, 50);
  } else if (name == "fleet_congested") {
    // Every update funnels through one 0.5 Mbps backhaul link.
    w.fleet = true;
    w.rounds = 150;
    w.cfg = fleet_base(100000, 1000, 1, 10);
    w.cfg.multi_hop = true;
    w.cfg.backhaul_uplink.rate = BitsPerSecond::from_mbps(0.5);
  } else if (name == "fleet_faults") {
    // Lossy links with retries, server crashes and a round deadline that a
    // minority of updates miss (a round takes about 41 s without it); 100
    // extra servers are selected to cover the losses.
    w.fleet = true;
    w.rounds = 150;
    w.cfg = fleet_base(100000, 1000, 1, 10);
    sim::FeiSystemConfig& sys = w.cfg.system;
    sys.fl.overselect = 100;
    sys.net.link_faults.loss_probability = 0.1;
    sys.crashes.mtbf = Seconds{3600.0};
    sys.round_deadline = Seconds{38.0};
  } else {
    return std::nullopt;
  }
  return w;
}

// ------------------------------------------------------------------ helpers

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Host-time span around one public call.  Always measured on the steady
/// clock; when a tracer is given it is also recorded there, so the traced
/// run's exported trace shows the same boundaries the numbers come from.
class Span {
 public:
  Span(obs::Tracer* tracer, const char* name)
      : tracer_(tracer),
        name_(name),
        start_(std::chrono::steady_clock::now()),
        trace_start_ns_(tracer != nullptr ? tracer->wall_now_ns() : 0) {}

  double stop() {
    const double s = seconds_between(start_, std::chrono::steady_clock::now());
    if (tracer_ != nullptr) {
      tracer_->wall_span_ns(name_, "perfbench", trace_start_ns_,
                            tracer_->wall_now_ns());
    }
    return s;
  }

 private:
  obs::Tracer* tracer_;
  const char* name_;
  std::chrono::steady_clock::time_point start_;
  std::uint64_t trace_start_ns_;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB → MiB
}

/// FNV-1a over raw bytes: exact fingerprints of doubles and id lists.
class Fnv {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ b[i]) * 1099511628211ULL;
    }
  }
  template <class T>
  void value(const T& v) {
    bytes(&v, sizeof v);
  }
  [[nodiscard]] std::uint64_t get() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

/// Minimal flat JSON object writer (one line).
class JsonLine {
 public:
  JsonLine& field(const char* key, const std::string& raw) {
    body_ += body_.empty() ? "" : ",";
    body_ += quoted(key) + ":" + raw;
    return *this;
  }
  JsonLine& str(const char* key, const std::string& v) {
    return field(key, quoted(v));
  }
  JsonLine& number(const char* key, double v) { return field(key, num(v)); }
  JsonLine& count(const char* key, std::uint64_t v) {
    return field(key, std::to_string(v));
  }
  void print() const {
    std::printf("{%s}\n", body_.c_str());
    std::fflush(stdout);
  }

 private:
  std::string body_;
};

// ------------------------------------------------------------ one repetition

/// The simulated statistics a run must reproduce exactly.
struct Outputs {
  std::size_t k = 0;
  std::size_t e = 0;
  std::size_t rounds = 0;
  std::size_t client_epochs = 0;  // Σ_t |selected_t| · E
  double ledger_j = 0.0;
  double ledger_category_sum_j = 0.0;
  double makespan_s = 0.0;
  std::uint64_t params_fnv = 0;
  std::size_t events = 0;
  std::size_t queue_high_water = 0;
  double link_wait_s = 0.0;
  std::size_t link_msgs = 0;
  std::size_t link_drops = 0;
  std::size_t retries = 0;
  std::size_t aborted = 0;
  std::size_t straggler_drops = 0;
  std::size_t crashed = 0;
  /// Cumulative digest of every round record up to and including round t.
  /// Global loss/accuracy enter only on rounds where the run evaluates,
  /// so a shorter twin run ending on an evaluation round is comparable.
  std::vector<std::uint64_t> round_digests;
};

void fill_training(Outputs& out, const fl::TrainingOutcome& training,
                   std::size_t eval_every) {
  out.rounds = training.rounds_run;
  out.client_epochs = training.total_local_epochs;
  Fnv params;
  params.bytes(training.final_params.data(),
               training.final_params.size() * sizeof(double));
  out.params_fnv = params.get();
  Fnv chain;
  for (const fl::RoundRecord& r : training.record.all()) {
    chain.value(r.round);
    chain.value(r.mean_local_loss);
    chain.value(r.clients_selected);
    chain.value(r.updates_aggregated);
    chain.value(r.retries);
    chain.value(r.aborted_updates);
    chain.value(r.straggler_drops);
    chain.value(r.crashed_servers);
    chain.bytes(r.selected.data(), r.selected.size() * sizeof(r.selected[0]));
    if (r.round % eval_every == 0) {
      chain.value(r.global_loss);
      chain.value(r.test_accuracy);
    }
    out.round_digests.push_back(chain.get());
  }
}

void fill_ledger(Outputs& out, const energy::EnergyLedger& ledger) {
  out.ledger_j = ledger.total().value();
  double sum = 0.0;
  for (std::size_t c = 0; c < energy::kNumEnergyCategories; ++c) {
    sum += ledger.category_total(static_cast<energy::EnergyCategory>(c))
               .value();
  }
  out.ledger_category_sum_j = sum;
}

struct Timings {
  double plan_s = 0.0;
  double prepare_s = 0.0;
  double run_s = 0.0;
  double time_to_result_s = 0.0;
};

struct Rep {
  Timings t;
  Outputs out;
};

/// Library counters read around one traced repetition.
struct LayerSnapshot {
  double train_ns = 0.0;
  double eval_ns = 0.0;
  double evals = 0.0;
  double pool_tasks = 0.0;
  double pool_busy_ns = 0.0;
  double pool_wait_ns = 0.0;
  double idle_charges = 0.0;

  static LayerSnapshot take(const obs::MetricsRegistry& metrics) {
    const obs::MetricsSnapshot snap = metrics.snapshot();
    LayerSnapshot s;
    if (const auto* sk = snap.sketch("fl.train.wall_ns")) s.train_ns = sk->sum;
    if (const auto* sk = snap.sketch("fl.eval.wall_ns")) s.eval_ns = sk->sum;
    s.evals = snap.counter_value("fl.evals");
    s.pool_tasks = snap.counter_value("pool.tasks");
    s.idle_charges = snap.counter_value("fleet.idle_charges");
    for (const auto& h : snap.histograms) {
      if (h.name == "pool.task_run.ns") s.pool_busy_ns = h.sum;
      if (h.name == "pool.task_wait.ns") s.pool_wait_ns = h.sum;
    }
    return s;
  }

  LayerSnapshot operator-(const LayerSnapshot& o) const {
    return {train_ns - o.train_ns,         eval_ns - o.eval_ns,
            evals - o.evals,               pool_tasks - o.pool_tasks,
            pool_busy_ns - o.pool_busy_ns, pool_wait_ns - o.pool_wait_ns,
            idle_charges - o.idle_charges};
  }
};

/// prepare() and run() on one engine, each under its own span, then the
/// result's simulated statistics into `rep`.
template <class Engine, class Config>
Status run_engine(const Config& cfg, std::size_t eval_every,
                  obs::Tracer* tracer, LayerSnapshot* layers_before,
                  Rep& rep) {
  Engine engine(cfg);
  {
    Span span(tracer, "sim.prepare");
    const Status st = engine.prepare();
    rep.t.prepare_s = span.stop();
    if (!st.ok()) return st;
  }
  if (layers_before != nullptr) {
    *layers_before = LayerSnapshot::take(obs::telemetry()->metrics);
  }
  Span span(tracer, "sim.run");
  const auto result = engine.run();
  rep.t.run_s = span.stop();
  if (!result.ok()) return result.error();
  Outputs& o = rep.out;
  fill_training(o, result->training, eval_every);
  fill_ledger(o, result->ledger);
  o.makespan_s = result->wall_clock.value();
  o.retries = result->total_retries;
  o.aborted = result->total_aborted_updates;
  o.straggler_drops = result->total_straggler_drops;
  o.crashed = result->total_crashed_servers;
  if constexpr (std::is_same_v<Engine, sim::EventFleetEngine>) {
    o.events = result->events_processed;
    o.queue_high_water = result->queue_high_water;
    o.link_wait_s = result->link_wait.value();
    o.link_msgs = result->link_messages;
    o.link_drops = result->link_drops;
  }
  return Status::success();
}

Result<Rep> run_once(const Workload& w, std::uint64_t seed,
                     std::size_t rounds, std::size_t threads,
                     obs::Tracer* tracer, LayerSnapshot* layers_before) {
  Rep rep;
  const auto t0 = std::chrono::steady_clock::now();
  sim::EventFleetEngineConfig cfg = w.cfg;
  sim::FeiSystemConfig& sys = cfg.system;
  sys.seed = seed;
  sys.fl.max_rounds = rounds;
  sys.fl.threads = threads;

  if (w.plan) {
    Span span(tracer, "core.plan");
    core::PlannerInputs inputs;
    inputs.num_servers = sys.num_servers;
    inputs.samples_per_server = sys.samples_per_server;
    const auto plan = core::EeFeiPlanner(inputs).plan();
    rep.t.plan_s = span.stop();
    if (!plan.ok()) return plan.error();
    sys.fl.clients_per_round = plan->k;
    sys.fl.local_epochs = plan->e;
  }
  rep.out.k = sys.fl.clients_per_round;
  rep.out.e = sys.fl.local_epochs;

  // The engine, and any pool it owns, is destroyed inside run_engine, so
  // its teardown counts towards the time to result.
  const Status st =
      w.fleet ? run_engine<sim::EventFleetEngine>(cfg, sys.fl.eval_every,
                                                  tracer, layers_before, rep)
              : run_engine<sim::FeiSystem>(sys, sys.fl.eval_every, tracer,
                                           layers_before, rep);
  if (!st.ok()) return st.error();
  rep.t.time_to_result_s =
      seconds_between(t0, std::chrono::steady_clock::now());
  return rep;
}

void print_rep(const Rep& rep, bool traced) {
  const Outputs& o = rep.out;
  std::string digests = "[";
  for (std::size_t i = 0; i < o.round_digests.size(); ++i) {
    digests += (i == 0 ? "\"" : ",\"") + hex64(o.round_digests[i]) + "\"";
  }
  digests += "]";
  JsonLine()
      .str("kind", "rep")
      .field("traced", traced ? "true" : "false")
      .number("plan_s", rep.t.plan_s)
      .number("prepare_s", rep.t.prepare_s)
      .number("run_s", rep.t.run_s)
      .number("time_to_result_s", rep.t.time_to_result_s)
      .number("peak_rss_mb", peak_rss_mb())
      .count("k", o.k)
      .count("e", o.e)
      .count("rounds", o.rounds)
      .count("client_epochs", o.client_epochs)
      .number("ledger_j", o.ledger_j)
      .number("ledger_category_sum_j", o.ledger_category_sum_j)
      .number("makespan_s", o.makespan_s)
      .str("params_fnv", hex64(o.params_fnv))
      .count("events", o.events)
      .count("queue_high_water", o.queue_high_water)
      .number("link_wait_s", o.link_wait_s)
      .count("link_msgs", o.link_msgs)
      .count("link_drops", o.link_drops)
      .count("retries", o.retries)
      .count("aborted", o.aborted)
      .count("straggler_drops", o.straggler_drops)
      .count("crashed", o.crashed)
      .field("round_digests", digests)
      .print();
}

/// The process-wide telemetry sink for traced runs.  It is created before
/// any thread pool, so static destruction tears it down only after
/// ThreadPool::shared() (and every engine-owned pool, which main() has
/// already destroyed) has joined its workers: a worker records
/// pool.task_run.ns after publishing its task's result, and must never
/// write into a destroyed registry.
obs::Telemetry& telemetry_sink() {
  static obs::Telemetry telemetry;
  return telemetry;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::size_t rounds = 0;  // 0 = the workload's own
  std::size_t threads = 1;
  bool trace = false;
  std::size_t pairs = 2;
  std::string trace_dir = ".";
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    const unsigned long long n = std::strtoull(val.c_str(), &end, 10);
    const bool numeric = end != val.c_str() && *end == '\0';
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--trace-dir") {
      a.trace_dir = val;
    } else if (!numeric) {
      return std::nullopt;
    } else if (key == "--seed") {
      a.seed = n;
    } else if (key == "--rounds") {
      a.rounds = n;
    } else if (key == "--threads") {
      a.threads = n;
    } else if (key == "--trace") {
      a.trace = n != 0;
    } else if (key == "--pairs") {
      a.pairs = n;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || a.workload.empty() || a.threads == 0 ||
      a.pairs == 0) {
    return std::nullopt;
  }
  return a;
}

int fail(const std::string& what) {
  JsonLine().str("kind", "error").str("error", what).print();
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload NAME --seed N "
                 "[--rounds R] [--threads T] [--trace 0|1] [--pairs P] "
                 "[--trace-dir DIR]\n");
    return 64;
  }
  const auto workload = make_workload(args->workload);
  if (!workload) return fail("unknown workload " + args->workload);
  const std::size_t rounds =
      args->rounds != 0 ? args->rounds : workload->rounds;
  obs::Telemetry& tel = telemetry_sink();

  JsonLine()
      .str("kind", "provenance")
      .str("workload", workload->name)
      .count("seed", args->seed)
      .count("rounds", rounds)
      .count("threads", args->threads)
      .count("samples_per_server", workload->cfg.system.samples_per_server)
      .count("eval_every", workload->cfg.system.fl.eval_every)
      .count("nproc", std::thread::hardware_concurrency())
      .str("isa", std::string(ml::simd::isa_name(ml::simd::active_isa())))
      .str("build_type", obs::build_type())
      .str("git_sha", obs::git_sha())
      .print();

  if (!args->trace) {
    const auto rep = run_once(*workload, args->seed, rounds, args->threads,
                              nullptr, nullptr);
    if (!rep.ok()) return fail(rep.error().message);
    print_rep(*rep, false);
    return 0;
  }

  // Traced mode: untraced/traced pairs, alternating which goes first, so
  // the overhead estimate compares neighbours rather than drift.
  std::vector<LayerSnapshot> deltas;
  for (std::size_t i = 0; i < 2 * args->pairs; ++i) {
    const bool traced = (i % 2 == 0) == (i / 2 % 2 == 1);
    LayerSnapshot before;
    std::optional<obs::TelemetryScope> scope;
    if (traced) scope.emplace(tel);
    const auto rep =
        run_once(*workload, args->seed, rounds, args->threads,
                 traced ? &tel.tracer : nullptr, traced ? &before : nullptr);
    if (!rep.ok()) return fail(rep.error().message);
    if (traced) deltas.push_back(LayerSnapshot::take(tel.metrics) - before);
    scope.reset();
    print_rep(*rep, traced);
  }

  // Data synthesis on the workload's own data config, timed from outside.
  const sim::FeiSystemConfig& sys = workload->cfg.system;
  const std::size_t shards =
      workload->cfg.data_pool_shards != 0 ? workload->cfg.data_pool_shards
                                          : sys.num_servers;
  const std::size_t images = shards * sys.samples_per_server + sys.test_samples;
  const std::size_t sample = std::min<std::size_t>(images, 4000);
  double generate_s = 0.0;
  {
    obs::TelemetryScope scope(tel);
    data::SynthDigitsConfig dcfg = sys.data;
    dcfg.seed = args->seed;
    data::SynthDigits generator(dcfg);
    Span span(&tel.tracer, "data.generate");
    const data::Dataset ds = generator.generate(sample);
    generate_s = span.stop();
    if (ds.size() != sample) return fail("data.generate: short dataset");
  }

  const obs::MetricsSnapshot snap = tel.metrics.snapshot();
  const obs::SketchSnapshot* train = snap.sketch("fl.train.wall_ns");
  JsonLine line;
  line.str("kind", "layers")
      .count("data_images", images)
      .count("data_sample", sample)
      .number("data_generate_s", generate_s)
      .count("train_rounds", train != nullptr ? train->count : 0)
      .number("train_round_ns_p50", train != nullptr ? train->quantile(0.5) : 0)
      .number("train_round_ns_p90", train != nullptr ? train->quantile(0.9) : 0);
  std::string per_rep = "[";
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    const LayerSnapshot& d = deltas[i];
    per_rep += i == 0 ? "{" : ",{";
    per_rep += "\"train_ns\":" + num(d.train_ns) +
               ",\"eval_ns\":" + num(d.eval_ns) +
               ",\"evals\":" + num(d.evals) +
               ",\"pool_tasks\":" + num(d.pool_tasks) +
               ",\"pool_busy_ns\":" + num(d.pool_busy_ns) +
               ",\"pool_wait_ns\":" + num(d.pool_wait_ns) +
               ",\"idle_charges\":" + num(d.idle_charges) + "}";
  }
  line.field("traced_reps", per_rep + "]").print();

  const std::string prefix =
      args->trace_dir + "/" + workload->name + "-seed" +
      std::to_string(args->seed);
  if (const Status st =
          obs::write_chrome_trace(tel.tracer, prefix + ".trace.json");
      !st.ok()) {
    return fail(st.error().message);
  }
  if (const Status st = obs::write_metrics_json(snap, prefix + ".metrics.json");
      !st.ok()) {
    return fail(st.error().message);
  }
  return 0;
}
