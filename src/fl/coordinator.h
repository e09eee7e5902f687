// FL coordinator — drives the FedAvg loop of the paper's Fig. 1:
// select 𝒦_t, dispatch ω_t, collect ω_{k,t} after E local epochs,
// aggregate (Eq. 2), evaluate, repeat until the accuracy/loss target or
// the round cap T_max is reached.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/dataset.h"
#include "fl/aggregator.h"
#include "fl/checkpoint.h"
#include "fl/client.h"
#include "fl/client_pool.h"
#include "fl/selection.h"
#include "fl/server_optimizer.h"
#include "fl/training_record.h"
#include "ml/model_bank.h"
#include "ml/serialize.h"

namespace eefei::fl {

struct CoordinatorConfig {
  std::size_t clients_per_round = 10;  // K
  std::size_t local_epochs = 40;       // E
  std::size_t max_rounds = 500;        // hard cap on T
  /// Stop when test accuracy reaches this (nullopt disables).
  std::optional<double> target_accuracy;
  /// Stop when global loss gap F(ω_t) − f_star reaches ε (nullopt disables).
  std::optional<double> target_loss_gap;
  /// Reference minimum loss F(ω_*) for the gap criterion.
  double f_star = 0.0;
  AggregationRule aggregation = AggregationRule::kUniformMean;
  /// Server-side optimizer applied to the aggregated average (kAverage
  /// with lr = 1.0 reproduces the paper's Eq. 2 exactly).
  ServerOptimizerConfig server_optimizer;
  /// Evaluate every this many rounds (1 = every round).
  std::size_t eval_every = 1;
  /// Worker threads for parallel local training and sharded test-set
  /// evaluation.  0 or 1 = run serially; a count matching the process-wide
  /// shared pool borrows it instead of spawning threads.  Results are
  /// bit-identical for any value (deterministic chunked reduction).
  std::size_t threads = 0;
  /// Lossy-upload extension: quantize each uploaded model to this many
  /// bits per parameter (4/8/16).  0 or 32 = exact float upload.
  unsigned upload_quant_bits = 0;
  /// Failure injection: probability an update is lost before aggregation
  /// (upload failure / straggler past deadline).  At least one update per
  /// round always survives so the round can aggregate.
  double update_drop_probability = 0.0;
  std::uint64_t drop_seed = 99;
  /// Fault tolerance: select this many EXTRA servers beyond K each round
  /// (K′ = K + overselect), so the round can still aggregate K-ish updates
  /// when links fail or stragglers miss the deadline.
  std::size_t overselect = 0;
  /// Autosave a TrainingCheckpoint to the registered sink every this many
  /// completed rounds (0 = off).
  std::size_t checkpoint_every = 0;
  /// Batched multi-model local training: eligible rounds (logistic-
  /// regression clients on the full-batch FedAvg path, any K) train through
  /// ml::ModelBank — packed batched SIMD kernels; one bank per worker when
  /// K ≥ workers, else one bank whose epochs are split across the pool —
  /// instead of one Client::train call per model.  Results are bit-identical
  /// to the serial path for any K and thread count (pinned by
  /// tests/test_model_bank.cpp); disable to force the per-client reference.
  bool batched_training = true;
  /// Reuse packed feature rows across rounds in the batched path (see
  /// ml::ModelBank::set_pack_cache).  Opt-in: only sound when every
  /// client's batch storage is immutable and address-stable for the whole
  /// run — true for the engines whose batches view Population-owned shards
  /// (the fleet engine turns this on).  Bit-identical either way.
  bool pack_cache = false;
};

struct TrainingOutcome {
  TrainingRecord record;
  std::vector<double> final_params;
  bool reached_target = false;
  std::size_t rounds_run = 0;         // T actually executed this run
  std::size_t total_local_epochs = 0; // Σ_t Σ_{k∈𝒦_t} E

  /// Checkpoint that resumes exactly where this run stopped.
  /// `first_round` is the absolute index of this run's first round.
  [[nodiscard]] TrainingCheckpoint checkpoint(
      std::size_t first_round = 0) const {
    return {final_params, first_round + rounds_run};
  }
};

/// Per-round observer, e.g. for the energy ledger: called after each
/// aggregation with the round record and the per-client updates.
using RoundObserver = std::function<void(
    const RoundRecord&, std::span<const LocalTrainResult>)>;

/// What a fault-injecting UpdateFilter reports back for one round; the
/// coordinator copies it into the RoundRecord.
struct RoundFaultStats {
  std::size_t retries = 0;           // failed attempts that were retried
  std::size_t aborted_updates = 0;   // lost to exhausted links / crashes
  std::size_t straggler_drops = 0;   // arrived after the round deadline
  std::size_t crashed_servers = 0;   // selected servers down or crashed
};

/// Pre-aggregation hook: decides which trained updates actually reach the
/// coordinator this round (link failures, deadline stragglers, crashed
/// servers) by clearing `LocalTrainResult::aggregated`.  The simulation
/// layer installs this to run its timing/energy model *before* aggregation,
/// so lost updates never influence ω.  A round may end with zero survivors —
/// the coordinator then skips aggregation and keeps ω unchanged.
using UpdateFilter = std::function<RoundFaultStats(
    std::size_t round, std::span<const ClientId> selected,
    std::span<LocalTrainResult> updates)>;

/// Receives periodic checkpoint autosaves (see
/// CoordinatorConfig::checkpoint_every).
using CheckpointSink = std::function<void(const TrainingCheckpoint&)>;

class Coordinator {
 public:
  /// `clients` and `test_set` must outlive the coordinator.  The policy is
  /// owned.  The global model starts at the zero vector (convex problem).
  Coordinator(std::vector<Client>* clients, const data::Dataset* test_set,
              CoordinatorConfig config,
              std::unique_ptr<SelectionPolicy> policy);

  /// Client-pool seam: the coordinator only ever needs "how many clients"
  /// and "give me client k", so any ClientPool works — a dense view over a
  /// materialized vector, or a lazily-materializing pool for virtual
  /// million-server populations.  `pool` must outlive the coordinator.
  Coordinator(ClientPool* pool, const data::Dataset* test_set,
              CoordinatorConfig config,
              std::unique_ptr<SelectionPolicy> policy);

  /// Runs the federated loop.  Fails if there are no clients or K = 0.
  [[nodiscard]] Result<TrainingOutcome> run();

  void set_round_observer(RoundObserver observer) {
    observer_ = std::move(observer);
  }

  void set_update_filter(UpdateFilter filter) {
    update_filter_ = std::move(filter);
  }

  void set_checkpoint_sink(CheckpointSink sink) {
    checkpoint_sink_ = std::move(sink);
  }

  /// Replaces the initial global parameters (default: a freshly
  /// constructed model per the clients' spec).
  void set_initial_params(std::vector<double> params);

  /// Resumes from a checkpoint: restores ω and continues the round
  /// numbering (so lr decay and round-indexed selection line up with the
  /// original run).  max_rounds then means "this many MORE rounds".
  void resume_from(const TrainingCheckpoint& checkpoint);

  [[nodiscard]] const CoordinatorConfig& config() const { return config_; }

 private:
  [[nodiscard]] double evaluate_loss(std::span<const double> params) const;

  /// Batched local training for one round.  K ≥ workers: partitions the
  /// selected clients into one contiguous chunk per worker, each trained by
  /// that worker's ModelBank.  K < workers: one bank trains them in order,
  /// splitting each model's epoch across the pool.  Returns false —
  /// leaving `updates` untouched — when any selected client is ineligible
  /// (see Client::bank_eligible) or the clients' training configs
  /// disagree; the caller then runs the serial per-client path.
  bool train_batched(std::span<const double> global,
                     std::span<const ClientId> selected, std::size_t round,
                     std::vector<LocalTrainResult>& updates);

  /// Evaluation model matching the clients' spec, created once and reused
  /// by every evaluation (run() rounds and evaluate_loss()).
  [[nodiscard]] ml::Model& eval_model() const;

  /// Owns the dense view when constructed from a raw vector<Client>.
  std::unique_ptr<DenseClientPool> owned_clients_view_;
  ClientPool* clients_;
  const data::Dataset* test_set_;
  CoordinatorConfig config_;
  std::unique_ptr<SelectionPolicy> policy_;
  RoundObserver observer_;
  UpdateFilter update_filter_;
  CheckpointSink checkpoint_sink_;
  std::optional<std::vector<double>> initial_params_;
  std::size_t start_round_ = 0;
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;
  /// Shared download payload: ω_t is serialized into this reusable blob
  /// once per round and every selected client's download references it,
  /// instead of one serialization (and allocation) per client.
  ml::ModelBlob round_payload_;
  mutable std::unique_ptr<ml::Model> eval_model_;
  mutable std::vector<ml::Workspace> eval_workspaces_;
  /// One bank (and task list) per worker for the batched training path —
  /// bank 0 alone in split rounds — reused across rounds so steady-state
  /// training is allocation-free inside the banks.
  std::vector<ml::ModelBank> train_banks_;
  std::vector<std::vector<ml::ModelBank::Task>> bank_tasks_;
};

}  // namespace eefei::fl
