// Batched multi-model trainer for the fleet hot loop.  A ModelBank stacks
// K logistic-regression models' parameters, gradients and per-row
// activations in one 64-byte-aligned arena and runs every forward/backward
// pass through the batched kernel-table entries (ml/simd.h).  Models are
// swept in order (model-major, so one model's ~d·c weights and gradient
// stay cache-hot across its whole epoch, exactly like the serial client)
// while the batch axis of each kernel call is the model's samples: one
// indirect dispatch per epoch phase covers all n packed rows.  Feature
// rows are packed once per round (pack_sample) so the inner loops are
// branch-free replays of exactly the blocks the plain kernels would visit.
//
// Scheduling rule (fl::Coordinator): with K ≥ W pool workers each worker
// trains a contiguous chunk of models in its own bank, serially.  With
// K < W (the paper's K* = 1 included) one bank trains the models in order
// and splits each model's epoch across the W workers:
//
//   - forward + activation: sharded by sample ranges.  Each sample's
//     accumulate_rows writes only its own activation row, and no phase of
//     the epoch writes the parameters it reads;
//   - outer product: sharded by weight-row slabs [k0, k1) whose bounds are
//     multiples of kLanes (the d % kLanes tail rows join the last slab).
//     Every sample is packed as one sub-row per slab (runs never cross a
//     bound; offsets stay absolute k·c), and slab j's worker replays ALL
//     n samples' slab-j sub-rows in ascending sample order.  A 4-block
//     lies inside one slab and keeps its live/skip status, so each
//     gradient element still receives x[k]·err[j] for the same live
//     samples in ascending-sample order — the serial add sequence;
//   - the loss sum, the error signal and the bias gradient stay serial,
//     ascending-sample sweeps over the per-row terms; the mean/L2/update
//     step is elementwise and serial.
//
// Slabs are balanced by the batch's live-block counts (blank feature
// borders would idle a worker under equal k ranges), but the bounds only
// move work between workers, never a bit.  The forward pass replays a
// sample's sub-rows in ascending slab order inside one batched call — the
// same blocks in the same order as the whole row, so the same accumulator
// add sequence.  Sub-rows are stored slab-major (one region per (model,
// slab)), so each outer worker streams its own slab's contiguous region;
// no kernel knows about slabs.
//
// Determinism contract: train() is memcmp-equal to running the serial
// reference — fl::Client::train's full-batch path over
// LogisticRegression::loss_and_gradient / evaluate — once per model, for
// any K, any model order, any pool size and every SIMD backend.  The
// argument, piece by piece:
//
//   - Models are independent and trained in order: no pass reads another
//     model's state.
//   - Per model the op order is the serial one re-phased: the serial fused
//     loop runs forward(s), loss(s), outer(s), bias(s) per sample; the
//     bank runs all forwards, then the loss/error row sweep, then all
//     outers, then all bias adds — each phase ascending in s.  Every
//     accumulator (loss_sum, weight gradient, bias gradient) is touched by
//     exactly one phase and receives the identical additive sequence in
//     the identical order, and the forward reads parameters that no phase
//     writes, so the bits cannot move.  The packed kernels are
//     bit-identical to the plain ones by construction (simd.h), and a row
//     split into sub-rows replays the same blocks in the same order.
//   - Only the first epoch's loss is observable (initial_loss), so later
//     epochs skip the loss sweep; the gradient never reads it.
//   - The round-constant learning rate lr0 · decay^t matches the serial
//     client's SgdOptimizer schedule because pow(1.0, n) == 1.0 exactly.
//
// tests/test_model_bank.cpp pins all of this; tests/test_workspace_alloc.cpp
// pins the allocation-free steady state: buffers only grow, so repeated
// rounds of stable shape never touch the heap (a split round's only heap
// traffic is the pool's own dispatch bookkeeping).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "ml/aligned.h"
#include "ml/logistic_regression.h"
#include "ml/model.h"
#include "ml/simd.h"

namespace eefei {
class ThreadPool;
}  // namespace eefei

namespace eefei::ml {

class ModelBank {
 public:
  /// One model's local training problem for a round.
  struct Task {
    BatchView batch;             // the model's full local batch
    std::size_t epochs = 0;      // E
    double learning_rate = 0.0;  // round-t rate, constant across epochs
    double initial_loss = 0.0;   // out: loss at the received parameters
    double final_loss = 0.0;     // out: loss after `epochs` steps
  };

  /// Binds the bank to a model shape.  Cheap when the shape is unchanged;
  /// changing shapes regrows the arenas.
  void configure(const LogisticRegressionConfig& config);

  /// Opt-in reuse of packed feature rows ACROSS rounds, keyed by the
  /// batch's (features pointer, size).  Only sound when the caller
  /// guarantees every batch's feature storage is immutable and
  /// address-stable for the bank's lifetime — true for the fleet engine,
  /// whose batches view Population-owned shards.  Packing is deterministic
  /// and the kernels only read the packed values, so a cache hit replays
  /// the identical blocks and results stay bit-identical; the only change
  /// is that repeat batches (pooled shards re-selected round after round)
  /// skip the O(n·d) re-pack.  Entries own exact-size arenas built once,
  /// so their PackedSample pointers never dangle.
  void set_pack_cache(bool enabled) { pack_cache_enabled_ = enabled; }

  /// Trains every task from the shared `global` parameters ([W | b],
  /// length parameter_count()) and fills the per-task loss outputs.
  /// Trained parameters land in params_of(i).  With a pool of W > 1
  /// workers each model's epoch (and the round's packing) is split across
  /// the pool as the header describes; the bits are the same either way.
  /// Must not be called from one of `pool`'s own workers.
  void train(std::span<const double> global, std::span<Task> tasks,
             ThreadPool* pool = nullptr);

  /// Trained parameters of task i after train().
  [[nodiscard]] std::span<const double> params_of(std::size_t i) const {
    return {params_.data() + i * param_stride_, param_count_};
  }

  [[nodiscard]] std::size_t parameter_count() const { return param_count_; }
  [[nodiscard]] const LogisticRegressionConfig& config() const {
    return config_;
  }

 private:
  /// Packed-row storage: the x-values of every live 4-block, the runs, the
  /// live tail rows, and one PackedSample per (sample, slab) sub-row,
  /// sample-major (a serial round has one slab: the whole row).
  struct PackArena {
    AlignedVector block_x;
    std::vector<std::uint32_t> run_off;
    std::vector<std::uint32_t> run_blocks;
    AlignedVector tail_x;
    std::vector<std::uint32_t> tail_off;
    std::vector<simd::PackedSample> packed;

    /// Grows (never shrinks) to hold `rows` worst-case packed rows split
    /// into `slabs` sub-rows each.
    void reserve_rows(std::size_t rows, std::size_t d, std::size_t slabs);
  };
  /// Write position inside a PackArena.
  struct PackCursor {
    std::size_t block = 0;
    std::size_t run = 0;
    std::size_t tail = 0;
  };

  /// Packs every task's feature rows, plans each task's `slabs`
  /// weight-row slabs, and sizes the per-model parameter/gradient slots
  /// and kernel argument arrays.
  void prepare_round(std::span<Task> tasks, ThreadPool* pool,
                     std::size_t slabs);

  /// Slab bounds for one batch: slabs + 1 ascending k values, bounds[0] = 0,
  /// bounds[slabs] = d, the inner ones multiples of kLanes chosen so each
  /// slab holds about the same number of live blocks.
  void plan_slabs(const BatchView& batch, std::size_t slabs,
                  std::uint32_t* bounds);

  /// Packs feature row x as one sub-row per slab: slab j's goes to
  /// at[j] (advancing it) and its view to sub_rows[j].
  void pack_row(const double* x, const std::uint32_t* bounds,
                std::size_t slabs, PackArena& arena, PackCursor* at,
                simd::PackedSample* sub_rows) const;

  [[nodiscard]] double penalty(const double* params) const;

  LogisticRegressionConfig config_;
  std::size_t param_count_ = 0;
  std::size_t param_stride_ = 0;  // slot stride, 64-byte multiple
  std::size_t probs_stride_ = 0;

  // Per-model parameter/gradient slots (K × param_stride_) and per-sample
  // activation rows of the model currently in flight (max_n × probs_stride_).
  AlignedVector params_;
  AlignedVector grads_;
  AlignedVector probs_;

  // The round's packed rows when the cache is off or the round is split:
  // one region per (task, slab), each sized for the task's n worst-case
  // slab sub-rows, task-major then slab-major.
  PackArena round_;
  std::vector<std::size_t> packed_base_;  // first round_ row per task
  std::vector<PackCursor> region_base_;   // per (task, slab)
  std::vector<PackCursor> shard_at_;      // per (pack shard, slab)

  // Per-task slab bounds (K × (slabs + 1)) and the live-block tally
  // plan_slabs balances with.
  std::vector<std::uint32_t> slab_bounds_;
  std::vector<std::size_t> block_live_;

  // Cross-round pack cache (see set_pack_cache).  Each entry owns its own
  // exact-size arena; map rehash moves the vectors but not their heap
  // buffers, so the PackedSample pointers stay valid.
  struct PackKey {
    const double* features = nullptr;
    std::size_t n = 0;
    bool operator==(const PackKey&) const = default;
  };
  struct PackKeyHash {
    std::size_t operator()(const PackKey& k) const {
      return std::hash<const double*>{}(k.features) ^ (k.n * 0x9e3779b97f4a7c15ULL);
    }
  };
  bool pack_cache_enabled_ = false;
  std::unordered_map<PackKey, PackArena, PackKeyHash> pack_cache_;
  // Per-task packed-row pointers for the round in flight (into round_ or
  // into cache entries).
  std::vector<const simd::PackedSample*> task_rows_;

  // Kernel argument batches of the model in flight: one entry per (sample,
  // slab) sub-row each, sample-major for the forward pass and slab-major
  // for the outer products.
  std::vector<simd::RowsBatchArg> rows_args_;
  std::vector<simd::OuterBatchArg> outer_args_;
};

}  // namespace eefei::ml
