#include "ml/model_bank.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>

#include "common/thread_pool.h"
#include "ml/activations.h"

namespace eefei::ml {

namespace {

constexpr std::size_t kSlotAlign = kTensorAlignment / sizeof(double);

std::size_t round_up(std::size_t n, std::size_t multiple) {
  return (n + multiple - 1) / multiple * multiple;
}

void ensure_doubles(AlignedVector& buf, std::size_t n) {
  if (buf.size() < n) buf.resize(n);
}

template <class T>
void ensure_items(std::vector<T>& buf, std::size_t n) {
  if (buf.size() < n) buf.resize(n);
}

/// fn(0 … count−1): across the pool when there is one, inline otherwise.
/// The serial path never builds a std::function, so it stays
/// allocation-free; the pool path hands fn over by reference, so a split
/// round's only heap traffic is the pool's own dispatch bookkeeping.
template <class Fn>
void fan_out(ThreadPool* pool, std::size_t count, const Fn& fn) {
  if (pool != nullptr && count > 1) {
    pool->parallel_for(count, std::cref(fn));
    return;
  }
  for (std::size_t i = 0; i < count; ++i) fn(i);
}

}  // namespace

void ModelBank::configure(const LogisticRegressionConfig& config) {
  assert(config.input_dim > 0 && config.num_classes >= 2);
  // Packed offsets are k·c in 32 bits (simd::PackedSample).
  assert(config.input_dim * config.num_classes <=
         std::numeric_limits<std::uint32_t>::max());
  config_ = config;
  param_count_ = config.input_dim * config.num_classes + config.num_classes;
  param_stride_ = round_up(param_count_, kSlotAlign);
  probs_stride_ = round_up(config.num_classes, kSlotAlign);
}

double ModelBank::penalty(const double* params) const {
  if (config_.l2_lambda <= 0.0) return 0.0;
  double sq = 0.0;
  for (std::size_t i = 0; i < param_count_; ++i) sq += params[i] * params[i];
  return 0.5 * config_.l2_lambda * sq;
}

void ModelBank::PackArena::reserve_rows(std::size_t rows, std::size_t d,
                                        std::size_t slabs) {
  const std::size_t blocks = rows * (d / simd::kLanes);
  const std::size_t tails = rows * (d % simd::kLanes);
  ensure_doubles(block_x, blocks * simd::kLanes);
  ensure_items(run_off, blocks);
  ensure_items(run_blocks, blocks);
  ensure_doubles(tail_x, tails);
  ensure_items(tail_off, tails);
  ensure_items(packed, rows * slabs);
}

void ModelBank::plan_slabs(const BatchView& batch, std::size_t slabs,
                           std::uint32_t* bounds) {
  const std::size_t d = config_.input_dim;
  const std::size_t nb = d / simd::kLanes;
  bounds[0] = 0;
  bounds[slabs] = static_cast<std::uint32_t>(d);
  if (slabs == 1) return;

  // Tally live 4-blocks over an evenly strided subset of the rows: the
  // plan only balances work, so an estimate is as exact as it needs to be.
  constexpr std::size_t kPlanRows = 256;
  const std::size_t n = batch.size();
  const std::size_t stride = std::max<std::size_t>(1, n / kPlanRows);
  block_live_.assign(nb, 0);
  std::size_t total = 0;
  for (std::size_t s = 0; s < n; s += stride) {
    const double* x = batch.features.data() + s * d;
    for (std::size_t q = 0; q < nb; ++q, x += simd::kLanes) {
      if (x[0] != 0.0 || x[1] != 0.0 || x[2] != 0.0 || x[3] != 0.0) {
        ++block_live_[q];
        ++total;
      }
    }
  }
  // Bound j sits before the first block at which the running tally
  // reaches j/slabs of the total.
  std::size_t j = 1;
  std::size_t acc = 0;
  for (std::size_t q = 0; q < nb && j < slabs; ++q) {
    while (j < slabs && acc * slabs >= total * j) {
      bounds[j++] = static_cast<std::uint32_t>(q * simd::kLanes);
    }
    acc += block_live_[q];
  }
  while (j < slabs) {
    bounds[j++] = static_cast<std::uint32_t>(nb * simd::kLanes);
  }
}

void ModelBank::pack_row(const double* x, const std::uint32_t* bounds,
                         std::size_t slabs, PackArena& arena, PackCursor* at,
                         simd::PackedSample* sub_rows) const {
  const std::size_t c = config_.num_classes;
  for (std::size_t j = 0; j < slabs; ++j) {
    PackCursor& cur = at[j];
    const std::size_t k0 = bounds[j];
    double* bx = arena.block_x.data() + cur.block * simd::kLanes;
    std::uint32_t* ro = arena.run_off.data() + cur.run;
    std::uint32_t* rb = arena.run_blocks.data() + cur.run;
    double* tx = arena.tail_x.data() + cur.tail;
    std::uint32_t* to = arena.tail_off.data() + cur.tail;
    const simd::PackedCounts counts =
        simd::pack_sample(x + k0, bounds[j + 1] - k0, c, bx, ro, rb, tx, to);
    // pack_sample saw the slab as a row of its own; rebase its offsets to
    // the absolute k·c the weight block is indexed by.
    const auto base = static_cast<std::uint32_t>(k0 * c);
    for (std::size_t r = 0; r < counts.runs; ++r) ro[r] += base;
    for (std::size_t t = 0; t < counts.tail; ++t) to[t] += base;
    sub_rows[j] = {bx, ro, rb, counts.runs, tx, to, counts.tail};
    cur.block += counts.blocks;
    cur.run += counts.runs;
    cur.tail += counts.tail;
  }
}

void ModelBank::prepare_round(std::span<Task> tasks, ThreadPool* pool,
                              std::size_t slabs) {
  const std::size_t k = tasks.size();
  const std::size_t d = config_.input_dim;
  const std::size_t dt = d % simd::kLanes;

  ensure_items(task_rows_, k);
  std::size_t max_n = 0;
  for (const Task& t : tasks) {
    assert(t.batch.valid());
    assert(t.batch.feature_dim == d);
    max_n = std::max(max_n, t.batch.size());
  }

  if (pack_cache_enabled_ && slabs == 1) {
    // Cross-round path: each distinct batch packs ONCE, into an entry that
    // owns exact-size arenas (built full-size up front, never resized, so
    // the PackedSample pointers into them stay valid for the bank's
    // lifetime).  Repeat batches — pooled shards re-selected round after
    // round — are a hash lookup.
    const std::uint32_t whole_row[2] = {0, static_cast<std::uint32_t>(d)};
    for (std::size_t i = 0; i < k; ++i) {
      const BatchView& batch = tasks[i].batch;
      const std::size_t n = batch.size();
      auto [it, fresh] =
          pack_cache_.try_emplace(PackKey{batch.features.data(), n});
      PackArena& entry = it->second;
      if (fresh) {
        entry.reserve_rows(n, d, 1);
        PackCursor at;
        for (std::size_t s = 0; s < n; ++s) {
          pack_row(batch.features.data() + s * d, whole_row, 1, entry, &at,
                   entry.packed.data() + s);
        }
      }
      task_rows_[i] = entry.packed.data();
    }
  } else {
    // Plan every task's slabs and lay out its regions: region (i, j) holds
    // n_i worst-case slab-j sub-rows; only the last slab has tail rows.
    ensure_items(packed_base_, k);
    ensure_items(slab_bounds_, k * (slabs + 1));
    ensure_items(region_base_, k * slabs);
    std::size_t total = 0;
    PackCursor region;
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t n = tasks[i].batch.size();
      std::uint32_t* bounds = slab_bounds_.data() + i * (slabs + 1);
      plan_slabs(tasks[i].batch, slabs, bounds);
      for (std::size_t j = 0; j < slabs; ++j) {
        region_base_[i * slabs + j] = region;
        const std::size_t blocks = (bounds[j + 1] - bounds[j]) / simd::kLanes;
        region.block += n * blocks;
        region.run += n * blocks;
      }
      region.tail += n * dt;
      packed_base_[i] = total;
      total += n;
    }
    round_.reserve_rows(total, d, slabs);

    // Pack every (task, sample) row once; the E training sweeps plus the
    // final evaluation all replay these entries.  Split rounds pack
    // contiguous row ranges in parallel; a range starts each region at its
    // first row's worst-case offset, so ranges never overlap.
    const std::size_t shards = slabs > 1 ? std::min(slabs, total) : 1;
    ensure_items(shard_at_, shards * slabs);
    fan_out(pool, shards, [&](std::size_t w) {
      const std::size_t first = total * w / shards;
      const std::size_t last = total * (w + 1) / shards;
      PackCursor* at = shard_at_.data() + w * slabs;
      auto i = static_cast<std::size_t>(
          std::upper_bound(packed_base_.begin(), packed_base_.begin() + k,
                           first) -
          packed_base_.begin() - 1);
      for (std::size_t g = first; g < last; ++i) {
        const std::size_t n = tasks[i].batch.size();
        const std::size_t s_begin = g - packed_base_[i];
        const std::size_t s_end = std::min(n, last - packed_base_[i]);
        const std::uint32_t* bounds = slab_bounds_.data() + i * (slabs + 1);
        for (std::size_t j = 0; j < slabs; ++j) {
          const std::size_t blocks = (bounds[j + 1] - bounds[j]) / simd::kLanes;
          const PackCursor& base = region_base_[i * slabs + j];
          at[j] = {base.block + s_begin * blocks, base.run + s_begin * blocks,
                   base.tail + s_begin * dt};
        }
        const double* x = tasks[i].batch.features.data();
        for (std::size_t s = s_begin; s < s_end; ++s) {
          pack_row(x + s * d, bounds, slabs, round_, at,
                   round_.packed.data() + (packed_base_[i] + s) * slabs);
        }
        g = packed_base_[i] + s_end;
      }
    });
    for (std::size_t i = 0; i < k; ++i) {
      task_rows_[i] = round_.packed.data() + packed_base_[i] * slabs;
    }
  }

  ensure_doubles(params_, k * param_stride_);
  ensure_doubles(grads_, k * param_stride_);
  ensure_doubles(probs_, max_n * probs_stride_);
  ensure_items(rows_args_, max_n * slabs);
  ensure_items(outer_args_, max_n * slabs);
}

void ModelBank::train(std::span<const double> global, std::span<Task> tasks,
                      ThreadPool* pool) {
  assert(global.size() == param_count_);
  const std::size_t k = tasks.size();
  if (k == 0) return;
  if (pool != nullptr && pool->size() <= 1) pool = nullptr;
  const std::size_t slabs = pool != nullptr ? pool->size() : 1;
  const std::size_t d = config_.input_dim;
  const std::size_t c = config_.num_classes;
  const std::size_t wc = d * c;  // bias offset within a parameter slot
  const simd::KernelTable& kt = simd::kernels();

  prepare_round(tasks, pool, slabs);

  for (std::size_t i = 0; i < k; ++i) {
    double* params = params_.data() + i * param_stride_;
    std::copy(global.begin(), global.end(), params);
  }

  // Model-major sweep: each model runs its whole local problem before the
  // next starts, so its parameter/gradient slot stays cache-hot, and each
  // kernel call batches the model's n samples.  Per epoch the serial
  // reference's exact sequence — zeroed gradient, ascending-sample
  // forward/backward, mean + penalty loss, mean-scaled gradient, L2 term,
  // params −= lr·grad — re-phased per the header's determinism argument.
  for (std::size_t i = 0; i < k; ++i) {
    Task& task = tasks[i];
    const std::size_t n = task.batch.size();
    double* params = params_.data() + i * param_stride_;
    double* grad = grads_.data() + i * param_stride_;
    double* gb = grad + wc;
    const simd::PackedSample* rows = task_rows_[i];

    // Kernel argument batches are invariant across this task's epochs —
    // every epoch touches the same packed rows, parameter slot, gradient
    // slot and activation rows — so they are built once per task.  A
    // sample's sub-rows are consecutive forward entries (ascending slab,
    // so its blocks replay in ascending k); outer entries are slab-major:
    // slab j's n sub-rows in ascending s.
    for (std::size_t s = 0; s < n; ++s) {
      double* row = probs_.data() + s * probs_stride_;
      for (std::size_t j = 0; j < slabs; ++j) {
        const simd::PackedSample& x = rows[s * slabs + j];
        rows_args_[s * slabs + j] = {x, params, row};
        outer_args_[j * n + s] = {x, row, grad};
      }
    }

    // Forward phase over one sample range: bias copy, batched packed
    // accumulate_rows, activation.  Ranges write disjoint rows.
    const std::size_t shards = std::min(slabs, n);
    auto forward = [&](std::size_t w) {
      const std::size_t s0 = n * w / shards;
      const std::size_t s1 = n * (w + 1) / shards;
      for (std::size_t s = s0; s < s1; ++s) {
        double* row = probs_.data() + s * probs_stride_;
        for (std::size_t j = 0; j < c; ++j) row[j] = params[wc + j];
      }
      kt.accumulate_rows_batched(rows_args_.data() + s0 * slabs,
                                 (s1 - s0) * slabs, c);
      for (std::size_t s = s0; s < s1; ++s) {
        std::span<double> row(probs_.data() + s * probs_stride_, c);
        if (config_.activation == Activation::kSoftmax) {
          softmax_inplace(row);
        } else {
          sigmoid_inplace(row);
        }
      }
    };
    // Backward phase over one weight-row slab: every sample's sub-row
    // accumulates into this model's gradient in ascending s.
    auto backward = [&](std::size_t j) {
      kt.accumulate_outer_batched(outer_args_.data() + j * n, n, c);
    };
    auto loss_sum_of_rows = [&] {
      double loss_sum = 0.0;
      for (std::size_t s = 0; s < n; ++s) {
        lr_accumulate_row_loss(config_.activation,
                               probs_.data() + s * probs_stride_,
                               task.batch.labels[s], c, loss_sum);
      }
      return loss_sum;
    };

    for (std::size_t e = 0; e < task.epochs; ++e) {
      std::fill(grad, grad + param_count_, 0.0);
      fan_out(pool, shards, forward);
      if (e == 0) {
        task.initial_loss = loss_sum_of_rows() / static_cast<double>(n) +
                            penalty(params);
      }
      // Error signal p − y and the bias gradient, ascending s.
      for (std::size_t s = 0; s < n; ++s) {
        double* row = probs_.data() + s * probs_stride_;
        row[static_cast<std::size_t>(task.batch.labels[s])] -= 1.0;
        for (std::size_t j = 0; j < c; ++j) gb[j] += row[j];
      }
      fan_out(pool, slabs, backward);

      const double inv_n = 1.0 / static_cast<double>(n);
      for (std::size_t p = 0; p < param_count_; ++p) grad[p] *= inv_n;
      if (config_.l2_lambda > 0.0) {
        for (std::size_t p = 0; p < param_count_; ++p) {
          grad[p] += config_.l2_lambda * params[p];
        }
      }
      const double lr = task.learning_rate;
      for (std::size_t p = 0; p < param_count_; ++p) {
        params[p] -= lr * grad[p];
      }
    }

    // Final evaluation at the trained parameters — the serial client's
    // model->evaluate(view) — replaying the same packed rows.
    fan_out(pool, shards, forward);
    task.final_loss = loss_sum_of_rows() / static_cast<double>(n) +
                      penalty(params);
    if (task.epochs == 0) task.initial_loss = task.final_loss;
  }
}

}  // namespace eefei::ml
