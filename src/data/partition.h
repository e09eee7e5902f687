// Dataset partitioners: split a training set across N edge servers.
//
// The paper's prototype allocates the 60k MNIST examples uniformly across
// 20 servers (IID, 3000 each) — that is `partition_iid`.  The non-IID
// variants (label shards à la the original FedAvg paper, and Dirichlet
// skew) support our ablation of the paper's §VI-C observation that K*=1
// hinges on the IID assumption.
#pragma once

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "data/dataset.h"

namespace eefei {
class ThreadPool;
}  // namespace eefei

namespace eefei::data {

// Every partitioner draws its indices serially from `rng`; a non-null
// `pool` only spreads the copies of the rows into the shards over its
// workers, so the shards are identical with or without one.

/// Uniform random equal-size split into `num_parts` shards.
[[nodiscard]] Result<std::vector<Shard>> partition_iid(
    const Dataset& ds, std::size_t num_parts, Rng& rng,
    ThreadPool* pool = nullptr);

/// Sort-by-label shard split: each client receives `shards_per_client`
/// contiguous label-sorted chunks (classic pathological non-IID).
[[nodiscard]] Result<std::vector<Shard>> partition_shards(
    const Dataset& ds, std::size_t num_parts, std::size_t shards_per_client,
    Rng& rng, ThreadPool* pool = nullptr);

/// Dirichlet(alpha) label-skew split: smaller alpha => more skew.
[[nodiscard]] Result<std::vector<Shard>> partition_dirichlet(
    const Dataset& ds, std::size_t num_parts, double alpha, Rng& rng,
    ThreadPool* pool = nullptr);

/// Degree of label skew of a partition: mean total-variation distance
/// between each shard's label distribution and the global one (0 = IID).
[[nodiscard]] double label_skew(const std::vector<Shard>& shards,
                                std::size_t num_classes);

}  // namespace eefei::data
