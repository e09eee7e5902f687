#include "data/partition.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>

#include "common/thread_pool.h"

namespace eefei::data {

namespace {

std::vector<std::size_t> shuffled_indices(std::size_t n, Rng& rng) {
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  rng.shuffle(idx);
  return idx;
}

/// One Shard per index list in `parts`, the row copies spread over `pool`.
template <class Parts>
std::vector<Shard> make_shards(const Dataset& ds, const Parts& parts,
                               ThreadPool* pool) {
  std::vector<Shard> shards(parts.size());
  auto build = [&](std::size_t p) { shards[p] = Shard(ds, parts[p]); };
  if (pool != nullptr) {
    pool->parallel_for(parts.size(), build);
  } else {
    for (std::size_t p = 0; p < parts.size(); ++p) build(p);
  }
  return shards;
}

}  // namespace

Result<std::vector<Shard>> partition_iid(const Dataset& ds,
                                         std::size_t num_parts, Rng& rng,
                                         ThreadPool* pool) {
  if (num_parts == 0) {
    return Error::invalid_argument("partition_iid: zero parts");
  }
  if (ds.size() < num_parts) {
    return Error::insufficient_data("partition_iid: fewer examples than parts");
  }
  const auto idx = shuffled_indices(ds.size(), rng);
  const std::size_t per = ds.size() / num_parts;
  std::vector<std::span<const std::size_t>> parts;
  parts.reserve(num_parts);
  for (std::size_t p = 0; p < num_parts; ++p) {
    parts.emplace_back(idx.data() + p * per, per);
  }
  return make_shards(ds, parts, pool);
}

Result<std::vector<Shard>> partition_shards(const Dataset& ds,
                                            std::size_t num_parts,
                                            std::size_t shards_per_client,
                                            Rng& rng, ThreadPool* pool) {
  if (num_parts == 0 || shards_per_client == 0) {
    return Error::invalid_argument("partition_shards: zero parts/shards");
  }
  const std::size_t total_shards = num_parts * shards_per_client;
  if (ds.size() < total_shards) {
    return Error::insufficient_data(
        "partition_shards: fewer examples than shards");
  }

  // Sort example indices by label; ties broken by original order.
  std::vector<std::size_t> idx(ds.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return ds.label(a) < ds.label(b);
  });

  const std::size_t shard_size = ds.size() / total_shards;
  std::vector<std::size_t> shard_order(total_shards);
  std::iota(shard_order.begin(), shard_order.end(), std::size_t{0});
  rng.shuffle(shard_order);

  std::vector<std::vector<std::size_t>> assignment(num_parts);
  for (std::size_t p = 0; p < num_parts; ++p) {
    std::vector<std::size_t>& mine = assignment[p];
    mine.reserve(shards_per_client * shard_size);
    for (std::size_t s = 0; s < shards_per_client; ++s) {
      const std::size_t shard_id = shard_order[p * shards_per_client + s];
      for (std::size_t i = 0; i < shard_size; ++i) {
        mine.push_back(idx[shard_id * shard_size + i]);
      }
    }
  }
  return make_shards(ds, assignment, pool);
}

Result<std::vector<Shard>> partition_dirichlet(const Dataset& ds,
                                               std::size_t num_parts,
                                               double alpha, Rng& rng,
                                               ThreadPool* pool) {
  if (num_parts == 0) {
    return Error::invalid_argument("partition_dirichlet: zero parts");
  }
  if (alpha <= 0.0) {
    return Error::invalid_argument("partition_dirichlet: alpha must be > 0");
  }
  const std::size_t num_classes = ds.num_classes();

  // Bucket example indices per class, shuffled.
  std::vector<std::vector<std::size_t>> by_class(num_classes);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    by_class[static_cast<std::size_t>(ds.label(i))].push_back(i);
  }
  for (auto& bucket : by_class) rng.shuffle(bucket);

  std::vector<std::vector<std::size_t>> assignment(num_parts);
  for (std::size_t c = 0; c < num_classes; ++c) {
    // Draw a Dirichlet(alpha) proportion vector over clients.
    std::vector<double> props(num_parts);
    double sum = 0.0;
    for (double& p : props) {
      p = rng.gamma(alpha);
      sum += p;
    }
    for (double& p : props) p /= sum;

    // Allocate this class's examples by cumulative proportion.
    const auto& bucket = by_class[c];
    std::size_t start = 0;
    double cum = 0.0;
    for (std::size_t p = 0; p < num_parts; ++p) {
      cum += props[p];
      const auto end = (p + 1 == num_parts)
                           ? bucket.size()
                           : std::min(bucket.size(),
                                      static_cast<std::size_t>(std::llround(
                                          cum *
                                          static_cast<double>(bucket.size()))));
      for (std::size_t i = start; i < end; ++i) {
        assignment[p].push_back(bucket[i]);
      }
      start = end;
    }
  }

  for (auto& mine : assignment) rng.shuffle(mine);
  return make_shards(ds, assignment, pool);
}

double label_skew(const std::vector<Shard>& shards, std::size_t num_classes) {
  if (shards.empty()) return 0.0;
  std::vector<double> global(num_classes, 0.0);
  double total = 0.0;
  std::vector<std::vector<std::size_t>> hists;
  hists.reserve(shards.size());
  for (const auto& s : shards) {
    hists.push_back(s.class_histogram(num_classes));
    for (std::size_t c = 0; c < num_classes; ++c) {
      global[c] += static_cast<double>(hists.back()[c]);
      total += static_cast<double>(hists.back()[c]);
    }
  }
  if (total == 0.0) return 0.0;
  for (double& g : global) g /= total;

  double mean_tv = 0.0;
  std::size_t counted = 0;
  for (const auto& hist : hists) {
    const auto n = static_cast<double>(
        std::accumulate(hist.begin(), hist.end(), std::size_t{0}));
    if (n == 0) continue;
    double tv = 0.0;
    for (std::size_t c = 0; c < num_classes; ++c) {
      tv += std::abs(static_cast<double>(hist[c]) / n - global[c]);
    }
    mean_tv += 0.5 * tv;
    ++counted;
  }
  return counted > 0 ? mean_tv / static_cast<double>(counted) : 0.0;
}

}  // namespace eefei::data
