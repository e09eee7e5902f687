#include "sim/population.h"

#include <gtest/gtest.h>

#include <cstring>
#include <span>

#include "common/thread_pool.h"

namespace eefei::sim {
namespace {

PopulationConfig small_config(PartitionScheme scheme) {
  PopulationConfig cfg;
  cfg.num_servers = 7;
  cfg.samples_per_server = 60;
  cfg.test_samples = 45;
  cfg.data.image_side = 12;
  cfg.partition = scheme;
  cfg.model.input_dim = 144;
  cfg.net.num_edge_servers = cfg.num_servers;
  cfg.seed = 3;
  return cfg;
}

template <class T>
bool same_bytes(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

// A pool renders the datasets (two-pass synthesis) and copies the shard
// rows in parallel; the partitioners' index math stays serial, so the
// built world must equal the serial build byte for byte.
TEST(Population, PoolBuildMatchesSerial) {
  for (const auto scheme : {PartitionScheme::kIid, PartitionScheme::kShards,
                            PartitionScheme::kDirichlet}) {
    const PopulationConfig cfg = small_config(scheme);
    Population serial;
    ASSERT_TRUE(serial.build(cfg).ok());
    for (const std::size_t workers : {2u, 3u, 4u}) {
      ThreadPool pool(workers);
      Population pooled;
      ASSERT_TRUE(pooled.build(cfg, &pool).ok());
      const auto scheme_id = static_cast<int>(scheme);
      EXPECT_TRUE(same_bytes(pooled.test_set().all_features(),
                             serial.test_set().all_features()))
          << "scheme=" << scheme_id << " workers=" << workers;
      EXPECT_TRUE(same_bytes(pooled.test_set().all_labels(),
                             serial.test_set().all_labels()));
      ASSERT_EQ(pooled.shards().size(), serial.shards().size());
      for (std::size_t k = 0; k < serial.shards().size(); ++k) {
        const ml::BatchView a = pooled.shards()[k].view();
        const ml::BatchView b = serial.shards()[k].view();
        EXPECT_TRUE(same_bytes(a.features, b.features))
            << "scheme=" << scheme_id << " workers=" << workers
            << " shard=" << k;
        EXPECT_TRUE(same_bytes(a.labels, b.labels));
      }
    }
  }
}

}  // namespace
}  // namespace eefei::sim
