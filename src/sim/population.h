// Shared population substrate: dataset generation, partitioning, FL
// clients and the network topology.  FeiSystem and EventFleetEngine both
// build their world through this, so the fleet engine's population is
// byte-identical to the reference system's for the same seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "data/dataset.h"
#include "data/partition.h"
#include "data/synth_digits.h"
#include "fl/client.h"
#include "ml/model_spec.h"
#include "ml/optimizer.h"
#include "net/topology.h"

namespace eefei {
class ThreadPool;
}  // namespace eefei

namespace eefei::sim {

enum class PartitionScheme {
  kIid,        // the prototype's uniform allocation
  kShards,     // pathological label-sorted non-IID
  kDirichlet,  // tunable label skew
};

struct PopulationConfig {
  std::size_t num_servers = 20;           // N
  std::size_t samples_per_server = 3000;  // n_k
  std::size_t test_samples = 2000;

  data::SynthDigitsConfig data;
  PartitionScheme partition = PartitionScheme::kIid;
  double dirichlet_alpha = 0.5;
  std::size_t shards_per_client = 2;

  ml::ModelSpec model;
  ml::SgdConfig sgd;

  net::TopologyConfig net;

  /// Large-fleet memory lever: generate training data for only this many
  /// distinct shard groups and map server k onto group k mod P, instead of
  /// one private shard per server.  0 (the default) builds the full
  /// per-server population, byte-identical to the reference FeiSystem;
  /// P ≥ N is equivalent to 0.  With 0 < P < N the data footprint drops
  /// from O(N·n_k) to O(P·n_k) — the lever that makes 100k-server fleets
  /// fit in memory.  Clients stay distinct (ids, models, energy); only the
  /// local datasets repeat every P servers.
  std::size_t data_pool_shards = 0;

  /// false: build only the datasets and shard table — no Client vector, no
  /// network Topology.  The virtual-population mode of the event-driven
  /// fleet engine materializes clients lazily (fl::LazyClientPool) and
  /// derives LAN timings from the shared WifiLanConfig instead of per-server
  /// channel objects, so at N = 1M neither O(N) array is ever allocated.
  /// The datasets and shards are generated by the exact same recipe either
  /// way (the flag is read only after generation), so a lazily-materialized
  /// client is byte-identical to its eager twin.
  bool materialize_world = true;

  std::uint64_t seed = 1;
};

/// Owns the built world.  Seed derivation matches the original
/// FeiSystem::build_population exactly (data: seed·1000003+17, partition:
/// seed·7919+3, topology: seed·31+11) — do not reorder the generation steps.
class Population {
 public:
  /// Builds the world; a non-null `pool` renders the datasets and copies
  /// the shards in parallel, with identical results.
  [[nodiscard]] Status build(const PopulationConfig& config,
                             ThreadPool* pool = nullptr);

  [[nodiscard]] const data::Dataset& test_set() const { return test_set_; }
  [[nodiscard]] const std::vector<data::Shard>& shards() const {
    return shards_;
  }
  [[nodiscard]] std::vector<fl::Client>& clients() { return clients_; }
  [[nodiscard]] const std::vector<fl::Client>& clients() const {
    return clients_;
  }
  [[nodiscard]] net::Topology& topology() { return *topology_; }
  [[nodiscard]] bool built() const { return built_; }
  /// True when build() ran with materialize_world = false: clients() is
  /// empty and topology() must not be called.
  [[nodiscard]] bool is_virtual() const { return built_ && !topology_; }
  /// Number of distinct data shards (= min(N, data_pool_shards) when
  /// pooling); server k trains shards()[k % pool_size()].
  [[nodiscard]] std::size_t pool_size() const { return shards_.size(); }

 private:
  data::Dataset test_set_;
  std::vector<data::Shard> shards_;
  std::vector<fl::Client> clients_;
  std::unique_ptr<net::Topology> topology_;
  bool built_ = false;
};

}  // namespace eefei::sim
