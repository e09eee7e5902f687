// Client access seam for the coordinator: how the FL loop reaches client k.
//
// A materialized world (FeiSystem, or the fleet engine by default) owns a
// std::vector<Client> and hands the coordinator a DenseClientPool view of
// it.  The fleet engine's virtual mode runs populations (N = 1M) whose
// Client objects — small as
// they are — would still cost hundreds of MB up front, yet only K·T of them
// are ever selected across a whole run.  LazyClientPool materializes a
// client on first access instead, from the same deterministic recipe
// Population::build uses (Client construction draws no randomness), so a
// lazily-built client is indistinguishable from an eagerly-built one and
// training results cannot depend on which pool backs the coordinator.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "data/dataset.h"
#include "fl/client.h"

namespace eefei::fl {

/// Abstract client access: size of the population and a reference to
/// client `id`.  `client()` must be safe to call from pool workers (the
/// coordinator trains selected clients in parallel) and must return the
/// same object for the same id across calls.
class ClientPool {
 public:
  virtual ~ClientPool() = default;
  [[nodiscard]] virtual std::size_t size() const = 0;
  [[nodiscard]] virtual Client& client(ClientId id) = 0;
  [[nodiscard]] bool empty() const { return size() == 0; }
};

/// The materialized case: a view over an existing vector<Client> (owned by
/// Population or a test).  Zero overhead over the raw vector access the
/// coordinator used to do.
class DenseClientPool final : public ClientPool {
 public:
  explicit DenseClientPool(std::vector<Client>* clients)
      : clients_(clients) {}

  [[nodiscard]] std::size_t size() const override { return clients_->size(); }
  [[nodiscard]] Client& client(ClientId id) override {
    return (*clients_)[id];
  }

 private:
  std::vector<Client>* clients_;
};

/// The virtual-population case: clients are constructed on first access
/// from the shared shard array (server k trains shard k mod P, exactly like
/// Population::build wires it) and cached for the rest of the run.  Client
/// construction is deterministic and draws no RNG, so access order — and
/// therefore thread count — cannot change any client's state.  Accesses are
/// serialized by a mutex; the coordinator's parallel training path only
/// touches each selected client from one worker, and materialization is a
/// few hundred bytes, so the lock is never contended for long.
class LazyClientPool final : public ClientPool {
 public:
  /// `shards` must outlive the pool.  Client k gets shards[k % shards.size()].
  LazyClientPool(std::size_t num_clients,
                 const std::vector<data::Shard>* shards, ClientConfig config)
      : num_clients_(num_clients), shards_(shards), config_(config) {}

  [[nodiscard]] std::size_t size() const override { return num_clients_; }
  [[nodiscard]] Client& client(ClientId id) override;

  /// How many clients have been materialized so far (tests, memory probes).
  [[nodiscard]] std::size_t materialized() const;

 private:
  std::size_t num_clients_;
  const std::vector<data::Shard>* shards_;
  ClientConfig config_;
  mutable std::mutex mutex_;
  std::unordered_map<ClientId, std::unique_ptr<Client>> cache_;
};

}  // namespace eefei::fl
