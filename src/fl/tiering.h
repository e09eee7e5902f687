// Hierarchical aggregation topology: device → gateway → regional
// coordinator → root.  A flat FedAvg root with N = 1M leaves is an
// unbounded fan-in; the tier plan groups servers under gateways and
// gateways under regions so no aggregation point ever waits on more than a
// configured number of children.  The event-driven fleet engine uses the
// plan for completion tracking (a gateway is "done" when its last selected
// member uploads; a region when its last active gateway reports; the root
// when the last region does), per-tier latency modelling and per-tier
// trace tracks.
//
// The NUMERIC aggregation (Eq. 2) deliberately stays flat at the root:
// summing per-gateway partial averages re-associates the floating-point
// reduction, which would break the bit-identity contract against
// FeiSystem.  Tiering therefore bounds *fan-in of the completion /
// communication structure* — the thing that has a timing and energy cost —
// while the root still reduces the K surviving updates in index order.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "fl/client.h"

namespace eefei::fl {

struct TierConfig {
  /// Max servers (devices) reporting to one gateway.
  std::size_t gateway_fanin = 64;
  /// Max gateways reporting to one regional coordinator.
  std::size_t region_fanin = 64;

  [[nodiscard]] bool valid() const {
    return gateway_fanin > 0 && region_fanin > 0;
  }
};

/// Static server → gateway → region mapping plus per-round participation
/// bookkeeping.  The mapping is contiguous-block (servers [g·F, (g+1)·F)
/// report to gateway g), so membership is O(1) arithmetic — nothing is
/// materialized per server, which is what lets the plan scale to N = 1M.
class TierPlan {
 public:
  TierPlan(std::size_t num_servers, TierConfig config);

  [[nodiscard]] std::size_t num_servers() const { return num_servers_; }
  [[nodiscard]] std::size_t num_gateways() const { return num_gateways_; }
  [[nodiscard]] std::size_t num_regions() const { return num_regions_; }

  [[nodiscard]] std::size_t gateway_of(std::size_t server) const {
    return server / config_.gateway_fanin;
  }
  [[nodiscard]] std::size_t region_of_gateway(std::size_t gateway) const {
    return gateway / config_.region_fanin;
  }
  [[nodiscard]] std::size_t region_of(std::size_t server) const {
    return region_of_gateway(gateway_of(server));
  }
  /// First server of a gateway's contiguous member block — the inverse of
  /// gateway_of().  Consumers that address "the gateway" through a member
  /// id (the per-gateway contention merge, the multi-hop graph mapping)
  /// use this instead of re-deriving the block arithmetic.
  [[nodiscard]] std::size_t first_member_of_gateway(
      std::size_t gateway) const {
    return gateway * config_.gateway_fanin;
  }

  /// Actual fan-in of a given node (the last gateway/region of the fleet
  /// may be partially filled).
  [[nodiscard]] std::size_t gateway_fanin(std::size_t gateway) const;
  [[nodiscard]] std::size_t region_fanin(std::size_t region) const;
  /// The root's fan-in is the region count — bounded by construction at
  /// ceil(N / (gateway_fanin · region_fanin)).
  [[nodiscard]] std::size_t root_fanin() const { return num_regions_; }

  [[nodiscard]] const TierConfig& config() const { return config_; }

  /// One round's participation: which gateways/regions have selected
  /// members and how many children each waits for.  Ids are sorted
  /// ascending — the deterministic merge order for anything iterating the
  /// active tier nodes.
  struct Participation {
    struct Node {
      std::size_t id = 0;
      std::size_t expected = 0;  // children active this round
    };
    std::vector<Node> gateways;
    std::vector<Node> regions;
    std::size_t root_expected = 0;  // active regions
  };

  /// Builds the round participation from the selected set.  `selected` may
  /// be in any order; the result depends only on the set.
  [[nodiscard]] Participation participation(
      std::span<const ClientId> selected) const;

 private:
  std::size_t num_servers_;
  TierConfig config_;
  std::size_t num_gateways_;
  std::size_t num_regions_;
};

}  // namespace eefei::fl
