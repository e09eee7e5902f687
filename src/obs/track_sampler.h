// Deterministic sampling of per-server trace tracks.  At fleet scale every
// server cannot own a pseudo-process lane — a traced N=1M run would emit a
// million track-name metadata events before the first span.  The sampler
// picks a bounded, seed-stable subset of server ids up front; engines name
// tracks and emit per-server spans/instants only for members, and the
// coordinator/tier lanes stay always-on.
//
// Two modes:
//  - kStride (default): ids k * (population / max_tracks) — exactly the
//    subset the fleet engine has sampled for full energy timelines since
//    PR 4, so default traces keep showing the same servers as before.
//  - kReservoir: a uniform sample without replacement drawn with a private
//    Rng(seed) via Floyd's algorithm.  The generator is owned here and
//    consumed at construction only, so sampling never perturbs simulation
//    RNG streams (same argument as the rest of the obs layer).
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

namespace eefei::obs {

struct TrackSamplerConfig {
  enum class Mode { kStride, kReservoir };
  Mode mode = Mode::kStride;
  /// Upper bound on sampled per-server tracks (0 = no per-server tracks).
  std::size_t max_tracks = 8;
  /// Seed for kReservoir; ignored by kStride.
  std::uint64_t seed = 0;
};

class TrackSampler {
 public:
  TrackSampler() = default;
  /// Selects min(cfg.max_tracks, population) ids out of [0, population).
  TrackSampler(std::size_t population, const TrackSamplerConfig& cfg);

  /// True when server `id` owns a trace track.
  [[nodiscard]] bool contains(std::size_t id) const {
    return members_.count(id) != 0;
  }
  /// Sampled ids in ascending order.
  [[nodiscard]] const std::vector<std::size_t>& ids() const { return ids_; }
  [[nodiscard]] std::size_t size() const { return ids_.size(); }

 private:
  std::vector<std::size_t> ids_;
  std::unordered_set<std::size_t> members_;
};

}  // namespace eefei::obs
