#include "obs/track_sampler.h"

#include <algorithm>

#include "common/rng.h"

namespace eefei::obs {

TrackSampler::TrackSampler(std::size_t population,
                           const TrackSamplerConfig& cfg) {
  const std::size_t k = std::min(cfg.max_tracks, population);
  if (k == 0) return;
  ids_.reserve(k);

  if (cfg.mode == TrackSamplerConfig::Mode::kStride || k == population) {
    // Same id set the fleet engine has always used for sampled energy
    // timelines: every (population / k)-th server starting at 0.
    const std::size_t stride = population / k;
    for (std::size_t i = 0; i < k; ++i) ids_.push_back(i * stride);
  } else {
    // Floyd's uniform sample without replacement on a private stream.
    Rng rng(cfg.seed * 0x9e3779b97f4a7c15ULL + 0x5bf0'3635);
    std::unordered_set<std::size_t> picked;
    picked.reserve(k * 2);
    for (std::size_t j = population - k; j < population; ++j) {
      const auto t = static_cast<std::size_t>(rng.uniform_index(j + 1));
      picked.insert(picked.count(t) != 0 ? j : t);
    }
    ids_.assign(picked.begin(), picked.end());
    std::sort(ids_.begin(), ids_.end());
  }
  members_.insert(ids_.begin(), ids_.end());
}

}  // namespace eefei::obs
