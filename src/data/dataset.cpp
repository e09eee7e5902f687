#include "data/dataset.h"

#include <cassert>
#include <utility>

namespace eefei::data {

Dataset::Dataset(std::size_t feature_dim, std::size_t num_classes,
                 std::vector<double> features, std::vector<int> labels)
    : feature_dim_(feature_dim),
      num_classes_(num_classes),
      features_(std::move(features)),
      labels_(std::move(labels)) {
  assert(features_.size() == labels_.size() * feature_dim_);
}

void Dataset::reserve(std::size_t n) {
  features_.reserve(n * feature_dim_);
  labels_.reserve(n);
}

void Dataset::add(std::span<const double> features, int label) {
  assert(features.size() == feature_dim_);
  assert(label >= 0 && static_cast<std::size_t>(label) < num_classes_);
  features_.insert(features_.end(), features.begin(), features.end());
  labels_.push_back(label);
}

std::span<const double> Dataset::features(std::size_t i) const {
  assert(i < size());
  return {features_.data() + i * feature_dim_, feature_dim_};
}

ml::BatchView Dataset::view() const {
  return {features_, labels_, feature_dim_};
}

std::vector<std::size_t> Dataset::class_histogram() const {
  std::vector<std::size_t> hist(num_classes_, 0);
  for (const int l : labels_) ++hist[static_cast<std::size_t>(l)];
  return hist;
}

Shard::Shard(const Dataset& parent, std::span<const std::size_t> indices)
    : feature_dim_(parent.feature_dim()) {
  features_.reserve(indices.size() * feature_dim_);
  labels_.reserve(indices.size());
  for (const std::size_t idx : indices) {
    const auto f = parent.features(idx);
    features_.insert(features_.end(), f.begin(), f.end());
    labels_.push_back(parent.label(idx));
  }
}

ml::BatchView Shard::view() const { return {features_, labels_, feature_dim_}; }

ml::BatchView Shard::prefix_view(std::size_t n) const {
  n = std::min(n, labels_.size());
  return {{features_.data(), n * feature_dim_},
          {labels_.data(), n},
          feature_dim_};
}

std::vector<std::size_t> Shard::class_histogram(std::size_t num_classes) const {
  std::vector<std::size_t> hist(num_classes, 0);
  for (const int l : labels_) {
    if (l >= 0 && static_cast<std::size_t>(l) < num_classes) {
      ++hist[static_cast<std::size_t>(l)];
    }
  }
  return hist;
}

}  // namespace eefei::data
