// In-memory labelled dataset plus non-owning views.  A DatasetView is the
// unit handed to FL clients: each edge server trains on a view of its local
// shard without copying features.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ml/model.h"

namespace eefei::data {

class Dataset {
 public:
  Dataset() = default;
  Dataset(std::size_t feature_dim, std::size_t num_classes)
      : feature_dim_(feature_dim), num_classes_(num_classes) {}
  /// Adopts row-major `features` already filled in place (one row of
  /// feature_dim values per entry of `labels`).
  Dataset(std::size_t feature_dim, std::size_t num_classes,
          std::vector<double> features, std::vector<int> labels);

  void reserve(std::size_t n);
  /// Appends one example; features.size() must equal feature_dim().
  void add(std::span<const double> features, int label);

  [[nodiscard]] std::size_t size() const { return labels_.size(); }
  [[nodiscard]] bool empty() const { return labels_.empty(); }
  [[nodiscard]] std::size_t feature_dim() const { return feature_dim_; }
  [[nodiscard]] std::size_t num_classes() const { return num_classes_; }

  [[nodiscard]] std::span<const double> features(std::size_t i) const;
  [[nodiscard]] int label(std::size_t i) const { return labels_[i]; }

  [[nodiscard]] std::span<const double> all_features() const {
    return features_;
  }
  [[nodiscard]] std::span<const int> all_labels() const { return labels_; }

  /// View over the entire dataset.
  [[nodiscard]] ml::BatchView view() const;

  /// Per-class example counts (for partitioner audits and tests).
  [[nodiscard]] std::vector<std::size_t> class_histogram() const;

 private:
  std::size_t feature_dim_ = 0;
  std::size_t num_classes_ = 0;
  std::vector<double> features_;  // row-major
  std::vector<int> labels_;
};

/// A non-owning subset of a Dataset given by example indices.  Materializes
/// a compact row-major copy on construction so training loops see
/// contiguous memory (edge servers store their shard contiguously too).
class Shard {
 public:
  Shard() = default;
  Shard(const Dataset& parent, std::span<const std::size_t> indices);

  [[nodiscard]] std::size_t size() const { return labels_.size(); }
  [[nodiscard]] std::size_t feature_dim() const { return feature_dim_; }
  [[nodiscard]] ml::BatchView view() const;
  /// First `n` examples of the shard (n_k sub-sampling in the sweeps).
  [[nodiscard]] ml::BatchView prefix_view(std::size_t n) const;
  [[nodiscard]] std::vector<std::size_t> class_histogram(
      std::size_t num_classes) const;

 private:
  std::size_t feature_dim_ = 0;
  std::vector<double> features_;
  std::vector<int> labels_;
};

}  // namespace eefei::data
