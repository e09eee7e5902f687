// Synthetic hand-written-digit generator — the MNIST substitute (see
// DESIGN.md).  Ten stroke-based glyph prototypes are rasterized onto a
// 28×28 grid with per-sample geometric jitter (translation, rotation,
// scale, stroke thickness) and pixel-level noise (Gaussian noise, dropout).
//
// The generator is deterministic given a seed, produces arbitrarily many
// examples, and is tuned so multinomial logistic regression converges to
// the ~0.9 accuracy plateau the paper's Fig. 4 revolves around.
//
// Each image is rendered in two steps: its geometry (label, jitter draws,
// then every pixel's pre-noise intensity) and its noise (a dropout draw per
// lit pixel, a Gaussian per pixel).  The number of noise draws depends only
// on the lit mask, so generate() on a pool runs the geometry serially,
// saving each image's stream state and skipping the stream past its noise,
// then adds every image's noise in parallel from its saved state.  Output
// bytes and the stream position afterwards are identical for every pool
// size, serial included (DESIGN.md, "Data synthesis").
#pragma once

#include <cstddef>

#include "common/rng.h"
#include "data/dataset.h"

namespace eefei {
class ThreadPool;
}  // namespace eefei

namespace eefei::data {

struct SynthDigitsConfig {
  std::size_t image_side = 28;        // 28×28 grayscale, like MNIST
  double pixel_noise_stddev = 0.18;   // additive Gaussian per pixel
  double dropout_prob = 0.08;         // probability a lit pixel goes dark
  double max_translation = 2.5;       // pixels at the 28×28 reference
  double max_rotation_rad = 0.18;     // ~10 degrees
  double scale_jitter = 0.12;         // ± relative scale
  double thickness_mean = 1.3;        // stroke half-width (28×28 reference)
  double thickness_jitter = 0.35;
  std::uint64_t seed = 42;

  [[nodiscard]] std::size_t feature_dim() const {
    return image_side * image_side;
  }
};

class SynthDigits {
 public:
  static constexpr std::size_t kNumClasses = 10;

  explicit SynthDigits(SynthDigitsConfig config = {});

  /// Generates `n` examples with labels drawn uniformly over the classes.
  /// A `pool` of two or more workers adds the noise in parallel; null (the
  /// default) renders serially.  The result is the same either way.
  [[nodiscard]] Dataset generate(std::size_t n, ThreadPool* pool = nullptr);

  /// Generates `n` examples of a single class (used by non-IID fixtures).
  [[nodiscard]] Dataset generate_class(std::size_t n, int label,
                                       ThreadPool* pool = nullptr);

  /// Renders a single sample of `label` into `out` (image_side² floats in
  /// [0,1]).  Exposed for tests and the quickstart's ASCII-art demo.
  void render(int label, std::span<double> out);

  [[nodiscard]] const SynthDigitsConfig& config() const { return config_; }
  /// The generator's stream: what the next generate()/render() draws from.
  [[nodiscard]] const Rng& rng() const { return rng_; }

 private:
  /// generate()/generate_class() body; `label` < 0 draws each image's label.
  [[nodiscard]] Dataset generate_rows(std::size_t n, int label,
                                      ThreadPool* pool);
  /// Draws the sample's jitter from rng_ and writes every pixel's pre-noise
  /// intensity into `out`.
  void draw_geometry(int label, std::span<double> out);
  /// Dropout and Gaussian noise over pre-noise intensities, drawn from `rng`.
  void add_noise(Rng& rng, std::span<double> pixels) const;
  /// Advances rng_ past exactly the draws add_noise() makes on `pixels`.
  void skip_noise(std::span<const double> pixels);

  SynthDigitsConfig config_;
  Rng rng_;
};

/// Renders an image as ASCII art (for the quickstart example).
[[nodiscard]] std::string ascii_art(std::span<const double> image,
                                    std::size_t side);

}  // namespace eefei::data
