#include "data/synth_digits.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <string>
#include <utility>

#include "common/thread_pool.h"

namespace eefei::data {

namespace {

struct Point {
  double x;
  double y;
};

struct Segment {
  Point a;
  Point b;
};

// Glyph prototypes in a unit box (x right, y down).  Layout follows a
// seven-segment skeleton with a few diagonals for 1/4/7 so the classes do
// not collapse to segment-subset relationships (which would make some
// digits linearly indistinguishable under heavy noise).
constexpr double kL = 0.28, kR = 0.72, kT = 0.15, kM = 0.50, kB = 0.85;

const std::array<std::vector<Segment>, 10>& glyphs() {
  static const std::array<std::vector<Segment>, 10> g = {{
      // 0
      {{{kL, kT}, {kR, kT}},
       {{kL, kB}, {kR, kB}},
       {{kL, kT}, {kL, kB}},
       {{kR, kT}, {kR, kB}}},
      // 1: vertical stroke with a small flag
      {{{0.5, kT}, {0.5, kB}}, {{0.36, 0.28}, {0.5, kT}}},
      // 2
      {{{kL, kT}, {kR, kT}},
       {{kR, kT}, {kR, kM}},
       {{kR, kM}, {kL, kB}},
       {{kL, kB}, {kR, kB}}},
      // 3
      {{{kL, kT}, {kR, kT}},
       {{kR, kT}, {kR, kB}},
       {{kL, kM}, {kR, kM}},
       {{kL, kB}, {kR, kB}}},
      // 4
      {{{kL, kT}, {kL, kM}},
       {{kL, kM}, {kR, kM}},
       {{kR, kT}, {kR, kB}}},
      // 5
      {{{kL, kT}, {kR, kT}},
       {{kL, kT}, {kL, kM}},
       {{kL, kM}, {kR, kM}},
       {{kR, kM}, {kR, kB}},
       {{kL, kB}, {kR, kB}}},
      // 6
      {{{kL, kT}, {kR, kT}},
       {{kL, kT}, {kL, kB}},
       {{kL, kM}, {kR, kM}},
       {{kR, kM}, {kR, kB}},
       {{kL, kB}, {kR, kB}}},
      // 7: top bar plus a long diagonal
      {{{kL, kT}, {kR, kT}}, {{kR, kT}, {0.42, kB}}},
      // 8
      {{{kL, kT}, {kR, kT}},
       {{kL, kM}, {kR, kM}},
       {{kL, kB}, {kR, kB}},
       {{kL, kT}, {kL, kB}},
       {{kR, kT}, {kR, kB}}},
      // 9
      {{{kL, kT}, {kR, kT}},
       {{kL, kT}, {kL, kM}},
       {{kL, kM}, {kR, kM}},
       {{kR, kT}, {kR, kB}},
       {{kL, kB}, {kR, kB}}},
  }};
  return g;
}

// Pixel-space segment with the projection constants and the cutoff-expanded
// bounding box precomputed once per sample.  Distances are kept squared
// until the single sqrt per pixel.
struct PreparedSegment {
  Point a;
  double dx, dy, inv_len2;
  double x_lo, x_hi, y_lo, y_hi;  // bbox expanded by the intensity cutoff
};

double point_segment_distance2(double px, double py,
                               const PreparedSegment& s) {
  double t = ((px - s.a.x) * s.dx + (py - s.a.y) * s.dy) * s.inv_len2;
  t = std::clamp(t, 0.0, 1.0);
  const double ex = px - (s.a.x + t * s.dx);
  const double ey = py - (s.a.y + t * s.dy);
  return ex * ex + ey * ey;
}

// Pixel-index range [lo, hi) holding every pixel whose centre i + 0.5 can
// lie in [a, b], clipped to the canvas.  Rounding of a − 0.5 and b − 0.5 is
// monotone, so no such pixel is left out; callers keep the exact bbox test.
std::pair<std::size_t, std::size_t> pixel_range(double a, double b,
                                                double fside) {
  const double lo = std::clamp(std::floor(a - 0.5), 0.0, fside);
  const double hi = std::clamp(std::floor(b - 0.5) + 1.0, 0.0, fside);
  return {static_cast<std::size_t>(lo), static_cast<std::size_t>(hi)};
}

}  // namespace

SynthDigits::SynthDigits(SynthDigitsConfig config)
    : config_(config), rng_(config.seed) {
  assert(config_.image_side >= 8);
}

void SynthDigits::draw_geometry(int label, std::span<double> out) {
  assert(label >= 0 && static_cast<std::size_t>(label) < kNumClasses);
  const std::size_t side = config_.image_side;
  assert(out.size() == side * side);

  // Per-sample geometric jitter.  Pixel-valued parameters (translation,
  // stroke thickness) are specified at the 28×28 reference resolution and
  // scaled with the configured side so small images stay crisp.
  const double res = static_cast<double>(side) / 28.0;
  const double max_tr = config_.max_translation * res;
  const double tx = rng_.uniform(-max_tr, max_tr);
  const double ty = rng_.uniform(-max_tr, max_tr);
  const double angle = rng_.uniform(-config_.max_rotation_rad,
                                    config_.max_rotation_rad);
  const double scale =
      1.0 + rng_.uniform(-config_.scale_jitter, config_.scale_jitter);
  const double thickness = std::max(
      0.35, rng_.normal(config_.thickness_mean * res,
                        config_.thickness_jitter * res));
  const double cosr = std::cos(angle);
  const double sinr = std::sin(angle);
  const auto fside = static_cast<double>(side);

  // A pixel farther than this from every stroke has zero pre-noise
  // intensity: (thickness − d)/softness + 0.5 ≤ 0 clamps to exactly 0.
  const double softness = 0.8 * std::max(res, 0.35);
  const double cutoff = thickness + 0.5 * softness;
  const double cutoff2 = cutoff * cutoff;

  // Transform the prototype segments into pixel space once per sample and
  // precompute the projection constants + cutoff-expanded bounding boxes.
  const auto& proto = glyphs()[static_cast<std::size_t>(label)];
  std::vector<PreparedSegment> segs;
  segs.reserve(proto.size());
  for (const auto& s : proto) {
    auto map = [&](Point p) -> Point {
      const double ux = (p.x - 0.5) * scale;
      const double uy = (p.y - 0.5) * scale;
      const double rx = ux * cosr - uy * sinr;
      const double ry = ux * sinr + uy * cosr;
      return {rx * fside + fside / 2.0 + tx, ry * fside + fside / 2.0 + ty};
    };
    const Point a = map(s.a);
    const Point b = map(s.b);
    PreparedSegment ps;
    ps.a = a;
    ps.dx = b.x - a.x;
    ps.dy = b.y - a.y;
    const double len2 = ps.dx * ps.dx + ps.dy * ps.dy;
    ps.inv_len2 = len2 > 0.0 ? 1.0 / len2 : 0.0;
    ps.x_lo = std::min(a.x, b.x) - cutoff;
    ps.x_hi = std::max(a.x, b.x) + cutoff;
    ps.y_lo = std::min(a.y, b.y) - cutoff;
    ps.y_hi = std::max(a.y, b.y) + cutoff;
    segs.push_back(ps);
  }

  // Squared distance to the closest stroke, scattered segment by segment
  // over each segment's clipped bbox.  Segments whose bbox misses a pixel
  // are ≥ cutoff away, so skipping them cannot change the clamped
  // intensity; and min over non-negative distances is the same for any
  // update order, so this equals a per-pixel loop over all segments.
  std::fill(out.begin(), out.end(), cutoff2);
  for (const auto& s : segs) {
    const auto [x0, x1] = pixel_range(s.x_lo, s.x_hi, fside);
    const auto [y0, y1] = pixel_range(s.y_lo, s.y_hi, fside);
    for (std::size_t yy = y0; yy < y1; ++yy) {
      const double py = static_cast<double>(yy) + 0.5;
      double* row = out.data() + yy * side;
      for (std::size_t xx = x0; xx < x1; ++xx) {
        const double px = static_cast<double>(xx) + 0.5;
        if (px < s.x_lo || px > s.x_hi || py < s.y_lo || py > s.y_hi) {
          continue;
        }
        row[xx] = std::min(row[xx], point_segment_distance2(px, py, s));
      }
    }
  }
  for (double& p : out) {
    double v = 0.0;
    if (p < cutoff2) {
      v = std::clamp((thickness - std::sqrt(p)) / softness + 0.5, 0.0, 1.0);
    }
    p = v;
  }
}

void SynthDigits::add_noise(Rng& rng, std::span<double> pixels) const {
  for (double& p : pixels) {
    double v = p;
    if (v > 0.0 && rng.bernoulli(config_.dropout_prob)) v = 0.0;
    v += rng.normal(0.0, config_.pixel_noise_stddev);
    p = std::clamp(v, 0.0, 1.0);
  }
}

void SynthDigits::skip_noise(std::span<const double> pixels) {
  for (const double v : pixels) {
    if (v > 0.0) rng_.next();  // the dropout bernoulli's one uniform
    rng_.discard_normal();
  }
}

void SynthDigits::render(int label, std::span<double> out) {
  draw_geometry(label, out);
  add_noise(rng_, out);
}

Dataset SynthDigits::generate_rows(std::size_t n, int label,
                                   ThreadPool* pool) {
  const std::size_t dim = config_.feature_dim();
  std::vector<double> features(n * dim);
  std::vector<int> labels(n);
  auto row = [&](std::size_t i) {
    return std::span<double>(features.data() + i * dim, dim);
  };
  // With a pool: pass 1 (this loop, serial) makes every draw before each
  // image's noise in stream order, saving the stream where the noise starts
  // and stepping past it; pass 2 adds each image's noise in parallel.
  const bool two_pass = pool != nullptr && pool->size() > 1;
  std::vector<Rng> noise_rng;
  if (two_pass) noise_rng.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = label >= 0 ? label
                           : static_cast<int>(rng_.uniform_index(kNumClasses));
    draw_geometry(labels[i], row(i));
    if (two_pass) {
      noise_rng.push_back(rng_);
      skip_noise(row(i));
    } else {
      add_noise(rng_, row(i));
    }
  }
  if (two_pass) {
    pool->parallel_for(n, [&](std::size_t i) {
      Rng rng = noise_rng[i];
      add_noise(rng, row(i));
    });
  }
  return Dataset(dim, kNumClasses, std::move(features), std::move(labels));
}

Dataset SynthDigits::generate(std::size_t n, ThreadPool* pool) {
  return generate_rows(n, -1, pool);
}

Dataset SynthDigits::generate_class(std::size_t n, int label,
                                    ThreadPool* pool) {
  assert(label >= 0);
  return generate_rows(n, label, pool);
}

std::string ascii_art(std::span<const double> image, std::size_t side) {
  static constexpr std::string_view kRamp = " .:-=+*#%@";
  std::string out;
  out.reserve((side + 1) * side);
  for (std::size_t y = 0; y < side; ++y) {
    for (std::size_t x = 0; x < side; ++x) {
      const double v = std::clamp(image[y * side + x], 0.0, 1.0);
      const auto idx = static_cast<std::size_t>(v * 9.999);
      out.push_back(kRamp[idx]);
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace eefei::data
