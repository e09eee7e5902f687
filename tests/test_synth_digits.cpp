#include "data/synth_digits.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <span>
#include <vector>

#include "common/thread_pool.h"

namespace eefei::data {
namespace {

TEST(SynthDigits, GeneratesRequestedCount) {
  SynthDigitsConfig cfg;
  cfg.image_side = 16;
  SynthDigits gen(cfg);
  const Dataset ds = gen.generate(100);
  EXPECT_EQ(ds.size(), 100u);
  EXPECT_EQ(ds.feature_dim(), 256u);
  EXPECT_EQ(ds.num_classes(), 10u);
}

TEST(SynthDigits, PixelsInUnitRange) {
  SynthDigitsConfig cfg;
  cfg.image_side = 20;
  SynthDigits gen(cfg);
  const Dataset ds = gen.generate(50);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    for (const double p : ds.features(i)) {
      ASSERT_GE(p, 0.0);
      ASSERT_LE(p, 1.0);
    }
  }
}

TEST(SynthDigits, DeterministicForSameSeed) {
  SynthDigitsConfig cfg;
  cfg.image_side = 12;
  cfg.seed = 77;
  SynthDigits a(cfg), b(cfg);
  const Dataset da = a.generate(20);
  const Dataset db = b.generate(20);
  ASSERT_EQ(da.size(), db.size());
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da.label(i), db.label(i));
    const auto fa = da.features(i);
    const auto fb = db.features(i);
    for (std::size_t j = 0; j < fa.size(); ++j) {
      ASSERT_DOUBLE_EQ(fa[j], fb[j]);
    }
  }
}

TEST(SynthDigits, DifferentSeedsDiffer) {
  SynthDigitsConfig a_cfg, b_cfg;
  a_cfg.image_side = b_cfg.image_side = 12;
  a_cfg.seed = 1;
  b_cfg.seed = 2;
  SynthDigits a(a_cfg), b(b_cfg);
  const Dataset da = a.generate(5);
  const Dataset db = b.generate(5);
  bool any_diff = false;
  for (std::size_t i = 0; i < 5 && !any_diff; ++i) {
    const auto fa = da.features(i);
    const auto fb = db.features(i);
    for (std::size_t j = 0; j < fa.size(); ++j) {
      if (fa[j] != fb[j]) {
        any_diff = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(SynthDigits, GenerateClassProducesOnlyThatLabel) {
  SynthDigitsConfig cfg;
  cfg.image_side = 12;
  SynthDigits gen(cfg);
  const Dataset ds = gen.generate_class(30, 7);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    ASSERT_EQ(ds.label(i), 7);
  }
}

TEST(SynthDigits, LabelsRoughlyUniform) {
  SynthDigitsConfig cfg;
  cfg.image_side = 10;
  SynthDigits gen(cfg);
  const Dataset ds = gen.generate(3000);
  const auto hist = ds.class_histogram();
  for (const std::size_t c : hist) {
    EXPECT_NEAR(static_cast<double>(c), 300.0, 90.0);
  }
}

// Classes must be geometrically distinguishable: the mean intra-class
// distance should be clearly below the mean inter-class distance.
TEST(SynthDigits, ClassCentroidsSeparated) {
  SynthDigitsConfig cfg;
  cfg.image_side = 16;
  SynthDigits gen(cfg);
  const std::size_t per = 40;
  std::vector<std::vector<double>> centroids(10,
                                             std::vector<double>(256, 0.0));
  for (int c = 0; c < 10; ++c) {
    const Dataset ds = gen.generate_class(per, c);
    for (std::size_t i = 0; i < per; ++i) {
      const auto f = ds.features(i);
      for (std::size_t j = 0; j < f.size(); ++j) {
        centroids[static_cast<std::size_t>(c)][j] +=
            f[j] / static_cast<double>(per);
      }
    }
  }
  double min_inter = 1e18;
  for (int a = 0; a < 10; ++a) {
    for (int b = a + 1; b < 10; ++b) {
      double d = 0;
      for (std::size_t j = 0; j < 256; ++j) {
        const double diff = centroids[a][j] - centroids[b][j];
        d += diff * diff;
      }
      min_inter = std::min(min_inter, d);
    }
  }
  EXPECT_GT(min_inter, 1.0) << "two digit classes are nearly identical";
}

// --- Byte goldens -----------------------------------------------------------
// Captured from the single-pass renderer (one gather loop per pixel, noise
// drawn inline).  Any renderer rewrite must keep every feature byte, every
// label and the generator's stream position (the next draw after the call)
// exactly as they were.

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

struct Digest {
  std::uint64_t features = 0;
  std::uint64_t labels = 0;
  std::uint64_t next_draw = 0;

  bool operator==(const Digest&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Digest& d) {
  return os << std::hex << "{0x" << d.features << "ULL, 0x" << d.labels
            << "ULL, 0x" << d.next_draw << "ULL}" << std::dec;
}

Digest digest(const Dataset& ds, const SynthDigits& gen) {
  const auto f = ds.all_features();
  const auto l = ds.all_labels();
  Rng next = gen.rng();
  return {fnv1a(kFnvBasis, f.data(), f.size_bytes()),
          fnv1a(kFnvBasis, l.data(), l.size_bytes()), next.next()};
}

SynthDigitsConfig side_config(std::size_t side, std::uint64_t seed) {
  SynthDigitsConfig cfg;
  cfg.image_side = side;
  cfg.seed = seed;
  return cfg;
}

// Data seed of the paper prototype at system seed 1 (seed·1000003+17).
constexpr std::uint64_t kPrototypeDataSeed = 1 * 1000003 + 17;

constexpr Digest kGoldenPrototype28{0x9a5e6424f6bd790eULL,
                                    0x5cc2db949157a8b4ULL,
                                    0x77755573539a430cULL};
constexpr Digest kGoldenOffCanvas{0x7425c2ec1ea161cfULL,
                                  0x713a42c679ca019cULL,
                                  0xea98d00334ed0211ULL};
constexpr Digest kGoldenClass{0xc52c673862406b5dULL, 0x9413f3563cfe0a03ULL,
                              0x259e9d69e89cf198ULL};

// Strokes pushed off the canvas: large translation and rotation, a wide
// scale range and thick strokes, so the cutoff-expanded bounding boxes are
// clipped on every side.
SynthDigitsConfig off_canvas_config() {
  SynthDigitsConfig cfg = side_config(16, 99);
  cfg.max_translation = 14.0;
  cfg.max_rotation_rad = 3.0;
  cfg.scale_jitter = 0.6;
  cfg.thickness_mean = 3.0;
  cfg.thickness_jitter = 1.5;
  return cfg;
}

TEST(SynthDigits, GoldenPrototype28) {
  SynthDigits gen(side_config(28, kPrototypeDataSeed));
  const Dataset ds = gen.generate(300);
  EXPECT_EQ(digest(ds, gen), kGoldenPrototype28);
}

TEST(SynthDigits, GoldenFleetSide12) {
  SynthDigits gen(side_config(12, 31));
  const Dataset ds = gen.generate(1000);
  EXPECT_EQ(digest(ds, gen),
            (Digest{0xd8b938b0b5d33c02ULL, 0xe8f758b16465c5f7ULL,
                    0xc990d35cf3d9f1c4ULL}));
}

TEST(SynthDigits, GoldenOddSide9) {
  SynthDigits gen(side_config(9, 5));
  const Dataset ds = gen.generate(400);
  EXPECT_EQ(digest(ds, gen),
            (Digest{0x8b5e443af150d115ULL, 0x2aadb420f0ca8374ULL,
                    0x440936f8d9092e2bULL}));
}

TEST(SynthDigits, GoldenStrokesLeaveCanvas) {
  SynthDigits gen(off_canvas_config());
  const Dataset ds = gen.generate(500);
  EXPECT_EQ(digest(ds, gen), kGoldenOffCanvas);
}

TEST(SynthDigits, GoldenGenerateClass) {
  SynthDigits gen(side_config(20, 7));
  const Dataset ds = gen.generate_class(200, 4);
  EXPECT_EQ(digest(ds, gen), kGoldenClass);
}

TEST(SynthDigits, GoldenSingleRender) {
  SynthDigits gen(side_config(28, kPrototypeDataSeed));
  std::vector<double> img(28 * 28);
  gen.render(8, img);
  Rng next = gen.rng();
  EXPECT_EQ(fnv1a(kFnvBasis, img.data(), img.size() * sizeof(double)),
            0xf00033f00ae75e97ULL);
  EXPECT_EQ(next.next(), 0x6f2636e6b42cf450ULL);
}

// --- Pool invariance --------------------------------------------------------
// generate() on a pool renders each image's geometry serially and its noise
// in parallel from a saved stream state.  For every pool size the bytes and
// the stream afterwards (a second generate() plus the next draw) must match
// the serial generator.

template <class T>
bool same_bytes(std::span<const T> a, std::span<const T> b) {
  // memcmp must not see the null data() of an empty dataset.
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

bool same_bytes(const Dataset& a, const Dataset& b) {
  return same_bytes(a.all_features(), b.all_features()) &&
         same_bytes(a.all_labels(), b.all_labels());
}

TEST(SynthDigits, PoolSizeInvariant) {
  const SynthDigitsConfig cfg = side_config(12, 2024);
  constexpr std::size_t kFollowUp = 37;
  for (const std::size_t n : {0u, 1u, 3u, 5000u}) {
    SynthDigits serial(cfg);
    const Dataset ref = serial.generate(n);
    const Dataset ref_next = serial.generate(kFollowUp);
    Rng ref_rng = serial.rng();
    const std::uint64_t ref_draw = ref_rng.next();
    for (const std::size_t workers : {1u, 2u, 3u, 4u, 8u}) {
      ThreadPool pool(workers);
      SynthDigits gen(cfg);
      const Dataset ds = gen.generate(n, &pool);
      const Dataset next = gen.generate(kFollowUp, &pool);
      Rng rng = gen.rng();
      EXPECT_TRUE(same_bytes(ds, ref)) << "n=" << n << " workers=" << workers;
      EXPECT_TRUE(same_bytes(next, ref_next))
          << "n=" << n << " workers=" << workers;
      EXPECT_EQ(rng.next(), ref_draw) << "n=" << n << " workers=" << workers;
    }
  }
}

TEST(SynthDigits, GoldensHoldOnPool) {
  ThreadPool pool(3);
  SynthDigits prototype(side_config(28, kPrototypeDataSeed));
  const Dataset a = prototype.generate(300, &pool);
  EXPECT_EQ(digest(a, prototype), kGoldenPrototype28);
  SynthDigits off_canvas(off_canvas_config());
  const Dataset b = off_canvas.generate(500, &pool);
  EXPECT_EQ(digest(b, off_canvas), kGoldenOffCanvas);
  SynthDigits one_class(side_config(20, 7));
  const Dataset c = one_class.generate_class(200, 4, &pool);
  EXPECT_EQ(digest(c, one_class), kGoldenClass);
}

TEST(AsciiArt, ShapeAndRamp) {
  std::vector<double> img(16, 0.0);
  img[0] = 1.0;
  img[5] = 0.5;
  const std::string art = ascii_art(img, 4);
  // 4 rows of 4 chars + newlines.
  EXPECT_EQ(art.size(), 20u);
  EXPECT_EQ(art[0], '@');   // full intensity
  EXPECT_EQ(art[4], '\n');
  EXPECT_EQ(art.back(), '\n');
}

}  // namespace
}  // namespace eefei::data
