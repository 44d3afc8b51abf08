#include "ml/dataset.h"

#include <cmath>
#include <stdexcept>

namespace stf::ml {
namespace {

class Lcg {
 public:
  explicit Lcg(std::uint64_t seed)
      : state_(seed * 6364136223846793005ull + 1442695040888963407ull) {}
  float unit() {  // uniform [0,1)
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<float>((state_ >> 33) & 0xffffff) /
           static_cast<float>(0x1000000);
  }
  std::uint64_t next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return state_ >> 16;
  }

 private:
  std::uint64_t state_;
};

Dataset synthesize(std::int64_t n, std::int64_t feature_dim,
                   std::int64_t classes, std::uint64_t seed) {
  if (n <= 0) throw std::invalid_argument("dataset size must be positive");
  // Class templates: smooth pseudo-patterns in [0,1].
  std::vector<std::vector<float>> templates(
      static_cast<std::size_t>(classes));
  for (std::int64_t c = 0; c < classes; ++c) {
    Lcg rng(seed * 1000003 + static_cast<std::uint64_t>(c));
    auto& t = templates[static_cast<std::size_t>(c)];
    t.resize(static_cast<std::size_t>(feature_dim));
    for (std::int64_t i = 0; i < feature_dim; ++i) {
      // Low-frequency structure so nearby pixels correlate like real images.
      const float base =
          0.5f + 0.5f * std::sin(static_cast<float>(i) * 0.05f +
                                 static_cast<float>(c) * 1.7f);
      t[static_cast<std::size_t>(i)] = 0.65f * base + 0.35f * rng.unit();
    }
  }

  Dataset ds;
  ds.feature_dim = feature_dim;
  ds.num_classes = classes;
  ds.images = Tensor({n, feature_dim});
  ds.labels = Tensor({n, classes});
  Lcg rng(seed);
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t c = static_cast<std::int64_t>(
        rng.next() % static_cast<std::uint64_t>(classes));
    ds.labels.at2(i, c) = 1.0f;
    const auto& t = templates[static_cast<std::size_t>(c)];
    for (std::int64_t f = 0; f < feature_dim; ++f) {
      const float noise = rng.unit() - 0.5f;
      float v = t[static_cast<std::size_t>(f)] + 0.2f * noise;
      ds.images.at2(i, f) = std::min(1.0f, std::max(0.0f, v));
    }
  }
  return ds;
}

}  // namespace

std::map<std::string, Tensor> Dataset::batch_feeds(
    std::int64_t index, std::int64_t batch_size, const std::string& image_name,
    const std::string& label_name) const {
  const std::int64_t start = index * batch_size;
  if (start < 0 || start + batch_size > size()) {
    throw std::out_of_range("batch_feeds: batch out of range");
  }
  Tensor x({batch_size, feature_dim});
  Tensor y({batch_size, num_classes});
  for (std::int64_t r = 0; r < batch_size; ++r) {
    for (std::int64_t f = 0; f < feature_dim; ++f) {
      x.at2(r, f) = images.at2(start + r, f);
    }
    for (std::int64_t c = 0; c < num_classes; ++c) {
      y.at2(r, c) = labels.at2(start + r, c);
    }
  }
  // Emplaced, not listed: an initializer_list's elements are const, so the
  // map would copy both tensors out of it.
  std::map<std::string, Tensor> feeds;
  feeds.emplace(image_name, std::move(x));
  feeds.emplace(label_name, std::move(y));
  return feeds;
}

Tensor Dataset::sample(std::int64_t i) const {
  Tensor x({1, feature_dim});
  for (std::int64_t f = 0; f < feature_dim; ++f) x.at2(0, f) = images.at2(i, f);
  return x;
}

std::int64_t Dataset::label_of(std::int64_t i) const {
  for (std::int64_t c = 0; c < num_classes; ++c) {
    if (labels.at2(i, c) > 0.5f) return c;
  }
  return -1;
}

Dataset synthetic_mnist(std::int64_t n, std::uint64_t seed) {
  return synthesize(n, 28 * 28, 10, seed);
}

Dataset synthetic_cifar10(std::int64_t n, std::uint64_t seed) {
  return synthesize(n, 32 * 32 * 3, 10, seed ^ 0xc1fa);
}

Dataset synthetic_images(std::int64_t n, std::int64_t h, std::int64_t w,
                         std::int64_t channels, std::uint64_t seed) {
  // Spatially smooth class templates (low frequency in x AND y) so that
  // box-downsampling — the §7.1 normalization — preserves the structure.
  const std::int64_t classes = 10;
  const std::int64_t feature_dim = h * w * channels;
  Dataset ds;
  ds.feature_dim = feature_dim;
  ds.num_classes = classes;
  ds.images = Tensor({n, feature_dim});
  ds.labels = Tensor({n, classes});
  std::vector<std::vector<float>> templates(
      static_cast<std::size_t>(classes));
  for (std::int64_t c = 0; c < classes; ++c) {
    auto& t = templates[static_cast<std::size_t>(c)];
    t.resize(static_cast<std::size_t>(feature_dim));
    const float phase = static_cast<float>(c) * 1.7f;
    for (std::int64_t y = 0; y < h; ++y) {
      for (std::int64_t x = 0; x < w; ++x) {
        for (std::int64_t ch = 0; ch < channels; ++ch) {
          const float v =
              0.5f + 0.25f * std::sin(0.22f * static_cast<float>(x) + phase) +
              0.25f * std::sin(0.31f * static_cast<float>(y) + 2.1f * phase);
          t[static_cast<std::size_t>((y * w + x) * channels + ch)] = v;
        }
      }
    }
  }
  Lcg rng(seed ^ 0x1a6e);
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t c = static_cast<std::int64_t>(
        rng.next() % static_cast<std::uint64_t>(classes));
    ds.labels.at2(i, c) = 1.0f;
    const auto& t = templates[static_cast<std::size_t>(c)];
    for (std::int64_t f = 0; f < feature_dim; ++f) {
      const float noise = rng.unit() - 0.5f;
      const float v = t[static_cast<std::size_t>(f)] + 0.25f * noise;
      ds.images.at2(i, f) = std::min(1.0f, std::max(0.0f, v));
    }
  }
  return ds;
}

Dataset normalize_resolution(const Dataset& dataset, std::int64_t from_h,
                             std::int64_t from_w, std::int64_t channels,
                             std::int64_t to_h, std::int64_t to_w) {
  if (from_h * from_w * channels != dataset.feature_dim) {
    throw std::invalid_argument(
        "normalize_resolution: source shape does not match feature_dim");
  }
  if (to_h <= 0 || to_w <= 0 || from_h % to_h != 0 || from_w % to_w != 0) {
    throw std::invalid_argument(
        "normalize_resolution: target must divide the source evenly");
  }
  const std::int64_t fy = from_h / to_h;
  const std::int64_t fx = from_w / to_w;
  const float inv = 1.0f / static_cast<float>(fy * fx);

  Dataset out;
  out.feature_dim = to_h * to_w * channels;
  out.num_classes = dataset.num_classes;
  out.labels = dataset.labels;
  out.images = Tensor({dataset.size(), out.feature_dim});
  for (std::int64_t i = 0; i < dataset.size(); ++i) {
    for (std::int64_t oy = 0; oy < to_h; ++oy) {
      for (std::int64_t ox = 0; ox < to_w; ++ox) {
        for (std::int64_t c = 0; c < channels; ++c) {
          float acc = 0;
          for (std::int64_t dy = 0; dy < fy; ++dy) {
            for (std::int64_t dx = 0; dx < fx; ++dx) {
              const std::int64_t sy = oy * fy + dy;
              const std::int64_t sx = ox * fx + dx;
              acc += dataset.images.at2(i, (sy * from_w + sx) * channels + c);
            }
          }
          out.images.at2(i, (oy * to_w + ox) * channels + c) = acc * inv;
        }
      }
    }
  }
  return out;
}

}  // namespace stf::ml
