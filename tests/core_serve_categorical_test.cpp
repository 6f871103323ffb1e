// Serve-boundary tests for categorical columns (ctest label: serve).
//
// Two contracts:
//  * Bounded memos: a stream of ever-new category values through one
//    ServeEngine keeps the CategoricalEncoder item memory and the engine's
//    per-feature scratch memo at or below hv::kMaxMemoEntries, and every
//    encoding and answer still equals a freshly built encoder's.
//  * Conversion: a category value with no integer (±inf, |v| >= 2^63) fails
//    its own request with std::invalid_argument — sync or coalesced — while
//    the other requests of the same batch keep their exact answers.
#include <future>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/bundle.hpp"
#include "core/extractor.hpp"
#include "core/hamming_classifier.hpp"
#include "core/serve.hpp"
#include "hv/encoders.hpp"
#include "ml/zoo.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using hdc::core::HdcFeatureExtractor;
using hdc::core::ModelBundle;
using hdc::core::ServeConfig;
using hdc::core::ServeEngine;

constexpr std::size_t kWardColumn = 1;

hdc::core::ExtractorConfig extractor_config() {
  hdc::core::ExtractorConfig config;
  config.dimensions = 256;
  config.seed = 5;
  return config;
}

/// Row with an age, a ward category and a smoker flag.
std::vector<double> patient(std::size_t i, double ward) {
  return {20.0 + static_cast<double>((i * 7) % 50), ward,
          static_cast<double>(i % 2)};
}

/// Saved bundle (extractor + hamming + logistic regression) trained on 60
/// patients over wards 0..5.
const std::string& artifact() {
  static const std::string saved = [] {
    hdc::data::Dataset ds({{"age", hdc::data::ColumnKind::kContinuous},
                           {"ward", hdc::data::ColumnKind::kCategorical},
                           {"smoker", hdc::data::ColumnKind::kBinary}});
    for (std::size_t i = 0; i < 60; ++i) {
      const std::size_t ward = i % 6;
      ds.add_row(patient(i, static_cast<double>(ward)),
                 (ward >= 3) != (i % 5 == 0) ? 1 : 0);
    }
    ModelBundle bundle;
    bundle.extractor.emplace(extractor_config());
    bundle.extractor->fit(ds);
    hdc::core::HammingClassifier hamming;
    hamming.fit(bundle.extractor->transform(ds), ds.labels());
    bundle.hamming = std::move(hamming);
    auto logistic = hdc::ml::make_model("Logistic Regression", 0.2);
    logistic->fit_bits(bundle.extractor->transform_bits(ds), ds.labels());
    bundle.models.push_back(std::move(logistic));
    std::ostringstream out;
    hdc::core::save_bundle(out, bundle);
    return out.str();
  }();
  return saved;
}

ModelBundle load() {
  std::istringstream in(artifact());
  return hdc::core::load_bundle(in);
}

/// A newly built extractor with the bundle's column encodings: its memos
/// are empty, so its output is the generated vector.
HdcFeatureExtractor fresh_extractor(const ModelBundle& bundle) {
  HdcFeatureExtractor extractor(bundle.extractor->config());
  extractor.fit_from_columns(bundle.extractor->column_encodings());
  return extractor;
}

std::size_t item_memory_size(const ServeEngine& engine) {
  return dynamic_cast<const hdc::hv::CategoricalEncoder&>(
             engine.bundle().extractor->record_encoder().feature(kWardColumn))
      .item_memory_size();
}

TEST(ServeCategorical, MemosStayBoundedOnEndlessNewCategories) {
  ServeConfig config;
  config.model = "hamming";
  ServeEngine engine(load(), config);
  const ModelBundle reference = load();

  // Pass 0 streams kMaxMemoEntries + 300 never-seen wards; pass 1 replays
  // them, so memoised and regenerated categories are both served twice.
  const std::size_t wards = hdc::hv::kMaxMemoEntries + 300;
  hdc::hv::RecordEncoder::Scratch scratch;  // long-lived, like the engine's
  std::vector<double> row_buffer;
  for (std::size_t pass = 0; pass < 2; ++pass) {
    for (std::size_t w = 0; w < wards; ++w) {
      const std::vector<double> row = patient(w, 100.0 + static_cast<double>(w));
      const hdc::hv::BitVector expected = fresh_extractor(reference).encode_row(row);
      ASSERT_EQ(engine.bundle().extractor->encode_row(row, scratch, row_buffer),
                expected)
          << pass << "/" << w;
      ASSERT_EQ(engine.classify(row), reference.hamming->predict(expected))
          << pass << "/" << w;
    }
    EXPECT_EQ(engine.memo_entries(), hdc::hv::kMaxMemoEntries) << pass;
    EXPECT_EQ(item_memory_size(engine), hdc::hv::kMaxMemoEntries) << pass;
    EXPECT_LE(scratch.memo[kWardColumn].size(), hdc::hv::kMaxMemoEntries);
  }
}

constexpr double kInf = std::numeric_limits<double>::infinity();
const double kNoCategory[] = {kInf, -kInf, 1e300, -1e300, 0x1p63, -0x1p63};

TEST(ServeCategorical, NonIntegerCategoryFailsOnlyItsRequestSync) {
  for (const char* model : {"hamming", "Logistic Regression"}) {
    SCOPED_TRACE(model);
    ServeConfig config;
    config.model = model;
    ServeEngine clean(load(), config);
    ServeEngine engine(load(), config);
    std::vector<int> expected;
    for (std::size_t i = 0; i < 12; ++i) {
      expected.push_back(clean.classify(patient(i, static_cast<double>(i % 8))));
    }
    for (std::size_t i = 0; i < 12; ++i) {
      for (const double bad : kNoCategory) {
        EXPECT_THROW((void)engine.classify(patient(i, bad)), std::invalid_argument)
            << bad;
      }
      EXPECT_EQ(engine.classify(patient(i, static_cast<double>(i % 8))),
                expected[i])
          << i;
    }
    EXPECT_EQ(engine.requests_served(), 12u);
  }
}

TEST(ServeCategorical, NonIntegerCategoryFailsOnlyItsRequestCoalesced) {
  // max_batch 8: every drain sweep mixes good and bad rows. One worker
  // answers a sweep whole; four split it into slices of two.
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    for (const char* model : {"hamming", "Logistic Regression"}) {
      SCOPED_TRACE(std::string(model) + " workers=" + std::to_string(workers));
      ServeConfig config;
      config.model = model;
      ServeEngine clean(load(), config);
      std::vector<int> expected;
      for (std::size_t i = 0; i < 24; ++i) {
        expected.push_back(clean.classify(patient(i, static_cast<double>(i % 8))));
      }

      hdc::parallel::ThreadPool pool(workers);
      config.pool = &pool;
      config.max_batch = 8;
      ServeEngine engine(load(), config);
      std::vector<std::future<int>> good;
      std::vector<std::future<int>> bad;
      for (std::size_t i = 0; i < 24; ++i) {
        good.push_back(engine.submit(patient(i, static_cast<double>(i % 8))));
        bad.push_back(engine.submit(
            patient(i, kNoCategory[i % std::size(kNoCategory)])));
      }
      for (std::size_t i = 0; i < 24; ++i) {
        EXPECT_EQ(good[i].get(), expected[i]) << i;
        EXPECT_THROW((void)bad[i].get(), std::invalid_argument) << i;
      }
      engine.shutdown();
      EXPECT_EQ(engine.requests_served(), 24u);
    }
  }
}

}  // namespace
