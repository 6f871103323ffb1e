// Bundle load/save contracts that the in-place loader must keep:
//  * the bytes a fixed-seed multi-section bundle saves to are pinned (their
//    FNV-1a and length were taken from the earlier token-by-token stream
//    writers, so any formatting drift in the buffered writers shows up);
//  * a 2000-row D=10000 bundle with an ANN index loads and re-saves
//    byte-identical, through a stream and through a file;
//  * loading with obs metrics + tracing on gives the same bundle as with
//    them off, and the load reports its read / checksum / decode spans and
//    the bytes it read.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/bundle.hpp"
#include "core/extractor.hpp"
#include "core/hamming_classifier.hpp"
#include "data/preprocess.hpp"
#include "data/synthetic.hpp"
#include "hv/bit_matrix.hpp"
#include "ml/zoo.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/serde.hpp"

namespace {

using hdc::core::ModelBundle;

std::string save(const ModelBundle& bundle) {
  std::ostringstream out;
  hdc::core::save_bundle(out, bundle);
  return out.str();
}

ModelBundle load(const std::string& bytes) {
  std::istringstream in(bytes);
  return hdc::core::load_bundle(in);
}

/// Extractor, hamming + ANN, Logistic Regression and Random Forest, all
/// from fixed seeds.
std::string pinned_bundle() {
  const hdc::data::Dataset ds = hdc::data::impute_class_median(
      hdc::data::make_pima({90, 60, true, 0.05, 2023}));
  hdc::core::ExtractorConfig config;
  config.dimensions = 2000;
  config.seed = 2023;
  ModelBundle bundle;
  bundle.extractor.emplace(config);
  bundle.extractor->fit(ds);
  hdc::core::HammingClassifier hamming;
  hamming.fit(bundle.extractor->transform(ds), ds.labels());
  hamming.enable_ann();
  bundle.hamming = std::move(hamming);
  const hdc::hv::BitMatrix bits = bundle.extractor->transform_bits(ds);
  for (const char* name : {"Logistic Regression", "Random Forest"}) {
    auto model = hdc::ml::make_model(name, 0.2);
    model->fit_bits(bits, ds.labels());
    bundle.models.push_back(std::move(model));
  }
  return save(bundle);
}

TEST(BundleLoad, SavedBytesArePinned) {
  const std::string bytes = pinned_bundle();
  EXPECT_EQ(bytes.size(), 922007u);
  EXPECT_EQ(hdc::util::serde::hex16(hdc::util::serde::fnv1a64(bytes)),
            "a63ff6f5b30bbc6e");
  EXPECT_EQ(save(load(bytes)), bytes);
}

/// 2000 rows at the paper's D=10000, with a persisted ANN index.
const std::string& large_ann_bundle() {
  static const std::string bytes = [] {
    const hdc::data::Dataset ds = hdc::data::make_synthetic_cohort(2000, 11);
    hdc::core::ExtractorConfig config;
    config.dimensions = 10000;
    config.seed = 11;
    ModelBundle bundle;
    bundle.extractor.emplace(config);
    bundle.extractor->fit(ds);
    hdc::core::HammingClassifier hamming;
    hamming.fit(bundle.extractor->transform(ds), ds.labels());
    hamming.enable_ann();
    bundle.hamming = std::move(hamming);
    return save(bundle);
  }();
  return bytes;
}

TEST(BundleLoad, LargeAnnBundleResavesByteIdentical) {
  const std::string& bytes = large_ann_bundle();
  const ModelBundle loaded = load(bytes);
  ASSERT_TRUE(loaded.hamming.has_value());
  ASSERT_NE(loaded.hamming->ann_index(), nullptr);
  EXPECT_EQ(loaded.hamming->packed_vectors().rows(), 2000u);
  EXPECT_EQ(loaded.hamming->packed_vectors().bits(), 10000u);
  EXPECT_EQ(save(loaded), bytes);
}

TEST(BundleLoad, FileLoadMatchesStreamLoad) {
  const std::string& bytes = large_ann_bundle();
  const std::string path = ::testing::TempDir() + "/large_ann.bundle";
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const ModelBundle from_file = hdc::core::load_bundle_file(path);
  std::remove(path.c_str());
  EXPECT_EQ(save(from_file), bytes);
}

TEST(BundleLoad, ObsOnAndOffLoadIdenticalBundles) {
  const std::string& bytes = large_ann_bundle();
  const std::string off = save(load(bytes));

  hdc::obs::Counter& load_bytes = hdc::obs::counter("bundle.load_bytes");
  load_bytes.reset();
  hdc::obs::clear_trace();
  hdc::obs::set_enabled(true);
  hdc::obs::set_trace_enabled(true);
  const ModelBundle traced = load(bytes);
  hdc::obs::set_trace_enabled(false);
  hdc::obs::set_enabled(false);

  EXPECT_EQ(save(traced), off);  // every packed word and index field
  if constexpr (hdc::obs::kCompiledIn) {
    EXPECT_EQ(load_bytes.value(), bytes.size());
    const std::string trace = hdc::obs::chrome_trace_json();
    for (const char* span : {"\"bundle.load.read\"", "\"bundle.load.checksum\"",
                             "\"bundle.load.decode\""}) {
      EXPECT_NE(trace.find(span), std::string::npos) << span;
    }
    for (const char* section : {"extractor", "hamming", "ann", "ann.verify"}) {
      EXPECT_NE(trace.find(std::string("\"tag\":\"") + section + "\""),
                std::string::npos)
          << section;
    }
    const std::string stacks = hdc::obs::collapsed_stacks();
    EXPECT_NE(stacks.find("bundle.load.checksum[hamming]"), std::string::npos);
    EXPECT_NE(stacks.find("bundle.load.decode[hamming]"), std::string::npos);
  }
  hdc::obs::clear_trace();
}

}  // namespace
