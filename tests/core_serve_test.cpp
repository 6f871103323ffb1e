// Concurrency and determinism tests for the serve path (ctest label:
// serve — run under TSan alongside the obs/grid suites). The contract under
// test: classify() and the coalescing submit() queue answer exactly the
// batch-path predictions for every predictor (exact and ANN hamming
// included), regardless of client thread count, pool width, or how a drain
// sweep groups requests and slices them over the pool; the queue and every
// slice in flight drain completely on shutdown; a bad record fails only its
// own future; and a coalesced latency sample spans submit() to answer.
#include <algorithm>
#include <chrono>
#include <future>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/bundle.hpp"
#include "core/extractor.hpp"
#include "core/hamming_classifier.hpp"
#include "core/serve.hpp"
#include "data/synthetic.hpp"
#include "hv/ann.hpp"
#include "hv/bit_matrix.hpp"
#include "hv/search.hpp"
#include "ml/zoo.hpp"
#include "obs/metrics.hpp"
#include "obs/quantile.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using hdc::core::ModelBundle;
using hdc::core::ServeConfig;
using hdc::core::ServeEngine;

struct ServeWorld {
  hdc::data::Dataset ds;
  std::string artifact;                      // saved bundle
  std::vector<int> hamming_reference;        // batch-path answers
  std::vector<int> logistic_reference;
  std::vector<int> forest_reference;
  // Extractor + hamming over the even rows with a coarse ANN index, so the
  // odd rows are not in the database and the index answers approximately.
  std::string ann_artifact;
  std::vector<int> ann_reference;  // batch Index::nearest, every row
};

const ServeWorld& world() {
  static const ServeWorld w = [] {
    ServeWorld out;
    out.ds = hdc::data::make_sylhet({40, 50, 11});
    hdc::core::ExtractorConfig config;
    config.dimensions = 384;
    config.seed = 31;
    ModelBundle bundle;
    bundle.extractor.emplace(config);
    bundle.extractor->fit(out.ds);
    const hdc::hv::BitMatrix bits = bundle.extractor->transform_bits(out.ds);
    const std::vector<hdc::hv::BitVector> vectors =
        bundle.extractor->transform(out.ds);
    {
      hdc::core::HammingClassifier hamming;
      hamming.fit(vectors, out.ds.labels());
      for (const hdc::hv::BitVector& v : vectors) {
        out.hamming_reference.push_back(hamming.predict(v));
      }
      bundle.hamming = std::move(hamming);
    }
    for (const char* name : {"Logistic Regression", "Random Forest"}) {
      auto model = hdc::ml::make_model(name, 0.2);
      model->fit_bits(bits, out.ds.labels());
      bundle.models.push_back(std::move(model));
    }
    out.logistic_reference =
        bundle.find_model("Logistic Regression")->predict_all_bits(bits);
    out.forest_reference =
        bundle.find_model("Random Forest")->predict_all_bits(bits);
    std::ostringstream saved;
    hdc::core::save_bundle(saved, bundle);
    out.artifact = saved.str();

    std::vector<hdc::hv::BitVector> even;
    std::vector<int> even_labels;
    for (std::size_t i = 0; i < vectors.size(); i += 2) {
      even.push_back(vectors[i]);
      even_labels.push_back(out.ds.labels()[i]);
    }
    hdc::core::HammingClassifier ann;
    ann.fit(std::move(even), std::move(even_labels));
    hdc::hv::ann::Config ann_config;
    ann_config.cells = 6;
    ann_config.nprobe = 1;
    ann_config.min_rerank = 4;
    ann.enable_ann(ann_config);
    for (const hdc::hv::Neighbor& nearest : ann.ann_index()->nearest(
             hdc::hv::PackedHVs::pack(vectors), ann.packed_vectors())) {
      out.ann_reference.push_back(ann.training_labels()[nearest.index]);
    }
    ModelBundle ann_bundle;
    ann_bundle.extractor = std::move(bundle.extractor);  // artifact saved above
    ann_bundle.hamming = std::move(ann);
    std::ostringstream ann_saved;
    hdc::core::save_bundle(ann_saved, ann_bundle);
    out.ann_artifact = ann_saved.str();
    return out;
  }();
  return w;
}

ModelBundle load_world_bundle() {
  std::istringstream in(world().artifact);
  return hdc::core::load_bundle(in);
}

/// "ann" names the hamming predictor served through the ANN bundle.
ModelBundle load_bundle_for(const std::string& predictor) {
  if (predictor != "ann") return load_world_bundle();
  std::istringstream in(world().ann_artifact);
  return hdc::core::load_bundle(in);
}

const std::vector<int>& reference_for(const std::string& predictor) {
  if (predictor == "hamming") return world().hamming_reference;
  if (predictor == "ann") return world().ann_reference;
  if (predictor == "Random Forest") return world().forest_reference;
  return world().logistic_reference;
}

std::vector<double> row_copy(const hdc::data::Dataset& ds, std::size_t i) {
  const std::span<const double> row = ds.row(i);
  return {row.begin(), row.end()};
}

TEST(ServeEngineTest, SyncClassifyMatchesBatchPath) {
  for (const char* predictor :
       {"hamming", "Logistic Regression", "Random Forest"}) {
    SCOPED_TRACE(predictor);
    ServeConfig config;
    config.model = predictor;
    ServeEngine engine(load_world_bundle(), config);
    EXPECT_EQ(engine.model_name(), predictor);
    const std::vector<int>& reference = reference_for(predictor);
    for (std::size_t i = 0; i < world().ds.n_rows(); ++i) {
      EXPECT_EQ(engine.classify(world().ds.row(i)), reference[i]) << i;
    }
    EXPECT_EQ(engine.requests_served(), world().ds.n_rows());
  }
}

/// `clients` threads submit interleaved slices of the dataset through the
/// coalescing queue; every future must carry the batch-path answer, which
/// classify() must give too.
void run_concurrent_clients(const std::string& predictor, std::size_t clients,
                            std::size_t pool_threads, std::size_t max_batch) {
  SCOPED_TRACE(predictor + " pool=" + std::to_string(pool_threads) +
               " max_batch=" + std::to_string(max_batch));
  hdc::parallel::ThreadPool pool(pool_threads);
  ServeConfig config;
  config.model = predictor == "ann" ? "hamming" : predictor;
  config.ann = predictor == "ann";
  config.max_batch = max_batch;
  config.pool = &pool;
  ServeEngine engine(load_bundle_for(predictor), config);

  const std::size_t n = world().ds.n_rows();
  std::vector<std::future<int>> futures(n);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t i = c; i < n; i += clients) {
        futures[i] = engine.submit(row_copy(world().ds, i));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const std::vector<int>& reference = reference_for(predictor);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(futures[i].valid()) << i;
    EXPECT_EQ(futures[i].get(), reference[i]) << i;
  }
  engine.shutdown();
  EXPECT_EQ(engine.requests_served(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(engine.classify(world().ds.row(i)), reference[i]) << i;
  }
}

TEST(ServeEngineTest, CoalescedMatchesSerialOneClient) {
  run_concurrent_clients("Logistic Regression", 1, 1, 16);
}

TEST(ServeEngineTest, CoalescedMatchesSerialTwoClients) {
  run_concurrent_clients("Logistic Regression", 2, 2, 8);
}

TEST(ServeEngineTest, CoalescedMatchesSerialHardwareClients) {
  const std::size_t hw = hdc::parallel::hardware_threads();
  run_concurrent_clients("Logistic Regression", hw, hw, 16);
}

TEST(ServeEngineTest, CoalescedHammingAndForestMatch) {
  run_concurrent_clients("hamming", 3, 2, 8);
  run_concurrent_clients("Random Forest", 3, 2, 8);
  const std::size_t hw = hdc::parallel::hardware_threads();
  for (const std::size_t pool_threads : {std::size_t{1}, std::size_t{2}, hw}) {
    run_concurrent_clients("ann", 2, pool_threads, 64);
  }
  // The ANN input only tests the index path if its answers are not simply
  // the exact ones over the same database.
  ServeEngine exact(load_bundle_for("ann"), {});
  std::size_t differ = 0;
  for (std::size_t i = 0; i < world().ds.n_rows(); ++i) {
    if (exact.classify(world().ds.row(i)) != world().ann_reference[i]) ++differ;
  }
  EXPECT_GT(differ, 0u);
}

TEST(ServeEngineTest, MaxBatchOneStillMatches) {
  run_concurrent_clients("Logistic Regression", 2, 2, 1);
}

TEST(ServeEngineTest, QueueDrainsOnShutdown) {
  // Multi-worker pools split the last sweeps into slices that may still be
  // running when the drain task itself finishes; shutdown() must wait for
  // them too.
  const std::size_t hw = hdc::parallel::hardware_threads();
  for (const std::size_t pool_threads : {std::size_t{2}, std::max<std::size_t>(hw, 4)}) {
    SCOPED_TRACE(pool_threads);
    hdc::parallel::ThreadPool pool(pool_threads);
    ServeConfig config;
    config.pool = &pool;
    config.max_batch = 4;
    ServeEngine engine(load_world_bundle(), config);
    const std::size_t n = world().ds.n_rows();
    std::vector<std::future<int>> futures;
    futures.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      futures.push_back(engine.submit(row_copy(world().ds, i)));
    }
    engine.shutdown();
    // After shutdown every queued request has been answered — no get() blocks.
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
                std::future_status::ready)
          << i;
      EXPECT_EQ(futures[i].get(), world().hamming_reference[i]) << i;
    }
    EXPECT_EQ(engine.requests_served(), n);
  }
}

TEST(ServeEngineTest, CoalescedLatencyIncludesQueueWait) {
  // The pool's one worker sleeps 50 ms before it can start the drain, so
  // the request's submit() -> answer latency is at least that long.
  hdc::obs::WindowedHistogram& latency =
      hdc::obs::windowed_histogram("serve.latency_seconds");
  hdc::parallel::ThreadPool pool(1);
  ServeConfig config;
  config.pool = &pool;
  ServeEngine engine(load_world_bundle(), config);
  latency.reset();
  hdc::obs::set_enabled(true);
  pool.submit([] { std::this_thread::sleep_for(std::chrono::milliseconds(50)); });
  std::future<int> answer = engine.submit(row_copy(world().ds, 0));
  EXPECT_EQ(answer.get(), world().hamming_reference[0]);
  engine.shutdown();
  hdc::obs::set_enabled(false);
  const hdc::obs::WindowedSample sample = latency.sample();
  EXPECT_EQ(sample.total_count, 1u);
  EXPECT_GE(sample.total_sum, 0.05);
}

TEST(ServeEngineTest, SubmitAfterShutdownThrows) {
  ServeEngine engine(load_world_bundle(), {});
  engine.shutdown();
  EXPECT_THROW((void)engine.submit(row_copy(world().ds, 0)), std::runtime_error);
  // shutdown() is idempotent.
  engine.shutdown();
}

TEST(ServeEngineTest, BadRecordFailsOnlyItsOwnFuture) {
  hdc::parallel::ThreadPool pool(1);
  ServeConfig config;
  config.pool = &pool;
  config.max_batch = 8;
  ServeEngine engine(load_world_bundle(), config);
  // Interleave good rows with wrong-arity rows in the same drain sweeps.
  std::vector<std::future<int>> good;
  std::vector<std::future<int>> bad;
  for (std::size_t i = 0; i < 12; ++i) {
    good.push_back(engine.submit(row_copy(world().ds, i)));
    bad.push_back(engine.submit({1.0, 2.0}));  // dataset arity is 16
  }
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(good[i].get(), world().hamming_reference[i]) << i;
    EXPECT_THROW((void)bad[i].get(), std::invalid_argument) << i;
  }
}

TEST(ServeEngineTest, ClassifyWrongArityThrows) {
  ServeEngine engine(load_world_bundle(), {});
  const std::vector<double> bad = {1.0, 2.0, 3.0};
  EXPECT_THROW((void)engine.classify(bad), std::invalid_argument);
}

TEST(ServeEngineTest, ConstructorRejectsBadConfigs) {
  {
    ModelBundle no_extractor;
    EXPECT_THROW(ServeEngine(std::move(no_extractor), {}), std::invalid_argument);
  }
  {
    ServeConfig config;
    config.model = "No Such Model";
    EXPECT_THROW(ServeEngine(load_world_bundle(), config), std::invalid_argument);
  }
  {
    ServeConfig config;
    config.max_batch = 0;
    EXPECT_THROW(ServeEngine(load_world_bundle(), config), std::invalid_argument);
  }
  {
    // A bundle with an extractor but no predictor at all.
    std::istringstream in(world().artifact);
    ModelBundle bundle = hdc::core::load_bundle(in);
    bundle.hamming.reset();
    bundle.models.clear();
    EXPECT_THROW(ServeEngine(std::move(bundle), {}), std::invalid_argument);
  }
}

TEST(ServeEngineTest, DefaultPredictorPrefersHamming) {
  ServeEngine engine(load_world_bundle(), {});
  EXPECT_EQ(engine.model_name(), "hamming");
  // Without a hamming section the first zoo model answers.
  std::istringstream in(world().artifact);
  ModelBundle bundle = hdc::core::load_bundle(in);
  bundle.hamming.reset();
  ServeEngine fallback(std::move(bundle), {});
  EXPECT_EQ(fallback.model_name(), "Logistic Regression");
}

}  // namespace
