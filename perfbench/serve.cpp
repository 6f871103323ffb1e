// Online side of the benchmark: bundle load + ServeEngine set-up, a closed
// sync loop, a coalesced loop, and (traced run only) a per-layer
// decomposition of single requests.
#include <algorithm>
#include <deque>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/bundle.hpp"
#include "core/serve.hpp"
#include "data/dataset.hpp"
#include "hv/ann.hpp"
#include "hv/bit_matrix.hpp"
#include "hv/search.hpp"
#include "obs/metrics.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

// Set-up runs at least kMinSetupRepeats times, and more while it is cheap.
constexpr std::size_t kMinSetupRepeats = 3;
constexpr std::size_t kMaxSetupRepeats = 9;
constexpr double kSetupBudgetSeconds = 1.0;
constexpr std::size_t kWarmupRequests = 256;
// Measurement windows: at least this long and this many samples each (a
// window's p99 must leave at least 10 samples beyond it).
constexpr double kWindowSeconds = 0.25;
constexpr std::size_t kMinWindowSamples = 1000;
constexpr std::size_t kWindowReserve = 1 << 16;
// Outstanding submit() futures, = ServeConfig::max_batch.
constexpr std::size_t kOutstanding = 64;
constexpr std::size_t kPredictBatch = 64;

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

std::uint64_t next_request() {
  static std::uint64_t id = 0;
  return ++id;
}

/// Per-layer decomposition of single requests over a fixed query prefix:
/// one pass of classify(), one of the same requests' encodes and one of
/// their searches (exact or ANN) called directly, spans of one query sharing
/// a request id. Separate passes keep each call's cache state like the
/// others' (a search repeated right after classify() of the same query
/// would find its cells warm).
void decompose(hdc::core::ServeEngine& engine, const hdc::data::Dataset& queries,
               const ServePlan& plan, Result& result) {
  const hdc::core::ModelBundle& bundle = engine.bundle();
  const hdc::core::HdcFeatureExtractor& extractor = *bundle.extractor;
  const hdc::core::HammingClassifier& hamming = *bundle.hamming;
  const hdc::hv::PackedHVs& database = hamming.packed_vectors();
  const std::size_t n = std::min(queries.n_rows(), plan.decompose_queries);

  hdc::hv::RecordEncoder::Scratch scratch;
  std::vector<double> row_buffer;
  {
    // The engine's encode scratch is warm by now; warm this one alike.
    Span span("harness.decompose_warmup");
    for (std::size_t q = 0; q < n; ++q) {
      (void)extractor.encode_row(queries.row(q), scratch, row_buffer);
    }
  }

  Span phase("bench.decompose");
  std::vector<std::uint64_t> requests(n);
  std::vector<double> classify_us;
  std::vector<int> served(n, -1);
  for (std::size_t q = 0; q < n; ++q) {
    requests[q] = next_request();
    Span span("core.serve.classify", requests[q]);
    served[q] = engine.classify(queries.row(q));
    classify_us.push_back(span.stop() * 1e6);
  }
  std::vector<double> encode_us;
  std::vector<hdc::hv::PackedHVs> encoded;
  encoded.reserve(n);
  for (std::size_t q = 0; q < n; ++q) {
    Span span("hv.encode.encode_row", requests[q]);
    const hdc::hv::BitVector v = extractor.encode_row(queries.row(q), scratch, row_buffer);
    encode_us.push_back(span.stop() * 1e6);
    encoded.push_back(hdc::hv::PackedHVs::pack({&v, 1}));
  }
  hdc::obs::Counter& search_word_ops = hdc::obs::counter("hv.search.word_ops");
  std::vector<double> search_us;
  std::uint64_t word_ops = 0;
  hdc::hv::ann::SearchStats ann_total;
  for (std::size_t q = 0; q < n; ++q) {
    std::vector<hdc::hv::Neighbor> nearest;
    if (plan.ann) {
      hdc::hv::ann::SearchStats stats;
      Span span("hv.ann.nearest", requests[q]);
      nearest = hamming.ann_index()->nearest(encoded[q], database, {}, &stats);
      search_us.push_back(span.stop() * 1e6);
      ann_total.queries += stats.queries;
      ann_total.probes += stats.probes;
      ann_total.candidates += stats.candidates;
      ann_total.reranked += stats.reranked;
      ann_total.word_ops += stats.word_ops;
    } else {
      const std::uint64_t ops_before = search_word_ops.value();
      Span span("hv.search.nearest", requests[q]);
      nearest = hdc::hv::nearest_neighbors(encoded[q], database);
      search_us.push_back(span.stop() * 1e6);
      word_ops += search_word_ops.value() - ops_before;
    }
    const int direct = hamming.training_labels()[nearest.front().index];
    result.check(served[q] == plan.sync_reference[q] && direct == served[q],
                 "decomposed request differs from the batch reference");
  }
  phase.stop();

  const double encode_p50 = percentile(encode_us, 0.5);
  const double search_p50 = percentile(search_us, 0.5);
  result.layer("hv.encode.row_p50_us", encode_p50, "us");
  result.layer("core.serve.overhead_p50_us",
               percentile(classify_us, 0.5) - encode_p50 - search_p50, "us");
  double search_seconds = 0.0;
  for (const double us : search_us) search_seconds += us * 1e-6;
  if (plan.ann) {
    const double per = 1.0 / static_cast<double>(std::max<std::uint64_t>(ann_total.queries, 1));
    result.layer("hv.ann.query_p50_us", search_p50, "us");
    result.layer("hv.ann.probes_per_query", static_cast<double>(ann_total.probes) * per,
                 "count");
    result.layer("hv.ann.candidates_per_query",
                 static_cast<double>(ann_total.candidates) * per, "count");
    result.layer("hv.ann.reranked_per_query", static_cast<double>(ann_total.reranked) * per,
                 "count");
    result.layer("hv.ann.rerank_ratio",
                 static_cast<double>(ann_total.reranked) /
                     static_cast<double>(std::max<std::uint64_t>(ann_total.candidates, 1)),
                 "ratio");
    result.layer("hv.ann.word_ops_per_query", static_cast<double>(ann_total.word_ops) * per,
                 "count");
    result.layer("simd.ann_gbps_computed",
                 static_cast<double>(ann_total.word_ops) * 16.0 / search_seconds / 1e9,
                 "GB/s");
  } else {
    result.layer("hv.search.query_p50_us", search_p50, "us");
    result.layer("hv.search.word_ops", static_cast<double>(word_ops), "count");
    result.layer("simd.search_gbps_computed",
                 static_cast<double>(word_ops) * 16.0 / search_seconds / 1e9, "GB/s");
  }
  result.info["decompose_queries"] = std::to_string(n);

  // Packed linear predict on 64-row batches: what one coalesced drain sweep
  // hands the logistic model.
  const hdc::ml::Classifier* logistic = bundle.find_model("Logistic Regression");
  if (logistic == nullptr) return;
  std::vector<double> per_row_us;
  for (std::size_t lo = 0; lo + kPredictBatch <= queries.n_rows(); lo += kPredictBatch) {
    hdc::hv::PackedHVs packed(extractor.dimensions(), kPredictBatch);
    {
      Span span("harness.batch_encode");
      for (std::size_t i = 0; i < kPredictBatch; ++i) {
        packed.set_row(i, extractor.encode_row(queries.row(lo + i), scratch, row_buffer));
      }
    }
    const hdc::hv::BitMatrix batch = hdc::hv::BitMatrix::from_rows(std::move(packed));
    Span span("ml.predict.logistic_regression");
    const std::vector<int> predicted = logistic->predict_all_bits(batch);
    per_row_us.push_back(span.stop() * 1e6 / static_cast<double>(kPredictBatch));
    const std::vector<int> expected(
        plan.coalesced_reference.begin() + static_cast<std::ptrdiff_t>(lo),
        plan.coalesced_reference.begin() + static_cast<std::ptrdiff_t>(lo + kPredictBatch));
    result.check(predicted == expected, "batched LR predict differs from the reference");
  }
  result.layer("ml.predict_us_per_row.logistic_regression", median(per_row_us), "us");
}

}  // namespace

void measure_serve(const ServePlan& plan, bool traced, Result& result) {
  const hdc::data::Dataset queries = parse_csv(plan.queries_csv, result);
  const std::size_t n = queries.n_rows();
  if (n == 0 || plan.sync_reference.size() != n || plan.coalesced_reference.size() != n) {
    throw std::runtime_error("serve plan: query rows and references disagree");
  }

  hdc::core::ServeConfig sync_config;
  sync_config.model = "hamming";
  sync_config.ann = plan.ann;

  auto classify = [&](hdc::core::ServeEngine& engine, std::size_t q) {
    try {
      return engine.classify(queries.row(q)) == plan.sync_reference[q];
    } catch (const std::exception&) {
      return false;
    }
  };

  // 1. Set-up, repeated: load, engine construction, warm-up requests. The
  // previous engine is freed first so set-ups never overlap in memory.
  std::unique_ptr<hdc::core::ServeEngine> engine;
  std::vector<double> setup_s;
  std::vector<double> load_s;
  std::vector<double> init_s;
  std::size_t next_query = 0;
  double setup_total = 0.0;
  while (setup_s.size() < kMinSetupRepeats ||
         (setup_s.size() < kMaxSetupRepeats && setup_total < kSetupBudgetSeconds)) {
    engine.reset();
    Span setup("bench.setup");
    hdc::core::ModelBundle bundle;
    {
      Span span("core.bundle.load");
      bundle = hdc::core::load_bundle_file(plan.bundle_path);
      load_s.push_back(span.stop());
    }
    {
      Span span("core.serve.engine_init");
      engine = std::make_unique<hdc::core::ServeEngine>(std::move(bundle), sync_config);
      init_s.push_back(span.stop());
    }
    {
      Span span("core.serve.warmup");
      for (std::size_t i = 0; i < kWarmupRequests; ++i) {
        result.check(classify(*engine, next_query++ % n), "warm-up answer differs");
      }
    }
    setup_s.push_back(setup.stop());
    setup_total += setup_s.back();
  }
  result.e2e("setup_s", median(setup_s), "s");
  result.layer("core.bundle.load_s", median(load_s), "s");
  result.layer("core.serve.engine_init_s", median(init_s), "s");
  result.info["setup_repeats"] = std::to_string(setup_s.size());
  {
    const hdc::hv::PackedHVs& db = engine->bundle().hamming->packed_vectors();
    result.info["db_rows"] = std::to_string(db.rows());
    result.info["db_bytes"] = std::to_string(db.rows() * db.words_per_row() * 8);
  }

  hdc::core::ServeEngine* coalesced = engine.get();
  std::unique_ptr<hdc::core::ServeEngine> model_engine;
  if (plan.coalesced_model != "hamming") {
    Span span("harness.coalesced_setup");
    hdc::core::ServeConfig config;
    config.model = plan.coalesced_model;
    model_engine = std::make_unique<hdc::core::ServeEngine>(
        hdc::core::load_bundle_file(plan.bundle_path), config);
    coalesced = model_engine.get();
  }

  // 2. Alternating windows until the run's time is used: a sync window (one
  // client, closed loop over classify()), then a coalesced window (one
  // generator keeping kOutstanding submit() futures in flight, drained at
  // the window's end), so both loops sample the whole run. The host's other
  // tenants switch it between a fast and a ~30% slower state every few
  // seconds; the reported figures move with the share of slow windows rather
  // than jumping between the two states: sync_p50_us is the mean over
  // windows of each window's p50, coalesced_qps is all completions over all
  // coalesced time, and sync_p99_us (more prone to one-window outliers) is
  // the median over windows of each window's p99.
  std::vector<double> sync_us;
  sync_us.reserve(kWindowReserve);
  std::vector<double> window_p50;
  std::vector<double> window_p99;
  std::vector<double> window_qps;
  std::uint64_t coalesced_completed = 0;
  double coalesced_seconds = 0.0;
  std::vector<double> coalesced_us;  // traced run only
  std::uint64_t sync_samples = 0;

  struct Pending {
    std::future<int> answer;
    std::size_t query;
    std::uint64_t submit_ns;
    std::uint64_t request;
  };
  std::deque<Pending> pending;
  const auto submit = [&] {
    const std::size_t q = next_query++ % n;
    const std::uint64_t request = next_request();
    Span span("core.serve.submit", request);
    try {
      const std::span<const double> row = queries.row(q);
      pending.push_back(
          {coalesced->submit({row.begin(), row.end()}), q, span.begin_ns(), request});
    } catch (const std::exception&) {
      result.check(false, "submit() refused a request");
    }
  };

  hdc::obs::Histogram& batch_size = hdc::obs::histogram("serve.batch_size");
  const std::uint64_t batches_before = batch_size.count();
  const double batch_rows_before = batch_size.sum();
  const std::uint64_t window_ns = static_cast<std::uint64_t>(kWindowSeconds * 1e9);
  const std::uint64_t run_end = now_ns() + static_cast<std::uint64_t>(plan.seconds * 1e9);
  do {
    {
      Span phase("bench.sync");
      sync_us.clear();
      const std::uint64_t window_end = now_ns() + window_ns;
      while (sync_us.size() < kMinWindowSamples || now_ns() < window_end) {
        const std::size_t q = next_query++ % n;
        Span span("core.serve.classify", next_request());
        const bool ok = classify(*engine, q);
        sync_us.push_back(span.stop() * 1e6);
        result.check(ok, "sync answer differs from the batch reference");
      }
      window_p50.push_back(percentile(sync_us, 0.50));
      window_p99.push_back(percentile(sync_us, 0.99));
      sync_samples += sync_us.size();
    }
    {
      Span phase("bench.coalesced");
      const std::uint64_t start = now_ns();
      const std::uint64_t window_end = start + window_ns;
      std::uint64_t completed = 0;
      while (pending.size() < kOutstanding) submit();
      while (!pending.empty()) {
        Pending next = std::move(pending.front());
        pending.pop_front();
        bool ok = false;
        {
          Span span("core.serve.wait", next.request);
          try {
            ok = next.answer.get() == plan.coalesced_reference[next.query];
          } catch (const std::exception&) {
          }
        }
        const std::uint64_t done = now_ns();
        if (traced) coalesced_us.push_back(static_cast<double>(done - next.submit_ns) * 1e-3);
        result.check(ok, "coalesced answer differs from the batch reference");
        ++completed;
        if (completed + pending.size() < kMinWindowSamples || done < window_end) submit();
      }
      const double seconds = static_cast<double>(now_ns() - start) * 1e-9;
      window_qps.push_back(static_cast<double>(completed) / seconds);
      coalesced_completed += completed;
      coalesced_seconds += seconds;
    }
  } while (now_ns() < run_end);

  double p50_sum = 0.0;
  for (const double p50 : window_p50) p50_sum += p50;
  result.e2e("sync_p50_us", p50_sum / static_cast<double>(window_p50.size()), "us");
  result.e2e("sync_p99_us", median(window_p99), "us");
  result.e2e("coalesced_qps", static_cast<double>(coalesced_completed) / coalesced_seconds,
             "req/s");
  result.layer("core.serve.sync_samples", static_cast<double>(sync_samples), "count");
  result.info["sync_samples"] = std::to_string(sync_samples);
  const auto join = [](const std::vector<double>& values) {
    std::string out;
    for (const double v : values) {
      if (!out.empty()) out.push_back(',');
      out += std::to_string(v);
    }
    return out;
  };
  result.info["window_p50_us"] = join(window_p50);
  result.info["window_p99_us"] = join(window_p99);
  result.info["window_qps"] = join(window_qps);
  if (traced) {
    result.layer("core.serve.coalesced_p50_us", percentile(coalesced_us, 0.5), "us");
    const double batches = static_cast<double>(batch_size.count() - batches_before);
    result.layer("core.serve.batch_size_mean",
                 batches > 0.0 ? (batch_size.sum() - batch_rows_before) / batches : 0.0,
                 "requests");
    decompose(*engine, queries, plan, result);
  }
}

}  // namespace perfbench
