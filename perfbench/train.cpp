// Offline side of the benchmark: the train_golden pipeline and the bundle
// builds that prepare the two serve workloads.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/bundle.hpp"
#include "core/experiment.hpp"
#include "core/grid.hpp"
#include "data/csv.hpp"
#include "data/preprocess.hpp"
#include "data/synthetic.hpp"
#include "eval/cross_validation.hpp"
#include "hv/search.hpp"
#include "ml/zoo.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "perfbench.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using hdc::data::Dataset;

// Sizes. The paper's D=10000 everywhere; the grid is sized (3 folds, boosted
// rounds x0.2) so train_golden stays near 20 s on 4 cores.
constexpr std::size_t kDimensions = 10000;
constexpr std::size_t kGridFolds = 3;
constexpr double kModelBudget = 0.2;
// 50k rows keeps the cohort's database (63 MB packed, ~138 MB text
// bundle) far beyond L2 while a run, with three bundle loads, fits the
// benchmark's time budget.
constexpr std::size_t kCohortRows = 50000;
constexpr std::size_t kGoldenQueries = 4096;
constexpr std::size_t kCohortQueries = 2048;
// Bundle builds per serve-workload run (train_s is their median); the
// cohort's build is measured once to stay within the run budget.
constexpr std::size_t kGoldenBuilds = 3;
constexpr std::size_t kCohortBuilds = 1;
// Exact-vs-ANN label agreement sample and the floor below which the run
// fails (bench_ann measures recall@1 = 1.0 at 100k rows with the defaults).
constexpr std::size_t kAgreementSample = 256;
constexpr double kAgreementFloor = 0.95;
// Per-layer decomposition pass sizes of the traced run.
constexpr std::size_t kGoldenDecompose = 4096;
constexpr std::size_t kCohortDecompose = 512;
// Sanity floor for every grid cell and LOO accuracy (the paper's models sit
// at 0.7-0.97 on these data); below it the pipeline is broken, not slow.
constexpr double kAccuracyFloor = 0.55;

constexpr const char* kLogistic = "Logistic Regression";
constexpr const char* kForest = "Random Forest";

hdc::core::ExperimentConfig experiment_config(std::uint64_t seed) {
  hdc::core::ExperimentConfig config;
  config.extractor.dimensions = kDimensions;
  config.extractor.seed = seed * 77 + 1;
  config.seed = seed;
  config.model_budget = kModelBudget;
  return config;
}

/// Fresh patients to serve: cohort rows from a seed stream no training set
/// uses.
Dataset make_queries(std::uint64_t seed, std::size_t rows) {
  return hdc::data::make_synthetic_cohort(rows, hdc::util::mix_seed(seed, 0x51e7));
}

std::string to_csv(const Dataset& ds) {
  std::ostringstream out;
  hdc::data::write_csv(out, ds);
  return out.str();
}

std::vector<int> labels_of(const std::vector<hdc::hv::Neighbor>& nearest,
                           const std::vector<int>& training_labels) {
  std::vector<int> labels;
  labels.reserve(nearest.size());
  for (const hdc::hv::Neighbor& n : nearest) labels.push_back(training_labels[n.index]);
  return labels;
}

/// Batch encode of every row, accounted to hv.encode.batch_rows_per_s.
struct BatchEncodeTally {
  double rows = 0.0;
  double seconds = 0.0;
  void report(Result& result) const {
    if (seconds > 0.0) {
      result.layer("hv.encode.batch_rows_per_s", rows / seconds, "rows/s");
    }
  }
};

struct FitSpec {
  bool ann = false;
  bool zoo_models = false;  // Logistic Regression + Random Forest
};

hdc::core::ModelBundle fit_bundle(const Dataset& train,
                                  const hdc::core::ExperimentConfig& config,
                                  FitSpec spec, BatchEncodeTally& encode,
                                  Result& result) {
  hdc::core::ModelBundle bundle;
  hdc::core::HdcFeatureExtractor extractor(config.extractor);
  {
    Span span("hv.encode.fit");
    extractor.fit(train);
  }
  std::vector<hdc::hv::BitVector> vectors;
  {
    Span span("hv.encode.transform");
    vectors = extractor.transform(train);
    encode.seconds += span.stop();
    encode.rows += static_cast<double>(train.n_rows());
  }
  hdc::core::HammingClassifier hamming;
  {
    Span span("hv.search.hamming_fit");
    hamming.fit(std::move(vectors), train.labels());
  }
  if (spec.ann) {
    Span span("hv.ann.build");
    hamming.enable_ann();
    result.add_layer("hv.ann.build_s", span.stop(), "s");
  }
  if (spec.zoo_models) {
    hdc::hv::BitMatrix bits;
    {
      Span span("hv.encode.transform_bits");
      bits = extractor.transform_bits(train);
      encode.seconds += span.stop();
      encode.rows += static_cast<double>(train.n_rows());
    }
    {
      auto model = hdc::ml::make_model(kLogistic, config.model_budget);
      Span span("ml.fit.logistic_regression");
      model->fit_bits(bits, train.labels());
      result.add_layer("ml.fit_s.logistic_regression", span.stop(), "s");
      bundle.models.push_back(std::move(model));
    }
    {
      auto model = hdc::ml::make_model(kForest, config.model_budget);
      Span span("ml.fit.random_forest");
      model->fit_bits(bits, train.labels());
      result.add_layer("ml.fit_s.random_forest", span.stop(), "s");
      bundle.models.push_back(std::move(model));
    }
  }
  bundle.hamming = std::move(hamming);
  bundle.extractor = std::move(extractor);
  return bundle;
}

void save_bundle(const hdc::core::ModelBundle& bundle, const std::string& path,
                 Result& result) {
  Span span("core.bundle.save");
  hdc::core::save_bundle_file(path, bundle);
  result.add_layer("core.bundle.save_s", span.stop(), "s");
  const auto bytes = std::filesystem::file_size(path);
  result.layer("core.bundle.bytes", static_cast<double>(bytes), "bytes");
  result.digest.add(static_cast<std::uint64_t>(bytes));
}

/// Batch-path answers of every predictor in `bundle` for `queries`: the
/// reference the serve path must reproduce request for request.
struct BatchAnswers {
  std::vector<int> exact;
  std::vector<int> ann;  // empty without an index
  std::vector<int> logistic;
  std::vector<int> forest;  // empty without zoo models
};

BatchAnswers batch_answers(const hdc::core::ModelBundle& bundle, const Dataset& queries) {
  BatchAnswers answers;
  const hdc::core::HammingClassifier& hamming = *bundle.hamming;
  hdc::hv::PackedHVs packed;
  {
    Span span("hv.encode.transform_packed");
    packed = bundle.extractor->transform_packed(queries);
  }
  {
    Span span("hv.search.nearest");
    answers.exact = labels_of(hdc::hv::nearest_neighbors(packed, hamming.packed_vectors()),
                              hamming.training_labels());
  }
  if (const hdc::hv::ann::Index* index = hamming.ann_index()) {
    Span span("hv.ann.nearest");
    answers.ann = labels_of(index->nearest(packed, hamming.packed_vectors()),
                            hamming.training_labels());
  }
  if (!bundle.models.empty()) {
    hdc::hv::BitMatrix bits;
    {
      Span span("hv.encode.transform_bits");
      bits = bundle.extractor->transform_bits(queries);
    }
    {
      Span span("ml.predict.logistic_regression");
      answers.logistic = bundle.find_model(kLogistic)->predict_all_bits(bits);
    }
    Span span("ml.predict.random_forest");
    answers.forest = bundle.find_model(kForest)->predict_all_bits(bits);
  }
  return answers;
}

/// Longest grid task in an obs Chrome trace (complete events named grid.*).
double longest_grid_task_s(const std::string& trace_json) {
  double longest_us = 0.0;
  const std::string key = "{\"name\":\"grid.";
  for (std::size_t pos = trace_json.find(key); pos != std::string::npos;
       pos = trace_json.find(key, pos + key.size())) {
    const std::size_t end = trace_json.find('}', pos);
    const std::size_t dur = trace_json.find("\"dur\":", pos);
    if (dur == std::string::npos || dur > end) continue;
    longest_us = std::max(longest_us, std::strtod(trace_json.c_str() + dur + 6, nullptr));
  }
  return longest_us * 1e-6;
}

void run_grid(const Dataset& pima, const Dataset& sylhet,
              const hdc::core::ExperimentConfig& config, bool traced, Result& result) {
  const hdc::core::GridDatasetSpec specs[] = {{"pima_m", &pima}, {"sylhet", &sylhet}};
  hdc::core::GridConfig grid;
  grid.kfold = kGridFolds;
  grid.mode = hdc::core::InputMode::kHypervectors;
  grid.experiment = config;
  grid.threads = hdc::parallel::hardware_threads();
  grid.nn_repeats = 0;

  hdc::obs::Histogram& task_seconds = hdc::obs::histogram("graph.task_seconds");
  const double busy_before = task_seconds.sum();
  if (traced) {
    hdc::obs::clear_trace();
    hdc::obs::set_trace_enabled(true);
  }
  Span span("core.grid.run_grid");
  const hdc::core::GridResult out = hdc::core::run_grid(specs, grid);
  const double wall = span.stop();
  hdc::obs::set_trace_enabled(false);

  for (const hdc::core::GridDatasetResult& ds : out.datasets) {
    for (const hdc::core::GridModelResult& model : ds.models) {
      for (const double accuracy : model.cv.fold_accuracy) result.digest.add(accuracy);
      result.check(model.cv.mean_accuracy >= kAccuracyFloor,
                   "grid " + ds.dataset + " / " + model.model + " accuracy below floor");
    }
  }
  const hdc::core::GridStats& stats = out.stats;
  result.layer("core.grid.wall_s", wall, "s");
  result.layer("core.grid.steals", static_cast<double>(stats.steals), "count");
  const double lookups = static_cast<double>(stats.cache_hits + stats.cache_misses);
  result.layer("core.grid.cache_hit_ratio",
               lookups > 0.0 ? static_cast<double>(stats.cache_hits) / lookups : 0.0,
               "ratio");
  if (traced) {
    result.layer("core.grid.busy_frac",
                 (task_seconds.sum() - busy_before) /
                     (static_cast<double>(stats.workers) * wall),
                 "ratio");
    result.layer("core.grid.longest_task_s",
                 longest_grid_task_s(hdc::obs::chrome_trace_json()), "s");
    hdc::obs::clear_trace();
  }
}

void hamming_loo(const Dataset& ds, const hdc::core::ExperimentConfig& config,
                 BatchEncodeTally& encode, Result& result) {
  // core::hamming_loo's protocol, one layer per call.
  hdc::core::HdcFeatureExtractor extractor(config.extractor);
  {
    Span span("hv.encode.fit");
    extractor.fit(ds);
  }
  std::vector<hdc::hv::BitVector> vectors;
  {
    Span span("hv.encode.transform");
    vectors = extractor.transform(ds);
    encode.seconds += span.stop();
    encode.rows += static_cast<double>(ds.n_rows());
  }
  Span span("eval.loocv");
  const hdc::eval::LoocvResult loo = hdc::eval::hamming_loocv(vectors, ds.labels());
  result.add_layer("eval.loocv_s", span.stop(), "s");
  const hdc::eval::ConfusionMatrix& cm = loo.metrics.confusion;
  for (const std::size_t cell : {cm.tp, cm.fp, cm.tn, cm.fn}) {
    result.digest.add(static_cast<std::uint64_t>(cell));
  }
  result.check(loo.metrics.accuracy >= kAccuracyFloor, "LOO accuracy below floor");
}

void check_same(Result& result, const std::vector<int>& served,
                const std::vector<int>& reference, const char* what) {
  result.check(served == reference, what);
  result.digest.add(served);
}

std::string encode_labels(const std::vector<int>& values) {
  std::string out;
  out.reserve(values.size());
  for (const int v : values) {
    out.push_back(v == 1 ? '1' : '0');
  }
  return out;
}

std::vector<int> decode_labels(const std::string& text) {
  std::vector<int> values;
  values.reserve(text.size());
  for (const char c : text) values.push_back(c == '1' ? 1 : 0);
  return values;
}

bool is_cohort(const std::string& workload) { return workload == "serve_cohort_ann"; }

std::string path_in(const RunOptions& options, const char* name) {
  return (std::filesystem::path(options.work_dir) / name).string();
}

}  // namespace

Dataset parse_csv(const std::string& text, Result& result) {
  Span span("data.read_csv");
  std::istringstream in(text);
  Dataset ds = hdc::data::read_csv(in);
  result.add_layer("data.read_csv_s", span.stop(), "s");
  return ds;
}

void run_train_golden(const RunOptions& options, Result& result) {
  const hdc::core::ExperimentConfig config = experiment_config(options.seed);
  std::string pima_csv;
  std::string sylhet_csv;
  std::string queries_csv;
  {
    Span span("harness.generate");
    hdc::data::PimaConfig pima_config;
    pima_config.seed = options.seed;
    pima_csv = to_csv(hdc::data::impute_class_median(hdc::data::make_pima(pima_config)));
    hdc::data::SylhetConfig sylhet_config;
    sylhet_config.seed = options.seed + 1;
    sylhet_csv = to_csv(hdc::data::make_sylhet(sylhet_config));
    queries_csv = to_csv(make_queries(options.seed, kGoldenQueries));
  }
  const Dataset queries = parse_csv(queries_csv, result);
  const std::string bundle_path = path_in(options, "train_golden.bundle");

  BatchEncodeTally encode;
  const std::uint64_t packed_ops_before =
      hdc::obs::counter("ml.packed.word_ops").value();
  Span train("bench.train");
  const Dataset pima = parse_csv(pima_csv, result);
  const Dataset sylhet = parse_csv(sylhet_csv, result);
  run_grid(pima, sylhet, config, options.traced, result);
  hamming_loo(pima, config, encode, result);
  hamming_loo(sylhet, config, encode, result);
  const hdc::core::ModelBundle fitted =
      fit_bundle(pima, config, {.ann = true, .zoo_models = true}, encode, result);
  save_bundle(fitted, bundle_path, result);
  hdc::core::ModelBundle loaded;
  {
    Span span("core.bundle.load");
    loaded = hdc::core::load_bundle_file(bundle_path);
  }
  BatchAnswers expected;
  {
    Span span("bench.verify");
    expected = batch_answers(fitted, queries);
    const BatchAnswers served = batch_answers(loaded, queries);
    check_same(result, served.exact, expected.exact, "reloaded hamming differs");
    check_same(result, served.ann, expected.ann, "reloaded ANN index differs");
    check_same(result, served.logistic, expected.logistic, "reloaded LR differs");
    check_same(result, served.forest, expected.forest, "reloaded RF differs");
  }
  result.e2e("train_s", train.stop(), "s");
  result.layer("ml.packed.word_ops",
               static_cast<double>(hdc::obs::counter("ml.packed.word_ops").value() -
                                   packed_ops_before),
               "count");
  encode.report(result);

  // Serve the trained bundle as the serve workloads do: the artifact must
  // answer like the in-memory pipeline did.
  ServePlan plan;
  plan.bundle_path = bundle_path;
  plan.queries_csv = queries_csv;
  plan.sync_reference = expected.exact;
  plan.coalesced_model = kLogistic;
  plan.coalesced_reference = expected.logistic;
  plan.seconds = options.seconds;
  plan.decompose_queries = kGoldenDecompose / 4;
  measure_serve(plan, options.traced, result);
}

void run_serve_prep(const RunOptions& options, Result& result) {
  const bool cohort = is_cohort(options.workload);
  const hdc::core::ExperimentConfig config = experiment_config(options.seed);
  std::string train_csv;
  std::string queries_csv;
  {
    Span span("harness.generate");
    if (cohort) {
      train_csv = to_csv(hdc::data::make_synthetic_cohort(kCohortRows, options.seed));
    } else {
      hdc::data::PimaConfig pima_config;
      pima_config.seed = options.seed;
      train_csv =
          to_csv(hdc::data::impute_class_median(hdc::data::make_pima(pima_config)));
    }
    queries_csv =
        to_csv(make_queries(options.seed, cohort ? kCohortQueries : kGoldenQueries));
  }

  // The bundle build is repeated and train_s is the median build; every
  // build fits the same bundle and overwrites the same file.
  BatchEncodeTally encode;
  const std::string bundle_path = path_in(options, "serve.bundle");
  std::vector<double> build_s;
  hdc::core::ModelBundle bundle;
  for (std::size_t b = 0; b < (cohort ? kCohortBuilds : kGoldenBuilds); ++b) {
    // Layer metrics and the digest come from the first build.
    Result repeat;
    Result& sink = b == 0 ? result : repeat;
    Span build("bench.train");
    const Dataset train = parse_csv(train_csv, sink);
    bundle = fit_bundle(train, config, {.ann = cohort, .zoo_models = !cohort}, encode, sink);
    save_bundle(bundle, bundle_path, sink);
    build_s.push_back(build.stop());
  }
  result.e2e("train_s", percentile(build_s, 0.5), "s");
  encode.report(result);

  Span reference("harness.reference");
  const Dataset queries = parse_csv(queries_csv, result);
  const BatchAnswers answers = batch_answers(bundle, queries);
  const std::vector<int>& sync = cohort ? answers.ann : answers.exact;
  const std::vector<int>& coalesced = cohort ? answers.ann : answers.logistic;
  result.digest.add(sync);
  result.digest.add(coalesced);
  if (cohort) {
    // Exact 1-NN over the fixed sample is the oracle the index approximates.
    std::size_t agree = 0;
    for (std::size_t i = 0; i < kAgreementSample; ++i) agree += answers.exact[i] == sync[i];
    const double agreement =
        static_cast<double>(agree) / static_cast<double>(kAgreementSample);
    result.layer("hv.ann.label_agreement", agreement, "ratio");
    result.info["ann_label_agreement"] = std::to_string(agreement);
    result.check(agreement >= kAgreementFloor,
                 "ANN label agreement with exact search below the floor");
  }

  std::ofstream out(path_in(options, "queries.csv"));
  out << queries_csv;
  std::ofstream refs(path_in(options, "reference.txt"));
  refs << (cohort ? "hamming" : kLogistic) << '\n'
       << encode_labels(sync) << '\n'
       << encode_labels(coalesced) << '\n';
  if (!out.flush() || !refs.flush()) {
    throw std::runtime_error("cannot write the serve inputs to " + options.work_dir);
  }
}

void run_serve_measure(const RunOptions& options, Result& result) {
  const bool cohort = is_cohort(options.workload);
  ServePlan plan;
  plan.bundle_path = path_in(options, "serve.bundle");
  {
    std::ifstream in(path_in(options, "queries.csv"));
    std::ostringstream text;
    text << in.rdbuf();
    plan.queries_csv = text.str();
    std::ifstream refs(path_in(options, "reference.txt"));
    std::string sync;
    std::string coalesced;
    if (!in || !std::getline(refs, plan.coalesced_model) || !std::getline(refs, sync) ||
        !std::getline(refs, coalesced)) {
      throw std::runtime_error("serve inputs missing in " + options.work_dir +
                               " (run the prep phase first)");
    }
    plan.sync_reference = decode_labels(sync);
    plan.coalesced_reference = decode_labels(coalesced);
  }
  plan.ann = cohort;
  plan.seconds = options.seconds;
  plan.decompose_queries = cohort ? kCohortDecompose : kGoldenDecompose;
  measure_serve(plan, options.traced, result);
}

}  // namespace perfbench
