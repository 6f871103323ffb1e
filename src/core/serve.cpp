#include "core/serve.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "hv/bit_matrix.hpp"
#include "hv/search.hpp"
#include "obs/metrics.hpp"
#include "obs/quantile.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "util/timer.hpp"

namespace hdc::core {

namespace {

parallel::ThreadPool& resolve_pool(parallel::ThreadPool* pool) {
  return pool != nullptr ? *pool : parallel::ThreadPool::global();
}

/// Streaming per-request latency for live /metrics scrapes (p50/p90/p99
/// over the retained windows). Registered once; record() is obs-gated.
obs::WindowedHistogram& serve_latency() {
  static obs::WindowedHistogram& h =
      obs::windowed_histogram("serve.latency_seconds");
  return h;
}

}  // namespace

ServeEngine::ServeEngine(ModelBundle bundle, ServeConfig config)
    : bundle_(std::move(bundle)), config_(std::move(config)) {
  if (!bundle_.extractor || !bundle_.extractor->fitted()) {
    throw std::invalid_argument("ServeEngine: bundle has no fitted extractor");
  }
  if (config_.max_batch == 0) {
    throw std::invalid_argument("ServeEngine: max_batch must be >= 1");
  }
  const std::string& want = config_.model;
  if (want.empty() || want == "hamming") {
    if (bundle_.hamming) {
      kind_ = PredictorKind::kHamming;
      model_name_ = "hamming";
    } else if (want == "hamming") {
      throw std::invalid_argument("ServeEngine: bundle has no hamming section");
    }
  }
  if (model_name_.empty() && (want.empty() || want == "nn")) {
    if (bundle_.nn) {
      kind_ = PredictorKind::kNn;
      model_name_ = "nn";
    } else if (want == "nn") {
      throw std::invalid_argument("ServeEngine: bundle has no nn section");
    }
  }
  if (model_name_.empty()) {
    if (want.empty()) {
      if (bundle_.models.empty()) {
        throw std::invalid_argument("ServeEngine: bundle has no predictor");
      }
      ml_model_ = bundle_.models.front().get();
    } else {
      ml_model_ = bundle_.find_model(want);
      if (ml_model_ == nullptr) {
        throw std::invalid_argument("ServeEngine: bundle has no model '" + want +
                                    "'");
      }
    }
    kind_ = PredictorKind::kMl;
    model_name_ = ml_model_->name();
  }
  if (config_.ann && kind_ != PredictorKind::kHamming) {
    throw std::invalid_argument(
        "ServeEngine: ann requires the hamming predictor");
  }
  if (bundle_.hamming) {
    if (config_.ann) {
      // Prefer the index persisted in the bundle (attached by load_bundle);
      // build one here only when the bundle carries none.
      if (!bundle_.hamming->ann_enabled()) bundle_.hamming->enable_ann();
      bundle_.hamming->set_ann_nprobe(config_.nprobe);
    } else {
      // Exact serving stays byte-identical to the kernels even when the
      // bundle happens to carry an index.
      bundle_.hamming->disable_ann();
    }
  }
}

ServeEngine::~ServeEngine() { shutdown(); }

std::unique_ptr<ServeEngine::Scratch> ServeEngine::acquire_scratch() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!scratch_pool_.empty()) {
      std::unique_ptr<Scratch> scratch = std::move(scratch_pool_.back());
      scratch_pool_.pop_back();
      return scratch;
    }
  }
  return std::make_unique<Scratch>();
}

void ServeEngine::release_scratch(std::unique_ptr<Scratch> scratch) {
  const std::lock_guard<std::mutex> lock(mutex_);
  scratch_pool_.push_back(std::move(scratch));
}

int ServeEngine::predict_encoded(const hv::BitVector& encoded) const {
  switch (kind_) {
    case PredictorKind::kHamming: {
      if (bundle_.hamming->ann_enabled()) {
        hv::ann::SearchStats stats;
        const int prediction = bundle_.hamming->predict(encoded, &stats);
        if (obs::enabled() && stats.queries > 0) {
          obs::counter("serve.ann.candidates").add(stats.candidates);
          obs::counter("serve.ann.probes").add(stats.probes);
          if (stats.candidates > 0) {
            obs::histogram("serve.ann.rerank_fraction")
                .record(static_cast<double>(stats.reranked) /
                        static_cast<double>(stats.candidates));
          }
        }
        return prediction;
      }
      return bundle_.hamming->predict(encoded);
    }
    case PredictorKind::kNn: {
      // Per-row evaluation in both serve paths, so batching cannot change
      // the answer.
      std::vector<double> dense(encoded.size());
      for (std::size_t i = 0; i < dense.size(); ++i) {
        dense[i] = encoded.get(i) ? 1.0 : 0.0;
      }
      return bundle_.nn->predict_proba(dense) >= 0.5 ? 1 : 0;
    }
    case PredictorKind::kMl:
      break;
  }
  // Single request through the same packed row-independent kernel the
  // coalesced path uses — bit-identical by construction.
  hv::PackedHVs packed(encoded.size(), 1);
  packed.set_row(0, encoded);
  return ml_model_->predict_all_bits(hv::BitMatrix::from_rows(std::move(packed)))
      .front();
}

int ServeEngine::classify(std::span<const double> row) {
  obs::Span span("serve.classify");
  const util::Timer timer;  // one clock read; negligible next to encode
  std::unique_ptr<Scratch> scratch = acquire_scratch();
  int prediction = 0;
  try {
    const hv::BitVector encoded = bundle_.extractor->encode_row(
        row, scratch->encoder, scratch->row_buffer);
    prediction = predict_encoded(encoded);
  } catch (...) {
    release_scratch(std::move(scratch));
    throw;
  }
  release_scratch(std::move(scratch));
  served_.fetch_add(1, std::memory_order_relaxed);
  obs::counter("serve.requests").add(1);
  serve_latency().record(timer.seconds());
  return prediction;
}

std::future<int> ServeEngine::submit(std::vector<double> row) {
  Request request;  // its Timer starts here: latency includes queue wait
  request.row = std::move(row);
  std::future<int> result = request.result.get_future();
  bool start_drain = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!accepting_) {
      throw std::runtime_error("ServeEngine: submit after shutdown");
    }
    queue_.push_back(std::move(request));
    obs::gauge("serve.queue_depth").add(1);
    if (!draining_) {
      draining_ = true;
      start_drain = true;
    }
  }
  if (start_drain) {
    resolve_pool(config_.pool).submit([this] { drain(); });
  }
  return result;
}

void ServeEngine::drain() {
  obs::Span span("serve.drain");
  parallel::ThreadPool& pool = resolve_pool(config_.pool);
  for (;;) {
    std::vector<Request> batch;
    std::size_t slices = 0;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      const std::size_t take = std::min(queue_.size(), config_.max_batch);
      if (take == 0) {
        draining_ = false;
        idle_cv_.notify_all();
        return;
      }
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      obs::gauge("serve.queue_depth").add(-static_cast<std::int64_t>(take));
      slices = std::min(pool.size(), take);
      slices_in_flight_ += slices - 1;
    }
    obs::counter("serve.batches").add(1);
    obs::histogram("serve.batch_size").record(static_cast<double>(batch.size()));

    // Fan the sweep out: contiguous slices whose sizes differ by at most
    // one, all but the last answered by their own pool task, the last here.
    // No join: the sweep moves on while its slices run, and shutdown()
    // waits on slices_in_flight_.
    const auto bound = [&](std::size_t s) { return s * batch.size() / slices; };
    for (std::size_t s = 0; s + 1 < slices; ++s) {
      // std::function needs a copyable callable, so the task owns its
      // moved-out requests through a shared_ptr nobody else holds.
      auto slice = std::make_shared<std::vector<Request>>(
          std::make_move_iterator(batch.begin() + static_cast<std::ptrdiff_t>(bound(s))),
          std::make_move_iterator(batch.begin() +
                                  static_cast<std::ptrdiff_t>(bound(s + 1))));
      pool.submit([this, slice] {
        {
          obs::Span slice_span("serve.slice");
          // A transient scratch: pooled ones would each keep a full encode
          // memo, one per worker, multiplying the memos' resident memory.
          Scratch scratch;
          answer(*slice, scratch);
        }
        const std::lock_guard<std::mutex> lock(mutex_);
        if (--slices_in_flight_ == 0) idle_cv_.notify_all();
      });
    }
    std::unique_ptr<Scratch> scratch = acquire_scratch();
    answer(std::span<Request>(batch).subspan(bound(slices - 1)), *scratch);
    release_scratch(std::move(scratch));
  }
}

void ServeEngine::answer(std::span<Request> requests, Scratch& scratch) {
  // Runs as (part of) a pool task, which must not throw: every failure
  // lands in its own request's promise.
  std::vector<hv::BitVector> encoded;
  std::vector<std::size_t> valid;  // request index of each encoded row
  try {
    encoded.reserve(requests.size());
    valid.reserve(requests.size());
  } catch (...) {
    for (Request& request : requests) {
      request.result.set_exception(std::current_exception());
    }
    return;
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    try {
      encoded.push_back(bundle_.extractor->encode_row(
          requests[i].row, scratch.encoder, scratch.row_buffer));
      valid.push_back(i);
    } catch (...) {
      requests[i].result.set_exception(std::current_exception());
    }
  }

  std::size_t answered = 0;
  const auto settle = [&answered](Request& request, int prediction) {
    request.result.set_value(prediction);
    ++answered;
    // submit() -> answer, queue wait included: the coalesced analogue of
    // classify()'s latency sample.
    if (obs::enabled()) serve_latency().record(request.submitted.seconds());
  };
  if (kind_ == PredictorKind::kMl && !encoded.empty()) {
    // One packed predict over the slice.
    try {
      hv::PackedHVs packed(encoded.front().size(), encoded.size());
      for (std::size_t i = 0; i < encoded.size(); ++i) {
        packed.set_row(i, encoded[i]);
      }
      const std::vector<int> predictions =
          ml_model_->predict_all_bits(hv::BitMatrix::from_rows(std::move(packed)));
      if (predictions.size() != valid.size()) {
        throw std::logic_error("ServeEngine: predict_all_bits row count mismatch");
      }
      for (std::size_t i = 0; i < valid.size(); ++i) {
        settle(requests[valid[i]], predictions[i]);
      }
    } catch (...) {
      for (const std::size_t i : valid) {
        requests[i].result.set_exception(std::current_exception());
      }
    }
  } else {
    for (std::size_t i = 0; i < valid.size(); ++i) {
      try {
        settle(requests[valid[i]], predict_encoded(encoded[i]));
      } catch (...) {
        requests[valid[i]].result.set_exception(std::current_exception());
      }
    }
  }
  served_.fetch_add(answered, std::memory_order_relaxed);
  obs::counter("serve.requests").add(answered);
}

void ServeEngine::shutdown() {
  std::unique_lock<std::mutex> lock(mutex_);
  accepting_ = false;
  idle_cv_.wait(lock, [this] {
    return queue_.empty() && !draining_ && slices_in_flight_ == 0;
  });
}

std::uint64_t ServeEngine::requests_served() const noexcept {
  return served_.load(std::memory_order_relaxed);
}

std::size_t ServeEngine::memo_entries() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t largest = 0;
  for (const std::unique_ptr<Scratch>& scratch : scratch_pool_) {
    for (const auto& memo : scratch->encoder.memo) {
      largest = std::max(largest, memo.size());
    }
  }
  return largest;
}

}  // namespace hdc::core
