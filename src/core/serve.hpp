// Microsecond-latency classification over a loaded ModelBundle.
//
// Two entry points, one determinism contract:
//
//  * classify(row) — synchronous fast path: encode the record through a
//    scratch-reusing single-row encoder (no per-request allocation after
//    warm-up) and answer from the selected predictor.
//  * submit(row) — request-coalescing queue: a drain task on the shared
//    ThreadPool takes up to max_batch queued requests per sweep and splits
//    them into min(pool size, batch) contiguous slices. Every slice but the
//    last becomes its own pool task; the drain answers the last itself and
//    moves on to the next sweep without waiting. A slice encodes its rows
//    and answers them with one packed predict_all_bits call (zoo models) or
//    per row (Hamming exact or ANN, Sequential NN).
//
// Both paths produce bit-identical predictions for every row regardless of
// batch grouping, slicing or thread interleaving: zoo models answer through
// the packed row-independent predict_all_bits kernels, the Hamming and
// Sequential-NN predictors are evaluated per row (ANN queries keep
// per-thread scratch), and the encoder is deterministic by construction.
// core_serve_test and bench_serve assert the contract.
//
// Observability: serve.requests / serve.batches counters, a
// serve.batch_size histogram (requests per sweep), a serve.queue_depth
// gauge, the serve.latency_seconds sketch (classify() call time; submit()
// to answer for coalesced requests, queue wait included), and spans
// serve.classify / serve.drain / serve.slice.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/bundle.hpp"
#include "hv/encoders.hpp"
#include "util/timer.hpp"

namespace hdc::parallel {
class ThreadPool;
}

namespace hdc::core {

struct ServeConfig {
  /// Predictor answering requests: "hamming", "nn", a zoo model name
  /// (e.g. "Logistic Regression"), or empty = first available in that order.
  std::string model;
  /// Most queued requests one drain sweep takes (and splits over the pool).
  std::size_t max_batch = 64;
  /// Route hamming k-NN requests through the bundle's ANN index (attached
  /// at load, or built here when the bundle carries none). Requires the
  /// hamming predictor; other predictors reject the flag.
  bool ann = false;
  /// Probe-width override for the ANN path (0 = the index default).
  std::size_t nprobe = 0;
  /// Pool running the drain task and its slices; nullptr = process-wide
  /// pool.
  parallel::ThreadPool* pool = nullptr;
};

class ServeEngine {
 public:
  /// Takes ownership of the bundle. Throws std::invalid_argument when the
  /// bundle has no extractor or the requested predictor is absent.
  explicit ServeEngine(ModelBundle bundle, ServeConfig config = {});
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Synchronous single-record classification (0/1).
  [[nodiscard]] int classify(std::span<const double> row);

  /// Enqueue one record for coalesced classification. The future carries
  /// the prediction, or the per-request error (arity mismatch, missing
  /// values with missing_as_min off). Throws std::runtime_error after
  /// shutdown().
  [[nodiscard]] std::future<int> submit(std::vector<double> row);

  /// Stop accepting requests and block until the queue is drained and every
  /// slice in flight has answered. Idempotent; the destructor calls it.
  void shutdown();

  /// Name of the predictor answering requests.
  [[nodiscard]] const std::string& model_name() const noexcept { return model_name_; }

  [[nodiscard]] const ModelBundle& bundle() const noexcept { return bundle_; }

  /// Requests answered so far (classify + drained submits).
  [[nodiscard]] std::uint64_t requests_served() const noexcept;

  /// Largest per-feature encode memo over the idle pooled scratches — at
  /// most hv::kMaxMemoEntries however many distinct values were served.
  [[nodiscard]] std::size_t memo_entries() const;

 private:
  enum class PredictorKind { kHamming, kNn, kMl };

  struct Request {
    std::vector<double> row;
    std::promise<int> result;
    util::Timer submitted;  // started in submit()
  };

  /// Encode scratch: classify() and the drain's own slice lease one from a
  /// free list under mutex_; the other slices use a transient one.
  struct Scratch {
    hv::RecordEncoder::Scratch encoder;
    std::vector<double> row_buffer;
  };

  [[nodiscard]] std::unique_ptr<Scratch> acquire_scratch();
  void release_scratch(std::unique_ptr<Scratch> scratch);

  /// Predict one encoded record (already validated).
  [[nodiscard]] int predict_encoded(const hv::BitVector& encoded) const;

  /// Drain-task body: repeatedly take up to max_batch queued requests and
  /// fan them out as slices over the pool, until the queue is empty.
  void drain();

  /// Encode (through `scratch`), predict and settle the promises of one
  /// slice; a failure lands in its own request's promise.
  void answer(std::span<Request> requests, Scratch& scratch);

  ModelBundle bundle_;
  ServeConfig config_;
  PredictorKind kind_ = PredictorKind::kHamming;
  const ml::Classifier* ml_model_ = nullptr;  // kMl: borrowed from bundle_
  std::string model_name_;

  mutable std::mutex mutex_;
  std::condition_variable idle_cv_;
  std::deque<Request> queue_;
  std::vector<std::unique_ptr<Scratch>> scratch_pool_;
  bool draining_ = false;
  std::size_t slices_in_flight_ = 0;  // slice tasks submitted, not yet done
  bool accepting_ = true;
  std::atomic<std::uint64_t> served_{0};
};

}  // namespace hdc::core
