#include "core/hamming_classifier.hpp"

#include <algorithm>
#include <stdexcept>

#include "eval/cross_validation.hpp"
#include "parallel/thread_pool.hpp"

namespace hdc::core {

namespace {

void check_labels(const std::vector<int>& labels) {
  for (const int y : labels) {
    if (y != 0 && y != 1) {
      throw std::invalid_argument("HammingClassifier: labels must be 0/1");
    }
  }
}

}  // namespace

void HammingClassifier::fit(std::vector<hv::BitVector> vectors,
                            std::vector<int> labels) {
  if (vectors.empty() || vectors.size() != labels.size()) {
    throw std::invalid_argument("HammingClassifier: bad training data");
  }
  check_labels(labels);  // before pack, so bad labels outrank ragged rows
  fit_packed(hv::PackedHVs::pack(vectors), std::move(labels));
}

void HammingClassifier::fit_packed(hv::PackedHVs packed, std::vector<int> labels) {
  if (packed.empty() || packed.rows() != labels.size()) {
    throw std::invalid_argument("HammingClassifier: bad training data");
  }
  check_labels(labels);
  packed_ = std::move(packed);
  labels_ = std::move(labels);
  ann_.reset();  // any attached index was built over the previous database

  if (mode_ == HammingMode::kPrototype) {
    hv::BitAccumulator acc[2] = {hv::BitAccumulator(packed_.bits()),
                                 hv::BitAccumulator(packed_.bits())};
    hv::BitVector row(packed_.bits());
    for (std::size_t i = 0; i < packed_.rows(); ++i) {
      std::copy_n(packed_.row(i), packed_.words_per_row(), row.word_data());
      acc[static_cast<std::size_t>(labels_[i])].add(row);
    }
    for (int c : {0, 1}) {
      if (acc[c].total() == 0) {
        throw std::invalid_argument("HammingClassifier: prototype mode needs both classes");
      }
      prototypes_[c] = acc[c].to_majority();
    }
  }
}

int HammingClassifier::predict(const hv::BitVector& query,
                               hv::ann::SearchStats* stats) const {
  return predict_score(query, stats) >= 0.5 ? 1 : 0;
}

double HammingClassifier::predict_score(const hv::BitVector& query,
                                        hv::ann::SearchStats* stats) const {
  if (!fitted()) throw std::logic_error("HammingClassifier: not fitted");
  if (mode_ == HammingMode::kPrototype) {
    const double d0 = query.hamming_fraction(prototypes_[0]);
    const double d1 = query.hamming_fraction(prototypes_[1]);
    const double total = d0 + d1;
    return total > 0.0 ? d0 / total : 0.5;  // closer to prototype 1 -> > 0.5
  }
  // k-NN vote (k = 1 gives the paper's model: score 1 iff the nearest
  // neighbour is positive). Distance ties resolve toward the earliest
  // training row; both kernels guarantee (distance, index) ordering, and
  // the ANN path preserves it over its reranked candidate set.
  const std::size_t k = std::min(k_, packed_.rows());
  const hv::PackedHVs packed_query = hv::PackedHVs::pack({&query, 1});
  if (ann_) {
    hv::ann::SearchOptions options;
    options.nprobe = ann_nprobe_;
    if (k == 1) {
      const std::vector<hv::Neighbor> nearest =
          ann_->nearest(packed_query, packed_, options, stats);
      return labels_[nearest.front().index] == 1 ? 1.0 : 0.0;
    }
    const std::vector<std::vector<hv::Neighbor>> nearest =
        ann_->top_k(packed_query, packed_, k, options, stats);
    std::size_t positive_votes = 0;
    for (const hv::Neighbor& n : nearest.front()) {
      positive_votes += labels_[n.index] == 1 ? 1 : 0;
    }
    return static_cast<double>(positive_votes) / static_cast<double>(k);
  }
  if (k == 1) {
    const std::vector<hv::Neighbor> nearest =
        hv::nearest_neighbors(packed_query, packed_);
    return labels_[nearest.front().index] == 1 ? 1.0 : 0.0;
  }
  const std::vector<std::vector<hv::Neighbor>> nearest =
      hv::top_k_neighbors(packed_query, packed_, k);
  std::size_t positive_votes = 0;
  for (const hv::Neighbor& n : nearest.front()) {
    positive_votes += labels_[n.index] == 1 ? 1 : 0;
  }
  return static_cast<double>(positive_votes) / static_cast<double>(k);
}

void HammingClassifier::enable_ann(const hv::ann::Config& config) {
  if (!fitted()) throw std::logic_error("HammingClassifier: not fitted");
  if (mode_ == HammingMode::kPrototype) {
    throw std::logic_error(
        "HammingClassifier: ANN needs kNearestNeighbor mode (prototype mode "
        "has no training database to index)");
  }
  ann_ = hv::ann::Index::build(packed_, config);
}

void HammingClassifier::attach_ann(hv::ann::Index index) {
  if (!fitted()) throw std::logic_error("HammingClassifier: not fitted");
  if (mode_ == HammingMode::kPrototype) {
    throw std::logic_error(
        "HammingClassifier: ANN needs kNearestNeighbor mode");
  }
  index.check_database(packed_);  // throws on fingerprint/shape mismatch
  ann_ = std::move(index);
}

const hv::BitVector& HammingClassifier::prototype(int label) const {
  if (mode_ != HammingMode::kPrototype) {
    throw std::logic_error("HammingClassifier: prototypes need kPrototype mode");
  }
  if (label != 0 && label != 1) {
    throw std::invalid_argument("HammingClassifier: label must be 0/1");
  }
  return prototypes_[static_cast<std::size_t>(label)];
}

std::vector<int> hamming_loo_predictions(const std::vector<hv::BitVector>& vectors,
                                         const std::vector<int>& labels,
                                         parallel::ThreadPool* pool) {
  return eval::hamming_loocv(vectors, labels, pool).predictions;
}

eval::BinaryMetrics hamming_loo_metrics(const std::vector<hv::BitVector>& vectors,
                                        const std::vector<int>& labels,
                                        parallel::ThreadPool* pool) {
  return eval::hamming_loocv(vectors, labels, pool).metrics;
}

}  // namespace hdc::core
