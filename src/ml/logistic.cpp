#include "ml/logistic.hpp"

#include <cmath>
#include <stdexcept>

#include "hv/bit_matrix.hpp"
#include "ml/sharded.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hdc::ml {

namespace {
double sigmoid(double z) noexcept { return 1.0 / (1.0 + std::exp(-z)); }
}  // namespace

LogisticRegression::LogisticRegression(LogisticConfig config) : config_(config) {
  if (config_.c <= 0.0) throw std::invalid_argument("LogisticRegression: C <= 0");
}

void LogisticRegression::fit(const Matrix& X, const Labels& y) {
  obs::Span span("ml.logistic.fit");
  validate_training_data(X, y);
  const std::size_t n = X.size();
  const std::size_t d = X.front().size();

  mean_.assign(d, 0.0);
  inv_std_.assign(d, 1.0);
  if (config_.standardize) {
    std::vector<double> sum(d, 0.0);
    std::vector<double> sum_sq(d, 0.0);
    for (const auto& row : X) {
      for (std::size_t j = 0; j < d; ++j) {
        sum[j] += row[j];
        sum_sq[j] += row[j] * row[j];
      }
    }
    for (std::size_t j = 0; j < d; ++j) {
      mean_[j] = sum[j] / static_cast<double>(n);
      const double var = sum_sq[j] / static_cast<double>(n) - mean_[j] * mean_[j];
      inv_std_[j] = var > 1e-12 ? 1.0 / std::sqrt(var) : 1.0;
    }
  }

  // Standardised copy once; the optimisation loop then touches contiguous
  // memory only.
  std::vector<double> Z(n * d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      Z[i * d + j] = (X[i][j] - mean_[j]) * inv_std_[j];
    }
  }
  run_gradient_descent(Z, y, n, d);
}

void LogisticRegression::fit_bits(const hv::BitMatrix& X, const Labels& y) {
  validate_training_bits(X, y);
  obs::Span span("ml.logistic.fit_packed");
  const std::size_t n = X.rows();
  const std::size_t d = X.cols();

  mean_.assign(d, 0.0);
  inv_std_.assign(d, 1.0);
  if (config_.standardize) {
    // For 0/1 columns sum == sum_sq == popcount, and the dense row-order
    // accumulation of +1.0 terms is integer-exact, so these moments are
    // bit-identical to the dense pass.
    for (std::size_t j = 0; j < d; ++j) {
      const double sum = static_cast<double>(X.column_popcount(j));
      mean_[j] = sum / static_cast<double>(n);
      const double var = sum / static_cast<double>(n) - mean_[j] * mean_[j];
      inv_std_[j] = var > 1e-12 ? 1.0 / std::sqrt(var) : 1.0;
    }
  }

  // A 0/1 feature standardises to one of two constants per column; expand
  // the packed rows through that 2-entry table. Each Z value matches the
  // dense (x - mean) * inv_std result exactly, so the shared optimisation
  // loop below sees bit-identical inputs.
  std::vector<double> z0(d);
  std::vector<double> z1(d);
  for (std::size_t j = 0; j < d; ++j) {
    z0[j] = (0.0 - mean_[j]) * inv_std_[j];
    z1[j] = (1.0 - mean_[j]) * inv_std_[j];
  }
  std::vector<double> Z(n * d);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t* row = X.row_bits(i);
    double* zi = Z.data() + i * d;
    for (std::size_t j = 0; j < d; ++j) {
      zi[j] = (row[j / 64] >> (j % 64)) & 1u ? z1[j] : z0[j];
    }
  }
  run_gradient_descent(Z, y, n, d);
}

void LogisticRegression::fit_shards(const ShardSource& src,
                                    const ShardedFitOptions& /*options*/) {
  obs::Span span("ml.logistic.fit_shards");
  const std::size_t n = src.rows();
  const std::size_t d = src.cols();
  const std::span<const int> y = src.labels();
  if (n == 0 || d == 0) throw std::invalid_argument("fit: empty training set");
  for (const int label : y) {
    if (label != 0 && label != 1) {
      throw std::invalid_argument("fit: labels must be 0/1");
    }
  }

  mean_.assign(d, 0.0);
  inv_std_.assign(d, 1.0);
  if (config_.standardize) {
    // Integer popcounts merged across shards equal the whole-column
    // popcount exactly, so these are the same moments fit_bits computes.
    std::vector<std::size_t> pop(d, 0);
    for (std::size_t s = 0; s < src.num_shards(); ++s) {
      const hv::BitMatrix& shard = src.shard(s);
      for (std::size_t j = 0; j < d; ++j) pop[j] += shard.column_popcount(j);
      note_hist_merge(d);
    }
    for (std::size_t j = 0; j < d; ++j) {
      const double sum = static_cast<double>(pop[j]);
      mean_[j] = sum / static_cast<double>(n);
      const double var = sum / static_cast<double>(n) - mean_[j] * mean_[j];
      inv_std_[j] = var > 1e-12 ? 1.0 / std::sqrt(var) : 1.0;
    }
  }

  std::vector<double> z0(d);
  std::vector<double> z1(d);
  for (std::size_t j = 0; j < d; ++j) {
    z0[j] = (0.0 - mean_[j]) * inv_std_[j];
    z1[j] = (1.0 - mean_[j]) * inv_std_[j];
  }

  // The loop below is run_gradient_descent verbatim, except each row's
  // standardised values are expanded on the fly from the resident shard
  // instead of a precomputed n*d matrix. The gradient accumulators are
  // carried across shard boundaries in ascending global row order, so the
  // float op sequence — and therefore every iterate — is bit-identical to
  // the unsharded pass regardless of where the boundaries fall.
  w_.assign(d, 0.0);
  b_ = 0.0;
  std::vector<double> vel_w(d, 0.0);
  double vel_b = 0.0;
  const double lambda = 1.0 / (config_.c * static_cast<double>(n));
  std::vector<double> grad(d);
  std::vector<double> zrow(d);

  std::size_t iters_run = 0;
  for (std::size_t iter = 0; iter < config_.max_iter; ++iter) {
    ++iters_run;
    std::fill(grad.begin(), grad.end(), 0.0);
    double grad_b = 0.0;
    for (std::size_t s = 0; s < src.num_shards(); ++s) {
      const hv::BitMatrix& shard = src.shard(s);
      const std::size_t begin = src.shard_begin(s);
      for (std::size_t i = 0; i < shard.rows(); ++i) {
        const std::uint64_t* row = shard.row_bits(i);
        for (std::size_t j = 0; j < d; ++j) {
          zrow[j] = (row[j / 64] >> (j % 64)) & 1u ? z1[j] : z0[j];
        }
        double z = b_;
        for (std::size_t j = 0; j < d; ++j) z += w_[j] * zrow[j];
        const double err = sigmoid(z) - static_cast<double>(y[begin + i]);
        for (std::size_t j = 0; j < d; ++j) grad[j] += err * zrow[j];
        grad_b += err;
      }
    }
    double norm_sq = grad_b * grad_b;
    const double inv_n = 1.0 / static_cast<double>(n);
    for (std::size_t j = 0; j < d; ++j) {
      grad[j] = grad[j] * inv_n + lambda * w_[j];
      norm_sq += grad[j] * grad[j];
    }
    grad_b *= inv_n;
    if (norm_sq < config_.tol * config_.tol) break;

    for (std::size_t j = 0; j < d; ++j) {
      vel_w[j] = config_.momentum * vel_w[j] - config_.learning_rate * grad[j];
      w_[j] += vel_w[j];
    }
    vel_b = config_.momentum * vel_b - config_.learning_rate * grad_b;
    b_ += vel_b;
  }
  obs::counter("ml.fit.iterations").add(iters_run);
}

void LogisticRegression::run_gradient_descent(const std::vector<double>& Z,
                                              const Labels& y, std::size_t n,
                                              std::size_t d) {
  w_.assign(d, 0.0);
  b_ = 0.0;
  std::vector<double> vel_w(d, 0.0);
  double vel_b = 0.0;
  const double lambda = 1.0 / (config_.c * static_cast<double>(n));
  std::vector<double> grad(d);

  std::size_t iters_run = 0;
  for (std::size_t iter = 0; iter < config_.max_iter; ++iter) {
    ++iters_run;
    std::fill(grad.begin(), grad.end(), 0.0);
    double grad_b = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double* zi = Z.data() + i * d;
      double z = b_;
      for (std::size_t j = 0; j < d; ++j) z += w_[j] * zi[j];
      const double err = sigmoid(z) - static_cast<double>(y[i]);
      for (std::size_t j = 0; j < d; ++j) grad[j] += err * zi[j];
      grad_b += err;
    }
    double norm_sq = grad_b * grad_b;
    const double inv_n = 1.0 / static_cast<double>(n);
    for (std::size_t j = 0; j < d; ++j) {
      grad[j] = grad[j] * inv_n + lambda * w_[j];
      norm_sq += grad[j] * grad[j];
    }
    grad_b *= inv_n;
    if (norm_sq < config_.tol * config_.tol) break;

    for (std::size_t j = 0; j < d; ++j) {
      vel_w[j] = config_.momentum * vel_w[j] - config_.learning_rate * grad[j];
      w_[j] += vel_w[j];
    }
    vel_b = config_.momentum * vel_b - config_.learning_rate * grad_b;
    b_ += vel_b;
  }
  obs::counter("ml.fit.iterations").add(iters_run);
}

double LogisticRegression::predict_proba(std::span<const double> x) const {
  if (w_.empty()) throw std::logic_error("LogisticRegression: not fitted");
  if (x.size() != w_.size()) {
    throw std::invalid_argument("LogisticRegression: query arity mismatch");
  }
  double z = b_;
  for (std::size_t j = 0; j < x.size(); ++j) {
    z += w_[j] * (x[j] - mean_[j]) * inv_std_[j];
  }
  return sigmoid(z);
}

void LogisticRegression::save_state(std::ostream& out) const {
  if (w_.empty()) throw std::logic_error("LogisticRegression: save of unfitted model");
  util::serde::Writer w(out);
  w.tag("ml.logistic").tag("v1").nl();
  w.f64(config_.c).u64(config_.max_iter).f64(config_.learning_rate);
  w.f64(config_.momentum).f64(config_.tol).u64(config_.standardize ? 1 : 0).nl();
  w.vec_f64(w_).nl();
  w.f64(b_).nl();
  w.vec_f64(mean_).nl();
  w.vec_f64(inv_std_).nl();
}

void LogisticRegression::load_state(std::istream& in) {
  util::serde::Reader r(in, "load ml.logistic");
  r.expect("ml.logistic", "model tag");
  r.expect("v1", "format version");
  config_.c = r.f64("c");
  config_.max_iter = r.u64("max_iter");
  config_.learning_rate = r.f64("learning_rate");
  config_.momentum = r.f64("momentum");
  config_.tol = r.f64("tol");
  config_.standardize = r.u64("standardize") != 0;
  w_ = r.vec_f64("weights", 1ULL << 24);
  b_ = r.f64("bias");
  mean_ = r.vec_f64("mean", 1ULL << 24);
  inv_std_ = r.vec_f64("inv_std", 1ULL << 24);
  if (w_.empty()) throw r.error("empty weight vector");
  if (mean_.size() != w_.size() || inv_std_.size() != w_.size()) {
    throw r.error("mean/inv_std arity mismatch");
  }
}

}  // namespace hdc::ml
