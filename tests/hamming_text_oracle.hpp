// Naive reference reader for the hdc-hamming v2 text format — the
// token-stream parser the library used before it decoded rows in place.
// Every line goes through std::getline, every token through
// `istringstream >> std::string`, and every word is set bit by bit into a
// BitVector, which is then handed to HammingClassifier::fit. Slow and
// obviously faithful to the format; core_hamming_decode_test diffs the
// production decoder against it (accept/reject, message, decoded words).
#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/hamming_classifier.hpp"
#include "hv/bitvector.hpp"
#include "util/str.hpp"

namespace hdc::test_oracle {

inline std::string expect_line(std::istream& in, const char* what) {
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error(std::string("load: unexpected end of input at ") + what);
  }
  return std::string(util::trim(line));
}

inline long long expect_int(std::istream& in, const char* what) {
  const auto value = util::parse_int(expect_line(in, what));
  if (!value) throw std::runtime_error(std::string("load: bad integer for ") + what);
  return *value;
}

inline constexpr std::size_t kMaxBitvectorBits = 1ULL << 26;

inline std::uint64_t parse_hex16_word(const std::string& tok) {
  if (tok.size() != 16) {
    throw std::runtime_error("load: bad bitvector word '" + tok +
                             "': expected exactly 16 hex digits");
  }
  std::uint64_t word = 0;
  for (const char c : tok) {
    int digit = -1;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    if (digit < 0) {
      throw std::runtime_error("load: bad bitvector word '" + tok + "'");
    }
    word = (word << 4) | static_cast<std::uint64_t>(digit);
  }
  return word;
}

inline hv::BitVector read_bitvector(std::istream& in) {
  const std::string line = expect_line(in, "bitvector");
  std::istringstream tokens(line);
  std::string tok;
  if (!(tokens >> tok)) throw std::runtime_error("load: bad bitvector size");
  const auto parsed_bits = util::parse_int(tok);
  if (!parsed_bits || *parsed_bits < 0) {
    throw std::runtime_error("load: bad bitvector size '" + tok + "'");
  }
  const auto bits = static_cast<std::size_t>(*parsed_bits);
  if (bits > kMaxBitvectorBits) {
    throw std::runtime_error("load: bitvector size out of range");
  }
  hv::BitVector out(bits);
  const std::size_t n_words = (bits + 63) / 64;
  for (std::size_t w = 0; w < n_words; ++w) {
    if (!(tokens >> tok)) throw std::runtime_error("load: truncated bitvector");
    const std::uint64_t word = parse_hex16_word(tok);
    if (w + 1 == n_words && bits % 64 != 0 &&
        (word & (~0ULL << (bits % 64))) != 0) {
      throw std::runtime_error("load: nonzero padding bits in bitvector");
    }
    for (std::size_t b = 0; b < 64; ++b) {
      const std::size_t bit = w * 64 + b;
      if (bit < bits && ((word >> b) & 1ULL)) out.set(bit, true);
    }
  }
  if (tokens >> tok) {
    throw std::runtime_error("load: trailing data after bitvector");
  }
  return out;
}

/// Claimed counts are trusted for the reserve, as the original reader did:
/// callers keep them near the real row count.
inline core::HammingClassifier load_hamming(std::istream& in) {
  if (expect_line(in, "magic") != "hdc-hamming v2") {
    throw std::runtime_error("load_hamming: bad magic");
  }
  const std::string mode_name = expect_line(in, "mode");
  core::HammingMode mode = core::HammingMode::kNearestNeighbor;
  if (mode_name == "prototype") {
    mode = core::HammingMode::kPrototype;
  } else if (mode_name != "nearest") {
    throw std::runtime_error("load_hamming: unknown mode '" + mode_name + "'");
  }
  const long long count = expect_int(in, "vector count");
  if (count <= 0) throw std::runtime_error("load_hamming: empty model");
  std::vector<hv::BitVector> vectors;
  std::vector<int> labels;
  vectors.reserve(static_cast<std::size_t>(count));
  labels.reserve(static_cast<std::size_t>(count));
  for (long long i = 0; i < count; ++i) {
    labels.push_back(static_cast<int>(expect_int(in, "label")));
    vectors.push_back(read_bitvector(in));
  }
  core::HammingClassifier model(mode);
  model.fit(std::move(vectors), std::move(labels));
  return model;
}

}  // namespace hdc::test_oracle
