// Save / load for the deployable pieces of the pipeline: the fitted feature
// extractor (column encodings + encoding seed — a few hundred bytes) and the
// Hamming classifier (training hypervectors + labels). The format is a
// versioned line-oriented text format: human-inspectable, append-safe, and
// stable across platforms (hypervector words are written as hex).
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "core/extractor.hpp"
#include "core/hamming_classifier.hpp"
#include "hv/bitvector.hpp"

namespace hdc::core {

/// BitVector <-> hex text (words little-endian, lowercase hex). One line:
/// "<bits> <16 hex digits>..." — read_bitvector consumes exactly one line.
void write_bitvector(std::ostream& out, const hv::BitVector& vector);
[[nodiscard]] hv::BitVector read_bitvector(std::istream& in);

/// Fitted extractor round-trip. Throws std::runtime_error on malformed input.
void save_extractor(std::ostream& out, const HdcFeatureExtractor& extractor);
[[nodiscard]] HdcFeatureExtractor load_extractor(std::istream& in);
void save_extractor_file(const std::string& path, const HdcFeatureExtractor& extractor);
[[nodiscard]] HdcFeatureExtractor load_extractor_file(const std::string& path);

/// Fitted Hamming classifier round-trip (1-NN and prototype modes). The
/// string_view form decodes a body in place, rows straight into the packed
/// database (the bundle load path); the stream form reads the rest of `in`
/// and decodes that.
void save_hamming(std::ostream& out, const HammingClassifier& model);
[[nodiscard]] HammingClassifier load_hamming(std::string_view body);
[[nodiscard]] HammingClassifier load_hamming(std::istream& in);
void save_hamming_file(const std::string& path, const HammingClassifier& model);
[[nodiscard]] HammingClassifier load_hamming_file(const std::string& path);

}  // namespace hdc::core
