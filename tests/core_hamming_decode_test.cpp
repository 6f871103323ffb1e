// Differential test of the in-place hamming decoder (core::load_hamming /
// core::read_bitvector) against the naive token-stream reader in
// hamming_text_oracle.hpp. Seeded mutations of saved hamming bodies —
// truncation at every stride, bit flips, byte smashes, whitespace variants
// (tabs, CRs, \v, \f, runs of spaces, leading and trailing), uppercase hex,
// 15- and 17-digit words, extra words, nonzero padding bits, rows of another
// width, bad labels and count lines that claim more (or fewer) rows than
// present — at ragged widths D = 1, 65, 127 and 10000. Both readers must
// accept the same inputs, decode the same words, labels and prototypes, and
// reject the rest with the same exception type and message.
#include <cstddef>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/hamming_classifier.hpp"
#include "core/serialize.hpp"
#include "hamming_text_oracle.hpp"
#include "hv/bitvector.hpp"
#include "util/rng.hpp"

namespace {

using hdc::core::HammingClassifier;
using hdc::core::HammingMode;

/// What a reader made of one input: the decoded model or the error.
struct Outcome {
  std::string error;  // "<exception kind>: <what()>", empty when accepted
  int mode = -1;
  std::size_t bits = 0;
  std::vector<std::uint64_t> words;  // every stored row, then any prototypes
  std::vector<int> labels;
};

Outcome outcome_of(const std::function<HammingClassifier()>& load) {
  Outcome out;
  try {
    const HammingClassifier model = load();
    const hdc::hv::PackedHVs& packed = model.packed_vectors();
    out.mode = static_cast<int>(model.mode());
    out.bits = packed.bits();
    out.words.assign(packed.row(0),
                     packed.row(0) + packed.rows() * packed.words_per_row());
    if (model.mode() == HammingMode::kPrototype) {
      for (const int c : {0, 1}) {
        const auto& w = model.prototype(c).words();
        out.words.insert(out.words.end(), w.begin(), w.end());
      }
    }
    out.labels = model.training_labels();
  } catch (const std::invalid_argument& e) {
    out.error = std::string("invalid_argument: ") + e.what();
  } catch (const std::runtime_error& e) {
    out.error = std::string("runtime_error: ") + e.what();
  } catch (const std::exception& e) {
    out.error = std::string("other: ") + e.what();
  }
  return out;
}

::testing::AssertionResult same(const Outcome& got, const Outcome& want) {
  if (got.error != want.error) {
    return ::testing::AssertionFailure()
           << "error '" << got.error << "' vs oracle '" << want.error << "'";
  }
  if (got.mode != want.mode || got.bits != want.bits || got.labels != want.labels ||
      got.words != want.words) {
    return ::testing::AssertionFailure() << "decoded model differs from the oracle's";
  }
  return ::testing::AssertionSuccess();
}

/// Tallies of how the oracle judged the inputs, so each suite can check that
/// its mutations reach both sides of the accept/reject line.
struct Tally {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
};

void expect_agree(const std::string& body, const std::string& label, Tally& tally) {
  const Outcome want = outcome_of([&] {
    std::istringstream in(body);
    return hdc::test_oracle::load_hamming(in);
  });
  (want.error.empty() ? tally.accepted : tally.rejected) += 1;
  EXPECT_TRUE(same(outcome_of([&] { return hdc::core::load_hamming(std::string_view(body)); }),
                   want))
      << label << " (view)";
  EXPECT_TRUE(same(outcome_of([&] {
                     std::istringstream in(body);
                     return hdc::core::load_hamming(in);
                   }),
                   want))
      << label << " (stream)";
}

std::string saved_body(std::size_t bits, std::size_t rows, HammingMode mode,
                       std::uint64_t seed) {
  hdc::util::Rng rng(seed);
  std::vector<hdc::hv::BitVector> vectors;
  std::vector<int> labels;
  for (std::size_t i = 0; i < rows; ++i) {
    vectors.push_back(hdc::hv::BitVector::random(bits, rng));
    labels.push_back(static_cast<int>(i % 2));
  }
  HammingClassifier model(mode);
  model.fit(std::move(vectors), std::move(labels));
  std::ostringstream out;
  hdc::core::save_hamming(out, model);
  return out.str();
}

struct Shape {
  std::size_t bits;
  std::size_t rows;
  HammingMode mode;
};

const std::vector<Shape>& shapes() {
  static const std::vector<Shape> all = {
      {65, 7, HammingMode::kNearestNeighbor},
      {127, 6, HammingMode::kPrototype},
      {10000, 3, HammingMode::kNearestNeighbor},
      {1, 4, HammingMode::kNearestNeighbor},
  };
  return all;
}

std::string shape_name(const Shape& s) {
  return "D=" + std::to_string(s.bits) + " rows=" + std::to_string(s.rows) +
         (s.mode == HammingMode::kPrototype ? " prototype" : " nearest");
}

std::vector<std::string> split_lines(const std::string& body) {
  std::vector<std::string> lines;
  std::istringstream in(body);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) out += line + '\n';
  return out;
}

/// Line index of row r's bitvector (lines: magic, mode, count, then label /
/// bitvector pairs).
std::size_t vector_line(std::size_t row) { return 4 + 2 * row; }
std::size_t label_line(std::size_t row) { return 3 + 2 * row; }

/// Offset of word w's first digit in a bitvector line as saved.
std::size_t word_offset(const std::string& line, std::size_t w) {
  return line.find(' ') + 1 + 17 * w;
}

TEST(HammingDecode, PristineBodiesDecodeIdentically) {
  Tally tally;
  for (const Shape& s : shapes()) {
    expect_agree(saved_body(s.bits, s.rows, s.mode, 1), shape_name(s), tally);
  }
  EXPECT_EQ(tally.accepted, shapes().size());
}

TEST(HammingDecode, TruncationAtEveryStride) {
  Tally tally;
  for (const Shape& s : shapes()) {
    const std::string body = saved_body(s.bits, s.rows, s.mode, 2);
    const std::size_t stride = body.size() > 4000 ? 61 : 1;
    for (std::size_t cut = 0; cut <= body.size(); cut += stride) {
      expect_agree(body.substr(0, cut), shape_name(s) + " cut " + std::to_string(cut),
                   tally);
    }
    for (std::size_t back = 1; back <= 40 && back <= body.size(); ++back) {
      expect_agree(body.substr(0, body.size() - back),
                   shape_name(s) + " cut -" + std::to_string(back), tally);
    }
  }
  EXPECT_GT(tally.accepted, 0u);  // dropping only the final newline(s) is valid
  EXPECT_GT(tally.rejected, 100u);
}

TEST(HammingDecode, BitFlipsAndByteSmashes) {
  Tally tally;
  hdc::util::Rng rng(13);
  for (const Shape& s : shapes()) {
    const std::string body = saved_body(s.bits, s.rows, s.mode, 3);
    for (int trial = 0; trial < 250; ++trial) {
      std::string mutated = body;
      const std::size_t pos = rng.below(mutated.size());
      if (trial % 2 == 0) {
        mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << rng.below(8)));
      } else {
        mutated[pos] = static_cast<char>(rng.below(256));
      }
      expect_agree(mutated, shape_name(s) + " byte " + std::to_string(pos), tally);
    }
  }
  EXPECT_GT(tally.rejected, 500u);
}

TEST(HammingDecode, WhitespaceVariants) {
  Tally tally;
  hdc::util::Rng rng(17);
  const std::vector<std::string> separators = {"\t", "\r", "\v", "\f", "  ",
                                               " \t ", "    ", "\t\t"};
  const std::vector<std::string> edges = {" ", "\t", "\r", "\v", "\f", " \r", "\t \t"};
  for (const Shape& s : shapes()) {
    const std::string body = saved_body(s.bits, s.rows, s.mode, 4);
    const std::vector<std::string> lines = split_lines(body);
    // CRLF line endings throughout, and a missing final newline.
    std::string crlf;
    for (const std::string& line : lines) crlf += line + "\r\n";
    expect_agree(crlf, shape_name(s) + " crlf", tally);
    expect_agree(body.substr(0, body.size() - 1), shape_name(s) + " no final newline",
                 tally);
    for (int trial = 0; trial < 120; ++trial) {
      std::vector<std::string> mutated = lines;
      const std::size_t line = rng.below(mutated.size());
      std::string& text = mutated[line];
      const std::string& edge = edges[rng.below(edges.size())];
      switch (trial % 3) {
        case 0: {  // one separator replaced inside the line
          const std::size_t space = text.find(' ', rng.below(text.size() + 1));
          if (space != std::string::npos) {
            text.replace(space, 1, separators[rng.below(separators.size())]);
          }
          break;
        }
        case 1:
          text.insert(0, edge);
          break;
        default:
          text += edge;
          break;
      }
      expect_agree(join_lines(mutated),
                   shape_name(s) + " whitespace line " + std::to_string(line), tally);
    }
  }
  EXPECT_GT(tally.accepted, 100u);
  EXPECT_GT(tally.rejected, 10u);  // e.g. \v before the magic, \f in a label
}

TEST(HammingDecode, MalformedWords) {
  Tally tally;
  hdc::util::Rng rng(19);
  for (const Shape& s : shapes()) {
    const std::string body = saved_body(s.bits, s.rows, s.mode, 5);
    const std::vector<std::string> lines = split_lines(body);
    const std::size_t n_words = (s.bits + 63) / 64;
    for (int trial = 0; trial < 120; ++trial) {
      std::vector<std::string> mutated = lines;
      const std::size_t row = rng.below(s.rows);
      std::string& text = mutated[vector_line(row)];
      const std::size_t word = rng.below(n_words);
      const std::size_t at = word_offset(text, word) + rng.below(16);
      switch (trial % 4) {
        case 0:  // uppercase hex (forced to a letter digit)
          text[at] = "ABCDEF"[rng.below(6)];
          break;
        case 1:  // 15-digit word
          text.erase(at, 1);
          break;
        case 2:  // 17-digit word
          text.insert(at, 1, "0123456789abcdef"[rng.below(16)]);
          break;
        default:  // one word too many
          text += " 0000000000000000";
          break;
      }
      expect_agree(join_lines(mutated),
                   shape_name(s) + " word " + std::to_string(word) + " row " +
                       std::to_string(row),
                   tally);
    }
  }
  EXPECT_EQ(tally.accepted, 0u);
}

TEST(HammingDecode, NonzeroPaddingBits) {
  Tally tally;
  for (const Shape& s : shapes()) {
    if (s.bits % 64 == 0) continue;
    const std::string body = saved_body(s.bits, s.rows, s.mode, 6);
    const std::vector<std::string> lines = split_lines(body);
    const std::size_t last = (s.bits + 63) / 64 - 1;
    for (std::size_t row = 0; row < s.rows; ++row) {
      for (const char top : {'8', 'f', '1'}) {
        std::vector<std::string> mutated = lines;
        std::string& text = mutated[vector_line(row)];
        text[word_offset(text, last)] = top;  // most significant nibble
        expect_agree(join_lines(mutated), shape_name(s) + " padding row " +
                                              std::to_string(row) + " " + top,
                     tally);
      }
    }
  }
  EXPECT_GT(tally.rejected, 0u);
}

TEST(HammingDecode, RowsOfAnotherWidth) {
  Tally tally;
  hdc::util::Rng rng(23);
  for (const Shape& s : shapes()) {
    const std::string body = saved_body(s.bits, s.rows, s.mode, 7);
    const std::vector<std::string> lines = split_lines(body);
    for (const std::size_t other : {s.bits + 1, s.bits + 64, std::size_t{64}}) {
      for (std::size_t row = 0; row < s.rows; ++row) {
        std::vector<std::string> mutated = lines;
        std::ostringstream line;
        hdc::core::write_bitvector(line, hdc::hv::BitVector::random(other, rng));
        mutated[vector_line(row)] = line.str().substr(0, line.str().size() - 1);
        expect_agree(join_lines(mutated),
                     shape_name(s) + " row " + std::to_string(row) + " width " +
                         std::to_string(other),
                     tally);
        // A bad label elsewhere outranks the width mismatch.
        mutated[label_line(s.rows - 1)] = "2";
        expect_agree(join_lines(mutated),
                     shape_name(s) + " row " + std::to_string(row) + " width " +
                         std::to_string(other) + " + bad label",
                     tally);
      }
    }
  }
  EXPECT_EQ(tally.accepted, 0u);
}

TEST(HammingDecode, CountAndLabelLines) {
  Tally tally;
  for (const Shape& s : shapes()) {
    const std::string body = saved_body(s.bits, s.rows, s.mode, 8);
    const std::vector<std::string> lines = split_lines(body);
    const long long rows = static_cast<long long>(s.rows);
    for (const std::string& count :
         {std::to_string(rows + 1), std::to_string(rows + 3), std::to_string(2 * rows),
          std::to_string(rows - 1), std::string("1"), std::string("0"),
          std::string("-1"), " " + std::to_string(rows) + "\r",
          std::to_string(rows) + "x", std::string("+1"), std::string("")}) {
      std::vector<std::string> mutated = lines;
      mutated[2] = count;
      expect_agree(join_lines(mutated), shape_name(s) + " count '" + count + "'", tally);
    }
    for (const std::string& label :
         {std::string("2"), std::string("-1"), std::string("4294967297"),
          std::string(" 1\r"), std::string("1 1"), std::string(""), std::string("\v1"),
          std::string("00"), std::string("99999999999999999999")}) {
      for (const std::size_t row : {std::size_t{0}, s.rows - 1}) {
        std::vector<std::string> mutated = lines;
        mutated[label_line(row)] = label;
        expect_agree(join_lines(mutated),
                     shape_name(s) + " label '" + label + "' row " + std::to_string(row),
                     tally);
      }
    }
    for (const std::string& header :
         {std::string(" hdc-hamming v2\t"), std::string("hdc-hamming v1"),
          std::string("hdc-hamming  v2")}) {
      std::vector<std::string> mutated = lines;
      mutated[0] = header;
      expect_agree(join_lines(mutated), shape_name(s) + " magic '" + header + "'", tally);
    }
    for (const std::string& mode : {std::string("prototype\r"), std::string("Nearest"),
                                    std::string(" nearest "), std::string("")}) {
      std::vector<std::string> mutated = lines;
      mutated[1] = mode;
      expect_agree(join_lines(mutated), shape_name(s) + " mode '" + mode + "'", tally);
    }
  }
  EXPECT_GT(tally.accepted, 10u);  // fewer rows claimed, padded counts/labels
  EXPECT_GT(tally.rejected, 50u);
}

TEST(HammingDecode, SingleBitvectorLines) {
  // read_bitvector on its own: one line, production vs oracle.
  hdc::util::Rng rng(29);
  std::size_t accepted = 0;
  for (const std::size_t bits : {std::size_t{0}, std::size_t{1}, std::size_t{64},
                                 std::size_t{65}, std::size_t{127}, std::size_t{10000}}) {
    std::ostringstream saved;
    hdc::core::write_bitvector(saved, hdc::hv::BitVector::random(bits, rng));
    const std::string line = saved.str();
    const std::string bare = line.substr(0, line.size() - 1);
    std::vector<std::string> inputs = {line,        line + "tail\n",
                                       "\f" + line, bare + " \v\n",
                                       bare,        bare + " 0123456789abcdef\n",
                                       bare + " x", "-" + line,
                                       "0" + line,  " 99999999 \n"};
    for (int trial = 0; trial < 60; ++trial) {
      std::string mutated = line;
      mutated[rng.below(mutated.size())] = static_cast<char>(rng.below(128));
      inputs.push_back(mutated);
    }
    for (const std::string& input : inputs) {
      std::string want;
      std::string got;
      std::vector<std::uint64_t> want_words;
      std::vector<std::uint64_t> got_words;
      try {
        std::istringstream in(input);
        want_words = hdc::test_oracle::read_bitvector(in).words();
        ++accepted;
      } catch (const std::runtime_error& e) {
        want = e.what();
      }
      try {
        std::istringstream in(input);
        got_words = hdc::core::read_bitvector(in).words();
      } catch (const std::runtime_error& e) {
        got = e.what();
      }
      EXPECT_EQ(got, want) << "D=" << bits << " input '" << input << "'";
      EXPECT_EQ(got_words, want_words) << "D=" << bits;
    }
  }
  EXPECT_GT(accepted, 20u);
}

}  // namespace
