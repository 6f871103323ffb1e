#include "core/serialize.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/serde.hpp"
#include "util/str.hpp"

namespace hdc::core {

namespace {

constexpr const char* kExtractorMagic = "hdc-extractor v1";
constexpr const char* kHammingMagic = "hdc-hamming v2";

std::string expect_line(std::istream& in, const char* what) {
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error(std::string("load: unexpected end of input at ") + what);
  }
  return std::string(util::trim(line));
}

long long expect_int(std::istream& in, const char* what) {
  const auto value = util::parse_int(expect_line(in, what));
  if (!value) throw std::runtime_error(std::string("load: bad integer for ") + what);
  return *value;
}

/// Hard cap on persisted hypervector width: well above any configuration we
/// ship (paper uses 1k-10k dimensions) and small enough that a corrupted
/// size field cannot trigger a giant allocation.
constexpr std::size_t kMaxBitvectorBits = 1ULL << 26;

/// Byte classes of a bitvector line: a lowercase hex digit's value (0-15),
/// whitespace as `istream >> std::string` splits it in the C locale, or
/// anything else. Uppercase hex is "anything else": one canonical spelling.
constexpr std::uint8_t kSpace = 0x40;
constexpr std::uint8_t kOther = 0x80;
constexpr std::array<std::uint8_t, 256> kByteClass = [] {
  std::array<std::uint8_t, 256> table{};
  table.fill(kOther);
  for (int c = '0'; c <= '9'; ++c) table[c] = static_cast<std::uint8_t>(c - '0');
  for (int c = 'a'; c <= 'f'; ++c) table[c] = static_cast<std::uint8_t>(c - 'a' + 10);
  for (const char c : {' ', '\t', '\n', '\v', '\f', '\r'}) {
    table[static_cast<unsigned char>(c)] = kSpace;
  }
  return table;
}();

[[nodiscard]] std::uint8_t byte_class(char c) noexcept {
  return kByteClass[static_cast<unsigned char>(c)];
}

/// One "<bits> <hex16> <hex16> ..." line — the single decoder behind
/// read_bitvector and load_hamming. Construction validates the size token;
/// decode() validates every word and the end of the line while writing the
/// words straight into caller-owned storage. Accepts exactly what the
/// token-stream reader accepted: C-locale whitespace between tokens, words
/// of exactly 16 lowercase hex digits, the exact word count, zero padding
/// bits and nothing after the last word.
class BitvectorLine {
 public:
  explicit BitvectorLine(std::string_view line) : line_(line) {
    skip_space();
    const std::size_t begin = pos_;
    while (pos_ < line_.size() && byte_class(line_[pos_]) != kSpace) ++pos_;
    const std::string_view token = line_.substr(begin, pos_ - begin);
    if (token.empty()) throw std::runtime_error("load: bad bitvector size");
    const auto parsed_bits = util::parse_int(token);
    if (!parsed_bits || *parsed_bits < 0) {
      throw std::runtime_error("load: bad bitvector size '" + std::string(token) + "'");
    }
    bits_ = static_cast<std::size_t>(*parsed_bits);
    if (bits_ > kMaxBitvectorBits) {
      throw std::runtime_error("load: bitvector size out of range");
    }
  }

  [[nodiscard]] std::size_t bits() const noexcept { return bits_; }
  [[nodiscard]] std::size_t words() const noexcept { return (bits_ + 63) / 64; }

  /// Decode words() words into out[0, words()).
  void decode(std::uint64_t* out) {
    const std::size_t n_words = words();
    const char* const end = line_.data() + line_.size();
    for (std::size_t w = 0; w < n_words; ++w) {
      skip_space();
      if (pos_ == line_.size()) throw std::runtime_error("load: truncated bitvector");
      const char* digits = line_.data() + pos_;
      std::uint64_t word = 0;
      std::uint8_t seen = kOther;
      if (end - digits >= 16) {
        seen = 0;
        for (int i = 0; i < 16; ++i) {
          const std::uint8_t digit = byte_class(digits[i]);
          seen |= digit;
          word = (word << 4) | (digit & 0xf);
        }
      }
      if ((seen & 0xf0) != 0 || (end - digits > 16 && byte_class(digits[16]) != kSpace)) {
        bad_word();
      }
      pos_ += 16;
      if (w + 1 == n_words && bits_ % 64 != 0 && (word & (~0ULL << (bits_ % 64))) != 0) {
        throw std::runtime_error("load: nonzero padding bits in bitvector");
      }
      out[w] = word;
    }
    skip_space();
    if (pos_ != line_.size()) {
      throw std::runtime_error("load: trailing data after bitvector");
    }
  }

 private:
  void skip_space() noexcept {
    while (pos_ < line_.size() && byte_class(line_[pos_]) == kSpace) ++pos_;
  }

  /// The word token at pos_ is not 16 hex digits: name it as the reader
  /// always has (length first, then the stray character).
  [[noreturn]] void bad_word() const {
    std::size_t end = pos_;
    while (end < line_.size() && byte_class(line_[end]) != kSpace) ++end;
    const std::string token(line_.substr(pos_, end - pos_));
    if (token.size() != 16) {
      throw std::runtime_error("load: bad bitvector word '" + token +
                               "': expected exactly 16 hex digits");
    }
    throw std::runtime_error("load: bad bitvector word '" + token + "'");
  }

  std::string_view line_;
  std::size_t pos_ = 0;
  std::size_t bits_ = 0;
};

/// Next line of a buffer, with expect_line's end-of-input error.
std::string_view expect_line(util::LineReader& lines, const char* what) {
  std::string_view line;
  if (!lines.next(line)) {
    throw std::runtime_error(std::string("load: unexpected end of input at ") + what);
  }
  return line;
}

long long expect_int(util::LineReader& lines, const char* what) {
  const auto value = util::parse_int(expect_line(lines, what));
  if (!value) throw std::runtime_error(std::string("load: bad integer for ") + what);
  return *value;
}

/// Append "<bits> <hex16>...\n" for one row of words.
void append_bitvector_line(std::string& out, std::size_t bits,
                           const std::uint64_t* words) {
  char digits[24];
  out.append(digits, std::to_chars(digits, digits + sizeof(digits), bits).ptr);
  const std::size_t n_words = (bits + 63) / 64;
  const std::size_t head = out.size();
  out.resize(head + n_words * 17 + 1);
  char* cursor = out.data() + head;
  for (std::size_t w = 0; w < n_words; ++w) {
    *cursor++ = ' ';
    cursor = util::serde::write_hex16(cursor, words[w]);
  }
  *cursor = '\n';
}

const char* kind_name(data::ColumnKind kind) {
  switch (kind) {
    case data::ColumnKind::kBinary: return "binary";
    case data::ColumnKind::kCategorical: return "categorical";
    default: return "continuous";
  }
}

data::ColumnKind parse_kind(std::string_view name) {
  if (name == "binary") return data::ColumnKind::kBinary;
  if (name == "categorical") return data::ColumnKind::kCategorical;
  if (name == "continuous") return data::ColumnKind::kContinuous;
  throw std::runtime_error("load: unknown column kind '" + std::string(name) + "'");
}

}  // namespace

void write_bitvector(std::ostream& out, const hv::BitVector& vector) {
  // Fixed-width words: every token is exactly 16 lowercase hex digits, so
  // the reader can reject odd-length / truncated hex instead of guessing.
  std::string line;
  append_bitvector_line(line, vector.size(), vector.words().data());
  out.write(line.data(), static_cast<std::streamsize>(line.size()));
}

hv::BitVector read_bitvector(std::istream& in) {
  const std::string text = expect_line(in, "bitvector");
  BitvectorLine line(text);
  hv::BitVector out(line.bits());
  line.decode(out.word_data());
  return out;
}

void save_extractor(std::ostream& out, const HdcFeatureExtractor& extractor) {
  if (!extractor.fitted()) {
    throw std::invalid_argument("save_extractor: extractor is not fitted");
  }
  const ExtractorConfig& config = extractor.config();
  out << kExtractorMagic << '\n';
  out << config.dimensions << '\n';
  out << config.seed << '\n';
  out << (config.tie == hv::TiePolicy::kZero ? 0 : 1) << '\n';
  out << (config.missing_as_min ? 1 : 0) << '\n';
  const auto& columns = extractor.column_encodings();
  out << columns.size() << '\n';
  for (const ColumnEncoding& column : columns) {
    // name may contain spaces; keep it last on its own line.
    out << kind_name(column.kind) << ' ' << util::format_double(column.lo, 17) << ' '
        << util::format_double(column.hi, 17) << ' ' << column.name << '\n';
  }
}

HdcFeatureExtractor load_extractor(std::istream& in) {
  if (expect_line(in, "magic") != kExtractorMagic) {
    throw std::runtime_error("load_extractor: bad magic");
  }
  ExtractorConfig config;
  config.dimensions = static_cast<std::size_t>(expect_int(in, "dimensions"));
  config.seed = static_cast<std::uint64_t>(expect_int(in, "seed"));
  config.tie = expect_int(in, "tie") == 0 ? hv::TiePolicy::kZero : hv::TiePolicy::kOne;
  config.missing_as_min = expect_int(in, "missing_as_min") != 0;
  const long long n_columns = expect_int(in, "column count");
  if (n_columns <= 0) throw std::runtime_error("load_extractor: no columns");

  std::vector<ColumnEncoding> columns;
  columns.reserve(static_cast<std::size_t>(n_columns));
  for (long long j = 0; j < n_columns; ++j) {
    const std::string line = expect_line(in, "column");
    std::istringstream tokens(line);
    std::string kind;
    double lo = 0.0;
    double hi = 0.0;
    if (!(tokens >> kind >> lo >> hi)) {
      throw std::runtime_error("load_extractor: bad column line '" + line + "'");
    }
    std::string name;
    std::getline(tokens, name);
    ColumnEncoding column;
    column.kind = parse_kind(kind);
    column.lo = lo;
    column.hi = hi;
    column.name = std::string(util::trim(name));
    columns.push_back(std::move(column));
  }

  HdcFeatureExtractor extractor(config);
  extractor.fit_from_columns(std::move(columns));
  return extractor;
}

void save_hamming(std::ostream& out, const HammingClassifier& model) {
  if (!model.fitted()) {
    throw std::invalid_argument("save_hamming: model is not fitted");
  }
  out << kHammingMagic << '\n';
  out << (model.mode() == HammingMode::kPrototype ? "prototype" : "nearest") << '\n';
  const hv::PackedHVs& packed = model.packed_vectors();
  const auto& labels = model.training_labels();
  out << packed.rows() << '\n';
  // One reusable buffer, one write per row (label line + vector line).
  std::string row;
  for (std::size_t i = 0; i < packed.rows(); ++i) {
    row.clear();
    char digits[16];
    row.append(digits, std::to_chars(digits, digits + sizeof(digits), labels[i]).ptr);
    row.push_back('\n');
    append_bitvector_line(row, packed.bits(), packed.row(i));
    out.write(row.data(), static_cast<std::streamsize>(row.size()));
  }
}

HammingClassifier load_hamming(std::string_view body) {
  util::LineReader lines(body);
  if (util::trim(expect_line(lines, "magic")) != kHammingMagic) {
    throw std::runtime_error("load_hamming: bad magic");
  }
  const std::string_view mode_name = util::trim(expect_line(lines, "mode"));
  HammingMode mode = HammingMode::kNearestNeighbor;
  if (mode_name == "prototype") {
    mode = HammingMode::kPrototype;
  } else if (mode_name != "nearest") {
    throw std::runtime_error("load_hamming: unknown mode '" + std::string(mode_name) +
                             "'");
  }
  const long long count = expect_int(lines, "vector count");
  if (count <= 0) throw std::runtime_error("load_hamming: empty model");

  // Rows decode straight into the packed database. Row 0 fixes the width; a
  // row of another width is still fully validated (into `scratch`) so the
  // errors come in the order a row-by-row reader would raise them.
  std::vector<int> labels;
  std::vector<std::uint64_t> words;
  std::vector<std::uint64_t> scratch;
  std::size_t bits = 0;
  std::size_t ragged_bits = 0;
  bool ragged = false;
  for (long long i = 0; i < count; ++i) {
    labels.push_back(static_cast<int>(expect_int(lines, "label")));
    BitvectorLine line(expect_line(lines, "bitvector"));
    const std::size_t n_words = line.words();
    if (i == 0) {
      // Size the buffers by the rows the body can still hold (each needs at
      // least 17 bytes a word plus two line breaks and two digits), never by
      // the claimed count alone.
      bits = line.bits();
      const std::size_t rows = std::min<std::size_t>(
          static_cast<std::size_t>(count), 2 + lines.remaining() / (17 * n_words + 4));
      words.reserve(rows * n_words);
      labels.reserve(rows);
    }
    if (line.bits() == bits) {
      words.resize(words.size() + n_words);
      line.decode(words.data() + words.size() - n_words);
    } else {
      scratch.resize(n_words);
      line.decode(scratch.data());
      if (!ragged) ragged_bits = line.bits();
      ragged = true;
    }
  }
  if (ragged) {
    // What fit(vectors) reports for mixed widths, in its order: labels first.
    for (const int y : labels) {
      if (y != 0 && y != 1) {
        throw std::invalid_argument("HammingClassifier: labels must be 0/1");
      }
    }
    throw std::invalid_argument("PackedHVs: row dimensionality mismatch (" +
                                std::to_string(ragged_bits) + " vs " +
                                std::to_string(bits) + ")");
  }
  HammingClassifier model(mode);
  const std::size_t rows = labels.size();
  model.fit_packed(hv::PackedHVs(bits, rows, std::move(words)), std::move(labels));
  return model;
}

HammingClassifier load_hamming(std::istream& in) {
  return load_hamming(std::string_view(util::serde::read_all(in)));
}

namespace {
template <typename Saver, typename Value>
void save_to_file(const std::string& path, const Value& value, Saver saver) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save: cannot open " + path);
  saver(out, value);
  if (!out) throw std::runtime_error("save: write failed for " + path);
}
}  // namespace

void save_extractor_file(const std::string& path, const HdcFeatureExtractor& extractor) {
  save_to_file(path, extractor,
               [](std::ostream& out, const HdcFeatureExtractor& e) {
                 save_extractor(out, e);
               });
}

HdcFeatureExtractor load_extractor_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load: cannot open " + path);
  return load_extractor(in);
}

void save_hamming_file(const std::string& path, const HammingClassifier& model) {
  save_to_file(path, model, [](std::ostream& out, const HammingClassifier& m) {
    save_hamming(out, m);
  });
}

HammingClassifier load_hamming_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load: cannot open " + path);
  return load_hamming(in);
}

}  // namespace hdc::core
