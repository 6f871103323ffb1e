// Small string helpers used by the CSV reader and CLI parsing.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hdc::util {

/// Remove leading/trailing whitespace (space, tab, CR, LF).
[[nodiscard]] std::string_view trim(std::string_view s) noexcept;

/// Split on a delimiter; keeps empty fields. "a,,b" -> {"a", "", "b"}.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char delim);

/// Lower-case ASCII copy.
[[nodiscard]] std::string to_lower(std::string_view s);

/// Parse a double; returns nullopt on failure or trailing garbage.
[[nodiscard]] std::optional<double> parse_double(std::string_view s) noexcept;

/// Parse a non-negative integer; returns nullopt on failure.
[[nodiscard]] std::optional<long long> parse_int(std::string_view s) noexcept;

/// True if two strings are equal ignoring ASCII case.
[[nodiscard]] bool iequals(std::string_view a, std::string_view b) noexcept;

/// std::getline over an in-memory buffer, for parsers that read a loaded
/// artifact in place: lines split on '\n' only, a final line without '\n'
/// still counts, and nothing past the end yields a line.
class LineReader {
 public:
  explicit LineReader(std::string_view text) noexcept : text_(text) {}

  /// Next line without its '\n'; false (line untouched) at end of input.
  bool next(std::string_view& line) noexcept;
  /// Next `n` raw bytes; false (nothing consumed) if fewer remain.
  bool take(std::size_t n, std::string_view& bytes) noexcept;
  /// Consume the next byte if it equals `c`.
  bool consume(char c) noexcept;

  [[nodiscard]] std::size_t remaining() const noexcept { return text_.size() - pos_; }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

/// printf-style number formatting helpers used by report tables.
[[nodiscard]] std::string format_double(double value, int decimals);
[[nodiscard]] std::string format_percent(double fraction, int decimals = 1);

}  // namespace hdc::util
