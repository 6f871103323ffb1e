#include "util/str.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace hdc::util {

std::string_view trim(std::string_view s) noexcept {
  const auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\n';
  };
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && is_space(s[begin])) ++begin;
  while (end > begin && is_space(s[end - 1])) --end;
  return s.substr(begin, end - begin);
}

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::optional<double> parse_double(std::string_view s) noexcept {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  // std::from_chars for double is available in libstdc++ >= 11.
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return value;
}

std::optional<long long> parse_int(std::string_view s) noexcept {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  long long value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return value;
}

bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool LineReader::next(std::string_view& line) noexcept {
  if (pos_ >= text_.size()) return false;
  const std::size_t newline = text_.find('\n', pos_);
  const std::size_t end = newline == std::string_view::npos ? text_.size() : newline;
  line = text_.substr(pos_, end - pos_);
  pos_ = newline == std::string_view::npos ? end : end + 1;
  return true;
}

bool LineReader::take(std::size_t n, std::string_view& bytes) noexcept {
  if (n > remaining()) return false;
  bytes = text_.substr(pos_, n);
  pos_ += n;
  return true;
}

bool LineReader::consume(char c) noexcept {
  if (pos_ >= text_.size() || text_[pos_] != c) return false;
  ++pos_;
  return true;
}

std::string format_double(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

std::string format_percent(double fraction, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", decimals, fraction * 100.0);
  return buf;
}

}  // namespace hdc::util
