#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "perfbench.hpp"

namespace perfbench {

namespace {

/// Layers of the library, longest prefix first so "hv.encode.x" does not
/// match a shorter layer.
constexpr const char* kLayers[] = {
    "core.bundle", "core.serve", "core.grid", "hv.encode", "hv.search",
    "hv.ann",      "simd",       "data",      "ml",        "eval"};

std::string layer_of(const char* name) {
  const std::string_view n(name);
  for (const char* layer : kLayers) {
    const std::string_view l(layer);
    if (n.size() > l.size() && n.substr(0, l.size()) == l && n[l.size()] == '.') {
      return layer;
    }
  }
  return "bench";
}

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
      out += buffer;
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
}

void append_number(std::string& out, double v) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", std::isfinite(v) ? v : 0.0);
  out += buffer;
}

void append_metrics(std::string& out, const std::map<std::string, Metric>& metrics) {
  out.push_back('{');
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) out.push_back(',');
    first = false;
    append_json_string(out, name);
    out += ":{\"value\":";
    append_number(out, metric.value);
    out += ",\"unit\":";
    append_json_string(out, metric.unit);
    out.push_back('}');
  }
  out.push_back('}');
}

}  // namespace

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::string line;
  for (const SpanRecord& s : spans_) {
    line.clear();
    line += "{\"name\":";
    append_json_string(line, s.name);
    line += ",\"begin_ns\":" + std::to_string(s.begin_ns) +
            ",\"end_ns\":" + std::to_string(s.end_ns) +
            ",\"id\":" + std::to_string(s.id) +
            ",\"parent\":" + std::to_string(s.parent) +
            ",\"request\":" + std::to_string(s.request) + "}\n";
    out << line;
  }
  return static_cast<bool>(out.flush());
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::unordered_map<std::uint32_t, const SpanRecord*> by_id;
  std::unordered_map<std::uint32_t, std::uint64_t> child_ns;
  for (const SpanRecord& s : spans_) {
    by_id[s.id] = &s;
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.begin_ns;
  }
  // Everything under a harness span is the benchmark's own work (input
  // generation, batch references), whatever layer it calls.
  const auto under_harness = [&](const SpanRecord& s) {
    for (const SpanRecord* p = &s; p != nullptr;) {
      if (std::string_view(p->name).rfind("harness.", 0) == 0) return true;
      const auto it = by_id.find(p->parent);
      p = it == by_id.end() ? nullptr : it->second;
    }
    return false;
  };
  std::map<std::string, double> self;
  for (const SpanRecord& s : spans_) {
    const std::uint64_t total = s.end_ns - s.begin_ns;
    const auto it = child_ns.find(s.id);
    const std::uint64_t children = it == child_ns.end() ? 0 : it->second;
    const double seconds =
        static_cast<double>(total > children ? total - children : 0) * 1e-9;
    self[under_harness(s) ? std::string("harness") : layer_of(s.name)] += seconds;
  }
  return self;
}

Span::Span(const char* name, std::uint64_t request)
    : name_(name), request_(request) {
  Tracer& tracer = Tracer::get();
  if (tracer.enabled_) {
    id_ = tracer.next_id_++;
    parent_ = tracer.open_.empty() ? 0 : tracer.open_.back();
    tracer.open_.push_back(id_);
  }
  begin_ns_ = now_ns();
}

double Span::stop() {
  if (!open_) return seconds_;
  open_ = false;
  const std::uint64_t end = now_ns();
  seconds_ = static_cast<double>(end - begin_ns_) * 1e-9;
  if (id_ != 0) {
    Tracer& tracer = Tracer::get();
    tracer.open_.pop_back();
    tracer.spans_.push_back({name_, begin_ns_, end, id_, parent_, request_});
  }
  return seconds_;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(samples.size())));
  const std::size_t index = std::min(samples.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

void Digest::add(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    state_ ^= (value >> (8 * i)) & 0xff;
    state_ *= 0x100000001b3ULL;
  }
}

void Digest::add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  add(bits);
}

void Digest::add(const std::vector<int>& values) {
  add(static_cast<std::uint64_t>(values.size()));
  for (const int v : values) add(static_cast<std::uint64_t>(v));
}

std::string Digest::hex() const {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(state_));
  return buffer;
}

void Result::check(bool ok, std::string_view what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 20) failures.emplace_back(what);
}

std::string Result::to_json() const {
  std::string out = "{\"end_to_end\":";
  append_metrics(out, end_to_end);
  out += ",\"layers\":";
  append_metrics(out, layers);
  out += ",\"info\":{";
  bool first = true;
  for (const auto& [key, value] : info) {
    if (!first) out.push_back(',');
    first = false;
    append_json_string(out, key);
    out.push_back(':');
    append_json_string(out, value);
  }
  out += "},\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (i > 0) out.push_back(',');
    append_json_string(out, failures[i]);
  }
  out += "],\"attempted\":" + std::to_string(attempted) +
         ",\"failed\":" + std::to_string(failed) + ",\"digest\":";
  append_json_string(out, digest.hex());
  out.push_back('}');
  return out;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
