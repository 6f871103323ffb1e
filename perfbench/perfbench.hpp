// Shared pieces of the end-to-end benchmark: the in-memory span recorder
// behind the traced run, the per-process result record, and the workload
// entry points (train.cpp, serve.cpp). See README.md in this directory for
// the workloads and the metric definitions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace hdc::data {
class Dataset;
}

namespace perfbench {

// ---------------------------------------------------------------------------
// Spans

/// One completed span: a call into one layer's public function (or a
/// benchmark phase, named "bench.*"). `request` groups the spans of one
/// serve request (0 = not part of a request).
struct SpanRecord {
  const char* name = nullptr;
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  std::uint64_t request = 0;
};

/// Records spans in memory while enabled (the traced run); otherwise a Span
/// is only a stopwatch. All spans are opened on the benchmark's main thread,
/// so the parent is simply the innermost open span.
class Tracer {
 public:
  static Tracer& get();

  void enable() { enabled_ = true; }
  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept { return spans_; }

  /// Write every span as one JSON object per line; false on I/O failure.
  bool write(const std::string& path) const;

  /// Self time (span minus the part its child spans cover) summed per
  /// layer. "bench.*" phase spans land under "bench" (unattributed time
  /// of the measured work); "harness.*" spans and everything below them
  /// under "harness" (the benchmark's own input and reference work).
  [[nodiscard]] std::map<std::string, double> self_seconds_by_layer() const;

 private:
  friend class Span;
  bool enabled_ = false;
  std::uint32_t next_id_ = 1;
  std::vector<std::uint32_t> open_;  // stack of open span ids
  std::vector<SpanRecord> spans_;
};

[[nodiscard]] std::uint64_t now_ns() noexcept;

/// Stopwatch that also records a span while tracing is enabled. `name` must
/// be a string literal. stop() ends it early and returns the seconds.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0);
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  double stop();
  [[nodiscard]] std::uint64_t begin_ns() const noexcept { return begin_ns_; }

 private:
  const char* name_;
  std::uint64_t request_;
  std::uint64_t begin_ns_;
  std::uint32_t id_ = 0;
  std::uint32_t parent_ = 0;
  bool open_ = true;
  double seconds_ = 0.0;
};

/// Nearest-rank percentile (p in (0, 1]) of unsorted samples; 0 if empty.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

/// FNV-1a 64 accumulator for the run digest.
class Digest {
 public:
  void add(std::uint64_t value);
  void add(double value);
  void add(const std::vector<int>& values);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

// ---------------------------------------------------------------------------
// Result of one benchmark process, printed as the last line of stdout.

struct Metric {
  double value = 0.0;
  const char* unit = "";  // a string literal
};

struct Result {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> layers;
  std::map<std::string, std::string> info;  // environment + notes
  std::vector<std::string> failures;        // one line per failed op
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Digest digest;

  void e2e(const std::string& name, double value, const char* unit) {
    end_to_end[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const char* unit) {
    layers[name] = {value, unit};
  }
  /// Accumulate into a layer metric (a layer called more than once).
  void add_layer(const std::string& name, double value, const char* unit) {
    Metric& metric = layers[name];
    metric.value += value;
    metric.unit = unit;
  }
  /// Count one checked operation; a false `ok` records it as failed.
  void check(bool ok, std::string_view what);

  [[nodiscard]] std::string to_json() const;
};

// ---------------------------------------------------------------------------
// Workloads. Every data set is drawn from `seed`; the program under test only
// sees the generated rows as CSV text.

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 2023;
  double seconds = 10.0;
  bool traced = false;
  std::string work_dir;  // scratch files of this run (bundle, CSV, refs)
};

/// train_golden: the whole offline pipeline, then a short serve of the
/// trained bundle.
void run_train_golden(const RunOptions& options, Result& result);

/// Untimed preparation of a serve workload: fits and saves its bundle (the
/// time is reported as train_s) and writes the query CSV plus the batch-path
/// reference answers to work_dir.
void run_serve_prep(const RunOptions& options, Result& result);

/// Measured part of a serve workload: loads what run_serve_prep wrote.
void run_serve_measure(const RunOptions& options, Result& result);

// ---------------------------------------------------------------------------
// Shared serve measurement (serve.cpp), also used by train_golden's tail.

struct ServePlan {
  std::string bundle_path;
  std::string queries_csv;           // query rows as CSV text
  std::vector<int> sync_reference;   // hamming answer per query row
  std::string coalesced_model;       // "hamming" or a zoo model name
  std::vector<int> coalesced_reference;
  bool ann = false;
  double seconds = 10.0;               // sync + coalesced windows, alternating
  std::size_t decompose_queries = 0;  // traced per-layer pass size
};

void measure_serve(const ServePlan& plan, bool traced, Result& result);

/// data::read_csv over CSV text, timed as the data layer.
[[nodiscard]] hdc::data::Dataset parse_csv(const std::string& text, Result& result);

/// Peak resident set of this process in MB (VmHWM).
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
