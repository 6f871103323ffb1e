#include "obs/trace.hpp"

#include "obs/metrics.hpp"  // kCompiledIn
#include "util/log.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace hdc::obs {

namespace {

std::atomic<bool> g_trace_enabled{false};

// Process-unique ids for spans and flows (0 = "none").
std::atomic<std::uint64_t> g_next_id{1};

// Innermost active span on this thread; tasks adopt a submitter's span via
// ContextGuard so the chain crosses thread boundaries.
thread_local std::uint64_t t_current_span = 0;

std::uint64_t now_ns() noexcept {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point start = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start)
          .count());
}

enum class EventKind : std::uint8_t { kComplete, kFlowStart, kFlowEnd };

struct TraceEvent {
  const char* name;
  std::uint64_t begin_ns;
  std::uint64_t dur_ns;   // 0 for flow events
  std::uint64_t span;     // complete: span id; flow: flow id
  std::uint64_t parent;   // complete only: enclosing span id (0 = root)
  EventKind kind;
  char tag[kSpanTagCapacity];  // complete only: NUL-terminated, "" = untagged
};

// Per-thread buffer; the mutex is uncontended on the hot path (only the
// owning thread appends; flush/clear from other threads is rare).
struct TraceBuffer {
  std::mutex mutex;
  std::uint32_t tid;
  std::vector<TraceEvent> events;
  std::uint64_t dropped = 0;
};

struct BufferRegistry {
  std::mutex mutex;
  std::vector<std::shared_ptr<TraceBuffer>> buffers;
  std::uint32_t next_tid = 1;
};

BufferRegistry& buffer_registry() {
  // Leaked: spans in pool workers may fire during static destruction.
  static BufferRegistry* registry = new BufferRegistry;
  return *registry;
}

TraceBuffer& local_buffer() {
  thread_local const std::shared_ptr<TraceBuffer> buffer = [] {
    auto created = std::make_shared<TraceBuffer>();
    created->events.reserve(1024);
    BufferRegistry& registry = buffer_registry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    created->tid = registry.next_tid++;
    registry.buffers.push_back(created);
    return created;
  }();
  return *buffer;
}

void record_event(const TraceEvent& event) {
  TraceBuffer& buffer = local_buffer();
  std::lock_guard<std::mutex> lock(buffer.mutex);
  if (buffer.events.size() >= kTraceCapacity) {
    ++buffer.dropped;
    return;
  }
  buffer.events.push_back(event);
}

void append_json_escaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char hex[8];
      std::snprintf(hex, sizeof(hex), "\\u%04x", c);
      out += hex;
    } else {
      out.push_back(c);
    }
  }
}

}  // namespace

void set_trace_enabled(bool on) noexcept {
  g_trace_enabled.store(on, std::memory_order_relaxed);
}

bool trace_enabled() noexcept {
  if constexpr (!kCompiledIn) return false;
  return g_trace_enabled.load(std::memory_order_relaxed);
}

Span::Span(const char* name) noexcept {
  if (!trace_enabled()) return;
  name_ = name;
  begin_ns_ = now_ns();
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_current_span;
  t_current_span = id_;
}

Span::Span(const char* name, std::string_view tag) noexcept : Span(name) {
  if (name_ == nullptr) return;
  // Printable ASCII only, so a hostile tag cannot break the JSON export.
  const std::size_t n = std::min(tag.size(), kSpanTagCapacity - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const auto c = static_cast<unsigned char>(tag[i]);
    tag_[i] = c >= 0x20 && c < 0x7f ? tag[i] : '?';
  }
  tag_[n] = '\0';
}

Span::~Span() {
  if (name_ == nullptr) return;
  t_current_span = parent_;
  TraceEvent event{name_, begin_ns_, now_ns() - begin_ns_, id_, parent_,
                   EventKind::kComplete, {}};
  std::copy_n(tag_, kSpanTagCapacity, event.tag);
  record_event(event);
}

SpanContext current_span_context() noexcept {
  if constexpr (!kCompiledIn) return {};
  return {t_current_span};
}

ContextGuard::ContextGuard(SpanContext context) noexcept {
  if constexpr (!kCompiledIn) return;
  saved_ = t_current_span;
  t_current_span = context.span_id;
}

ContextGuard::~ContextGuard() {
  if constexpr (!kCompiledIn) return;
  t_current_span = saved_;
}

std::uint64_t flow_begin(const char* name) noexcept {
  if (!trace_enabled()) return 0;
  const std::uint64_t id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  record_event({name, now_ns(), 0, id, t_current_span, EventKind::kFlowStart, {}});
  return id;
}

void flow_end(const char* name, std::uint64_t id) noexcept {
  if (id == 0 || !trace_enabled()) return;
  record_event({name, now_ns(), 0, id, t_current_span, EventKind::kFlowEnd, {}});
}

std::size_t trace_event_count() {
  BufferRegistry& registry = buffer_registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  std::size_t total = 0;
  for (const auto& buffer : registry.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    total += buffer->events.size();
  }
  return total;
}

std::size_t trace_dropped_count() {
  BufferRegistry& registry = buffer_registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  std::size_t total = 0;
  for (const auto& buffer : registry.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    total += buffer->dropped;
  }
  return total;
}

void clear_trace() {
  BufferRegistry& registry = buffer_registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  for (const auto& buffer : registry.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    buffer->events.clear();
    buffer->dropped = 0;
  }
}

std::string chrome_trace_json() {
  // Complete events ("ph":"X") carry begin + duration in microseconds, so
  // span nesting is expressed by interval containment — no begin/end pairing
  // for viewers to lose. Flow events ("ph":"s"/"f") share an "id" and draw
  // the submit→execute arrow across threads.
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  BufferRegistry& registry = buffer_registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  for (const auto& buffer : registry.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    for (const TraceEvent& event : buffer->events) {
      if (!first) out.push_back(',');
      first = false;
      char fields[224];
      out += "{\"name\":\"";
      append_json_escaped(out, event.name);
      switch (event.kind) {
        case EventKind::kComplete:
          std::snprintf(fields, sizeof(fields),
                        "\",\"cat\":\"hdc\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                        "\"pid\":1,\"tid\":%u,\"args\":{\"span\":%llu,"
                        "\"parent\":%llu",
                        static_cast<double>(event.begin_ns) / 1e3,
                        static_cast<double>(event.dur_ns) / 1e3, buffer->tid,
                        static_cast<unsigned long long>(event.span),
                        static_cast<unsigned long long>(event.parent));
          out += fields;
          if (event.tag[0] != '\0') {
            out += ",\"tag\":\"";
            append_json_escaped(out, event.tag);
            out += '"';
          }
          out += "}}";
          continue;
        case EventKind::kFlowStart:
          std::snprintf(fields, sizeof(fields),
                        "\",\"cat\":\"flow\",\"ph\":\"s\",\"ts\":%.3f,"
                        "\"pid\":1,\"tid\":%u,\"id\":%llu}",
                        static_cast<double>(event.begin_ns) / 1e3, buffer->tid,
                        static_cast<unsigned long long>(event.span));
          break;
        case EventKind::kFlowEnd:
          std::snprintf(fields, sizeof(fields),
                        "\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\","
                        "\"ts\":%.3f,\"pid\":1,\"tid\":%u,\"id\":%llu}",
                        static_cast<double>(event.begin_ns) / 1e3, buffer->tid,
                        static_cast<unsigned long long>(event.span));
          break;
      }
      out += fields;
    }
  }
  out += "]}";
  return out;
}

bool write_chrome_trace(const std::string& path) {
  const std::size_t dropped = trace_dropped_count();
  if (dropped > 0) {
    util::log_fields(util::LogLevel::kWarn,
                     "obs: trace ring buffers overflowed; events were dropped",
                     {{"dropped", std::to_string(dropped)},
                      {"capacity_per_thread", std::to_string(kTraceCapacity)}});
  }
  const std::string json = chrome_trace_json();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const bool wrote = std::fwrite(json.data(), 1, json.size(), file) == json.size();
  const bool closed = std::fclose(file) == 0;
  return wrote && closed;
}

std::string collapsed_stacks() {
  // Gather every complete event, then fold each span's parent chain into a
  // root;...;leaf line weighted by self-time (duration minus the durations
  // of direct children). Ids are process-unique, so chains cross threads.
  struct Node {
    std::string frame;  // name, or name[tag] for a tagged span
    std::uint64_t dur_ns;
    std::uint64_t parent;
    std::uint64_t child_ns = 0;
  };
  std::unordered_map<std::uint64_t, Node> nodes;
  {
    BufferRegistry& registry = buffer_registry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    for (const auto& buffer : registry.buffers) {
      std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
      for (const TraceEvent& event : buffer->events) {
        if (event.kind != EventKind::kComplete || event.span == 0) continue;
        std::string frame = event.name;
        if (event.tag[0] != '\0') frame = frame + '[' + event.tag + ']';
        nodes.emplace(event.span,
                      Node{std::move(frame), event.dur_ns, event.parent});
      }
    }
  }
  for (const auto& [id, node] : nodes) {
    if (node.parent == 0) continue;
    if (const auto it = nodes.find(node.parent); it != nodes.end()) {
      it->second.child_ns += node.dur_ns;
    }
  }
  std::map<std::string, std::uint64_t> folded;
  for (const auto& [id, node] : nodes) {
    const std::uint64_t self_ns =
        node.dur_ns > node.child_ns ? node.dur_ns - node.child_ns : 0;
    if (self_ns == 0) continue;
    // Walk root-ward, then reverse; depth-capped as a cycle backstop.
    std::vector<const std::string*> chain{&node.frame};
    std::uint64_t cursor = node.parent;
    for (int depth = 0; cursor != 0 && depth < 64; ++depth) {
      const auto it = nodes.find(cursor);
      if (it == nodes.end()) break;  // parent dropped to overflow
      chain.push_back(&it->second.frame);
      cursor = it->second.parent;
    }
    std::string line;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      if (!line.empty()) line.push_back(';');
      line += **it;
    }
    folded[line] += self_ns;
  }
  std::string out;
  for (const auto& [stack, weight] : folded) {
    out += stack;
    out.push_back(' ');
    out += std::to_string(weight);
    out.push_back('\n');
  }
  return out;
}

bool write_collapsed_stacks(const std::string& path) {
  const std::string text = collapsed_stacks();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const bool wrote = std::fwrite(text.data(), 1, text.size(), file) == text.size();
  const bool closed = std::fclose(file) == 0;
  return wrote && closed;
}

}  // namespace hdc::obs
