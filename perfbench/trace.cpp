// Spans, the Chrome trace writer, per-layer self time, the timing device
// decorator, and the database mutex probe.
#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "perfbench.h"

namespace perfbench {

namespace {

// Spans kept in memory per run; beyond this they are counted, not stored,
// so a long traced run cannot exhaust memory.
constexpr std::size_t kMaxSpans = 4'000'000;

struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::uint64_t next_id = 0;
  std::vector<std::uint64_t> open;  // ids of spans open on this thread
  std::vector<Span> spans;
};

std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // never shrinks
std::atomic<std::size_t> g_span_count{0};
std::atomic<std::uint64_t> g_dropped{0};

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    buffer = g_buffers.back().get();
    buffer->thread = static_cast<std::uint32_t>(g_buffers.size());
  }
  return *buffer;
}

std::string layer_of(const char* name) {
  const std::string s(name);
  const std::size_t dot = s.find('.');
  return dot == std::string::npos ? s : s.substr(0, dot);
}

}  // namespace

std::atomic<bool> Tracer::enabled_{false};

void Tracer::set_enabled(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

std::vector<Span> Tracer::collect() {
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  std::vector<Span> all;
  for (const auto& buffer : g_buffers) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (auto& buffer : g_buffers) {
    buffer->spans.clear();
    buffer->spans.shrink_to_fit();
  }
  g_span_count.store(0);
  g_dropped.store(0);
}

std::uint64_t Tracer::dropped() { return g_dropped.load(); }

bool Tracer::write_chrome_trace(const std::string& path,
                                const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::uint64_t t0 = ~std::uint64_t{0};
  for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  bool first = true;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"task\":%lld}}",
                 first ? "" : ",", s.name, layer_of(s.name).c_str(), s.thread,
                 static_cast<double>(s.start_ns - t0) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.task));
    first = false;
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char* name, std::int64_t task) {
  if (!Tracer::enabled()) return;
  ThreadBuffer& buffer = local_buffer();
  active_ = true;
  span_.name = name;
  span_.task = task;
  span_.thread = buffer.thread;
  span_.id = (static_cast<std::uint64_t>(buffer.thread) << 40) | ++buffer.next_id;
  span_.parent = buffer.open.empty() ? 0 : buffer.open.back();
  buffer.open.push_back(span_.id);
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = now_ns();
  ThreadBuffer& buffer = local_buffer();
  buffer.open.pop_back();
  if (g_span_count.fetch_add(1, std::memory_order_relaxed) < kMaxSpans) {
    buffer.spans.push_back(span_);
  } else {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
  }
}

SpanSummary summarize(const std::vector<Span>& spans) {
  // Self time = own duration minus the durations of direct children.
  std::unordered_map<std::uint64_t, double> child_seconds;
  for (const Span& s : spans) {
    if (s.parent != 0) {
      child_seconds[s.parent] += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  SpanSummary summary;
  for (const Span& s : spans) {
    const double seconds = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    summary.by_name[s.name].add(seconds);
    auto it = child_seconds.find(s.id);
    const double children = it == child_seconds.end() ? 0.0 : it->second;
    summary.self_seconds_by_layer[layer_of(s.name)] += seconds - children;
  }
  return summary;
}

// --- TimingLogDevice ---------------------------------------------------------

namespace {

bool storage_segment(const std::string& segment) {
  return segment.rfind("wal-", 0) != 0 && segment.rfind("ckpt-", 0) != 0;
}

/// Times one device call into busy_ns while tracing, inside a span named
/// for the owning layer.
template <typename Fn>
auto timed(std::atomic<std::uint64_t>& busy_ns, const std::string& segment,
           const char* wal_name, const char* storage_name, Fn&& fn) {
  if (!Tracer::enabled()) return fn();
  ScopedSpan span(storage_segment(segment) ? storage_name : wal_name);
  const std::uint64_t t0 = now_ns();
  auto result = fn();
  busy_ns.fetch_add(now_ns() - t0, std::memory_order_relaxed);
  return result;
}

}  // namespace

osprey::Status TimingLogDevice::append(const std::string& segment,
                                       const std::string& data) {
  bytes_appended_.fetch_add(data.size(), std::memory_order_relaxed);
  return timed(busy_ns_, segment, "wal.append", "storage.append",
               [&] { return inner_.append(segment, data); });
}

osprey::Status TimingLogDevice::sync(const std::string& segment) {
  return timed(busy_ns_, segment, "wal.sync", "storage.sync",
               [&] { return inner_.sync(segment); });
}

osprey::Result<std::string> TimingLogDevice::read(const std::string& segment) {
  return timed(busy_ns_, segment, "wal.read", "storage.read",
               [&] { return inner_.read(segment); });
}

osprey::Result<std::string> TimingLogDevice::read_range(
    const std::string& segment, std::uint64_t offset, std::uint64_t length) {
  return timed(busy_ns_, segment, "wal.read_range", "storage.read_range",
               [&] { return inner_.read_range(segment, offset, length); });
}

osprey::Status TimingLogDevice::truncate(const std::string& segment,
                                         std::uint64_t size) {
  return timed(busy_ns_, segment, "wal.truncate", "storage.truncate",
               [&] { return inner_.truncate(segment, size); });
}

osprey::Status TimingLogDevice::remove(const std::string& segment) {
  return timed(busy_ns_, segment, "wal.remove", "storage.remove",
               [&] { return inner_.remove(segment); });
}

osprey::Result<std::vector<std::string>> TimingLogDevice::list() {
  return timed(busy_ns_, "wal-", "wal.list", "storage.list",
               [&] { return inner_.list(); });
}

DeviceCounters TimingLogDevice::counters() const {
  DeviceCounters c;
  c.bytes_appended = bytes_appended_.load();
  c.busy_ns = busy_ns_.load();
  return c;
}

// --- MemLogDevice -------------------------------------------------------------

osprey::Status MemLogDevice::append(const std::string& segment,
                                    const std::string& data) {
  std::lock_guard<std::mutex> lock(mutex_);
  segments_[segment] += data;
  return osprey::Status::ok();
}

osprey::Status MemLogDevice::sync(const std::string&) {
  return osprey::Status::ok();
}

osprey::Result<std::string> MemLogDevice::read(const std::string& segment) {
  return read_range(segment, 0, ~std::uint64_t{0});
}

osprey::Result<std::string> MemLogDevice::read_range(const std::string& segment,
                                                     std::uint64_t offset,
                                                     std::uint64_t length) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = segments_.find(segment);
  if (it == segments_.end()) {
    return osprey::Error(osprey::ErrorCode::kNotFound, "no segment " + segment);
  }
  if (offset >= it->second.size()) return std::string();
  return it->second.substr(static_cast<std::size_t>(offset),
                           static_cast<std::size_t>(
                               std::min<std::uint64_t>(length, it->second.size())));
}

osprey::Status MemLogDevice::truncate(const std::string& segment,
                                      std::uint64_t size) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = segments_.find(segment);
  if (it != segments_.end() && size < it->second.size()) {
    it->second.resize(static_cast<std::size_t>(size));
  }
  return osprey::Status::ok();
}

osprey::Status MemLogDevice::remove(const std::string& segment) {
  std::lock_guard<std::mutex> lock(mutex_);
  segments_.erase(segment);
  return osprey::Status::ok();
}

osprey::Result<std::vector<std::string>> MemLogDevice::list() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  for (const auto& [name, data] : segments_) names.push_back(name);
  return names;
}

// --- MutexProbe ---------------------------------------------------------------

MutexProbe::MutexProbe(std::vector<osprey::db::Database*> dbs)
    : dbs_(std::move(dbs)), thread_([this] { loop(); }) {}

MutexProbe::~MutexProbe() { stop(); }

void MutexProbe::stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

double MutexProbe::busy_share() const {
  const std::uint64_t total = busy_ + free_;
  return total == 0 ? 0.0 : static_cast<double>(busy_) / static_cast<double>(total);
}

void MutexProbe::loop() {
  std::uint64_t tick = 0;
  while (!stop_.load()) {
    std::recursive_mutex& m = dbs_[tick % dbs_.size()]->mutex();
    if (tick % 10 == 0) {
      const std::uint64_t t0 = now_ns();
      m.lock();
      const std::uint64_t waited = now_ns() - t0;
      m.unlock();
      waits_.add(static_cast<double>(waited) * 1e-9);
    } else if (m.try_lock()) {
      m.unlock();
      ++free_;
    } else {
      ++busy_;
    }
    ++tick;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

}  // namespace perfbench
