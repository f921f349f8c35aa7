// The task-plane benchmark: shared measurement types.
//
// One binary runs one workload per process (see workloads.cpp for the four
// deployment shapes and README.md for why each exists). Everything here is
// benchmark-side instrumentation wrapped around the library's public calls:
// latency samples, the metric report, spans with parent links for the
// traced run, a timing LogDevice decorator, and a sampling probe on the
// database mutex. None of it reaches into the library.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "osprey/db/database.h"
#include "osprey/db/wal.h"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

/// Latency samples in seconds; quantiles by nearest rank.
class Samples {
 public:
  void add(double seconds) {
    values_.push_back(seconds);
    sorted_ = false;
  }
  std::size_t size() const { return values_.size(); }
  /// The q-quantile (0 <= q <= 1); 0 when there are no samples.
  double quantile(double q) const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

/// One printed metric: value, unit, and the sample count behind a timing
/// (0 for counts and ratios).
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// What one workload run produced: metrics plus operation accounting.
/// `attempted` counts every library call the workload issued; `failed`
/// counts calls that returned an unexpected error plus every correctness
/// violation the checks found.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0);
  /// A timing metric in milliseconds (microseconds) from second-valued
  /// Samples.
  void set_ms(const std::string& name, const Samples& s, double q) {
    set(name, s.quantile(q) * 1e3, "ms", s.size());
  }
  void set_us(const std::string& name, const Samples& s, double q) {
    set(name, s.quantile(q) * 1e6, "us", s.size());
  }

  /// Record one attempted operation; a false `ok` counts it as failed.
  void op(bool ok, const std::string& what);
  /// Record a correctness violation (not tied to a single call).
  void fail(const std::string& what);

  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few messages, for stderr
};

// --- spans -----------------------------------------------------------------

/// A closed span. `name` points at a string literal; the layer is the part
/// of the name before the first '.'.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::int64_t task = 0;     // task id the span concerns, 0 = none / batch
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t thread = 0;
};

/// Process-wide span store. Disabled by default; while disabled a
/// ScopedSpan costs one relaxed load. Each thread appends to its own buffer
/// (registered once under the mutex), so recording never contends.
class Tracer {
 public:
  static void set_enabled(bool on);
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  /// All spans recorded so far, every thread's buffer concatenated. Call
  /// only while no thread is recording.
  static std::vector<Span> collect();
  /// Drop every recorded span (buffers stay registered).
  static void clear();
  /// Spans not kept because the in-memory cap was reached.
  static std::uint64_t dropped();

  /// Write the spans as a Chrome trace_event document.
  static bool write_chrome_trace(const std::string& path,
                                 const std::vector<Span>& spans);

 private:
  friend class ScopedSpan;
  static std::atomic<bool> enabled_;
};

/// RAII span around one call into a layer. Nested spans on the same thread
/// become children, so a layer's self time excludes the layers it called.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::int64_t task = 0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span span_;
  bool active_ = false;
};

/// Per-name duration samples (seconds) and per-layer self time (seconds),
/// derived from a span list.
struct SpanSummary {
  std::map<std::string, Samples> by_name;
  std::map<std::string, double> self_seconds_by_layer;
};
SpanSummary summarize(const std::vector<Span>& spans);

// --- devices -----------------------------------------------------------------

/// Counters a TimingLogDevice keeps. Bytes are always counted (write
/// amplification is an end-to-end metric); busy time only while tracing.
struct DeviceCounters {
  std::uint64_t bytes_appended = 0;
  std::uint64_t busy_ns = 0;
};

/// LogDevice decorator: forwards every call, counts bytes, and (while
/// tracing) wraps each call in a span named after the layer that owns the
/// segment — "wal.*" for log and checkpoint segments, "storage.*" for the
/// LSM engine's runs.
class TimingLogDevice : public osprey::db::wal::LogDevice {
 public:
  explicit TimingLogDevice(osprey::db::wal::LogDevice& inner) : inner_(inner) {}

  osprey::Status append(const std::string& segment,
                        const std::string& data) override;
  osprey::Status sync(const std::string& segment) override;
  osprey::Result<std::string> read(const std::string& segment) override;
  osprey::Result<std::string> read_range(const std::string& segment,
                                         std::uint64_t offset,
                                         std::uint64_t length) override;
  osprey::Status truncate(const std::string& segment,
                          std::uint64_t size) override;
  osprey::Status remove(const std::string& segment) override;
  osprey::Result<std::vector<std::string>> list() override;

  DeviceCounters counters() const;

 private:
  osprey::db::wal::LogDevice& inner_;
  std::atomic<std::uint64_t> bytes_appended_{0};
  std::atomic<std::uint64_t> busy_ns_{0};
};

/// A log device in memory: named append-only segments in a map, sync a
/// no-op, reads served by slicing. It outlives the services built on it,
/// as a disk outlives a crashed process, so recovery reads what they wrote.
class MemLogDevice : public osprey::db::wal::LogDevice {
 public:
  osprey::Status append(const std::string& segment,
                        const std::string& data) override;
  osprey::Status sync(const std::string& segment) override;
  osprey::Result<std::string> read(const std::string& segment) override;
  osprey::Result<std::string> read_range(const std::string& segment,
                                         std::uint64_t offset,
                                         std::uint64_t length) override;
  osprey::Status truncate(const std::string& segment,
                          std::uint64_t size) override;
  osprey::Status remove(const std::string& segment) override;
  osprey::Result<std::vector<std::string>> list() override;

 private:
  std::mutex mutex_;
  std::map<std::string, std::string> segments_;
};

// --- database mutex probe ------------------------------------------------------

/// Samples the database mutexes from a side thread (traced runs only):
/// every tick a try_lock says whether the mutex was held (busy share), and
/// every tenth tick a blocking lock measures how long a newcomer waits.
class MutexProbe {
 public:
  explicit MutexProbe(std::vector<osprey::db::Database*> dbs);
  ~MutexProbe();

  MutexProbe(const MutexProbe&) = delete;
  MutexProbe& operator=(const MutexProbe&) = delete;

  /// Stop sampling and join the thread (idempotent).
  void stop();

  const Samples& waits() const { return waits_; }
  double busy_share() const;

 private:
  void loop();

  std::vector<osprey::db::Database*> dbs_;
  std::atomic<bool> stop_{false};
  Samples waits_;
  std::uint64_t busy_ = 0;
  std::uint64_t free_ = 0;
  std::thread thread_;  // declared last: starts after the members it uses
};

// --- workloads -----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool tiny = false;            // smoke-test sizes
  bool inject_wrong = false;    // one runner returns a wrong result
  std::string out_dir = ".bench_build/perfbench-out";
};

/// The names every run reports, in print order (end-to-end set and traced
/// per-layer set). Workloads fill what their deployment measures; names a
/// deployment has no layer for are reported as 0.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Run one workload: repeated set-up, the timed closed loop, the checks,
/// and the recovery. With tracing on (Tracer::enabled), also the per-layer
/// metrics and the span file.
Report run_workload(const Options& options);

bool known_workload(const std::string& name);

/// Deterministic 4-D Ackley sample in [-32.768, 32.768]^4.
struct Sample {
  double x[4];
};

/// The runner every workload executes: parse the payload, evaluate Ackley,
/// format the result. Shared by the checks, which recompute it.
std::string make_payload(const Sample& s);
std::string runner_result(const std::string& payload);
std::string expected_result(const Sample& s);

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// Current resident set size of this process, in MB.
double rss_mb();

}  // namespace perfbench
