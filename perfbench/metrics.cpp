// Samples, the metric report, the metric name lists, and the Ackley runner.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "osprey/json/json.h"
#include "osprey/me/functions.h"
#include "perfbench.h"

namespace perfbench {

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  // Nearest rank: the smallest value with at least q of the samples at or
  // below it.
  const double n = static_cast<double>(values_.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank == 0) rank = 1;
  return values_[std::min(rank, values_.size()) - 1];
}

void Report::set(const std::string& name, double value, const std::string& unit,
                 std::size_t samples) {
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics[name] = Metric{value, unit, samples};
}

void Report::op(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) fail(what);
}

void Report::fail(const std::string& what) {
  ++failed;
  if (failures.size() < 20) failures.push_back(what);
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"setup_s", "s"},
      {"tasks_per_s", "1/s"},
      {"cycle_p50_ms", "ms"},
      {"write_amp", "ratio"},
      {"peak_rss_mb", "MB"},
  };
  return names;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"cycle_p99_ms", "ms"},
      {"result_lag_p50_ms", "ms"},
      {"result_lag_p99_ms", "ms"},
      {"reprioritize_p50_ms", "ms"},
      {"lookup_p50_ms", "ms"},
      {"lookup_p99_ms", "ms"},
      {"recovery_s", "s"},
      {"eqsql.submit_us.p50", "us"},
      {"eqsql.submit_us.p99", "us"},
      {"eqsql.claim_us.p50", "us"},
      {"eqsql.claim_us.p99", "us"},
      {"eqsql.report_us.p50", "us"},
      {"eqsql.report_us.p99", "us"},
      {"eqsql.result_us.p50", "us"},
      {"eqsql.result_us.p99", "us"},
      {"eqsql.update_priority_ms.p50", "ms"},
      {"eqsql.pop_completed_us.p50", "us"},
      {"eqsql.pop_completed_us.p99", "us"},
      {"notify.spurious_wakeup_ratio", "ratio"},
      {"db.full_scans_per_task", "count"},
      {"db.index_lookups_per_task", "count"},
      {"db.mutex_wait_us.p50", "us"},
      {"db.mutex_wait_us.p99", "us"},
      {"db.mutex_busy_share", "ratio"},
      {"pool.worker_utilization", "ratio"},
      {"pool.tasks_per_query", "count"},
      {"pool.runner_us.p50", "us"},
      {"wal.sync_us.p50", "us"},
      {"wal.sync_us.p99", "us"},
      {"wal.syncs_per_task", "count"},
      {"wal.append_bytes_per_task", "bytes"},
      {"wal.device_busy_share", "ratio"},
      {"wal.checkpoint_ms.p50", "ms"},
      {"storage.cache_hit_ratio", "ratio"},
      {"storage.read_range_us.p99", "us"},
      {"storage.flushes_per_1k_tasks", "count"},
      {"storage.compactions_per_1k_tasks", "count"},
      {"storage.space_amp", "ratio"},
      {"shard.claim_us.p50", "us"},
      {"shard.claim_us.p99", "us"},
      {"shard.scatter_us.p50", "us"},
      {"shard.scatter_us.p99", "us"},
      {"shard.scatter_ops_per_task", "count"},
      {"repl.pump_ms.p50", "ms"},
      {"repl.pump_ms.p99", "ms"},
      {"repl.records_per_pump", "count"},
      {"repl.pump_busy_share", "ratio"},
      {"tenant.weighted_jain", "ratio"},
      {"tenant.admit_rejects", "count"},
      {"client.self_us_per_task", "us"},
      {"eqsql.self_us_per_task", "us"},
      {"wal.self_us_per_task", "us"},
      {"storage.self_us_per_task", "us"},
      {"shard.self_us_per_task", "us"},
      {"repl.self_us_per_task", "us"},
      {"pool.self_us_per_task", "us"},
      {"mem.rss_growth_kb_per_task", "kB"},
      {"trace.overhead_pct", "%"},
  };
  return names;
}

std::string make_payload(const Sample& s) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "{\"x\":[%.17g,%.17g,%.17g,%.17g]}", s.x[0],
                s.x[1], s.x[2], s.x[3]);
  return buf;
}

namespace {
std::string format_result(double y) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "{\"y\":%.17g}", y);
  return buf;
}
}  // namespace

std::string runner_result(const std::string& payload) {
  osprey::Result<osprey::json::Value> doc = osprey::json::parse(payload);
  if (!doc.ok() || !doc.value().is_object()) return "{\"error\":\"payload\"}";
  osprey::Result<std::vector<double>> x =
      osprey::json::to_doubles(doc.value()["x"]);
  if (!x.ok()) return "{\"error\":\"payload\"}";
  return format_result(osprey::me::ackley(x.value()));
}

std::string expected_result(const Sample& s) {
  return format_result(
      osprey::me::ackley(std::vector<double>(s.x, s.x + 4)));
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double rss_mb() {
  long pages = 0, resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (!f) return 0.0;
  const bool ok = std::fscanf(f, "%ld %ld", &pages, &resident) == 2;
  std::fclose(f);
  return ok ? static_cast<double>(resident) * sysconf(_SC_PAGESIZE) / (1024.0 * 1024.0)
            : 0.0;
}

}  // namespace perfbench
