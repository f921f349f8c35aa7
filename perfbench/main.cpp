// perfbench: run one task-plane workload and print its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--commit <id>] [--tiny] [--inject-wrong-result]
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the workload twice
// from fresh set-ups, untraced then traced, and prints the per-layer metrics
// of the traced run plus the tracing overhead (the tasks_per_s lost to it).
// The last stdout line is the result object; the line before it carries the
// run metadata and every metric's sample count. Exits 2 on bad arguments and
// 3 when built without optimization or with a sanitizer.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "osprey/core/log.h"
#include "osprey/obs/metrics.h"
#include "perfbench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

// CMakeLists.txt defines PERFBENCH_SANITIZED when the flags name a
// sanitizer; the compilers' own markers catch the rest.
#ifdef PERFBENCH_SANITIZED
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Report;

/// Numbers only from optimized, uninstrumented builds.
bool refuse_build(std::string* why) {
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo" && type != "MinSizeRel") {
    *why = "build type '" + type + "' is not optimized";
    return true;
  }
#ifndef NDEBUG
  *why = "assertions are enabled (NDEBUG not defined)";
  return true;
#endif
#ifdef PERFBENCH_SANITIZED
  *why = "built with a sanitizer";
  return true;
#endif
  return false;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// `{"name": {"value": v, "unit": u}, ...}` over the listed names, each
/// read from the report (0 when the deployment has no such layer).
std::string metrics_object(
    const Report& report,
    const std::vector<std::pair<std::string, std::string>>& names,
    bool with_samples) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, unit] : names) {
    auto it = report.metrics.find(name);
    const Metric m = it == report.metrics.end() ? Metric{0.0, unit, 0} : it->second;
    out += (first ? "" : ", ") + json_string(name) + ": ";
    out += with_samples ? json_number(static_cast<double>(m.samples))
                        : "{\"value\": " + json_number(m.value) +
                              ", \"unit\": " + json_string(unit) + "}";
    first = false;
  }
  return out + "}";
}

int usage(const char* error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <cycle_history|"
               "campaign_threads|durable_lsm|sharded_tenants> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] [--commit <id>] "
               "[--tiny] [--inject-wrong-result]\n",
               error);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  int trace = -1;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--inject-wrong-result") {
      options.inject_wrong = true;
    } else if ((v = value()) == nullptr) {
      return usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      options.workload = v;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(v);
    } else if (arg == "--trace") {
      trace = std::atoi(v);
    } else if (arg == "--out-dir") {
      options.out_dir = v;
    } else if (arg == "--commit") {
      commit = v;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!perfbench::known_workload(options.workload)) return usage("unknown workload");
  if (trace != 0 && trace != 1) return usage("--trace must be 0 or 1");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");
  std::string why;
  if (refuse_build(&why)) {
    std::fprintf(stderr, "perfbench: refusing to report numbers: %s\n", why.c_str());
    return 3;
  }
  osprey::set_log_level(osprey::LogLevel::kError);
  std::filesystem::create_directories(options.out_dir);

  Report result;
  if (trace == 0) {
    result = perfbench::run_workload(options);
  } else {
    const Report untraced = perfbench::run_workload(options);
    perfbench::Tracer::set_enabled(true);
    osprey::obs::set_enabled(true);
    result = perfbench::run_workload(options);
    perfbench::Tracer::set_enabled(false);
    osprey::obs::set_enabled(false);
    const double base = untraced.metrics.count("tasks_per_s")
                            ? untraced.metrics.at("tasks_per_s").value
                            : 0.0;
    const double traced = result.metrics.count("tasks_per_s")
                              ? result.metrics.at("tasks_per_s").value
                              : 0.0;
    result.set("trace.overhead_pct", base > 0 ? (base - traced) / base * 100.0 : 0.0,
               "%");
    result.attempted += untraced.attempted;
    result.failed += untraced.failed;
    result.failures.insert(result.failures.end(), untraced.failures.begin(),
                           untraced.failures.end());
  }
  for (const std::string& f : result.failures) {
    std::fprintf(stderr, "perfbench: FAIL %s\n", f.c_str());
  }

  const auto& names =
      trace == 0 ? perfbench::end_to_end_metrics() : perfbench::per_layer_metrics();
  const std::string meta =
      "{\"meta\": {\"workload\": " + json_string(options.workload) +
      ", \"seed\": " + std::to_string(options.seed) +
      ", \"seconds\": " + json_number(options.seconds) +
      ", \"trace\": " + std::to_string(trace) + ", \"commit\": " +
      json_string(commit) + ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
      ", \"compiler\": " + json_string(PERFBENCH_COMPILER) +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"tiny\": " + (options.tiny ? "true" : "false") +
      "}, \"samples\": " + metrics_object(result, names, true) + "}";
  const std::string line =
      std::string("{\"correct\": ") + (result.failed == 0 ? "true" : "false") +
      ", \"attempted\": " + std::to_string(result.attempted) +
      ", \"failed\": " + std::to_string(result.failed) +
      ", \"metrics\": " + metrics_object(result, names, false) + "}";

  std::filesystem::create_directories(options.out_dir + "/results");
  const std::string path = options.out_dir + "/results/" + options.workload +
                           "-seed" + std::to_string(options.seed) + "-trace" +
                           std::to_string(trace) + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "%s\n%s\n", meta.c_str(), line.c_str());
    std::fclose(f);
  }
  std::printf("%s\n%s\n", meta.c_str(), line.c_str());
  std::fflush(stdout);
  return 0;
}
