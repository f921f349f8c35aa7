// The four deployment workloads (README.md explains each choice).
//
// Every workload is a closed loop: the client (or the ME thread) sends its
// next request only after the previous one returned, and the worker pool of
// campaign_threads claims only when its owned count drops below its batch.
// Each run does, in order:
//   1. set-up, repeated kSetupReps times from nothing (setup_s is the
//      median; the last deployment is the one measured);
//   2. the timed window of `seconds`;
//   3. the checks that feed `failed`, outside the window;
//   4. recovery of the deployment's durable image, repeated kRecoveryReps
//      times (recovery_s is the median).
// Each workload runs only the steps of its own deployment: reprioritization
// is campaign_threads', task-record reads are durable_lsm's. A timing of a
// step the workload does not take reads 0, as an absent layer does.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <numeric>
#include <random>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "osprey/core/clock.h"
#include "osprey/db/wal.h"
#include "osprey/eqsql/future.h"
#include "osprey/eqsql/service.h"
#include "osprey/json/json.h"
#include "osprey/net/network.h"
#include "osprey/obs/telemetry.h"
#include "osprey/pool/threaded_pool.h"
#include "osprey/shard/cluster.h"
#include "osprey/shard/router.h"
#include "osprey/storage/engine.h"
#include "perfbench.h"

namespace perfbench {
namespace {

using osprey::Priority;
using osprey::RealClock;
using osprey::TaskId;
using osprey::WorkType;
namespace eqsql = osprey::eqsql;
namespace fs = std::filesystem;

constexpr int kSetupReps = 3;
constexpr int kRecoveryReps = 7;
constexpr WorkType kType = 0;

/// Workload sizes; `tiny` shrinks everything for the smoke tests.
struct Sizes {
  int history;           // cycle_history preload
  int campaign;          // campaign_threads futures kept outstanding
  int warmup;            // campaign_threads completions in set-up
  int durable_preload;   // durable_lsm preload
  int checkpoint_every;  // durable_lsm tasks between durable checkpoints
  int recovery_tail_cycles;  // durable_lsm batch cycles logged after the last checkpoint
  int backlog;           // sharded_tenants queued tasks per tenant per shard
  int audit_every;       // campaign_threads completions between reprioritizations
};

Sizes sizes_for(const Options& o) {
  if (o.tiny) return Sizes{300, 200, 50, 200, 100, 4, 20, 25};
  return Sizes{20000, 250, 250, 5000, 2000, 64, 500, 250};
}

// --- inputs ------------------------------------------------------------------

/// Seeded input generator: the same seed gives the same samples, ranks and
/// lookup targets. Separate streams keep one consumer's draws from shifting
/// another's.
class Inputs {
 public:
  explicit Inputs(std::uint64_t seed)
      : samples_(seed * 0x9E3779B97F4A7C15ULL + 1), picks_(seed ^ 0xA5A5A5A5ULL) {}

  Sample sample() {
    std::uniform_real_distribution<double> d(-32.768, 32.768);
    Sample s{};
    for (double& v : s.x) v = d(samples_);
    return s;
  }

  /// Ranks 1..n in seeded random order (the stand-in for a GPR refit).
  std::vector<Priority> ranks(std::size_t n) {
    std::vector<Priority> r(n);
    std::iota(r.begin(), r.end(), 1);
    std::shuffle(r.begin(), r.end(), picks_);
    return r;
  }

  std::size_t index(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(picks_);
  }

 private:
  std::mt19937_64 samples_;
  std::mt19937_64 picks_;
};

// --- the client's ledger ------------------------------------------------------

/// What the client submitted and picked up: the reference every check
/// compares the database against.
struct Ledger {
  std::unordered_map<TaskId, Sample> samples;
  std::unordered_map<TaskId, int> pickups;
  std::vector<TaskId> picked_ids;  // in pickup order, for random lookups
  std::uint64_t user_bytes = 0;    // payload + result bytes of every task

  void submitted(TaskId id, const Sample& s, std::size_t payload_bytes) {
    samples[id] = s;
    user_bytes += payload_bytes;
  }
  void reported(std::size_t result_bytes) { user_bytes += result_bytes; }
  /// Record a pickup; a second pickup of one id is a violation.
  void picked(TaskId id, Report& report) {
    if (++pickups[id] > 1) {
      report.fail("task " + std::to_string(id) + " picked up twice");
      return;
    }
    picked_ids.push_back(id);
  }
  std::string expected(TaskId id) const {
    auto it = samples.find(id);
    return it == samples.end() ? std::string() : expected_result(it->second);
  }
};

/// Check one task record against the ledger: complete, with the result the
/// runner should have produced for the submitted payload.
void verify_record(const osprey::Result<eqsql::TaskRecord>& record, TaskId id,
                   const Ledger& ledger, Report& report) {
  report.op(record.ok(), "task_record " + std::to_string(id));
  if (!record.ok()) return;
  const eqsql::TaskRecord& r = record.value();
  if (r.status != eqsql::TaskStatus::kComplete || !r.result ||
      *r.result != ledger.expected(id)) {
    report.fail("task " + std::to_string(id) + " record does not match");
  }
}

/// Check a task's stored result (a read-only probe) against the ledger.
void verify_result(const osprey::Result<std::string>& result, TaskId id,
                   const Ledger& ledger, Report& report) {
  report.op(result.ok(), "peek_result " + std::to_string(id));
  if (result.ok() && result.value() != ledger.expected(id)) {
    report.fail("task " + std::to_string(id) + " result does not match");
  }
}

/// The result a client-side runner reports; with injection on, the third
/// task's result is deliberately wrong (the smoke tests check it is caught).
class Runner {
 public:
  explicit Runner(bool inject) : inject_(inject) {}
  std::string operator()(const std::string& payload) {
    std::string result = runner_result(payload);
    if (inject_ && runs_.fetch_add(1) == 2) result = "{\"y\":-1}";
    return result;
  }

 private:
  bool inject_;
  std::atomic<int> runs_{0};
};

// --- measurements shared by every workload ----------------------------------

/// End-to-end measurements. Rates and percentiles are taken over the whole
/// window: a median of per-slice values moved two to three times as much
/// from run to run.
struct Measured {
  Samples setup, recovery, cycle, lag, reprioritize, lookup;
  std::uint64_t tasks = 0;
  double t_start = 0.0;
  double window_s = 0.0;  // the last cycle ends after the deadline
  double write_amp = 0.0;
  // Peak RSS through set-up: the deployment at its fixed size. The window's
  // history grows with throughput, so a peak taken after it would rise
  // with every speed-up.
  double setup_peak_rss_mb = 0.0;
  double window_rss_mb[2] = {};  // resident set at window start and end

  /// Open the timed window; returns its deadline.
  double start(double seconds) {
    window_rss_mb[0] = rss_mb();
    t_start = now_s();
    return t_start + seconds;
  }
  void stop() {
    window_s = now_s() - t_start;
    window_rss_mb[1] = rss_mb();
  }
  void completed() { ++tasks; }
  double tasks_per_s() const { return window_s > 0 ? tasks / window_s : 0.0; }
};

template <typename Deployment>
std::unique_ptr<Deployment> repeated_setup(
    Measured& m, const std::function<std::unique_ptr<Deployment>()>& build) {
  std::unique_ptr<Deployment> dep;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    dep.reset();  // tear the previous one down outside the timing
    const double t0 = now_s();
    dep = build();
    m.setup.add(now_s() - t0);
  }
  m.setup_peak_rss_mb = peak_rss_mb();
  return dep;
}

void report_end_to_end(Report& report, const Measured& m) {
  report.set("setup_s", m.setup.quantile(0.5), "s", m.setup.size());
  report.set("tasks_per_s", m.tasks_per_s(), "1/s", m.tasks);
  report.set_ms("cycle_p50_ms", m.cycle, 0.50);
  // Printed with the per-layer set, without a bound (README.md says why).
  report.set_ms("cycle_p99_ms", m.cycle, 0.99);
  report.set_ms("result_lag_p50_ms", m.lag, 0.50);
  report.set_ms("result_lag_p99_ms", m.lag, 0.99);
  report.set_ms("reprioritize_p50_ms", m.reprioritize, 0.50);
  report.set_ms("lookup_p50_ms", m.lookup, 0.50);
  report.set_ms("lookup_p99_ms", m.lookup, 0.99);
  report.set("recovery_s", m.recovery.quantile(0.5), "s", m.recovery.size());
  report.set("write_amp", m.write_amp, "ratio");
  report.set("peak_rss_mb", m.setup_peak_rss_mb, "MB");
  report.set("mem.rss_growth_kb_per_task",
             std::max(0.0, m.window_rss_mb[1] - m.window_rss_mb[0]) * 1024.0 /
                 static_cast<double>(std::max<std::uint64_t>(m.tasks, 1)),
             "kB");
  if (m.tasks == 0) report.fail("no task completed in the window");
}

/// Full-scan and index-lookup totals over every table of the databases.
struct DbCounters {
  std::uint64_t full_scans = 0;
  std::uint64_t index_lookups = 0;
};

DbCounters db_counters(const std::vector<osprey::db::Database*>& dbs) {
  DbCounters c;
  for (osprey::db::Database* db : dbs) {
    std::lock_guard<std::recursive_mutex> lock(db->mutex());
    for (const std::string& name : db->table_names()) {
      const osprey::db::Table* t = db->table(name);
      c.full_scans += t->full_scans();
      c.index_lookups += t->index_lookups();
    }
  }
  return c;
}

/// Per-layer measurement of the databases over the window (traced runs).
class DbLayer {
 public:
  explicit DbLayer(std::vector<osprey::db::Database*> dbs)
      : dbs_(std::move(dbs)), before_(db_counters(dbs_)) {
    if (Tracer::enabled()) probe_ = std::make_unique<MutexProbe>(dbs_);
  }

  void finish(Report& report, std::uint64_t tasks) {
    if (!probe_) return;
    probe_->stop();
    const DbCounters after = db_counters(dbs_);
    const double n = static_cast<double>(std::max<std::uint64_t>(tasks, 1));
    report.set("db.full_scans_per_task", (after.full_scans - before_.full_scans) / n,
               "count");
    report.set("db.index_lookups_per_task",
               (after.index_lookups - before_.index_lookups) / n, "count");
    report.set_us("db.mutex_wait_us.p50", probe_->waits(), 0.50);
    report.set_us("db.mutex_wait_us.p99", probe_->waits(), 0.99);
    report.set("db.mutex_busy_share", probe_->busy_share(), "ratio");
  }

 private:
  std::vector<osprey::db::Database*> dbs_;
  DbCounters before_;
  std::unique_ptr<MutexProbe> probe_;
};

/// Per-layer metrics derived from the spans of the traced run, then the
/// span file itself. Names the deployment has no layer for read 0.
void finish_traced(Report& report, const Options& options, std::uint64_t tasks) {
  if (!Tracer::enabled()) return;
  const std::vector<Span> spans = Tracer::collect();
  SpanSummary summary = summarize(spans);
  auto samples = [&](const char* name) -> const Samples& {
    return summary.by_name[name];
  };
  report.set_us("eqsql.submit_us.p50", samples("eqsql.submit"), 0.50);
  report.set_us("eqsql.submit_us.p99", samples("eqsql.submit"), 0.99);
  report.set_us("eqsql.claim_us.p50", samples("eqsql.claim"), 0.50);
  report.set_us("eqsql.claim_us.p99", samples("eqsql.claim"), 0.99);
  report.set_us("eqsql.report_us.p50", samples("eqsql.report"), 0.50);
  report.set_us("eqsql.report_us.p99", samples("eqsql.report"), 0.99);
  report.set_us("eqsql.result_us.p50", samples("eqsql.result"), 0.50);
  report.set_us("eqsql.result_us.p99", samples("eqsql.result"), 0.99);
  report.set_ms("eqsql.update_priority_ms.p50", samples("eqsql.update_priority"),
                0.50);
  report.set_us("eqsql.pop_completed_us.p50", samples("eqsql.pop_completed"), 0.50);
  report.set_us("eqsql.pop_completed_us.p99", samples("eqsql.pop_completed"), 0.99);
  report.set_us("pool.runner_us.p50", samples("pool.runner"), 0.50);
  report.set_us("wal.sync_us.p50", samples("wal.sync"), 0.50);
  report.set_us("wal.sync_us.p99", samples("wal.sync"), 0.99);
  report.set_ms("wal.checkpoint_ms.p50", samples("wal.checkpoint"), 0.50);
  report.set_us("storage.read_range_us.p99", samples("storage.read_range"), 0.99);
  report.set_us("shard.claim_us.p50", samples("shard.claim"), 0.50);
  report.set_us("shard.claim_us.p99", samples("shard.claim"), 0.99);
  report.set_us("shard.scatter_us.p50", samples("shard.scatter"), 0.50);
  report.set_us("shard.scatter_us.p99", samples("shard.scatter"), 0.99);
  report.set_ms("repl.pump_ms.p50", samples("repl.pump"), 0.50);
  report.set_ms("repl.pump_ms.p99", samples("repl.pump"), 0.99);

  const double n = static_cast<double>(std::max<std::uint64_t>(tasks, 1));
  for (const char* layer :
       {"client", "eqsql", "wal", "storage", "shard", "repl", "pool"}) {
    report.set(std::string(layer) + ".self_us_per_task",
               summary.self_seconds_by_layer[layer] * 1e6 / n, "us");
  }

  // The wait plane's own counters (obs registry, enabled for traced runs).
  const osprey::obs::MetricsSnapshot snap =
      osprey::obs::telemetry().metrics.snapshot();
  const double wakeups =
      static_cast<double>(snap.counter_value("osprey_eqsql_notify_wakeups_total"));
  const double spurious =
      static_cast<double>(snap.counter_value("osprey_eqsql_spurious_wakeups_total"));
  report.set("notify.spurious_wakeup_ratio", wakeups > 0 ? spurious / wakeups : 0.0,
             "ratio", static_cast<std::size_t>(wakeups));

  fs::create_directories(options.out_dir + "/traces");
  const std::string path = options.out_dir + "/traces/" + options.workload +
                           "-seed" + std::to_string(options.seed) + ".json";
  if (!Tracer::write_chrome_trace(path, spans)) {
    std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "perfbench: %zu spans (%llu dropped) -> %s\n",
                 spans.size(), static_cast<unsigned long long>(Tracer::dropped()),
                 path.c_str());
  }
}

/// Preload `n` completed tasks through the public API, stage by stage:
/// submit all, claim all, report all, pick up all, each in task-id order.
/// Every index update then hits the front of its equal-key group, so the
/// preload costs O(n log n) rather than the O(n^2) of n single cycles; the
/// timed window pays the per-cycle cost. Claims and pickups go in chunks
/// because an `IN (...)` list is matched linearly per row.
void preload(eqsql::EQSQL& api, int n, Inputs& inputs, Ledger& ledger,
             Report& report) {
  constexpr int kChunk = 500;
  if (n <= 0) return;
  std::vector<std::string> payloads;
  std::vector<Sample> samples;
  for (int i = 0; i < n; ++i) {
    samples.push_back(inputs.sample());
    payloads.push_back(make_payload(samples.back()));
  }
  auto ids = api.submit_tasks("history", kType, payloads);
  report.op(ids.ok(), "preload submit");
  if (!ids.ok()) return;
  for (int i = 0; i < n; ++i) {
    ledger.submitted(ids.value()[i], samples[i], payloads[i].size());
  }
  std::vector<eqsql::TaskHandle> handles;
  while (handles.size() < static_cast<std::size_t>(n)) {
    auto claimed = api.try_query_tasks(kType, kChunk, "preload");
    report.op(claimed.ok() && !claimed.value().empty(), "preload claim");
    if (!claimed.ok() || claimed.value().empty()) return;
    handles.insert(handles.end(), claimed.value().begin(), claimed.value().end());
  }
  for (const eqsql::TaskHandle& h : handles) {
    const std::string result = runner_result(h.payload);
    ledger.reported(result.size());
    report.op(api.report_task(h.eq_task_id, kType, result).is_ok(), "preload report");
  }
  for (std::size_t at = 0; at < ids.value().size(); at += kChunk) {
    const std::size_t end = std::min(ids.value().size(), at + kChunk);
    const std::vector<TaskId> chunk(ids.value().begin() + at,
                                    ids.value().begin() + end);
    auto done = api.try_query_completed(chunk, static_cast<int>(chunk.size()));
    report.op(done.ok() && done.value().size() == chunk.size(), "preload pickup");
    if (!done.ok()) return;
    for (TaskId id : done.value()) ledger.picked(id, report);
  }
}

/// Random earlier task records read back and checked.
template <typename LookupFn>
void read_records(int count, Inputs& inputs, const Ledger& ledger, Measured& m,
                   Report& report, LookupFn&& lookup) {
  if (ledger.picked_ids.empty()) return;
  for (int i = 0; i < count; ++i) {
    const TaskId id = ledger.picked_ids[inputs.index(ledger.picked_ids.size())];
    const double t0 = now_s();
    osprey::Result<eqsql::TaskRecord> record = [&] {
      ScopedSpan span("eqsql.lookup", id);
      return lookup(id);
    }();
    const double t1 = now_s();
    m.lookup.add(t1 - t0);
    verify_record(record, id, ledger, report);
  }
}

/// In-memory deployments persist by checkpoint: write the snapshot once
/// (the bytes write_amp counts), then time restoring it into a fresh
/// service, kRecoveryReps times.
void checkpoint_recovery(eqsql::EmewsService& service, const Options& options,
                         const Ledger& ledger, Measured& m, Report& report) {
  fs::create_directories(options.out_dir);
  const std::string path = options.out_dir + "/" + options.workload + "-ckpt.json";
  const std::string text = service.checkpoint().dump();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    report.op(static_cast<bool>(out), "write checkpoint");
  }
  m.write_amp = ledger.user_bytes > 0
                    ? static_cast<double>(text.size()) / ledger.user_bytes
                    : 0.0;
  auto before = service.stats();
  report.op(before.ok(), "stats");
  RealClock clock;
  for (int rep = 0; rep < kRecoveryReps; ++rep) {
    const double t0 = now_s();
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    auto doc = osprey::json::parse(buffer.str());
    eqsql::EmewsService restored(clock);
    const bool ok = doc.ok() && restored.restore(doc.value()).is_ok();
    m.recovery.add(now_s() - t0);
    report.op(ok, "restore checkpoint");
    if (!ok || rep + 1 < kRecoveryReps || !before.ok()) continue;
    auto after = restored.stats();
    report.op(after.ok(), "stats after restore");
    if (after.ok() &&
        (after.value().tasks_total != before.value().tasks_total ||
         after.value().tasks_complete != before.value().tasks_complete)) {
      report.fail("restored stats differ from the checkpointed service");
    }
  }
  fs::remove(path);
}

// --- cycle_history ---------------------------------------------------------------

struct PlainDeployment {
  RealClock clock;
  std::unique_ptr<eqsql::EmewsService> service;
  std::unique_ptr<eqsql::EQSQL> api;
  Ledger ledger;
};

Report run_cycle_history(const Options& options) {
  Report report;
  Measured m;
  const Sizes sizes = sizes_for(options);
  Inputs inputs(options.seed);
  auto dep = repeated_setup<PlainDeployment>(m, [&] {
    inputs = Inputs(options.seed);  // every set-up preloads the same history
    auto d = std::make_unique<PlainDeployment>();
    d->service = std::make_unique<eqsql::EmewsService>(d->clock);
    report.op(d->service->start().is_ok(), "start");
    auto api = d->service->connect();
    report.op(api.ok(), "connect");
    if (api.ok()) {
      d->api = std::move(api).take();
      preload(*d->api, sizes.history, inputs, d->ledger, report);
    }
    return d;
  });
  if (!dep->api) return report;
  eqsql::EQSQL& api = *dep->api;
  Ledger& ledger = dep->ledger;
  Runner runner(options.inject_wrong);
  DbLayer db_layer({&dep->service->database()});

  const double deadline = m.start(options.seconds);
  Priority seq = 0;
  while (now_s() < deadline) {
    ScopedSpan cycle_span("client.cycle");
    const Sample sample = inputs.sample();
    const std::string payload = make_payload(sample);
    const double t0 = now_s();
    osprey::Result<TaskId> id = [&] {
      ScopedSpan span("eqsql.submit");
      return api.submit_task("bench", kType, payload, -(++seq));
    }();
    report.op(id.ok(), "submit");
    if (!id.ok()) break;
    ledger.submitted(id.value(), sample, payload.size());
    auto claimed = [&] {
      ScopedSpan span("eqsql.claim", id.value());
      return api.try_query_tasks(kType, 1, "client");
    }();
    const bool claim_ok = claimed.ok() && claimed.value().size() == 1 &&
                          claimed.value()[0].eq_task_id == id.value();
    report.op(claim_ok, "claim");
    if (!claim_ok) break;
    const std::string result = runner(claimed.value()[0].payload);
    ledger.reported(result.size());
    const double t_report = now_s();
    osprey::Status reported = [&] {
      ScopedSpan span("eqsql.report", id.value());
      return api.report_task(id.value(), kType, result);
    }();
    report.op(reported.is_ok(), "report");
    auto picked = [&] {
      ScopedSpan span("eqsql.result", id.value());
      return api.try_query_result(id.value());
    }();
    const double t_end = now_s();
    report.op(picked.ok(), "result");
    if (!picked.ok()) break;
    if (picked.value() != expected_result(sample)) {
      report.fail("task " + std::to_string(id.value()) + " result mismatch");
    }
    ledger.picked(id.value(), report);
    m.cycle.add(t_end - t0);
    m.lag.add(t_end - t_report);
    m.completed();
  }
  m.stop();
  db_layer.finish(report, m.tasks);
  finish_traced(report, options, m.tasks);

  auto depth = api.input_queue_depth();
  report.op(depth.ok() && depth.value() == 0, "input queue drained");
  checkpoint_recovery(*dep->service, options, ledger, m, report);
  report_end_to_end(report, m);
  return report;
}

// --- campaign_threads ----------------------------------------------------------------

/// The campaign's model evaluation takes 2 ms, standing in for the paper's
/// multi-second simulations. A worker blocks for it as it would on a model
/// running elsewhere, so the pool is the bottleneck and the cores stay free
/// for the ME, the coordinator and the database. Without it the pool idles
/// and the run measures only how fast the ME drains an ever-full input
/// queue.
void model_work() { std::this_thread::sleep_for(std::chrono::milliseconds(2)); }

/// Runner-side record shared between the pool's workers and the ME thread.
struct RunnerLog {
  std::mutex mutex;
  std::unordered_map<TaskId, double> returned_at;
  std::unordered_map<TaskId, int> runs;
};

struct CampaignDeployment {
  RealClock clock;
  std::unique_ptr<eqsql::EmewsService> service;
  std::unique_ptr<eqsql::EQSQL> me_api;
  std::unique_ptr<eqsql::EQSQL> pool_api;
  RunnerLog log;
  std::unique_ptr<Runner> runner;
  int workers = 1;
  Ledger ledger;
  std::vector<eqsql::TaskFuture> futures;  // outstanding, in the ME's hands
  std::unordered_map<TaskId, double> submitted_at;
  std::uint64_t completed = 0;
  // Declared last: destroyed (stopped and joined) before what it uses.
  std::unique_ptr<osprey::pool::ThreadedWorkerPool> pool;
};

/// Submit `n` fresh samples as futures at seeded ranks in 1..`ranks`.
bool submit_samples(CampaignDeployment& dep, int n, int ranks, Inputs& inputs,
                    Report& report) {
  for (int i = 0; i < n; ++i) {
    const Sample s = inputs.sample();
    const std::string payload = make_payload(s);
    const Priority rank = static_cast<Priority>(inputs.index(ranks)) + 1;
    auto f = [&] {
      ScopedSpan span("eqsql.submit");
      return eqsql::submit_task_future(*dep.me_api, "campaign", kType, payload, rank);
    }();
    report.op(f.ok(), "submit_task_future");
    if (!f.ok()) return false;
    dep.ledger.submitted(f.value().task_id(), s, payload.size());
    dep.submitted_at[f.value().task_id()] = now_s();
    dep.futures.push_back(std::move(f).take());
  }
  return true;
}

/// Re-rank every outstanding future: a seeded permutation of 1..n, the
/// stand-in for the GPR refit.
void reprioritize(CampaignDeployment& dep, Inputs& inputs, Measured* m,
                  Report& report) {
  const double t0 = now_s();
  auto updated = [&] {
    ScopedSpan span("eqsql.update_priority");
    return eqsql::update_priority(dep.futures, inputs.ranks(dep.futures.size()));
  }();
  if (m) m->reprioritize.add(now_s() - t0);
  report.op(updated.ok(), "update_priority");
}

/// The ME of a Fig. 4-shaped campaign in steady state: pop the first
/// completed future, check its result, replace it with a fresh sample, and
/// re-rank the outstanding set every audit_every completions. Runs until
/// `pops` results were taken or `deadline` passes.
void run_me(CampaignDeployment& dep, std::uint64_t pops, double deadline,
            const Sizes& sizes, Inputs& inputs, Measured* m, Report& report) {
  const int outstanding = static_cast<int>(dep.futures.size());
  for (std::uint64_t i = 0; i < pops; ++i) {
    const double remaining = deadline - now_s();
    if (remaining <= 0.0) break;
    ScopedSpan step("client.step");
    auto popped = [&] {
      ScopedSpan span("eqsql.pop_completed");
      return eqsql::pop_completed(dep.futures, eqsql::WaitSpec::notify(remaining));
    }();
    const double t_pop = now_s();
    if (!popped.ok() && popped.code() == osprey::ErrorCode::kTimeout) break;
    report.op(popped.ok(), "pop_completed");
    if (!popped.ok()) break;
    eqsql::TaskFuture f = std::move(popped).take();
    const TaskId id = f.task_id();
    auto result = f.try_result();  // cached by pop_completed
    if (!result.ok() || result.value() != dep.ledger.expected(id)) {
      report.fail("task " + std::to_string(id) + " result is not Ackley(payload)");
    }
    if (result.ok()) dep.ledger.reported(result.value().size());
    dep.ledger.picked(id, report);
    double returned = t_pop;
    {
      std::lock_guard<std::mutex> lock(dep.log.mutex);
      auto it = dep.log.returned_at.find(id);
      if (it != dep.log.returned_at.end()) returned = it->second;
    }
    if (m) {
      m->cycle.add(t_pop - dep.submitted_at[id]);
      m->lag.add(t_pop - returned);
      m->completed();
    }
    dep.submitted_at.erase(id);
    if (!submit_samples(dep, 1, outstanding, inputs, report)) break;
    ++dep.completed;
    if (dep.completed % sizes.audit_every == 0) reprioritize(dep, inputs, m, report);
  }
}

Report run_campaign_threads(const Options& options) {
  Report report;
  Measured m;
  const Sizes sizes = sizes_for(options);
  Inputs inputs(options.seed);
  const int workers =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()) - 2);
  auto dep = repeated_setup<CampaignDeployment>(m, [&] {
    inputs = Inputs(options.seed);
    auto d = std::make_unique<CampaignDeployment>();
    d->workers = workers;
    d->runner = std::make_unique<Runner>(options.inject_wrong);
    d->service = std::make_unique<eqsql::EmewsService>(d->clock);
    report.op(d->service->start().is_ok(), "start");
    report.op(d->service->enable_notifications().is_ok(), "enable_notifications");
    auto me = d->service->connect();
    auto pool_api = d->service->connect();
    report.op(me.ok() && pool_api.ok(), "connect");
    if (!me.ok() || !pool_api.ok()) return d;
    d->me_api = std::move(me).take();
    d->pool_api = std::move(pool_api).take();
    osprey::pool::PoolConfig config;
    config.name = "pool";
    config.work_type = kType;
    config.num_workers = workers;
    config.batch_size = 33;
    config.threshold = 1;
    RunnerLog* log = &d->log;
    Runner* runner = d->runner.get();
    d->pool = std::make_unique<osprey::pool::ThreadedWorkerPool>(
        *d->pool_api, config, [log, runner](const eqsql::TaskHandle& h) {
          ScopedSpan span("pool.runner", h.eq_task_id);
          model_work();
          std::string result = (*runner)(h.payload);
          std::lock_guard<std::mutex> lock(log->mutex);
          log->returned_at[h.eq_task_id] = now_s();
          ++log->runs[h.eq_task_id];
          return result;
        });
    report.op(d->pool->start().is_ok(), "pool start");
    // Launch: the initial design as futures at distinct ranks, then a
    // warm-up stretch of the steady state.
    if (submit_samples(*d, sizes.campaign, sizes.campaign, inputs, report)) {
      reprioritize(*d, inputs, nullptr, report);
      run_me(*d, sizes.warmup, now_s() + 60.0, sizes, inputs, nullptr, report);
    }
    return d;
  });
  if (!dep->pool) return report;
  DbLayer db_layer({&dep->service->database()});
  const std::uint64_t tasks0 = dep->pool->tasks_completed();
  const std::uint64_t queries0 = dep->pool->queries_issued();
  const double clock0 = dep->clock.now();

  const double deadline = m.start(options.seconds);
  run_me(*dep, ~std::uint64_t{0}, deadline, sizes, inputs, &m, report);
  m.stop();
  const double clock1 = dep->clock.now();
  std::vector<eqsql::TaskFuture>& outstanding = dep->futures;
  db_layer.finish(report, m.tasks);
  if (Tracer::enabled()) {
    const double n = static_cast<double>(dep->pool->tasks_completed() - tasks0);
    const double q = static_cast<double>(dep->pool->queries_issued() - queries0);
    report.set("pool.tasks_per_query", q > 0 ? n / q : 0.0, "count");
    report.set("pool.worker_utilization",
               dep->pool->trace_snapshot().mean_concurrency(clock0, clock1) /
                   dep->workers,
               "ratio");
  }

  // Close the campaign: cancel what is still queued, let running tasks
  // finish, then pick up every result that completed after the window.
  if (!outstanding.empty()) {
    report.op(eqsql::cancel(outstanding).ok(), "cancel");
  }
  dep->pool->stop();
  std::vector<TaskId> ids;
  for (const eqsql::TaskFuture& f : outstanding) ids.push_back(f.task_id());
  if (!ids.empty()) {
    auto late = dep->me_api->try_query_completed(ids, static_cast<int>(ids.size()));
    report.op(late.ok(), "late pickup");
    if (late.ok()) {
      for (TaskId id : late.value()) {
        auto result = dep->me_api->peek_result(id);
        verify_result(result, id, dep->ledger, report);
        if (result.ok()) dep->ledger.reported(result.value().size());
        dep->ledger.picked(id, report);
      }
    }
  }
  finish_traced(report, options, m.tasks);
  {
    std::lock_guard<std::mutex> lock(dep->log.mutex);
    for (const auto& [id, runs] : dep->log.runs) {
      if (runs > 1) report.fail("task " + std::to_string(id) + " ran twice");
    }
  }
  auto depth = dep->me_api->input_queue_depth();
  report.op(depth.ok() && depth.value() == 0, "input queue drained");
  checkpoint_recovery(*dep->service, options, dep->ledger, m, report);
  report_end_to_end(report, m);
  return report;
}

// --- durable_lsm ----------------------------------------------------------------------

osprey::storage::StorageOptions durable_storage_options() {
  osprey::storage::StorageOptions o;
  o.memtable_bytes = 64 * 1024;
  o.cache_blocks = 16;
  return o;
}

osprey::db::wal::WalOptions durable_wal_options() {
  osprey::db::wal::WalOptions o;
  o.group_commit_txns = 1;  // every acknowledged commit is synced
  return o;
}

/// The log device is memory (see MemLogDevice): on a FileLogDevice the
/// cycle was the shared virtual disk's fsync and write latency, whose
/// run-to-run spread (0.3-0.6 of the median) drowned every code change.
/// What is measured is the WAL, LSM, cache and recovery code above the
/// device.
struct DurableDeployment {
  RealClock clock;
  MemLogDevice disk;
  TimingLogDevice device{disk};
  // Declared after the device they write to.
  std::unique_ptr<eqsql::EmewsService> service;
  std::unique_ptr<eqsql::EQSQL> api;
  Ledger ledger;
};

Report run_durable_lsm(const Options& options) {
  Report report;
  Measured m;
  const Sizes sizes = sizes_for(options);
  Inputs inputs(options.seed);
  auto dep = repeated_setup<DurableDeployment>(m, [&] {
    inputs = Inputs(options.seed);
    auto d = std::make_unique<DurableDeployment>();
    d->service = std::make_unique<eqsql::EmewsService>(d->clock);
    report.op(d->service->enable_storage(d->device, durable_storage_options())
                  .is_ok(),
              "enable_storage");
    report.op(d->service->start().is_ok(), "start");
    auto api = d->service->connect();
    report.op(api.ok(), "connect");
    if (!api.ok()) return d;
    d->api = std::move(api).take();
    preload(*d->api, sizes.durable_preload, inputs, d->ledger, report);
    // Durability from here on; enable_wal writes the initial checkpoint.
    report.op(d->service->enable_wal(d->device, durable_wal_options()).is_ok(),
              "enable_wal");
    return d;
  });
  if (!dep->api) return report;
  eqsql::EQSQL& api = *dep->api;
  Ledger& ledger = dep->ledger;
  Runner runner(options.inject_wrong);
  constexpr int kBatch = 8;
  constexpr int kReadsPerCycle = 8;

  DbLayer db_layer({&dep->service->database()});
  const DeviceCounters dev0 = dep->device.counters();
  const osprey::db::wal::WalStats wal0 = dep->service->wal()->stats();
  const osprey::storage::StorageStats st0 = dep->service->storage()->stats();
  std::uint64_t window_user_bytes = 0;
  std::uint64_t since_checkpoint = 0;

  // One batch cycle; `measure` is false for the recovery tail after the
  // window, which only has to leave a known amount of log behind.
  Priority cycle = 0;
  auto run_cycle = [&](bool measure) {
    ScopedSpan cycle_span("client.cycle");
    ++cycle;
    std::vector<Sample> samples;
    std::vector<std::string> payloads;
    for (int i = 0; i < kBatch; ++i) {
      samples.push_back(inputs.sample());
      payloads.push_back(make_payload(samples.back()));
      if (measure) window_user_bytes += payloads.back().size();
    }
    const double t0 = now_s();
    auto ids = [&] {
      ScopedSpan span("eqsql.submit");
      return api.submit_tasks("bench", kType, payloads, -cycle);
    }();
    report.op(ids.ok(), "submit");
    if (!ids.ok()) return false;
    for (int i = 0; i < kBatch; ++i) {
      ledger.submitted(ids.value()[i], samples[i], payloads[i].size());
    }
    auto claimed = [&] {
      ScopedSpan span("eqsql.claim");
      return api.try_query_tasks(kType, kBatch, "client");
    }();
    report.op(claimed.ok() && claimed.value().size() == kBatch, "claim");
    if (!claimed.ok()) return false;
    std::unordered_map<TaskId, double> reported_at;
    for (const eqsql::TaskHandle& h : claimed.value()) {
      const std::string result = runner(h.payload);
      ledger.reported(result.size());
      if (measure) window_user_bytes += result.size();
      reported_at[h.eq_task_id] = now_s();
      osprey::Status s = [&] {
        ScopedSpan span("eqsql.report", h.eq_task_id);
        return api.report_task(h.eq_task_id, kType, result);
      }();
      report.op(s.is_ok(), "report");
    }
    auto done = [&] {
      ScopedSpan span("eqsql.result");
      return api.try_query_completed(ids.value(), kBatch);
    }();
    const double t_end = now_s();
    report.op(done.ok() && done.value().size() == kBatch, "pickup");
    if (!done.ok()) return false;
    for (TaskId id : done.value()) {
      ledger.picked(id, report);
      if (!measure) continue;
      m.cycle.add(t_end - t0);
      auto it = reported_at.find(id);
      m.lag.add(t_end - (it == reported_at.end() ? t_end : it->second));
      m.completed();
    }
    return true;
  };
  auto checkpoint = [&] {
    auto lsn = [&] {
      ScopedSpan span("wal.checkpoint");
      return dep->service->checkpoint_durable();
    }();
    report.op(lsn.ok(), "checkpoint_durable");
  };

  const double deadline = m.start(options.seconds);
  while (now_s() < deadline) {
    if (!run_cycle(true)) break;
    read_records(kReadsPerCycle, inputs, ledger, m, report,
                 [&](TaskId t) { return api.task_record(t); });
    since_checkpoint += kBatch;
    if (since_checkpoint >= static_cast<std::uint64_t>(sizes.checkpoint_every)) {
      since_checkpoint = 0;
      checkpoint();
    }
  }
  m.stop();
  const DeviceCounters dev1 = dep->device.counters();
  m.write_amp = window_user_bytes > 0
                    ? static_cast<double>(dev1.bytes_appended - dev0.bytes_appended) /
                          static_cast<double>(window_user_bytes)
                    : 0.0;
  db_layer.finish(report, m.tasks);
  if (Tracer::enabled()) {
    const double n = static_cast<double>(std::max<std::uint64_t>(m.tasks, 1));
    const osprey::db::wal::WalStats wal1 = dep->service->wal()->stats();
    const osprey::storage::StorageStats st1 = dep->service->storage()->stats();
    report.set("wal.syncs_per_task", (wal1.syncs - wal0.syncs) / n, "count");
    report.set("wal.append_bytes_per_task",
               (wal1.bytes_logged - wal0.bytes_logged) / n, "bytes");
    report.set("wal.device_busy_share",
               static_cast<double>(dev1.busy_ns - dev0.busy_ns) * 1e-9 / m.window_s,
               "ratio");
    const double reads = static_cast<double>(
        (st1.cache_hits - st0.cache_hits) + (st1.cache_misses - st0.cache_misses));
    report.set("storage.cache_hit_ratio",
               reads > 0 ? (st1.cache_hits - st0.cache_hits) / reads : 0.0, "ratio");
    report.set("storage.flushes_per_1k_tasks",
               (st1.flushes - st0.flushes) * 1000.0 / n, "count");
    report.set("storage.compactions_per_1k_tasks",
               (st1.compactions - st0.compactions) * 1000.0 / n, "count");
    report.set("storage.space_amp",
               static_cast<double>(st1.run_bytes) /
                   static_cast<double>(std::max<std::uint64_t>(ledger.user_bytes, 1)),
               "ratio");
  }
  finish_traced(report, options, m.tasks);
  auto depth = api.input_queue_depth();
  report.op(depth.ok() && depth.value() == 0, "input queue drained");

  // A checkpoint and then a fixed tail of cycles, so every run recovers the
  // same amount of log (the window ends at a random point between two
  // checkpoints). Then the crash: the service goes away; every acknowledged
  // commit was synced to the device, which survives it.
  checkpoint();
  for (int i = 0; i < sizes.recovery_tail_cycles; ++i) {
    if (!run_cycle(false)) break;
  }
  auto live = dep->service->stats();
  report.op(live.ok(), "stats");
  dep->api.reset();
  dep->service.reset();
  for (int rep = 0; rep < kRecoveryReps; ++rep) {
    RealClock clock;
    eqsql::EmewsService recovered(clock);
    report.op(recovered.enable_storage(dep->disk, durable_storage_options()).is_ok(),
              "enable_storage (recovery)");
    const double t0 = now_s();
    auto info = recovered.recover_from_wal(dep->disk, durable_wal_options());
    m.recovery.add(now_s() - t0);
    report.op(info.ok(), "recover_from_wal");
    if (!info.ok() || rep + 1 < kRecoveryReps) continue;
    // The recovered service must hold exactly the acknowledged state.
    auto stats = recovered.stats();
    report.op(stats.ok(), "stats (recovered)");
    if (stats.ok() && live.ok() &&
        (stats.value().tasks_total != live.value().tasks_total ||
         stats.value().tasks_complete !=
             static_cast<std::int64_t>(ledger.picked_ids.size()) ||
         stats.value().tasks_complete != live.value().tasks_complete)) {
      report.fail("recovered stats differ from the acknowledged state");
    }
    auto api2 = recovered.connect();
    report.op(api2.ok(), "connect (recovered)");
    if (!api2.ok()) continue;
    // Every acknowledged result, and a sample of whole records.
    for (TaskId id : ledger.picked_ids) {
      verify_result(api2.value()->peek_result(id), id, ledger, report);
    }
    const std::size_t checks = std::min<std::size_t>(ledger.picked_ids.size(), 200);
    for (std::size_t i = 0; i < checks; ++i) {
      const TaskId id = ledger.picked_ids[inputs.index(ledger.picked_ids.size())];
      verify_record(api2.value()->task_record(id), id, ledger, report);
    }
  }
  report_end_to_end(report, m);
  return report;
}

// --- sharded_tenants ---------------------------------------------------------------

struct TenantSpec {
  const char* id;
  double weight;
};
constexpr TenantSpec kTenants[] = {{"t1", 4.0}, {"t2", 3.0}, {"t3", 2.0}, {"t4", 1.0}};
constexpr int kTenantCount = 4;
constexpr int kShards = 2;

struct ShardedDeployment {
  RealClock clock;
  osprey::net::Network network = osprey::net::Network::testbed();
  std::unique_ptr<osprey::shard::ShardCluster> cluster;
  std::unique_ptr<osprey::shard::ShardRouter> router;
  struct Owner {
    int tenant = 0;
    WorkType type = 0;
  };
  std::unordered_map<TaskId, Owner> owner;
  std::unordered_map<TaskId, double> submitted_at;
  std::uint64_t quota = 0;
  Ledger ledger;

  ~ShardedDeployment() {
    router.reset();
    cluster.reset();
  }

  osprey::Result<TaskId> submit(int tenant, WorkType type, const Sample& s,
                                Report& report) {
    const std::string payload = make_payload(s);
    auto id = [&] {
      ScopedSpan span("shard.submit");
      return router->submit_task_as(kTenants[tenant].id, "bench", type, payload);
    }();
    report.op(id.ok(), "submit_task_as");
    if (id.ok()) {
      owner[id.value()] = Owner{tenant, type};
      submitted_at[id.value()] = now_s();
      ledger.submitted(id.value(), s, payload.size());
    }
    return id;
  }

  std::vector<osprey::db::Database*> leader_dbs() {
    std::vector<osprey::db::Database*> dbs;
    for (int s = 0; s < kShards; ++s) {
      dbs.push_back(&cluster->group(s).leader()->database());
    }
    return dbs;
  }

  /// Bytes appended to every node's log device (leaders and followers).
  std::uint64_t device_bytes() {
    std::uint64_t total = 0;
    for (int s = 0; s < kShards; ++s) {
      osprey::repl::ReplicationGroup& g = cluster->group(s);
      total += g.leader()->sim_device().bytes_appended();
      for (const std::string& f : g.follower_ids()) {
        total += g.node(f)->sim_device().bytes_appended();
      }
    }
    return total;
  }

  /// Ship until every follower has the leader's whole log.
  bool catch_up(Report& report) {
    for (int i = 0; i < 10000; ++i) {
      auto pumped = cluster->pump_all();
      report.op(pumped.ok(), "pump_all");
      if (!pumped.ok()) return false;
      if (pumped.value().records_shipped == 0) return true;
    }
    return false;
  }
};

Report run_sharded_tenants(const Options& options) {
  Report report;
  Measured m;
  const Sizes sizes = sizes_for(options);
  Inputs inputs(options.seed);
  auto dep = repeated_setup<ShardedDeployment>(m, [&] {
    inputs = Inputs(options.seed);
    auto d = std::make_unique<ShardedDeployment>();
    osprey::shard::ShardClusterConfig config;
    config.spec.shard_count = kShards;
    config.spec.key = osprey::shard::ShardKeyKind::kWorkType;
    config.spec.scheme = osprey::shard::ShardScheme::kRange;
    config.spec.range_width = 1;  // work type t lives on shard t
    // Every pump ships the whole committed tail, so followers never fall
    // behind between pumps.
    config.repl.max_batches_per_pump = 1024;
    d->cluster =
        std::make_unique<osprey::shard::ShardCluster>(d->clock, d->network, config);
    const char* sites[] = {"bebop", "theta", "midway2", "cloud"};
    for (int s = 0; s < kShards; ++s) {
      report.op(d->cluster->create_leader(s, "lead" + std::to_string(s), sites[s]).ok(),
                "create_leader");
      report.op(d->cluster->add_follower(s, "follow" + std::to_string(s), sites[s + 2])
                    .ok(),
                "add_follower");
    }
    report.op(d->cluster->enable_notifications().is_ok(), "enable_notifications");
    report.op(d->cluster->enable_tenants().is_ok(), "enable_tenants");
    // The quota leaves room for one claim batch and the resubmits in flight
    // above the steady backlog; crossing it is a violation.
    d->quota = static_cast<std::uint64_t>(sizes.backlog) + 64;
    for (const TenantSpec& t : kTenants) {
      osprey::tenant::TenantConfig tc;
      tc.weight = t.weight;
      tc.submit_quota = d->quota;
      tc.max_queue_depth = d->quota;
      report.op(d->cluster->register_tenant(t.id, tc).is_ok(), "register_tenant");
    }
    d->router = std::make_unique<osprey::shard::ShardRouter>(*d->cluster);
    d->router->set_tenant_context();
    for (int t = 0; t < kTenantCount; ++t) {
      for (WorkType type = 0; type < kShards; ++type) {
        for (int i = 0; i < sizes.backlog; ++i) {
          d->submit(t, type, inputs.sample(), report);
        }
      }
    }
    report.op(d->catch_up(report), "followers caught up");
    return d;
  });
  if (!dep->router) return report;
  osprey::shard::ShardRouter& router = *dep->router;
  osprey::shard::ShardCluster& cluster = *dep->cluster;
  Ledger& ledger = dep->ledger;
  Runner runner(options.inject_wrong);
  constexpr int kClaim = 8;
  constexpr int kPumpEvery = 16;

  DbLayer db_layer(dep->leader_dbs());
  const std::uint64_t bytes0 = dep->device_bytes();
  const std::uint64_t scatter0 = router.scatter_ops();
  const std::vector<osprey::tenant::TenantStats> tenants0 = router.tenant_stats();
  std::vector<osprey::db::wal::WalStats> wal0;
  for (int s = 0; s < kShards; ++s) {
    wal0.push_back(cluster.group(s).leader()->wal()->stats());
  }
  std::uint64_t window_user_bytes = 0;
  std::uint64_t pumps = 0, records_shipped = 0;
  double pump_s = 0.0;
  std::vector<TaskId> pending;  // reported, not yet picked up
  std::unordered_map<TaskId, double> reported_at;

  auto pickup = [&] {
    if (pending.empty()) return;
    auto done = [&] {
      ScopedSpan span("shard.scatter");
      return router.try_query_completed(pending, static_cast<int>(pending.size()));
    }();
    const double t_end = now_s();
    report.op(done.ok() && done.value().size() == pending.size(), "scatter pickup");
    if (!done.ok()) return;
    for (TaskId id : done.value()) {
      ledger.picked(id, report);
      m.cycle.add(t_end - dep->submitted_at[id]);
      m.lag.add(t_end - reported_at[id]);
      reported_at.erase(id);
      dep->submitted_at.erase(id);
      m.completed();
    }
    std::unordered_set<TaskId> got(done.value().begin(), done.value().end());
    std::vector<TaskId> left;
    for (TaskId id : pending) {
      if (!got.count(id)) left.push_back(id);
    }
    // Keep the backlog steady: each picked-up task's tenant resubmits one.
    for (TaskId id : done.value()) {
      const ShardedDeployment::Owner o = dep->owner[id];
      const Sample s = inputs.sample();
      window_user_bytes += make_payload(s).size();
      dep->submit(o.tenant, o.type, s, report);
    }
    pending.swap(left);
  };

  std::unique_ptr<eqsql::EQSQL> leaders[kShards];  // one handle per shard leader
  for (int s = 0; s < kShards; ++s) {
    auto api = cluster.group(s).leader()->connect();
    report.op(api.ok(), "leader connect");
    if (!api.ok()) return report;
    leaders[s] = std::move(api).take();
  }

  const double deadline = m.start(options.seconds);
  for (std::uint64_t cycle = 0; now_s() < deadline; ++cycle) {
    ScopedSpan cycle_span("client.cycle");
    // One claim per shard, so the pickup scatter spans both shards.
    for (WorkType type = 0; type < kShards; ++type) {
      auto claimed = [&] {
        ScopedSpan span("shard.claim");
        return router.try_query_tasks(type, kClaim, "client");
      }();
      report.op(claimed.ok() && !claimed.value().empty(), "claim");
      if (!claimed.ok()) break;
      for (const eqsql::TaskHandle& h : claimed.value()) {
        const std::string result = runner(h.payload);
        ledger.reported(result.size());
        window_user_bytes += result.size();
        reported_at[h.eq_task_id] = now_s();
        osprey::Status s = [&] {
          ScopedSpan span("shard.report", h.eq_task_id);
          return router.report_task(h.eq_task_id, type, result);
        }();
        report.op(s.is_ok(), "report");
        pending.push_back(h.eq_task_id);
      }
    }
    pickup();
    if (cycle % kPumpEvery == kPumpEvery - 1) {
      const double t0 = now_s();
      auto pumped = [&] {
        ScopedSpan span("repl.pump");
        return cluster.pump_all();
      }();
      pump_s += now_s() - t0;
      ++pumps;
      report.op(pumped.ok(), "pump_all");
      if (pumped.ok()) records_shipped += pumped.value().records_shipped;
      for (int s = 0; s < kShards; ++s) {
        for (const osprey::tenant::TenantStats& st : cluster.tenants(s)->stats()) {
          if (static_cast<std::uint64_t>(st.queued + st.running) > dep->quota) {
            report.fail("tenant " + st.tenant + " over quota on shard " +
                        std::to_string(s));
          }
        }
      }
    }
  }
  m.stop();
  pickup();
  report.op(pending.empty(), "every reported task picked up");
  const std::uint64_t bytes1 = dep->device_bytes();
  m.write_amp = window_user_bytes > 0 ? static_cast<double>(bytes1 - bytes0) /
                                            static_cast<double>(window_user_bytes)
                                      : 0.0;
  db_layer.finish(report, m.tasks);

  // Weighted fairness over the window: claims per unit weight.
  const std::vector<osprey::tenant::TenantStats> tenants1 = router.tenant_stats();
  std::vector<double> share;
  std::uint64_t rejects = 0;
  for (const osprey::tenant::TenantStats& after : tenants1) {
    for (const osprey::tenant::TenantStats& before : tenants0) {
      if (before.tenant != after.tenant || after.tenant.empty()) continue;
      share.push_back(static_cast<double>(after.claimed - before.claimed) /
                      after.config.weight);
      rejects += after.rejected - before.rejected;
    }
  }
  double sum = 0.0, sum_sq = 0.0;
  for (double x : share) {
    sum += x;
    sum_sq += x * x;
  }
  const double jain =
      sum_sq > 0 ? sum * sum / (static_cast<double>(share.size()) * sum_sq) : 0.0;
  if (share.size() != kTenantCount || jain < 0.99) {
    report.fail("weighted Jain index " + std::to_string(jain) + " below 0.99");
  }
  if (rejects > 0) report.fail("admission rejected a submit under quota");

  if (Tracer::enabled()) {
    const double n = static_cast<double>(std::max<std::uint64_t>(m.tasks, 1));
    report.set("tenant.weighted_jain", jain, "ratio");
    report.set("tenant.admit_rejects", static_cast<double>(rejects), "count");
    report.set("shard.scatter_ops_per_task",
               static_cast<double>(router.scatter_ops() - scatter0) / n, "count");
    report.set("repl.records_per_pump",
               pumps > 0 ? static_cast<double>(records_shipped) / pumps : 0.0, "count");
    report.set("repl.pump_busy_share", pump_s / m.window_s, "ratio");
    std::uint64_t syncs = 0, bytes = 0;
    for (int s = 0; s < kShards; ++s) {
      const osprey::db::wal::WalStats w = cluster.group(s).leader()->wal()->stats();
      syncs += w.syncs - wal0[s].syncs;
      bytes += w.bytes_logged - wal0[s].bytes_logged;
    }
    report.set("wal.syncs_per_task", syncs / n, "count");
    report.set("wal.append_bytes_per_task", bytes / n, "bytes");
  }
  finish_traced(report, options, m.tasks);

  // Every picked-up task must be complete with the runner's result, and no
  // completed task may be left unpicked.
  for (TaskId id : ledger.picked_ids) {
    verify_result(router.peek_result(id), id, ledger, report);
  }
  auto stats = router.stats();
  report.op(stats.ok() && stats.value().input_queue == 0, "input queues drained");

  // Recovery: a follower restarts from its own log, the shards taking turns;
  // each shard's last restart is checked against its leader.
  report.op(dep->catch_up(report), "followers caught up");
  std::vector<eqsql::QueueStats> leader_stats;
  for (int s = 0; s < kShards; ++s) {
    auto st = leaders[s]->stats();
    report.op(st.ok(), "leader stats");
    leader_stats.push_back(st.ok() ? st.value() : eqsql::QueueStats{});
  }
  for (int rep = 0; rep < kRecoveryReps; ++rep) {
    const int s = rep % kShards;
    osprey::repl::ReplicaNode* follower =
        cluster.group(s).node("follow" + std::to_string(s));
    report.op(follower != nullptr && follower->stop().is_ok(), "follower stop");
    if (!follower) continue;
    const double t0 = now_s();
    auto info = follower->recover_from_disk();
    m.recovery.add(now_s() - t0);
    report.op(info.ok(), "follower recover_from_disk");
    if (!info.ok() || rep + kShards < kRecoveryReps) continue;
    auto api = follower->connect();
    auto st = api.ok() ? api.value()->stats()
                       : osprey::Result<eqsql::QueueStats>(api.error());
    report.op(st.ok(), "follower stats");
    if (st.ok() && (st.value().complete != leader_stats[s].complete ||
                    st.value().queued != leader_stats[s].queued)) {
      report.fail("recovered follower of shard " + std::to_string(s) +
                  " differs from its leader");
    }
  }
  report_end_to_end(report, m);
  return report;
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "cycle_history" || name == "campaign_threads" ||
         name == "durable_lsm" || name == "sharded_tenants";
}

Report run_workload(const Options& options) {
  Tracer::clear();
  osprey::obs::telemetry().reset();
  if (options.workload == "cycle_history") return run_cycle_history(options);
  if (options.workload == "campaign_threads") return run_campaign_threads(options);
  if (options.workload == "durable_lsm") return run_durable_lsm(options);
  return run_sharded_tenants(options);
}

}  // namespace perfbench
