#include "layers.h"

#include <sys/resource.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <utility>

#include "core/optimizer.h"
#include "core/query_language.h"
#include "core/relation_catalog.h"
#include "rounds.h"
#include "dsms/configuration_runtime.h"
#include "dsms/hfta.h"
#include "dsms/sharded_runtime.h"
#include "obs/telemetry.h"
#include "stream/trace.h"
#include "stream/trace_stats.h"

namespace perfbench {

using streamagg::ConfigurationRuntime;
using streamagg::Hfta;
using streamagg::Record;
using streamagg::RuntimeCounters;
using streamagg::RuntimeRelationSpec;
using streamagg::ShardedRuntime;
using streamagg::TelemetryLevel;

namespace {

/// Standalone layer calls are repeated this often and reported as medians.
constexpr int kRepeats = 5;
/// kOff/kFull replay pairs behind obs.kfull_tax_ns_per_record.
constexpr int kTelemetryPairs = 3;
/// Epoch ends at which the sharded replay stops for Quiesce, snapshot and
/// FlushEpoch; each such stop rebuilds the merged HFTA twice more.
constexpr size_t kShardedProbes = 20;

using Runs = std::vector<std::pair<size_t, size_t>>;

/// Splits `records` into maximal same-epoch runs.
Runs EpochRuns(const Workload& w, const std::vector<Record>& records) {
  Runs runs;
  for (size_t i = 0; i < records.size();) {
    const uint64_t e = w.EpochOf(records[i]);
    size_t end = i + 1;
    while (end < records.size() && w.EpochOf(records[end]) == e) ++end;
    runs.emplace_back(i, end);
    i = end;
  }
  return runs;
}

/// Feeds records[begin, end) in calls of `batch` records (ProcessRecord
/// when 1).
template <typename Runtime>
void FeedRun(Runtime& runtime, size_t batch,
             const std::vector<Record>& records, size_t begin, size_t end) {
  if (batch == 1) {
    for (size_t i = begin; i < end; ++i) runtime.ProcessRecord(records[i]);
    return;
  }
  for (size_t i = begin; i < end; i += batch) {
    runtime.ProcessBatch(std::span<const Record>(
        records.data() + i, std::min(batch, end - i)));
  }
}

/// One replay's totals: the point a c1/c2 fit takes.
struct CostPoint {
  double ns = 0.0;
  double records = 0.0;
  double probes = 0.0;
  double transfers = 0.0;
};

/// The post-planning records replayed through one ConfigurationRuntime,
/// epoch by epoch, with an explicit (timed) FlushEpoch at each end.
struct SerialReplay {
  double wall_ns = 0.0;  ///< Ingest calls plus flushes.
  std::vector<double> flush_us;
  std::unique_ptr<ConfigurationRuntime> runtime;

  CostPoint Point() const {
    const RuntimeCounters& c = runtime->counters();
    return {wall_ns, static_cast<double>(c.records),
            static_cast<double>(c.total_probes()),
            static_cast<double>(c.total_transfers())};
  }
};

SerialReplay ReplaySerial(const Workload& w,
                          const std::vector<RuntimeRelationSpec>& specs,
                          const std::vector<Record>& records, const Runs& runs,
                          TelemetryLevel level, Tally* tally) {
  SerialReplay out;
  auto made = ConfigurationRuntime::Make(w.schema, specs, w.epoch_seconds);
  tally->Op(made.ok(),
            "ConfigurationRuntime::Make: " + made.status().ToString());
  if (!made.ok()) return out;
  out.runtime = std::move(made).value();
  out.runtime->set_telemetry_level(level);
  for (const auto& [begin, end] : runs) {
    const uint64_t a = NowNanos();
    FeedRun(*out.runtime, w.batch, records, begin, end);
    const uint64_t b = NowNanos();
    out.runtime->FlushEpoch();
    const uint64_t c = NowNanos();
    out.flush_us.push_back(static_cast<double>(c - b) / 1e3);
    out.wall_ns += static_cast<double>(c - a);
  }
  return out;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

/// The same records through a 2 producer x 2 shard ShardedRuntime: one
/// pass timed like the engine (the runtime cuts epochs itself), and one
/// pass that stops at up to kShardedProbes evenly spaced epoch ends to time
/// Quiesce, a telemetry snapshot and FlushEpoch. Calls carry at least 64
/// records: with two producers every call is striped and joined, so a
/// per-record feed would measure that hand-shake alone.
struct ShardedReplay {
  double wall_ns = 0.0;
  double cpu_ns = 0.0;
  uint64_t blocked_pushes = 0;
  double skew = 0.0;
  std::vector<double> quiesce_us;
  std::vector<double> snapshot_us;
  std::vector<double> barrier_us;
};

ShardedReplay ReplaySharded(const Workload& w,
                            const std::vector<RuntimeRelationSpec>& specs,
                            const std::vector<Record>& records,
                            const Runs& runs, Tally* tally) {
  ShardedReplay out;
  ShardedRuntime::Options options;
  options.num_producers = 2;
  options.num_shards = 2;
  options.queue_capacity = w.options.shard_queue_capacity;
  const size_t batch = std::max<size_t>(64, w.batch);
  {
    auto made =
        ShardedRuntime::Make(w.schema, specs, w.epoch_seconds, options);
    tally->Op(made.ok(), "ShardedRuntime::Make: " + made.status().ToString());
    if (!made.ok()) return out;
    std::unique_ptr<ShardedRuntime> runtime = std::move(made).value();
    const double cpu0 = CpuSeconds();
    const uint64_t a = NowNanos();
    FeedRun(*runtime, batch, records, 0, records.size());
    runtime->FlushEpoch();
    const uint64_t b = NowNanos();
    out.cpu_ns = (CpuSeconds() - cpu0) * 1e9;
    out.wall_ns = static_cast<double>(b - a);
    double max_records = 0.0;
    double sum_records = 0.0;
    for (int s = 0; s < runtime->num_shards(); ++s) {
      const streamagg::ShardIngestStats stats = runtime->shard_stats(s);
      out.blocked_pushes += stats.blocked_pushes;
      max_records = std::max(max_records, static_cast<double>(stats.records));
      sum_records += static_cast<double>(stats.records);
    }
    out.skew = max_records * runtime->num_shards() / std::max(1.0, sum_records);
  }
  auto made = ShardedRuntime::Make(w.schema, specs, w.epoch_seconds, options);
  tally->Op(made.ok(), "ShardedRuntime::Make: " + made.status().ToString());
  if (!made.ok()) return out;
  std::unique_ptr<ShardedRuntime> runtime = std::move(made).value();
  const size_t stride = std::max<size_t>(1, runs.size() / kShardedProbes);
  for (size_t k = 0; k < runs.size(); ++k) {
    FeedRun(*runtime, batch, records, runs[k].first, runs[k].second);
    if (k % stride != stride - 1) continue;
    const uint64_t a = NowNanos();
    runtime->Quiesce();
    const uint64_t b = NowNanos();
    const streamagg::TelemetrySnapshot snapshot =
        streamagg::BuildTelemetrySnapshot(*runtime, w.schema);
    const uint64_t c = NowNanos();
    runtime->FlushEpoch();
    const uint64_t d = NowNanos();
    out.quiesce_us.push_back(static_cast<double>(b - a) / 1e3);
    out.snapshot_us.push_back(static_cast<double>(c - b) / 1e3);
    out.barrier_us.push_back(static_cast<double>(d - c) / 1e3);
  }
  return out;
}

/// Least-squares fit of ns = c0 * records + c1 * probes + c2 * transfers
/// over whole replays; returns {c0, c1, c2} in ns (zeros if singular). The
/// c0 term takes the per-record work the paper's model does not price
/// (call, projection, hashing); without it c1 and c2 absorb it.
std::array<double, 3> FitCosts(const std::vector<CostPoint>& points) {
  // Normal equations A x = b, solved by Gaussian elimination.
  double a[3][4] = {};
  for (const CostPoint& p : points) {
    const double x[3] = {p.records, p.probes, p.transfers};
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) a[i][j] += x[i] * x[j];
      a[i][3] += x[i] * p.ns;
    }
  }
  for (int col = 0; col < 3; ++col) {
    int pivot = col;
    for (int row = col + 1; row < 3; ++row) {
      if (std::abs(a[row][col]) > std::abs(a[pivot][col])) pivot = row;
    }
    if (std::abs(a[pivot][col]) < 1e-12) return {0.0, 0.0, 0.0};
    for (int k = 0; k < 4; ++k) std::swap(a[col][k], a[pivot][k]);
    for (int row = 0; row < 3; ++row) {
      if (row == col) continue;
      const double f = a[row][col] / a[col][col];
      for (int k = col; k < 4; ++k) a[row][k] -= f * a[col][k];
    }
  }
  return {a[0][3] / a[0][0], a[1][3] / a[1][1], a[2][3] / a[2][2]};
}

/// Median wall milliseconds of kRepeats calls of `fn`.
template <typename Fn>
double MedianMillis(Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < kRepeats; ++i) {
    const uint64_t a = NowNanos();
    fn();
    ms.push_back(static_cast<double>(NowNanos() - a) / 1e6);
  }
  return Median(ms);
}

std::vector<double> Values(const std::vector<RoundResult>& rounds,
                           double (*get)(const RoundResult&)) {
  std::vector<double> out;
  for (const RoundResult& r : rounds) out.push_back(get(r));
  return out;
}

}  // namespace

std::vector<Metric> TracedRun(const Workload& w, const Reference& ref,
                              double seconds, const std::string& out_prefix,
                              uint32_t trace_id, Tally* tally) {
  // Untraced and traced rounds alternate; their ingest rates give the
  // tracing overhead. Spans of the first traced round are kept.
  SpanRecorder spans(trace_id);
  std::vector<RoundResult> untraced;
  std::vector<RoundResult> traced;
  const uint64_t deadline =
      NowNanos() + static_cast<uint64_t>(seconds * 1e9);
  do {
    RoundOptions plain;
    plain.measure_rss = untraced.empty();
    plain.keep_layer_inputs = untraced.empty();
    untraced.push_back(RunRound(w, ref, plain, tally));
    SpanRecorder extra(trace_id);
    RoundOptions with_spans;
    with_spans.spans = traced.empty() ? &spans : &extra;
    traced.push_back(RunRound(w, ref, with_spans, tally));
  } while (NowNanos() < deadline);
  const RoundResult& u0 = untraced.front();
  if (u0.initial_plan == nullptr) return {};
  const streamagg::OptimizedPlan& plan = *u0.initial_plan;
  auto specs_or = plan.ToRuntimeSpecs();
  tally->Op(specs_or.ok(), "ToRuntimeSpecs: " + specs_or.status().ToString());
  if (!specs_or.ok()) return {};
  const std::vector<RuntimeRelationSpec> specs = std::move(specs_or).value();

  // The engine's own inputs: the sample it planned from, and the filtered
  // records it received after planning.
  streamagg::Trace sample(w.schema);
  std::vector<Record> post;
  for (size_t i = 0; i < w.records.size(); ++i) {
    if (!w.Passes(w.records[i])) continue;
    if (sample.size() < w.options.sample_size) sample.Append(w.records[i]);
    if (i >= w.plan_call_end) post.push_back(w.records[i]);
  }
  const Runs runs = EpochRuns(w, post);
  const double offered = static_cast<double>(u0.offered);
  const double records = static_cast<double>(post.size());
  const bool serial = w.options.num_shards == 1 && w.options.num_producers == 1;
  const double budget =
      w.options.memory_words / static_cast<double>(w.options.num_shards);

  const int layers = spans.Begin("layers");
  // Sampling statistics and the optimizer, on the engine's sample.
  int span = spans.Begin("sampling.stats");
  const double stats_ms = MedianMillis([&] {
    streamagg::TraceStats stats(&sample);
    const streamagg::RelationCatalog catalog =
        streamagg::RelationCatalog::FromTrace(&stats, w.options.clustered);
    for (uint32_t mask = 1; mask < 16; ++mask) {
      catalog.GroupCount(streamagg::AttributeSet(mask));
      catalog.FlowLength(streamagg::AttributeSet(mask));
    }
  });
  spans.End(span);
  streamagg::TraceStats stats(&sample);
  const streamagg::RelationCatalog catalog =
      streamagg::RelationCatalog::FromTrace(&stats, w.options.clustered);
  std::vector<streamagg::QueryDef> defs;
  for (const std::string& text : w.queries) {
    defs.push_back(streamagg::ParseQuery(w.schema, text)->def);
  }
  const streamagg::Optimizer optimizer(w.options.optimizer);
  (void)optimizer.Optimize(catalog, defs, budget);  // Warms the lazy stats.
  span = spans.Begin("optimizer.optimize");
  const double optimize_ms =
      MedianMillis([&] { (void)optimizer.Optimize(catalog, defs, budget); });
  spans.End(span);
  // Plans for the c1/c2 fit: the phantom-choosing strategy and the
  // no-phantom baseline at half, the same and twice the budget (the live
  // plan itself is the replay below), so probes and transfers vary apart.
  std::vector<std::vector<RuntimeRelationSpec>> fit_specs;
  for (const streamagg::OptimizeStrategy strategy :
       {w.options.optimizer.strategy,
        streamagg::OptimizeStrategy::kNoPhantoms}) {
    for (const double scale : {0.5, 1.0, 2.0}) {
      if (strategy == w.options.optimizer.strategy && scale == 1.0) continue;
      streamagg::OptimizerOptions options = w.options.optimizer;
      options.strategy = strategy;
      auto other =
          streamagg::Optimizer(options).Optimize(catalog, defs, budget * scale);
      tally->Op(other.ok(), "fit plan: " + other.status().ToString());
      if (!other.ok()) continue;
      auto other_specs = other->ToRuntimeSpecs();
      tally->Op(other_specs.ok(),
                "fit specs: " + other_specs.status().ToString());
      if (other_specs.ok()) fit_specs.push_back(std::move(other_specs).value());
    }
  }

  span = spans.Begin("query_language.parse");
  std::vector<std::string> texts = w.queries;
  for (const ChurnOp& op : w.churn) {
    if (op.add) texts.push_back(op.text);
  }
  std::vector<double> parse_us;
  for (int rep = 0; rep < 20; ++rep) {
    for (const std::string& text : texts) {
      const uint64_t a = NowNanos();
      const auto parsed = streamagg::ParseQuery(w.schema, text);
      parse_us.push_back(static_cast<double>(NowNanos() - a) / 1e3);
      if (rep == 0) tally->Op(parsed.ok(), "ParseQuery(" + text + ")");
    }
  }
  spans.End(span);

  // Runtime replays of the post-planning records under the initial plan.
  // kOff and kFull replays alternate, kTelemetryPairs each, so neither
  // level always runs on a colder heap; the last kFull replay is kept.
  SerialReplay full;
  std::vector<double> full_ns;
  std::vector<double> off_ns;
  for (int pair = 0; pair < kTelemetryPairs; ++pair) {
    span = spans.Begin("replay.serial_koff");
    off_ns.push_back(
        ReplaySerial(w, specs, post, runs, TelemetryLevel::kOff, tally)
            .wall_ns);
    spans.End(span);
    span = spans.Begin("replay.serial_kfull");
    full = ReplaySerial(w, specs, post, runs, TelemetryLevel::kFull, tally);
    full_ns.push_back(full.wall_ns);
    spans.End(span);
  }
  if (full.runtime == nullptr) return {};
  std::vector<CostPoint> points = {full.Point()};
  span = spans.Begin("replay.fit_plans");
  for (const auto& other : fit_specs) {
    const SerialReplay replay =
        ReplaySerial(w, other, post, runs, TelemetryLevel::kFull, tally);
    if (replay.runtime != nullptr) points.push_back(replay.Point());
  }
  spans.End(span);
  span = spans.Begin("replay.sharded_2x2");
  const ShardedReplay sharded = ReplaySharded(w, specs, post, runs, tally);
  spans.End(span);

  // HFTA: fold the replay's results into a fresh HFTA.
  const Hfta& replay_hfta = full.runtime->hfta();
  std::vector<std::vector<streamagg::MetricSpec>> metrics;
  uint64_t replay_rows = 0;
  for (int q = 0; q < replay_hfta.num_queries(); ++q) {
    metrics.push_back(replay_hfta.query_metrics(q));
    replay_rows += replay_hfta.TotalGroups(q);
  }
  span = spans.Begin("hfta.merge");
  const double merge_ms = MedianMillis([&] {
    Hfta fresh(metrics);
    fresh.MergeFrom(replay_hfta);
  });
  spans.End(span);

  // Adaptive re-plans the engine recorded; without any, the two calls a
  // re-plan makes are timed standalone: ReplanSubtrees of the first
  // feeding tree and the merge of the retiring runtime's HFTA.
  std::vector<double> replan_optimize_ms;
  std::vector<double> replan_merge_ms;
  for (const streamagg::ReplanEvent& e : u0.final_snapshot.replans) {
    replan_optimize_ms.push_back(e.optimize_millis);
    replan_merge_ms.push_back(e.merge_millis);
  }
  if (replan_optimize_ms.empty()) {
    span = spans.Begin("adaptive.replan_standalone");
    for (int rep = 0; rep < kRepeats; ++rep) {
      const uint64_t a = NowNanos();
      auto replanned = optimizer.ReplanSubtrees(catalog, plan, {0}, budget);
      const uint64_t b = NowNanos();
      Hfta fresh(metrics);
      fresh.MergeFrom(replay_hfta);
      const uint64_t c = NowNanos();
      replan_optimize_ms.push_back(static_cast<double>(b - a) / 1e6);
      replan_merge_ms.push_back(static_cast<double>(c - b) / 1e6);
      if (rep == 0) tally->Op(replanned.ok(), "ReplanSubtrees");
    }
    spans.End(span);
  }
  spans.End(layers);

  std::vector<double> churn_merge_ms;
  std::vector<double> churn_optimize_ms;
  double graft_hits = 0;
  for (const streamagg::QueryChurnEvent& e : u0.churn_events) {
    churn_merge_ms.push_back(e.merge_millis);
    churn_optimize_ms.push_back(e.optimize_millis);
    if (e.add && e.grafted) ++graft_hits;
  }
  double observed = 0, predicted = 0, tables = 0;
  for (const streamagg::TableTelemetry& t : u0.final_snapshot.tables) {
    if (!t.is_query) continue;
    observed += t.observed_collision_rate;
    predicted += t.has_prediction() ? t.predicted_collision_rate : 0.0;
    ++tables;
  }
  tables = std::max(1.0, tables);

  const RuntimeCounters& counters = full.runtime->counters();
  const auto per_record = [&](double v) { return v / records; };
  const double c1 = w.options.optimizer.cost.c1;
  const double c2 = w.options.optimizer.cost.c2;
  const double epochs = static_cast<double>(runs.size());
  const double predicted_cost =
      plan.per_record_cost + plan.end_of_epoch_cost * epochs / records;
  const double measured_cost = per_record(counters.TotalCost(c1, c2));
  double flush_ns = 0.0;
  for (double us : full.flush_us) flush_ns += us * 1e3;
  const double flush_p50 = Median(full.flush_us);
  const std::array<double, 3> costs = FitCosts(points);

  const double engine_ns = Median(Values(untraced, [](const RoundResult& r) {
    return r.ingest_s / static_cast<double>(r.offered) * 1e9;
  }));
  const double runtime_ns =
      (serial ? full.wall_ns : sharded.wall_ns) / offered;
  std::vector<double> close_us;
  for (const RoundResult& r : untraced) {
    close_us.insert(close_us.end(), r.close_us.begin(), r.close_us.end());
  }
  const double closing_flush_us =
      serial ? flush_p50 : Median(sharded.barrier_us);
  const double untraced_mrps =
      Median(Values(untraced, [](const RoundResult& r) { return r.mrps(); }));
  const double traced_mrps =
      Median(Values(traced, [](const RoundResult& r) { return r.mrps(); }));
  const double buffer_ms = Median(
      Values(untraced, [](const RoundResult& r) { return r.buffer_ms; }));
  const double plan_call_ms = Median(
      Values(untraced, [](const RoundResult& r) { return r.plan_call_ms; }));
  const double rows = std::max(1.0, static_cast<double>(u0.hfta_rows));
  const double snapshot_us =
      Median(serial ? traced.front().snapshot_us : sharded.snapshot_us);

  std::vector<Metric> m = {
      {"engine.self_ns_per_record", engine_ns - runtime_ns, "ns/record"},
      {"engine.boundary_self_us_p50", Median(close_us) - closing_flush_us,
       "us"},
      {"engine.churn_barrier_ms_p50", Median(churn_merge_ms), "ms"},
      {"setup.buffer_ms", buffer_ms, "ms"},
      {"setup.plan_call_ms", plan_call_ms, "ms"},
      {"sampling.stats_ms", stats_ms, "ms"},
      {"optimizer.optimize_ms", optimize_ms, "ms"},
      {"optimizer.churn_optimize_ms_p50", Median(churn_optimize_ms), "ms"},
      {"optimizer.graft_hits", graft_hits, "count"},
      {"optimizer.predicted_cost_per_record", predicted_cost, "c1/record"},
      {"optimizer.measured_over_predicted", measured_cost / predicted_cost,
       "ratio"},
      {"query_language.parse_us_p50", Median(parse_us), "us"},
      {"adaptive.replans", static_cast<double>(u0.reoptimizations), "count"},
      {"adaptive.replan_optimize_ms_p50", Median(replan_optimize_ms), "ms"},
      {"adaptive.replan_merge_ms_p50", Median(replan_merge_ms), "ms"},
      {"adaptive.replan_merge_ms_max", Quantile(replan_merge_ms, 1.0), "ms"},
      {"lfta.ns_per_record", per_record(full.wall_ns - flush_ns), "ns/record"},
      {"lfta.flush_us_p50", flush_p50, "us"},
      {"lfta.probes_per_record",
       per_record(static_cast<double>(counters.total_probes())), "count"},
      {"lfta.transfers_per_record",
       per_record(static_cast<double>(counters.total_transfers())), "count"},
      {"lfta.flush_transfers_per_epoch",
       static_cast<double>(counters.flush_transfers) / epochs, "count"},
      {"lfta.collision_rate_observed", observed / tables, "ratio"},
      {"lfta.collision_rate_predicted", predicted / tables, "ratio"},
      {"lfta.c0_ns", costs[0], "ns"},
      {"lfta.c1_ns", costs[1], "ns"},
      {"lfta.c2_ns", costs[2], "ns"},
      {"obs.kfull_tax_ns_per_record",
       per_record(Median(full_ns) - Median(off_ns)), "ns/record"},
      {"obs.snapshot_us_p50", snapshot_us, "us"},
      {"hfta.rows", static_cast<double>(u0.hfta_rows), "count"},
      {"hfta.bytes_per_row", u0.rss_mb * 1048576.0 / rows, "B"},
      {"hfta.merge_ns_per_row",
       merge_ms * 1e6 / std::max(1.0, static_cast<double>(replay_rows)), "ns"},
      {"sharded.barrier_us_p50", Median(sharded.barrier_us), "us"},
      {"sharded.quiesce_us_p50", Median(sharded.quiesce_us), "us"},
      {"sharded.handoff_ns_per_record",
       per_record(sharded.wall_ns - full.wall_ns), "ns/record"},
      {"sharded.cpu_ns_per_record", per_record(sharded.cpu_ns), "ns/record"},
      {"sharded.blocked_pushes_per_mrec",
       per_record(static_cast<double>(sharded.blocked_pushes)) * 1e6, "count"},
      {"sharded.shard_skew", sharded.skew, "ratio"},
      {"sharded.speedup_vs_serial",
       full.wall_ns / std::max(1.0, sharded.wall_ns), "ratio"},
      {"trace.overhead_pct", (untraced_mrps / traced_mrps - 1.0) * 100.0, "%"},
  };

  const std::string table = spans.LayerTable();
  std::ofstream(out_prefix + ".layers.txt") << table;
  const bool wrote = spans.WriteChromeTrace(out_prefix + ".trace.json");
  tally->Op(wrote, "cannot write " + out_prefix + ".trace.json");
  std::printf("# %s: spans of the first traced round and the layer calls\n",
              w.name.c_str());
  size_t from = 0;
  while (from < table.size()) {
    const size_t nl = table.find('\n', from);
    std::printf("# %s\n", table.substr(from, nl - from).c_str());
    from = nl + 1;
  }
  std::printf("# %s: traced %.4f Mrec/s vs untraced %.4f Mrec/s over %zu "
              "round pairs; Chrome trace in %s.trace.json\n",
              w.name.c_str(), traced_mrps, untraced_mrps, traced.size(),
              out_prefix.c_str());
  for (const streamagg::ReplanEvent& e : u0.final_snapshot.replans) {
    std::printf("# %s: re-plan at epoch %llu trigger %s drift %.3f replanned "
                "%d pinned %d optimize %.3f ms merge %.3f ms\n",
                w.name.c_str(), static_cast<unsigned long long>(e.epoch),
                e.trigger_relation.c_str(), e.drift, e.replanned_nodes,
                e.pinned_nodes, e.optimize_millis, e.merge_millis);
  }
  return m;
}

}  // namespace perfbench
