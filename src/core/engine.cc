#include "core/engine.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>
#include <optional>
#include <set>

#include "core/feeding_graph.h"
#include "obs/trace.h"
#include "stream/trace_stats.h"
#include "util/timer.h"

namespace streamagg {

Status StreamAggEngine::ValidateOptions(const Options& options) {
  if (options.num_shards < 1) {
    return Status::InvalidArgument(
        "Options::num_shards must be >= 1 (got " +
        std::to_string(options.num_shards) + ")");
  }
  if (options.num_producers < 1) {
    return Status::InvalidArgument(
        "Options::num_producers must be >= 1 (got " +
        std::to_string(options.num_producers) + ")");
  }
  if (options.shard_queue_capacity < 2) {
    return Status::InvalidArgument(
        "Options::shard_queue_capacity must be >= 2 (got " +
        std::to_string(options.shard_queue_capacity) + ")");
  }
  STREAMAGG_RETURN_NOT_OK(OverloadController::ValidateOptions(options.overload));
  if (options.overload.enabled &&
      options.telemetry_level == TelemetryLevel::kOff) {
    // The controller's pressure signals are the kCounters-tier tallies;
    // kOff compiles it out of the loop entirely.
    return Status::InvalidArgument(
        "Options::overload.enabled requires Options::telemetry_level above "
        "kOff (got kOff)");
  }
  // adaptive composes with num_shards/num_producers: the drift check and
  // plan swap run at the sharded runtime's quiescence barrier. Query churn
  // composes with all of the above — AddQuery/DropQuery act at the same
  // barrier — so no combination involving it is rejected here.
  return Status::OK();
}

Result<std::unique_ptr<StreamAggEngine>> StreamAggEngine::FromQueryTexts(
    const Schema& schema, const std::vector<std::string>& queries,
    Options options) {
  STREAMAGG_RETURN_NOT_OK(ValidateOptions(options));
  STREAMAGG_ASSIGN_OR_RETURN(std::vector<ParsedQuery> parsed,
                             ParseQuerySet(schema, queries));
  std::vector<QueryDef> defs;
  defs.reserve(parsed.size());
  for (const ParsedQuery& q : parsed) defs.push_back(q.def);
  if (parsed.front().epoch_seconds > 0.0) {
    options.epoch_seconds = parsed.front().epoch_seconds;
  }
  return std::unique_ptr<StreamAggEngine>(new StreamAggEngine(
      schema, std::move(defs), std::move(parsed), options));
}

Result<std::unique_ptr<StreamAggEngine>> StreamAggEngine::FromQueryDefs(
    const Schema& schema, std::vector<QueryDef> queries, Options options) {
  STREAMAGG_RETURN_NOT_OK(ValidateOptions(options));
  if (queries.empty()) return Status::InvalidArgument("no queries");
  for (const QueryDef& q : queries) {
    if (q.group_by.empty() || !q.group_by.IsSubsetOf(schema.AllAttributes())) {
      return Status::InvalidArgument("query attributes invalid for schema");
    }
  }
  return std::unique_ptr<StreamAggEngine>(new StreamAggEngine(
      schema, std::move(queries), {}, options));
}

Result<std::unique_ptr<StreamAggEngine>> StreamAggEngine::FromPinnedPlan(
    const Schema& schema, OptimizedPlan plan,
    std::map<uint32_t, uint64_t> catalog_counts, Options options) {
  std::vector<QueryDef> queries = plan.config.QueryDefs();
  if (queries.empty()) return Status::InvalidArgument("plan has no queries");
  STREAMAGG_ASSIGN_OR_RETURN(
      std::unique_ptr<StreamAggEngine> engine,
      FromQueryDefs(schema, std::move(queries), options));
  // Statistics snapshot for the adaptive path. A plan alone cannot yield
  // one, so adaptivity requires counts; without it, unusable counts are
  // simply ignored.
  if (options.adaptive && catalog_counts.empty()) {
    return Status::InvalidArgument(
        "Options::adaptive requires catalog counts for pinned-plan "
        "engines (got adaptive=true with 0 catalog counts)");
  }
  if (!catalog_counts.empty()) {
    auto catalog =
        RelationCatalog::Synthetic(schema, std::move(catalog_counts));
    if (catalog.ok()) {
      engine->catalog_ = std::make_unique<RelationCatalog>(std::move(*catalog));
    } else if (options.adaptive) {
      return catalog.status();
    }
  }
  engine->plan_ = std::make_unique<OptimizedPlan>(std::move(plan));
  STREAMAGG_RETURN_NOT_OK(engine->InstallRuntime());
  engine->sample_.reset();  // No sampling phase.
  return engine;
}

namespace {

/// A ParsedQuery stand-in for def-built queries: the grouping attributes,
/// count(*) and the declared metrics as outputs, no filter, no relation.
/// Keeps parsed_queries() one-per-id regardless of how queries arrived.
ParsedQuery SynthesizeParsed(const Schema& schema, const QueryDef& def) {
  ParsedQuery q;
  q.def = def;
  for (int attr : def.group_by.Indices()) {
    QueryOutput out;
    out.kind = QueryOutput::Kind::kGroupAttr;
    out.attr = attr;
    out.name = schema.name(attr);
    q.outputs.push_back(std::move(out));
  }
  QueryOutput count;
  count.kind = QueryOutput::Kind::kCount;
  count.name = "cnt";
  q.outputs.push_back(std::move(count));
  for (const MetricSpec& m : def.metrics) {
    QueryOutput out;
    out.kind = m.op == AggregateOp::kSum   ? QueryOutput::Kind::kSum
               : m.op == AggregateOp::kMin ? QueryOutput::Kind::kMin
                                           : QueryOutput::Kind::kMax;
    out.attr = m.attr;
    out.name = std::string(m.op == AggregateOp::kSum   ? "sum_"
                           : m.op == AggregateOp::kMin ? "min_"
                                                       : "max_") +
               schema.name(m.attr);
    q.outputs.push_back(std::move(out));
  }
  return q;
}

/// True when `record` passes every shared where-clause predicate.
bool PassesFilters(const std::vector<AttributePredicate>& filters,
                   const Record& record) {
  for (const AttributePredicate& f : filters) {
    if (!f.Matches(record)) return false;
  }
  return true;
}

}  // namespace

StreamAggEngine::StreamAggEngine(const Schema& schema,
                                 std::vector<QueryDef> queries,
                                 std::vector<ParsedQuery> parsed,
                                 Options options)
    : schema_(schema),
      queries_(std::move(queries)),
      parsed_(std::move(parsed)),
      options_(options),
      optimizer_(options.optimizer),
      collision_model_(
          MakeCollisionModel(options.optimizer.collision_model)),
      sample_(std::make_unique<Trace>(schema)) {
  sample_->Reserve(options_.sample_size);
  std::vector<std::vector<MetricSpec>> per_query_metrics;
  per_query_metrics.reserve(queries_.size());
  for (const QueryDef& q : queries_) per_query_metrics.push_back(q.metrics);
  accumulated_hfta_ = std::make_unique<Hfta>(std::move(per_query_metrics));
  // Initial queries take ids 0..n-1, each owning its dense slot.
  handles_.resize(queries_.size());
  dense_refcount_.assign(queries_.size(), 1);
  for (size_t i = 0; i < handles_.size(); ++i) {
    handles_[i].dense = static_cast<int>(i);
  }
  if (!parsed_.empty()) {
    shared_filters_ = parsed_.front().filters;
    relation_name_ = parsed_.front().relation;
  } else {
    parsed_.reserve(queries_.size());
    for (const QueryDef& q : queries_) {
      parsed_.push_back(SynthesizeParsed(schema_, q));
    }
  }
}

Status StreamAggEngine::PlanFromSample() {
  sample_stats_ = std::make_unique<TraceStats>(sample_.get());
  catalog_ = std::make_unique<RelationCatalog>(
      RelationCatalog::FromTrace(sample_stats_.get(), options_.clustered));
  STREAMAGG_ASSIGN_OR_RETURN(
      OptimizedPlan plan,
      optimizer_.Optimize(*catalog_, queries_, PlanningBudget()));
  last_optimize_millis_ = plan.optimize_millis;
  plan_ = std::make_unique<OptimizedPlan>(std::move(plan));
  STREAMAGG_RETURN_NOT_OK(InstallRuntime());
  // Replay the buffered sample — its records were never processed. One
  // record per call: a multi-producer runtime then stages the whole sample
  // on this thread in stream order, so its cost counters do not depend on
  // how producer threads interleave.
  WithRuntime([&](auto& runtime) {
    for (const Record& r : sample_->records()) runtime.ProcessRecord(r);
  });
  return Status::OK();
}

Status StreamAggEngine::InstallRuntime() {
  STREAMAGG_ASSIGN_OR_RETURN(std::vector<RuntimeRelationSpec> specs,
                             plan_->ToRuntimeSpecs());
  // Model predictions for the incoming runtime's tables: the cost model's
  // collision rate per configuration node, under the same statistics the
  // plan was optimized for. ToRuntimeSpecs preserves node order, so
  // planned_rates_[i] lines up with the runtime's table(i).
  planned_rates_.clear();
  std::optional<CostModel> cost_model;
  if (catalog_ != nullptr) {
    cost_model.emplace(catalog_.get(), collision_model_.get(),
                       options_.optimizer.cost);
    planned_rates_ = cost_model->CollisionRates(plan_->config, plan_->buckets);
  }
  // The incoming runtime's counters start at zero; reset the accumulation
  // baseline with them (see TakeRuntimeResults).
  live_counter_baseline_ = RuntimeCounters{};
  // A fresh runtime starts every table in hash mode; the adaptive boundary
  // re-decides from the new plan's own telemetry (trend runs restart at a
  // swap anyway — SnapshotsContinuous breaks there).
  probe_modes_.clear();
  // The overload controller outlives runtime swaps; each new plan only
  // re-prices its raw relations (and re-derives the shed plan, so the shed
  // floor stays in force on the fresh runtime). A pinned plan without
  // statistics gets uniform prices, which keep the shed floor (and the
  // watermark trend logic) in force.
  if (options_.overload.enabled) {
    if (overload_controller_ == nullptr) {
      overload_controller_ =
          std::make_unique<OverloadController>(options_.overload);
    }
    overload_controller_->PriceRelations(
        cost_model.has_value() ? &*cost_model : nullptr, *plan_, schema_);
  }
  if (options_.num_shards > 1 || options_.num_producers > 1) {
    ShardedRuntime::Options sharded_options;
    sharded_options.num_shards = options_.num_shards;
    sharded_options.num_producers = options_.num_producers;
    sharded_options.queue_capacity = options_.shard_queue_capacity;
    sharded_options.pin_threads = options_.pin_threads;
    if (options_.overload.enabled && options_.overload.rebalance) {
      sharded_options.rebalance_slots_per_shard =
          options_.overload.rebalance_slots_per_shard;
    }
    STREAMAGG_ASSIGN_OR_RETURN(
        std::unique_ptr<ShardedRuntime> sharded,
        ShardedRuntime::Make(schema_, std::move(specs), options_.epoch_seconds,
                             sharded_options));
    runtime_ = std::move(sharded);
  } else {
    STREAMAGG_ASSIGN_OR_RETURN(
        std::unique_ptr<ConfigurationRuntime> serial,
        ConfigurationRuntime::Make(schema_, std::move(specs),
                                   options_.epoch_seconds));
    runtime_ = std::move(serial);
  }
  WithRuntime([&](auto& runtime) {
    runtime.AdoptHfta(accumulated_hfta_->TakeEpoch(current_epoch_));
    runtime.set_telemetry_level(options_.telemetry_level);
  });
  return overload_controller_ != nullptr ? InstallShedPlan() : Status::OK();
}

Status StreamAggEngine::InstallShedPlan() {
  const ShedPlan& plan = overload_controller_->shed_plan();
  STREAMAGG_RETURN_NOT_OK(
      WithRuntime([&](auto& runtime) { return runtime.SetShedPlan(plan); }));
  // Every install is traced (initial arm, re-price after a probe-mode flip,
  // runtime swap and boundary updates alike), not just the changed ones.
  STREAMAGG_TRACE({
    const auto shedding = static_cast<uint32_t>(std::count_if(
        plan.numerators.begin(), plan.numerators.end(),
        [](uint32_t n) { return n > 0; }));
    FlightRecorder::Instance().RecordInstant(
        TraceEventType::kShedPlanInstall, current_epoch_,
        static_cast<uint32_t>(
            std::clamp(overload_controller_->target_fraction(), 0.0, 1.0) *
            1000.0),
        shedding);
  });
  return Status::OK();
}

Status StreamAggEngine::HandleEpochBoundary() {
  // Judge the epoch-snapshot history for a sustained drift trend. The
  // completed epoch's snapshot was just appended by CaptureEpochSnapshot
  // (capture is forced on under adaptive), so the trend window ends at the
  // epoch whose boundary we are standing on; a single noisy epoch cannot
  // trigger, only trend_epochs consecutive drifted ones can.
  CostModel cost_model(catalog_.get(), collision_model_.get(),
                       options_.optimizer.cost);
  const std::span<const TelemetrySnapshot> history(telemetry_history_);
  AdaptiveController::Options adaptive_options = options_.adaptive_options;
  if (adaptive_options.auto_tune_trend) {
    // Re-derive the trend cadence from the observed epoch-gap spread: a
    // jittery cadence demands more confirming epochs before any verdict
    // (drift, overload-independent probe modes) is acted on.
    adaptive_options =
        AdaptiveController::AutoTuneTrend(adaptive_options, history);
  }
  AdaptiveController controller(&cost_model, plan_.get(), adaptive_options);

  // Probe-mode policy (opt-in; docs/probe_kernel.md §3). Flips are
  // flag-only: the serial runtime has not flushed this boundary yet and
  // drains any pending sort run inside FlushEpoch regardless of the flag;
  // the sharded runtime sits quiescent behind the capture's barrier, which
  // is exactly where SetProbeModes is specified.
  if (adaptive_options.sort_enter_collision_rate <= 1.0) {
    std::vector<ProbeMode> modes = controller.DecideProbeModes(history);
    if (!modes.empty() && modes != probe_modes_) {
      STREAMAGG_RETURN_NOT_OK(WithRuntime(
          [&](auto& runtime) { return runtime.SetProbeModes(modes); }));
      probe_modes_ = std::move(modes);
      STREAMAGG_TRACE({
        uint32_t sort_tables = 0;
        for (ProbeMode m : probe_modes_) {
          if (m == ProbeMode::kSort) ++sort_tables;
        }
        FlightRecorder::Instance().RecordInstant(
            TraceEventType::kProbeModeFlip, current_epoch_, sort_tables,
            static_cast<uint32_t>(probe_modes_.size()));
      });
      if (overload_controller_ != nullptr) {
        // Keep the shed prices honest: a sort-mode root costs c1_sort + the
        // run dedup rate downstream, not c1 + the hash collision rate.
        // PriceRelations rebuilds the plan at the current target, so push
        // the re-derived plan into the runtime immediately.
        overload_controller_->PriceRelations(&cost_model, *plan_, schema_,
                                             probe_modes_);
        STREAMAGG_RETURN_NOT_OK(InstallShedPlan());
      }
    }
  }

  const AdaptiveController::TrendVerdict verdict =
      controller.AssessTrend(history);
  STREAMAGG_TRACE(FlightRecorder::Instance().RecordInstant(
      TraceEventType::kTrendAssess, current_epoch_,
      verdict.should_replan ? 1u : 0u,
      static_cast<uint32_t>(std::max(verdict.max_table, 0)),
      static_cast<uint32_t>(std::clamp(verdict.max_drift, 0.0, 4.0) *
                            1000.0)));
  if (!verdict.should_replan) return Status::OK();
  STREAMAGG_TRACE(const uint64_t replan_start =
                      FlightRecorder::Instance().enabled()
                          ? TelemetryNowNanos()
                          : 0);

  const Configuration& config = plan_->config;
  // The drifted tables condemn their whole feeding trees (verdict indices
  // line up with configuration nodes — ToRuntimeSpecs preserves order).
  std::vector<int> tree_root(static_cast<size_t>(config.num_nodes()));
  for (int i = 0; i < config.num_nodes(); ++i) {
    int r = i;
    while (config.node(r).parent >= 0) r = config.node(r).parent;
    tree_root[static_cast<size_t>(i)] = r;
  }
  std::set<int> drifted_roots;
  for (int t : verdict.drifted_tables) {
    if (t >= 0 && t < config.num_nodes()) {
      drifted_roots.insert(tree_root[static_cast<size_t>(t)]);
    }
  }
  std::set<uint32_t> drifted_masks;
  for (int i = 0; i < config.num_nodes(); ++i) {
    if (drifted_roots.count(tree_root[static_cast<size_t>(i)]) > 0) {
      drifted_masks.insert(config.node(i).attrs.mask());
    }
  }

  // The merged catalog: fresh statistics from live (pre-flush) table
  // occupancy for the drifted trees' relations — the serial runtime has not
  // flushed the boundary yet, and the sharded runtime was quiesced (not
  // flushed) by the capture above — and the prior statistics everywhere
  // else, so relations that did not drift re-cost exactly as before.
  const std::map<uint32_t, uint64_t> estimates = WithRuntime(
      [&](auto& runtime) { return controller.EstimateGroupCounts(runtime); });
  std::vector<AttributeSet> group_bys;
  for (const QueryDef& q : queries_) group_bys.push_back(q.group_by);
  STREAMAGG_ASSIGN_OR_RETURN(FeedingGraph graph,
                             FeedingGraph::Build(schema_, group_bys));
  std::set<AttributeSet> interesting(group_bys.begin(), group_bys.end());
  for (AttributeSet p : graph.phantoms()) interesting.insert(p);
  for (int i = 0; i < schema_.num_attributes(); ++i) {
    interesting.insert(AttributeSet::Single(i));
  }
  std::map<uint32_t, uint64_t> counts;
  for (AttributeSet set : interesting) {
    auto it = estimates.find(set.mask());
    const bool fresh =
        drifted_masks.count(set.mask()) > 0 && it != estimates.end();
    counts[set.mask()] = fresh ? it->second : catalog_->GroupCount(set);
  }
  const double flow_length = catalog_->FlowLength(schema_.AllAttributes());
  STREAMAGG_ASSIGN_OR_RETURN(
      RelationCatalog next_catalog,
      RelationCatalog::Synthetic(schema_, std::move(counts), flow_length));

  ReplanEvent event;
  event.epoch = current_epoch_;  // The epoch whose boundary this is.
  if (verdict.max_table >= 0 && verdict.max_table < config.num_nodes()) {
    event.trigger_relation =
        schema_.FormatAttributeSet(config.node(verdict.max_table).attrs);
  }
  event.drift = verdict.max_drift;
  STREAMAGG_ASSIGN_OR_RETURN(
      const PlanChange change,
      ChangePlan(queries_,
                 std::make_unique<RelationCatalog>(std::move(next_catalog)),
                 [] {}));
  event.replanned_nodes = change.nodes;
  event.optimize_millis = change.optimize_millis;
  event.merge_millis = change.merge_millis;
  replan_events_.push_back(std::move(event));
  STREAMAGG_TRACE(if (replan_start != 0) {
    // Covers the whole swap: re-estimate, re-optimize, retire-flush + HFTA
    // merge, and runtime rebuild — the replan latency a Chrome trace shows
    // as one block at the epoch boundary.
    FlightRecorder::Instance().RecordSpan(
        TraceEventType::kReplanSwap, replan_start, current_epoch_,
        static_cast<uint32_t>(replan_events_.back().replanned_nodes),
        static_cast<uint32_t>(replan_events_.back().pinned_nodes));
  });
  return Status::OK();
}

Status StreamAggEngine::HandleOverloadBoundary() {
  if (overload_controller_ == nullptr) return Status::OK();
  // CaptureEpochSnapshot already ran (overload forces capture on): the
  // history ends at the epoch whose boundary this is, and a sharded runtime
  // is quiescent behind the capture's Quiesce barrier — both SetShedPlan
  // and ApplyIngestLayout are driver-only operations specified for exactly
  // this point.
  if (overload_controller_->UpdateShedPlan(
          std::span<const TelemetrySnapshot>(telemetry_history_))) {
    STREAMAGG_RETURN_NOT_OK(InstallShedPlan());
  }
  auto* sharded = std::get_if<std::unique_ptr<ShardedRuntime>>(&runtime_);
  if (sharded != nullptr && (*sharded)->num_slots() > 0) {
    ShardedRuntime& runtime = **sharded;
    OverloadController::IngestLayout layout =
        overload_controller_->DecideRebalance(
            std::span<const TelemetrySnapshot>(telemetry_history_),
            runtime.SlotRecords(), runtime.slot_shards(), runtime.num_shards(),
            runtime.num_producers());
    if (layout.changed) {
      STREAMAGG_TRACE(const uint32_t slots =
                          static_cast<uint32_t>(layout.slot_shards.size()));
      STREAMAGG_RETURN_NOT_OK(runtime.ApplyIngestLayout(
          std::move(layout.slot_shards), std::move(layout.stripe_weights)));
      STREAMAGG_TRACE(FlightRecorder::Instance().RecordInstant(
          TraceEventType::kRebalance, current_epoch_, slots));
    }
  }
  return Status::OK();
}

Status StreamAggEngine::Process(const Record& record) {
  return ProcessBatch(std::span<const Record>(&record, 1));
}

Status StreamAggEngine::ProcessBatch(std::span<const Record> records) {
  STREAMAGG_RETURN_NOT_OK(CheckNotFinished("ProcessBatch"));
  // The timestamp contract is checked for the whole batch before any state
  // changes, so a rejected batch leaves the engine exactly as it was.
  double last = last_timestamp_;
  for (size_t i = 0; i < records.size(); ++i) {
    const double t = records[i].timestamp;
    const char* fault = !std::isfinite(t) ? "is not finite"
                        : t < last        ? "is below the last accepted one"
                        : t < 0.0 && options_.epoch_seconds > 0.0
                            ? "is negative while epochs are on"
                            : nullptr;
    if (fault != nullptr) {
      char buffer[128];
      std::snprintf(buffer, sizeof(buffer), "record %zu: timestamp %g %s", i,
                    t, fault);
      return Status::InvalidArgument(buffer);
    }
    last = t;
  }
  if (records.empty()) return Status::OK();
  last_timestamp_ = last;
  // The shared where clause filters records before any table sees them
  // (the F of the LFTA's Filter-Transform-Aggregate); filtered records are
  // also excluded from statistics.
  if (shared_filters_.empty()) return Ingest(records);
  if (records.size() == 1) {
    return PassesFilters(shared_filters_, records[0]) ? Ingest(records)
                                                      : Status::OK();
  }
  return IngestFiltered(records);
}

Status StreamAggEngine::IngestFiltered(std::span<const Record> records) {
  // Filter chunk-wise through a stack buffer so that the batched path
  // stays allocation-free.
  std::array<Record, 256> buffer;
  size_t n = 0;
  for (const Record& record : records) {
    if (!PassesFilters(shared_filters_, record)) continue;
    buffer[n++] = record;
    if (n == buffer.size()) {
      STREAMAGG_RETURN_NOT_OK(
          Ingest(std::span<const Record>(buffer.data(), n)));
      n = 0;
    }
  }
  return n > 0 ? Ingest(std::span<const Record>(buffer.data(), n))
               : Status::OK();
}

Status StreamAggEngine::Ingest(std::span<const Record> records) {
  const auto epoch_of = [this](const Record& r) {
    return static_cast<uint64_t>(
        std::floor(r.timestamp / options_.epoch_seconds));
  };
  while (!records.empty()) {
    if (!planned()) {
      // Sampling: buffer records until the sample is full, then plan and
      // replay it. Track epochs here too, so boundaries line up later.
      const size_t room = std::max<size_t>(
          1, options_.sample_size - std::min(options_.sample_size,
                                             sample_->size()));
      const std::span<const Record> taken =
          records.first(std::min(room, records.size()));
      for (const Record& r : taken) sample_->Append(r);
      if (options_.epoch_seconds > 0.0) current_epoch_ = epoch_of(taken.back());
      saw_record_ = true;
      records = records.subspan(taken.size());
      if (sample_->size() >= options_.sample_size) {
        STREAMAGG_RETURN_NOT_OK(PlanFromSample());
      }
      continue;
    }
    size_t end = records.size();
    if (options_.epoch_seconds > 0.0) {
      const uint64_t epoch = epoch_of(records.front());
      if (saw_record_ && epoch != current_epoch_) {
        // The epoch step. Capture comes first: the history entry shows the
        // completed epoch's tables as the stream left them, before any
        // re-plan or flush. The overload controller goes last, so it judges
        // the runtime that will actually run the next epoch.
        STREAMAGG_TRACE(FlightRecorder::Instance().RecordInstant(
            TraceEventType::kEpochBoundary, current_epoch_,
            static_cast<uint32_t>(epoch)));
        CaptureEpochSnapshot(current_epoch_);
        if (options_.adaptive) STREAMAGG_RETURN_NOT_OK(HandleEpochBoundary());
        STREAMAGG_RETURN_NOT_OK(HandleOverloadBoundary());
      }
      current_epoch_ = epoch;
      // Timestamps are non-decreasing, so the epoch run is a prefix.
      if (records.size() > 1 && epoch_of(records.back()) != epoch) {
        end = static_cast<size_t>(
            std::partition_point(
                records.begin(), records.end(),
                [&](const Record& r) { return epoch_of(r) == epoch; }) -
            records.begin());
      }
    }
    saw_record_ = true;
    // The runtime flushes its own epoch when it sees the boundary timestamp
    // (unless an adaptive re-plan already swapped it above).
    WithRuntime(
        [&](auto& runtime) { runtime.ProcessBatch(records.first(end)); });
    records = records.subspan(end);
  }
  return Status::OK();
}

Status StreamAggEngine::Finish() {
  if (finished_) return Status::OK();
  finished_ = true;
  if (!planned() && sample_ != nullptr && sample_->size() > 0) {
    // Short stream: plan from whatever was collected.
    STREAMAGG_RETURN_NOT_OK(PlanFromSample());
  }
  if (!planned()) return Status::OK();
  // Flush the final epoch (for a sharded runtime: an epoch barrier that
  // drains every queue, flushes every shard and merges their HFTAs), then
  // preserve the final state before teardown so telemetry() keeps answering
  // after the stream ends (streamagg_cli --stats). The snapshot is taken
  // while the runtime still holds its results, so hfta_groups keeps
  // counting them.
  FlushRuntime();
  final_snapshot_ = std::make_unique<TelemetrySnapshot>(telemetry());
  TakeRuntimeResults();
  runtime_ = {};
  return Status::OK();
}

Status StreamAggEngine::CheckNotFinished(const char* call) const {
  if (!finished_) return Status::OK();
  return Status::FailedPrecondition(std::string(call) +
                                    " after Finish(): the stream has ended");
}

Result<int> StreamAggEngine::AddQuery(const std::string& text) {
  STREAMAGG_RETURN_NOT_OK(CheckNotFinished("AddQuery"));
  QueryParseContext context;
  if (!relation_name_.empty()) context.relations.push_back(relation_name_);
  STREAMAGG_ASSIGN_OR_RETURN(ParsedQuery parsed,
                             ParseQuery(schema_, text, context));
  if (parsed.epoch_seconds > 0.0) {
    if (options_.epoch_seconds > 0.0 &&
        parsed.epoch_seconds != options_.epoch_seconds) {
      char buffer[96];
      std::snprintf(buffer, sizeof(buffer),
                    "query epoch %gs disagrees with the engine's %gs",
                    parsed.epoch_seconds, options_.epoch_seconds);
      return Status::InvalidArgument(buffer);
    }
    if (options_.epoch_seconds == 0.0 && (saw_record_ || planned())) {
      return Status::FailedPrecondition(
          "cannot introduce an epoch after records have flowed; the "
          "engine runs epochless");
    }
  }
  if (!(parsed.filters == shared_filters_)) {
    return Status::InvalidArgument(
        "query where clause must equal the engine's shared filter (phantom "
        "sharing requires one record filter upstream of every query)");
  }
  // The query's epoch and relation name become the engine's only once it
  // is registered: a rejected add changes nothing.
  const double epoch_seconds = parsed.epoch_seconds;
  const std::string relation = parsed.relation;
  STREAMAGG_ASSIGN_OR_RETURN(const int id, AddParsedQuery(std::move(parsed)));
  if (options_.epoch_seconds == 0.0) options_.epoch_seconds = epoch_seconds;
  if (relation_name_.empty()) relation_name_ = relation;
  return id;
}

Result<int> StreamAggEngine::AddQuery(QueryDef def) {
  STREAMAGG_RETURN_NOT_OK(CheckNotFinished("AddQuery"));
  if (def.group_by.empty() ||
      !def.group_by.IsSubsetOf(schema_.AllAttributes())) {
    return Status::InvalidArgument("query attributes invalid for schema");
  }
  return AddParsedQuery(SynthesizeParsed(schema_, def));
}

Result<int> StreamAggEngine::AddParsedQuery(ParsedQuery parsed) {
  const QueryDef def = parsed.def;  // parsed is moved below; copy first.
  const auto normalized = [](std::vector<MetricSpec> m) {
    std::sort(m.begin(), m.end());
    m.erase(std::unique(m.begin(), m.end()), m.end());
    return m;
  };
  const std::vector<MetricSpec> want = normalized(def.metrics);
  const int id = num_query_ids();
  QueryChurnEvent event;
  event.epoch = current_epoch_;
  event.query_id = id;
  event.relation = schema_.FormatAttributeSet(def.group_by);
  // A configuration cannot hold the same attribute set twice, so a
  // group-by match with a live query either aliases it (identical metrics
  // — share the slot, zero plan change) or is rejected.
  for (size_t d = 0; d < queries_.size(); ++d) {
    if (!(queries_[d].group_by == def.group_by)) continue;
    if (normalized(queries_[d].metrics) != want) {
      return Status::InvalidArgument(
          "query groups by " + schema_.FormatAttributeSet(def.group_by) +
          " like a live query but asks for different metrics; drop the "
          "existing query first");
    }
    handles_.push_back(QueryHandle{static_cast<int>(d), current_epoch_, 0});
    ++dense_refcount_[d];
    parsed_.push_back(std::move(parsed));
    event.aliased = true;
    RecordChurnEvent(std::move(event));
    return id;
  }
  // Gives the newcomer its own dense slot, empty in the accumulated HFTA.
  const auto append_slot = [&]() {
    handles_.push_back(
        QueryHandle{static_cast<int>(queries_.size()), current_epoch_, 0});
    queries_.push_back(def);
    dense_refcount_.push_back(1);
    parsed_.push_back(std::move(parsed));
    std::vector<int> source(queries_.size());
    std::iota(source.begin(), source.end(), 0);
    source.back() = -1;
    RemapAccumulatedHfta(source);
  };
  if (!planned()) {
    // Sampling phase: structural append — the newcomer joins the initial
    // optimization (and sees the whole buffered sample on replay).
    append_slot();
    RecordChurnEvent(std::move(event));
    return id;
  }
  // The epoch in flight is flushed for the pre-existing queries; the
  // newcomer accumulates from the swap onward.
  std::vector<QueryDef> next = queries_;
  next.push_back(def);
  STREAMAGG_ASSIGN_OR_RETURN(const PlanChange change,
                             ChangePlan(next, nullptr, append_slot));
  event.replanned_nodes = change.nodes;
  event.optimize_millis = change.optimize_millis;
  event.merge_millis = change.merge_millis;
  RecordChurnEvent(std::move(event));
  return id;
}

Status StreamAggEngine::DropQuery(int query_id) {
  STREAMAGG_RETURN_NOT_OK(CheckNotFinished("DropQuery"));
  if (query_id < 0 || query_id >= num_query_ids()) {
    return Status::InvalidArgument("unknown query id " +
                                   std::to_string(query_id));
  }
  QueryHandle& handle = handles_[static_cast<size_t>(query_id)];
  if (handle.dense < 0) {
    return Status::FailedPrecondition(
        "query id " + std::to_string(query_id) + " was already dropped");
  }
  int live = 0;
  for (const QueryHandle& h : handles_) {
    if (h.dense >= 0) ++live;
  }
  if (live <= 1) {
    return Status::FailedPrecondition(
        "cannot drop the last live query; an engine cannot run queryless");
  }
  const int dense = handle.dense;
  QueryChurnEvent event;
  event.epoch = current_epoch_;
  event.add = false;
  event.query_id = query_id;
  event.relation = schema_.FormatAttributeSet(queries_[dense].group_by);

  if (dense_refcount_[static_cast<size_t>(dense)] > 1) {
    // Alias release: the dense slot lives on for the other ids, so the
    // plan is untouched. Archive from a read-only barrier view — flush the
    // epoch in flight into the live HFTA, but do NOT fold it into the
    // accumulated results (that happens when the runtime retires).
    Timer timer;
    FlushRuntime();
    ArchiveQuery(query_id, dense, /*include_live=*/true);
    event.merge_millis = timer.ElapsedMillis();
    event.aliased = true;
    --dense_refcount_[static_cast<size_t>(dense)];
    handle.dense = -1;
    handle.dropped_epoch = current_epoch_;
    RecordChurnEvent(std::move(event));
    return Status::OK();
  }

  // Once the barrier has run, the accumulated HFTA holds everything up to
  // the drop: archive the slot, then erase it and shift every handle above
  // it down. In the sampling phase no plan exists yet, so this is all.
  const auto remove_slot = [&]() {
    ArchiveQuery(query_id, dense, /*include_live=*/false);
    queries_.erase(queries_.begin() + dense);
    dense_refcount_.erase(dense_refcount_.begin() + dense);
    for (QueryHandle& h : handles_) {
      if (h.dense > dense) --h.dense;
    }
    std::vector<int> source(queries_.size());
    for (size_t i = 0; i < source.size(); ++i) {
      source[i] = static_cast<int>(i) < dense ? static_cast<int>(i)
                                              : static_cast<int>(i) + 1;
    }
    RemapAccumulatedHfta(source);
    handle.dense = -1;
    handle.dropped_epoch = current_epoch_;
  };
  if (!planned()) {
    remove_slot();
  } else {
    std::vector<QueryDef> rest = queries_;
    rest.erase(rest.begin() + dense);
    STREAMAGG_ASSIGN_OR_RETURN(const PlanChange change,
                               ChangePlan(rest, nullptr, remove_slot));
    event.replanned_nodes = change.nodes;
    event.optimize_millis = change.optimize_millis;
    event.merge_millis = change.merge_millis;
  }
  RecordChurnEvent(std::move(event));
  return Status::OK();
}

Result<StreamAggEngine::PlanChange> StreamAggEngine::ChangePlan(
    const std::vector<QueryDef>& queries,
    std::unique_ptr<RelationCatalog> catalog,
    const std::function<void()>& edit_slots) {
  const RelationCatalog* stats =
      catalog != nullptr ? catalog.get() : catalog_.get();
  if (stats == nullptr) {
    return Status::FailedPrecondition(
        "a live plan change needs statistics; give the pinned-plan engine "
        "catalog counts or let the engine sample first");
  }
  // Optimize is pure: a failure here leaves the engine exactly as it was.
  STREAMAGG_ASSIGN_OR_RETURN(
      OptimizedPlan plan,
      optimizer_.Optimize(*stats, queries, PlanningBudget()));
  PlanChange change;
  change.optimize_millis = plan.optimize_millis;
  change.nodes = plan.config.num_nodes();
  change.merge_millis = PlanChangeBarrier();
  edit_slots();
  if (catalog != nullptr) catalog_ = std::move(catalog);
  last_optimize_millis_ = plan.optimize_millis;
  plan_ = std::make_unique<OptimizedPlan>(std::move(plan));
  STREAMAGG_RETURN_NOT_OK(InstallRuntime());
  return change;
}

double StreamAggEngine::PlanChangeBarrier() {
  Timer timer;
  FlushRuntime();
  TakeRuntimeResults();
  return timer.ElapsedMillis();
}

void StreamAggEngine::FlushRuntime() {
  // A sharded flush barrier drains the P x S matrix and parks the workers,
  // then evicts every shard table into the merged HFTA.
  if (planned()) WithRuntime([](auto& runtime) { runtime.FlushEpoch(); });
}

void StreamAggEngine::TakeRuntimeResults() {
  if (!planned()) return;
  accumulated_hfta_->MergeFrom(
      WithRuntime([](auto& runtime) { return runtime.TakeHfta(); }));
  // Fold in only the counter growth since the last call: repeated calls
  // (or calls at unexpected points, e.g. a failed re-plan mid-swap) can
  // never double-count. InstallRuntime zeroes the baseline alongside the
  // fresh runtime's counters.
  const RuntimeCounters& live =
      WithRuntime([](auto& runtime) -> const RuntimeCounters& {
        return runtime.counters();
      });
  total_counters_.Add(live.Since(live_counter_baseline_));
  live_counter_baseline_ = live;
}

void StreamAggEngine::ArchiveQuery(int query_id, int dense,
                                   bool include_live) {
  if (!include_live) {
    // The slot is about to be remapped away: its results move, uncopied.
    retired_[query_id] = accumulated_hfta_->TakeQuery(dense);
    return;
  }
  // Alias release: the slot lives on for the other ids, so the archive is
  // a copy of the accumulated and live results.
  std::map<uint64_t, EpochAggregate> archive;
  for (uint64_t e : accumulated_hfta_->Epochs(dense)) {
    archive[e] = accumulated_hfta_->Result(dense, e);
  }
  if (planned()) {
    const Hfta& live = WithRuntime(
        [](auto& runtime) -> const Hfta& { return runtime.hfta(); });
    for (uint64_t e : live.Epochs(dense)) {
      EpochAggregate& into = archive[e];
      for (const auto& [key, state] : live.Result(dense, e)) {
        auto [it, inserted] = into.try_emplace(key, state);
        if (!inserted) {
          it->second.Merge(state,
                           queries_[static_cast<size_t>(dense)].metrics);
        }
      }
    }
  }
  retired_[query_id] = std::move(archive);
}

void StreamAggEngine::RemapAccumulatedHfta(const std::vector<int>& source) {
  std::vector<std::vector<MetricSpec>> metrics;
  metrics.reserve(queries_.size());
  for (const QueryDef& q : queries_) metrics.push_back(q.metrics);
  // Also nulls the HFTA's Add target cache: a stale cache would keep
  // accumulating a dropped query's groups.
  accumulated_hfta_->Remap(std::move(metrics), source);
}

void StreamAggEngine::RecordChurnEvent(QueryChurnEvent event) {
  STREAMAGG_TRACE(FlightRecorder::Instance().RecordInstant(
      TraceEventType::kQueryChurn, event.epoch, event.add ? 1u : 0u,
      static_cast<uint32_t>(event.query_id), event.grafted ? 1u : 0u));
  churn_events_.push_back(std::move(event));
}

std::string StreamAggEngine::ConfigurationText() const {
  return plan_ != nullptr ? plan_->config.ToString() : std::string();
}

const EpochAggregate& StreamAggEngine::EpochResult(int query_index,
                                              uint64_t epoch) const {
  // query_index is a stable id; translate to the dense slot the plan and
  // HFTA hold. Dropped ids serve their archived results.
  if (query_index < 0 || query_index >= num_query_ids()) {
    return empty_aggregate_;
  }
  const int dense = handles_[static_cast<size_t>(query_index)].dense;
  if (dense < 0) {
    auto rid = retired_.find(query_index);
    if (rid == retired_.end()) return empty_aggregate_;
    auto it = rid->second.find(epoch);
    return it == rid->second.end() ? empty_aggregate_ : it->second;
  }
  if (planned()) {
    // A sharded runtime answers from the merged snapshot of its last epoch
    // barrier; mid-stream results become visible there (docs/runtime.md).
    const EpochAggregate& live = WithRuntime(
        [&](auto& runtime) -> const EpochAggregate& {
          return runtime.hfta().Result(dense, epoch);
        });
    if (!live.empty()) return live;
  }
  return accumulated_hfta_->Result(dense, epoch);
}

std::vector<uint64_t> StreamAggEngine::Epochs(int query_index) const {
  std::set<uint64_t> epochs;
  if (query_index < 0 || query_index >= num_query_ids()) return {};
  const int dense = handles_[static_cast<size_t>(query_index)].dense;
  if (dense < 0) {
    auto rid = retired_.find(query_index);
    if (rid != retired_.end()) {
      for (const auto& [e, agg] : rid->second) epochs.insert(e);
    }
    return std::vector<uint64_t>(epochs.begin(), epochs.end());
  }
  if (planned()) {
    WithRuntime([&](auto& runtime) {
      for (uint64_t e : runtime.hfta().Epochs(dense)) epochs.insert(e);
    });
  }
  for (uint64_t e : accumulated_hfta_->Epochs(dense)) epochs.insert(e);
  return std::vector<uint64_t>(epochs.begin(), epochs.end());
}

RuntimeCounters StreamAggEngine::counters() const {
  // total_counters_ may already include part of the live runtime's history
  // (any TakeRuntimeResults since its install); add only the remainder.
  // A sharded runtime's counters are a barrier snapshot: race-free, but
  // only as fresh as the last barrier.
  RuntimeCounters total = total_counters_;
  if (planned()) {
    WithRuntime([&](auto& runtime) {
      total.Add(runtime.counters().Since(live_counter_baseline_));
    });
  }
  return total;
}

TelemetrySnapshot StreamAggEngine::telemetry() const {
  if (!planned()) {
    // Still sampling (nothing to report yet), or finished.
    return final_snapshot_ != nullptr ? *final_snapshot_ : TelemetrySnapshot{};
  }
  TelemetrySnapshot snapshot = WithRuntime(
      [&](auto& runtime) { return BuildTelemetrySnapshot(runtime, schema_); });
  AnnotateSnapshot(&snapshot);
  return snapshot;
}

void StreamAggEngine::AnnotateSnapshot(TelemetrySnapshot* snapshot) const {
  snapshot->counters = counters();
  snapshot->reoptimizations = reoptimizations();
  snapshot->epoch = current_epoch_;
  snapshot->replans = replan_events_;
  snapshot->query_churn = churn_events_;
  for (size_t i = 0;
       i < snapshot->tables.size() && i < planned_rates_.size(); ++i) {
    snapshot->tables[i].predicted_collision_rate = planned_rates_[i];
  }
  if (overload_controller_ != nullptr) {
    SheddingTelemetry& shed = snapshot->shedding;
    shed.enabled = true;
    shed.target_fraction = overload_controller_->target_fraction();
    // counters() is swap-accumulated, so both tallies are lifetime-exact:
    // shed_fraction here is the realized drop rate, not the plan's target.
    shed.offered_records = snapshot->counters.records;
    shed.shed_probes = snapshot->counters.shed_probes;
    const std::vector<OverloadController::RelationPrice>& prices =
        overload_controller_->prices();
    const ShedPlan& shed_plan = overload_controller_->shed_plan();
    // The live runtime's raw relations are its snapshot's root tables.
    const size_t live_raw = static_cast<size_t>(
        std::count_if(snapshot->tables.begin(), snapshot->tables.end(),
                      [](const TableTelemetry& t) { return t.parent < 0; }));
    shed.relations.clear();
    shed.relations.reserve(prices.size());
    for (size_t i = 0; i < prices.size(); ++i) {
      SheddingRelationTelemetry relation;
      relation.relation = prices[i].relation;
      relation.price = prices[i].cycles_per_record;
      relation.shed_fraction =
          i < shed_plan.numerators.size()
              ? static_cast<double>(shed_plan.numerators[i]) /
                    static_cast<double>(ShedPlan::kDenominator)
              : 0.0;
      // Per-relation drop counts are the live runtime's (they reset at a
      // swap; the lifetime total above never does).
      if (i < live_raw) {
        relation.shed_records = WithRuntime([&](auto& runtime) {
          return runtime.shed_count(static_cast<int>(i));
        });
      }
      shed.relations.push_back(std::move(relation));
    }
    shed.shed_fraction =
        shed.offered_records == 0 || prices.empty()
            ? 0.0
            : static_cast<double>(shed.shed_probes) /
                  (static_cast<double>(shed.offered_records) *
                   static_cast<double>(prices.size()));
    shed.accuracy_loss = overload_controller_->accuracy_loss();
    shed.cycles_saved_per_record =
        overload_controller_->cycles_saved_per_record();
    shed.rebalances =
        static_cast<uint64_t>(overload_controller_->rebalances());
  }
}

void StreamAggEngine::CaptureEpochSnapshot(uint64_t completed_epoch) {
  // Adaptive and overload engines always capture: their epoch-boundary
  // judgments read the history.
  if (!options_.telemetry_epoch_snapshots && !options_.adaptive &&
      !options_.overload.enabled) {
    return;
  }
  // A sharded snapshot mid-stream would race the workers, so quiesce first:
  // the barrier drains every queue of the P x S matrix and leaves the
  // workers parked — reading their tables (and the merged HFTA/counters) is
  // then race-free. Quiesce, not FlushEpoch: the snapshot shows the
  // completed epoch's tables as the stream left them (occupancy is the
  // adaptive path's group-count signal), matching the serial engine's
  // pre-flush capture. The epoch flush itself happens as usual — workers
  // flush when they see the next epoch's timestamps, and the multi-producer
  // driver inserts its boundary barrier on the next dispatch.
  if (auto* sharded = std::get_if<std::unique_ptr<ShardedRuntime>>(&runtime_)) {
    (*sharded)->Quiesce();
  }
  TelemetrySnapshot snapshot = telemetry();
  snapshot.epoch = completed_epoch;
  telemetry_history_.push_back(std::move(snapshot));
  // The adaptive trend window and the overload controller's pressure
  // window each need trend_epochs observations plus the preceding snapshot
  // for the oldest delta.
  const auto window = [](bool on, int trend_epochs) {
    return on ? static_cast<size_t>(std::max(1, trend_epochs)) + 1 : 0;
  };
  const size_t limit = std::max(
      {options_.telemetry_history_cap,
       window(options_.adaptive, options_.adaptive_options.trend_epochs),
       window(options_.overload.enabled, options_.overload.trend_epochs)});
  while (telemetry_history_.size() > limit) {
    telemetry_history_.erase(telemetry_history_.begin());
  }
}

}  // namespace streamagg
